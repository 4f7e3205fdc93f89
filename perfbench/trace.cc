#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "analysis/certificate.h"
#include "analysis/plan_verifier.h"
#include "optimizer/planner.h"
#include "optimizer/rewriter.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace softdb::perfbench {

void Tracer::Span(std::uint64_t stmt, const char* name, const char* parent,
                  Clock::time_point start, Clock::time_point end) {
  spans_.push_back({stmt, name, parent, MicrosBetween(origin_, start),
                    MicrosBetween(origin_, end)});
}

double Tracer::MedianOf(const std::string& series) const {
  const auto it = samples_.find(series);
  return it == samples_.end() ? 0 : Median(it->second);
}

double Tracer::MeanOf(const std::string& series) const {
  const auto it = samples_.find(series);
  if (it == samples_.end() || it->second.empty()) return 0;
  double sum = 0;
  for (double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

void Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"stmt\": %llu, \"name\": \"%s\", \"parent\": \"%s\", "
                 "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                 static_cast<unsigned long long>(s.stmt), s.name, s.parent,
                 s.start_us, s.end_us);
  }
  std::fclose(f);
}

namespace {

/// Checks every certificate with the independent checker; returns the
/// number of kInvalid verdicts.
std::uint64_t CheckCertificates(SoftDb* db,
                                const std::vector<RewriteCertificate>& certs) {
  if (certs.empty()) return 0;
  const CertificateChecker checker(&db->catalog(), &db->ics(), &db->scs());
  std::uint64_t invalid = 0;
  for (const RewriteCertificate& cert : certs) {
    if (checker.Check(cert).verdict == CertificateVerdict::kInvalid) {
      ++invalid;
    }
  }
  return invalid;
}

/// The phase-by-phase path of one SELECT. The engine's own rewriter and
/// planner verify internally after each phase; here that is switched off
/// in their contexts and the same checks run from this file, so that
/// verification gets a span of its own.
Result<RowSet> SelectByPhase(SoftDb* db, const std::string& sql,
                             Tracer* tracer, std::uint64_t stmt,
                             double* phases_us, std::uint64_t* invalid) {
  double parse = 0, bind = 0, verify = 0, rewrite = 0, certify = 0,
         physical = 0, run = 0;
  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b,
                  double* sum) {
    tracer->Span(stmt, name, "statement", a, b);
    *sum += MicrosBetween(a, b);
  };
  Clock::time_point t = Clock::now();
  SOFTDB_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(sql));
  if (parsed.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("traced path takes SELECT only: " + sql);
  }
  Clock::time_point u = Clock::now();
  span("sql.parse", t, u, &parse);

  t = Clock::now();
  Binder binder(&db->catalog());
  SOFTDB_ASSIGN_OR_RETURN(PlanPtr bound, binder.BindSelect(*parsed.select));
  u = Clock::now();
  span("sql.bind", t, u, &bind);

  OptimizerContext backup_ctx = db->MakeContext();
  backup_ctx.scs = nullptr;
  backup_ctx.enable_exception_asts = false;
  backup_ctx.verify_plans = false;
  OptimizerContext ctx = db->MakeContext();
  ctx.verify_plans = false;
  const PlanVerifier verifier(
      {&db->catalog(), &db->mvs(), &ctx.exception_asts});

  t = Clock::now();
  SOFTDB_RETURN_IF_ERROR(verifier.VerifyLogical(*bound, "bind"));
  u = Clock::now();
  span("analysis.verify", t, u, &verify);

  t = Clock::now();
  Rewriter backup_rewriter(&backup_ctx);
  SOFTDB_ASSIGN_OR_RETURN(PlanPtr backup,
                          backup_rewriter.Rewrite(bound->Clone()));
  Rewriter rewriter(&ctx);
  SOFTDB_ASSIGN_OR_RETURN(PlanPtr primary, rewriter.Rewrite(std::move(bound)));
  u = Clock::now();
  span("optimizer.rewrite", t, u, &rewrite);

  t = Clock::now();
  SOFTDB_RETURN_IF_ERROR(verifier.VerifyLogical(*backup, "rewrite"));
  SOFTDB_RETURN_IF_ERROR(verifier.VerifyLogical(*primary, "rewrite"));
  u = Clock::now();
  span("analysis.verify", t, u, &verify);

  t = Clock::now();
  *invalid += CheckCertificates(db, ctx.certificates);
  *invalid += CheckCertificates(db, backup_ctx.certificates);
  u = Clock::now();
  span("analysis.certify", t, u, &certify);

  t = Clock::now();
  OptimizerContext plan_ctx = db->MakeContext();
  plan_ctx.verify_plans = false;
  const CardinalityEstimator estimator = db->MakeEstimator();
  const PhysicalPlanner planner(&plan_ctx, &estimator);
  SOFTDB_ASSIGN_OR_RETURN(OperatorPtr root, planner.Plan(*primary));
  u = Clock::now();
  span("optimizer.physical_plan", t, u, &physical);

  t = Clock::now();
  SOFTDB_RETURN_IF_ERROR(verifier.VerifyPhysical(*root, "physical-planning"));
  u = Clock::now();
  span("analysis.verify", t, u, &verify);

  t = Clock::now();
  *invalid += CheckCertificates(db, plan_ctx.certificates);
  u = Clock::now();
  span("analysis.certify", t, u, &certify);

  t = Clock::now();
  ExecContext exec_ctx;
  exec_ctx.use_kernels = db->options().use_kernels;
  SOFTDB_ASSIGN_OR_RETURN(RowSet rows,
                          ExecuteToCompletion(root.get(), &exec_ctx));
  u = Clock::now();
  span("exec.run", t, u, &run);

  tracer->Sample("sql.parse_us", parse);
  tracer->Sample("sql.bind_us", bind);
  tracer->Sample("analysis.verify_us", verify);
  tracer->Sample("optimizer.rewrite_us", rewrite);
  tracer->Sample("analysis.certify_us", certify);
  tracer->Sample("optimizer.physical_plan_us", physical);
  tracer->Sample("exec.run_us", run);
  *phases_us = parse + bind + verify + rewrite + certify + physical + run;
  return rows;
}

}  // namespace

Result<QueryResult> TraceSelect(SoftDb* db, const std::string& sql,
                                Tracer* tracer, ExecTotals* totals,
                                Report* report) {
  const std::uint64_t stmt = tracer->NextStatement();
  const Clock::time_point t0 = Clock::now();
  double phases_us = 0;
  std::uint64_t invalid = 0;
  Result<RowSet> phased =
      SelectByPhase(db, sql, tracer, stmt, &phases_us, &invalid);
  const Clock::time_point t1 = Clock::now();
  tracer->Span(stmt, "statement.phases", "", t0, t1);
  tracer->Sample("analysis.certificates_invalid", static_cast<double>(invalid));

  const Clock::time_point e0 = Clock::now();
  Result<QueryResult> executed = db->Execute(sql);
  const Clock::time_point e1 = Clock::now();
  tracer->Span(stmt, "engine.execute", "", e0, e1);
  if (!phased.ok() || !executed.ok()) {
    report->Fail("traced statement failed: " + sql + ": " +
                 (phased.ok() ? executed.status() : phased.status())
                     .ToString());
    return executed;
  }
  const double execute_us = MicrosBetween(e0, e1);
  tracer->Sample("engine.execute_us", execute_us);
  if (!executed->from_plan_cache) {
    tracer->Sample("engine.glue_us", execute_us - phases_us);
  }
  if (Summarize(*phased) != Summarize(executed->rows)) {
    report->Fail("phase-by-phase answer differs from Execute: " + sql);
  }
  const double actual = std::max(1.0, static_cast<double>(
                                          executed->rows.NumRows()));
  const double estimate = std::max(1.0, executed->estimated_rows);
  tracer->Sample("optimizer.q_error",
                 std::max(actual / estimate, estimate / actual));
  totals->Add(executed->exec_stats);
  return executed;
}

void AddSelectLayerMetrics(const Tracer& tracer, const ExecTotals& totals,
                           const PlanCache& cache, std::uint64_t hits,
                           std::uint64_t misses, std::uint64_t invalidations,
                           Report* report) {
  for (const char* series :
       {"sql.parse_us", "sql.bind_us", "optimizer.rewrite_us",
        "optimizer.physical_plan_us", "analysis.verify_us",
        "analysis.certify_us", "exec.run_us", "engine.execute_us",
        "engine.glue_us"}) {
    report->Add(series, tracer.MedianOf(series), "us");
  }
  report->Add("optimizer.q_error_p50", tracer.MedianOf("optimizer.q_error"),
              "ratio");
  const double selects = std::max<double>(1, static_cast<double>(totals.selects));
  report->Add("analysis.certificates_invalid_per_stmt",
              tracer.MeanOf("analysis.certificates_invalid"), "count");
  report->Add("exec.rows_scanned_per_stmt",
              static_cast<double>(totals.rows_scanned) / selects, "rows");
  report->Add("exec.index_lookups_per_stmt",
              static_cast<double>(totals.index_lookups) / selects, "count");
  report->Add("exec.blocks_skipped_ratio",
              totals.blocks_total == 0
                  ? 0
                  : static_cast<double>(totals.blocks_skipped) /
                        static_cast<double>(totals.blocks_total),
              "ratio");
  report->Add("optimizer.plan_cache_hit_ratio",
              hits + misses == 0
                  ? 0
                  : static_cast<double>(hits) /
                        static_cast<double>(hits + misses),
              "ratio");
  report->Add("optimizer.plan_cache_entries",
              static_cast<double>(cache.size()), "count");
  report->Add("optimizer.plan_cache_invalidations",
              static_cast<double>(invalidations), "count");
}

}  // namespace softdb::perfbench
