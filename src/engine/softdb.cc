#include "engine/softdb.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <shared_mutex>

#include "analysis/impact.h"
#include "analysis/plan_verifier.h"
#include "common/str_util.h"
#include "exec/scheduler.h"
#include "constraints/column_offset_sc.h"
#include "constraints/predicate_sc.h"
#include "constraints/zone_map_sc.h"
#include "optimizer/planner.h"
#include "optimizer/rewriter.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/recovery.h"

namespace softdb {

SoftDb::SoftDb(EngineOptions options) : options_(options) {
  // §4.1: overturned SCs invalidate dependent packages, which revert to
  // their ASC-free backup plans.
  scs_.SetViolationListener([this](const SoftConstraint& sc) {
    plan_cache_.OnScViolated(sc.name());
  });
  if (!options_.wal_dir.empty()) {
    // A directory already holding a log (or checkpoint) is a crashed
    // engine's durable state: opening a fresh writer over it would orphan
    // that state, so refuse and point at Recover. The failure is deferred
    // (WalReady) so construction itself stays noexcept-ish.
    Result<std::vector<std::uint64_t>> seqs =
        ListWalSegments(options_.wal_dir);
    std::error_code ec;
    const bool has_checkpoint =
        std::filesystem::exists(CheckpointPath(options_.wal_dir), ec);
    if (!seqs.ok()) {
      wal_error_ = seqs.status();
    } else if (!seqs->empty() || has_checkpoint) {
      wal_error_ = Status::InvalidArgument(
          options_.wal_dir +
          " holds an existing log; recover it with SoftDb::Recover");
    } else {
      const std::size_t sync_every_n =
          options_.wal_sync_every_n == 0 ? 1 : options_.wal_sync_every_n;
      Result<std::unique_ptr<DurabilityManager>> wal =
          DurabilityManager::Open(options_.wal_dir, 1, sync_every_n);
      if (!wal.ok()) {
        wal_error_ = wal.status();
      } else {
        wal_ = std::move(*wal);
        scs_.SetWalLog(wal_.get());
      }
    }
  }
  if (options_.enable_repair_worker) StartRepairWorker();
}

SoftDb::~SoftDb() { StopRepairWorker(); }

void SoftDb::StartRepairWorker(RepairWorker::Options worker_options) {
  if (repair_worker_ != nullptr && repair_worker_->running()) return;
  repair_worker_ = std::make_unique<RepairWorker>(
      &scs_, &catalog_, worker_options, [this] { RearmActivePlans(); });
  repair_worker_->Start();
}

void SoftDb::StopRepairWorker() {
  if (repair_worker_ != nullptr) repair_worker_->Stop();
}

OptimizerContext SoftDb::MakeContext() {
  OptimizerContext ctx;
  ctx.catalog = &catalog_;
  ctx.stats = &stats_;
  ctx.ics = &ics_;
  ctx.scs = &scs_;
  ctx.mvs = &mvs_;
  ctx.exception_asts = exception_asts_;
  ctx.enable_predicate_introduction = options_.enable_predicate_introduction;
  ctx.enable_twinning = options_.enable_twinning;
  ctx.enable_join_elimination = options_.enable_join_elimination;
  ctx.enable_fd_pruning = options_.enable_fd_pruning;
  ctx.enable_hole_trimming = options_.enable_hole_trimming;
  ctx.enable_domain_rules = options_.enable_domain_rules;
  ctx.enable_unionall_pruning = options_.enable_unionall_pruning;
  ctx.enable_exception_asts = options_.enable_exception_asts;
  ctx.enable_implication = options_.enable_implication;
  ctx.use_twins_in_estimation = options_.use_twins_in_estimation;
  ctx.enable_zone_maps = options_.enable_zone_maps;
  ctx.prefer_sort_merge_join = options_.prefer_sort_merge_join;
  ctx.enable_runtime_parameterization =
      options_.enable_runtime_parameterization;
  ctx.use_vectorized = options_.use_vectorized;
  ctx.verify_plans = options_.verify_plans;
  ctx.num_threads = options_.num_threads;
  ctx.parallel_morsel_rows = options_.parallel_morsel_rows;
  return ctx;
}

TaskScheduler* SoftDb::scheduler() {
  std::lock_guard<std::mutex> lk(scheduler_mu_);
  if (options_.num_threads <= 1) return nullptr;
  if (scheduler_ == nullptr ||
      scheduler_->num_threads() != options_.num_threads) {
    scheduler_ = std::make_unique<TaskScheduler>(options_.num_threads);
  }
  return scheduler_.get();
}

CardinalityEstimator SoftDb::MakeEstimator() const {
  EstimatorOptions opts;
  opts.use_twinned_predicates = options_.use_twins_in_estimation;
  return CardinalityEstimator(&catalog_, &stats_, opts,
                              options_.use_twins_in_estimation ? &scs_
                                                               : nullptr);
}

Status SoftDb::InsertRow(const std::string& table_name,
                         const std::vector<Value>& values,
                         const std::set<std::string>* sc_scope) {
  std::unique_lock<RwLock> lock(engine_mu_);
  return InsertRowLocked(table_name, values, sc_scope);
}

Status SoftDb::InsertRowLocked(const std::string& table_name,
                               const std::vector<Value>& values,
                               const std::set<std::string>* sc_scope) {
  SOFTDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(table_name));
  // Coerce values to the column types (int literals into DATE columns,
  // ints into DOUBLE, ...).
  std::vector<Value> row = values;
  const Schema& schema = table->schema();
  if (row.size() != schema.NumColumns()) {
    return Status::InvalidArgument(
        StrFormat("insert into %s: expected %zu values, got %zu",
                  table_name.c_str(), schema.NumColumns(), row.size()));
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null() || row[i].type() == schema.Column(i).type) continue;
    if (row[i].type() != TypeId::kString &&
        schema.Column(i).type != TypeId::kString) {
      SOFTDB_ASSIGN_OR_RETURN(row[i], row[i].CastTo(schema.Column(i).type));
    }
  }

  // Integrity enforcement: a violating insert aborts (hard constraints).
  SOFTDB_RETURN_IF_ERROR(ics_.CheckInsert(catalog_, table->name(), row));

  SOFTDB_ASSIGN_OR_RETURN(RowId rid, table->Append(row));
  catalog_.NotifyInsert(table, rid);
  ics_.AfterInsert(table->name(), row);

  // Soft-constraint maintenance never aborts the transaction — the SC is
  // the thing at risk, not the data (§2).
  SOFTDB_RETURN_IF_ERROR(scs_.OnInsert(catalog_, table->name(), row,
                                       sc_scope));
  // Positional SCs (zone maps) fold against the appended slot id: a widen
  // never bumps the epoch, so in-flight skip sets stay sound.
  SOFTDB_RETURN_IF_ERROR(scs_.OnRowAppended(catalog_, table->name(), rid,
                                            row));
  SOFTDB_RETURN_IF_ERROR(mvs_.OnBaseInsert(table->name(), row));
  // Apply-first, then log (see storage/recovery.h): the coerced row image
  // is what replay feeds back through this same pipeline.
  if (wal_ != nullptr && !recovering_) {
    SOFTDB_RETURN_IF_ERROR(wal_->LogInsert(table->name(), row));
  }
  return Status::OK();
}

Result<MaterializedView*> SoftDb::CreateExceptionAst(
    const std::string& sc_name) {
  SoftConstraint* sc = scs_.Find(sc_name);
  if (sc == nullptr) return Status::NotFound("no such SC: " + sc_name);
  SOFTDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(sc->table()));
  const Schema& schema = table->schema();

  ExprPtr violation;
  if (auto* offset = dynamic_cast<ColumnOffsetSc*>(sc)) {
    auto col = [&](ColumnIdx i) {
      return std::make_unique<ColumnRefExpr>(
          schema.Column(i).QualifiedName(), i, schema.Column(i).type);
    };
    auto diff_lo = std::make_unique<ArithmeticExpr>(
        ArithOp::kSub, col(offset->col_y()), col(offset->col_x()));
    SOFTDB_RETURN_IF_ERROR(diff_lo->Bind(schema));
    auto diff_hi = diff_lo->Clone();
    const auto [min_offset, max_offset] = offset->offset_range();
    std::vector<ExprPtr> branches;
    branches.push_back(MakeCompare(CompareOp::kLt, std::move(diff_lo),
                                   MakeLiteral(Value::Int64(min_offset))));
    branches.push_back(MakeCompare(CompareOp::kGt, std::move(diff_hi),
                                   MakeLiteral(Value::Int64(max_offset))));
    violation = MakeOr(std::move(branches));
    SOFTDB_RETURN_IF_ERROR(violation->Bind(schema));
  } else if (auto* pred = dynamic_cast<PredicateSc*>(sc)) {
    violation = std::make_unique<NotExpr>(pred->expr().Clone());
  } else {
    return Status::InvalidArgument(
        "exception ASTs support offset and predicate SCs only");
  }

  const std::string view_name = "exc_" + sc_name;
  SOFTDB_ASSIGN_OR_RETURN(
      MaterializedView * view,
      mvs_.Define(view_name, sc->table(), std::move(violation), catalog_));
  exception_asts_[sc_name] = view_name;
  if (wal_ != nullptr && !recovering_) {
    SOFTDB_RETURN_IF_ERROR(wal_->LogExceptionAst(sc_name));
  }
  return view;
}

Status SoftDb::Analyze(const std::string& table) {
  if (!table.empty()) {
    SOFTDB_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
    stats_.Analyze(*t);
    return Status::OK();
  }
  for (const std::string& name : catalog_.TableNames()) {
    SOFTDB_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(name));
    stats_.Analyze(*t);
  }
  return Status::OK();
}

Status SoftDb::MineZoneMaps(const std::string& table_name) {
  SOFTDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(table_name));
  const Schema& schema = table->schema();
  for (std::size_t c = 0; c < schema.NumColumns(); ++c) {
    const TypeId type = schema.Column(c).type;
    if (type != TypeId::kInt64 && type != TypeId::kDouble &&
        type != TypeId::kDate && type != TypeId::kBool) {
      continue;
    }
    const std::string name = StrFormat("zm_%s_%s", table->name().c_str(),
                                       schema.Column(c).name.c_str());
    if (scs_.Find(name) != nullptr) continue;  // Re-tighten via RepairFull.
    auto zm = std::make_unique<ZoneMapSc>(name, table->name(),
                                          static_cast<ColumnIdx>(c));
    SOFTDB_RETURN_IF_ERROR(zm->Mine(catalog_));
    SOFTDB_RETURN_IF_ERROR(scs_.Add(std::move(zm), catalog_,
                                    /*verify_now=*/true));
  }
  return Status::OK();
}

Status SoftDb::RunMaintenance() {
  std::unique_lock<RwLock> lock(engine_mu_);
  SOFTDB_RETURN_IF_ERROR(scs_.RunRepairQueue(catalog_));
  RearmActivePlans();
  return Status::OK();
}

void SoftDb::RearmActivePlans() {
  ScEpochSnapshot active;
  for (const SoftConstraint* sc : scs_.All()) {
    if (sc->active()) active.emplace_back(sc->name(), sc->epoch());
  }
  // Epoch-aware re-arm: the repaired SCs become the re-armed packages' new
  // epoch baseline, so hit-time staleness checks accept the repair.
  plan_cache_.Rearm(active);
}

SoftDb::ScEpochSnapshot SoftDb::SnapshotScEpochs(
    const std::vector<std::string>& names) {
  ScEpochSnapshot snapshot;
  for (const std::string& name : names) {
    const auto seen = [&](const auto& entry) { return entry.first == name; };
    if (std::any_of(snapshot.begin(), snapshot.end(), seen)) continue;
    if (const SoftConstraint* sc = scs_.Find(name)) {
      snapshot.emplace_back(name, sc->epoch());
    }
  }
  return snapshot;
}

bool SoftDb::ScEpochsChanged(const ScEpochSnapshot& snapshot) {
  for (const auto& [name, epoch] : snapshot) {
    const SoftConstraint* sc = scs_.Find(name);
    if (sc == nullptr || sc->epoch() != epoch) return true;
  }
  return false;
}

Status SoftDb::CertifyCertificates(
    const std::vector<RewriteCertificate>& certs, ExecStats* stats,
    bool epoch_fast_path) {
  if (certs.empty() || !ShouldCertifyPlans(options_.certify_plans)) {
    return Status::OK();
  }
  const CertificateChecker checker(&catalog_, &ics_, &scs_);
  for (const RewriteCertificate& cert : certs) {
    ++stats->certificates_checked;
    if (epoch_fast_path && checker.EpochsCurrent(cert)) continue;
    const CertificateCheckResult res = checker.Check(cert);
    if (res.verdict == CertificateVerdict::kInvalid) {
      ++stats->certificates_failed;
#ifndef NDEBUG
      return Status::Internal(StrFormat(
          "rewrite certificate rejected [%s] %s: %s",
          CertificateKindName(cert.kind), cert.rule.c_str(),
          res.message.c_str()));
#endif
    }
    // kStale: the derivation was honest but a premise SC moved on; the
    // epoch-guarded staleness/degraded-retry machinery re-plans, so it is
    // counted as checked without failing the query.
  }
  return Status::OK();
}

Result<QueryResult> SoftDb::RunPlan(const PlanNode& plan, QueryResult result,
                                    const QueryContext* query) {
  OptimizerContext ctx = MakeContext();
  CardinalityEstimator estimator = MakeEstimator();
  PhysicalPlanner planner(&ctx, &estimator);
  result.estimated_rows = estimator.EstimateRows(plan);
  result.estimated_cost = planner.EstimateCost(plan);
  result.plan_text = plan.ToString();
  SOFTDB_ASSIGN_OR_RETURN(OperatorPtr root, planner.Plan(plan));
  // Physical planning emits its own certificates (zone-map skip sets);
  // check them against the live zone maps before any row is read.
  ExecStats cert_stats;
  SOFTDB_RETURN_IF_ERROR(CertifyCertificates(ctx.certificates, &cert_stats));
  // Zone maps are consumed at physical-planning time, so the rewrite-level
  // epoch snapshot in ExecuteSelect never sees them. Guard them here: a
  // mid-query widening (an out-of-envelope UPDATE bumps the SC epoch
  // before the cell mutates) invalidates the skip sets baked into `root`,
  // and the query re-plans without zone maps exactly once. The retry
  // consults nothing, so it cannot cascade.
  const ScEpochSnapshot zm_epochs = SnapshotScEpochs(ctx.rewrite_consumed_scs);
  ExecContext exec_ctx;
  exec_ctx.scheduler = scheduler();
  exec_ctx.query = query;
  exec_ctx.use_kernels = options_.use_kernels;
  SOFTDB_ASSIGN_OR_RETURN(result.rows, ExecuteToCompletion(root.get(),
                                                           &exec_ctx));
  result.exec_stats = exec_ctx.stats;
  if (!zm_epochs.empty() && ScEpochsChanged(zm_epochs)) {
    OptimizerContext retry_ctx = MakeContext();
    retry_ctx.enable_zone_maps = false;
    PhysicalPlanner retry_planner(&retry_ctx, &estimator);
    SOFTDB_ASSIGN_OR_RETURN(OperatorPtr retry_root, retry_planner.Plan(plan));
    // The retry consumes no zone maps, so this is normally a no-op; it
    // still re-checks whatever the retry planner emitted, so no stale
    // certificate survives the re-plan.
    cert_stats = ExecStats{};
    SOFTDB_RETURN_IF_ERROR(
        CertifyCertificates(retry_ctx.certificates, &cert_stats));
    ExecContext retry_exec;
    retry_exec.scheduler = scheduler();
    retry_exec.query = query;
    retry_exec.use_kernels = options_.use_kernels;
    SOFTDB_ASSIGN_OR_RETURN(
        result.rows, ExecuteToCompletion(retry_root.get(), &retry_exec));
    result.exec_stats = retry_exec.stats;
    result.exec_stats.degraded_retries = 1;
  }
  result.exec_stats.certificates_checked += cert_stats.certificates_checked;
  result.exec_stats.certificates_failed += cert_stats.certificates_failed;
  return result;
}

Result<QueryResult> SoftDb::ExecuteSelect(const std::string& sql,
                                          const SelectStmt& stmt,
                                          bool explain_only,
                                          const QueryContext* query) {
  if (options_.use_plan_cache && !explain_only) {
    // Get hands back a shared_ptr: a concurrent DROP TABLE may evict the
    // entry mid-execution, and the reference keeps the plan alive.
    if (std::shared_ptr<CachedPlan> cached = plan_cache_.Get(sql)) {
      ++cached->executions;
      QueryResult result;
      result.from_plan_cache = true;
      result.used_scs = cached->used_scs;
      // A package whose rewrite-consumed SCs have moved on since the
      // package's epoch baseline is stale even when `using_backup` never
      // flipped (e.g. a synchronous repair silently widened an SC). Run
      // the SC-free backup directly; no retry is needed because nothing
      // wrong ran. An epoch-aware Rearm resets the baseline after repair.
      const ScEpochSnapshot baseline = plan_cache_.ScEpochs(*cached);
      const bool stale_at_hit = ScEpochsChanged(baseline);
      const bool use_backup =
          cached->using_backup.load(std::memory_order_acquire) || stale_at_hit;
      result.used_backup_plan = use_backup;
      // A cached package's certificates are re-checked on every hit: the
      // plan may be arbitrarily old, so its transformations must re-prove
      // themselves against the live registries before the plan runs. Both
      // plans' sets are checked — mirroring the build-time pass — so the
      // per-execution count is identical whether the package was just
      // built or resurrected from the cache. The epoch fast path keeps
      // the steady-state cost to an epoch comparison per certificate.
      ExecStats hit_cert_stats;
      SOFTDB_RETURN_IF_ERROR(CertifyCertificates(
          cached->certificates, &hit_cert_stats, /*epoch_fast_path=*/true));
      SOFTDB_RETURN_IF_ERROR(
          CertifyCertificates(cached->backup_certificates, &hit_cert_stats,
                              /*epoch_fast_path=*/true));
      if (use_backup) {
        SOFTDB_ASSIGN_OR_RETURN(
            QueryResult backup_result,
            RunPlan(*cached->backup, std::move(result), query));
        backup_result.exec_stats.certificates_checked +=
            hit_cert_stats.certificates_checked;
        backup_result.exec_stats.certificates_failed +=
            hit_cert_stats.certificates_failed;
        return backup_result;
      }
      // Pre-execution live epochs: the completion check below detects
      // overturns that happen while the primary plan runs.
      ScEpochSnapshot pre_run;
      pre_run.reserve(baseline.size());
      for (const auto& [name, epoch] : baseline) {
        if (const SoftConstraint* sc = scs_.Find(name)) {
          pre_run.emplace_back(name, sc->epoch());
        }
      }
      SOFTDB_ASSIGN_OR_RETURN(QueryResult primary_result,
                              RunPlan(*cached->primary, std::move(result),
                                      query));
      if (!ScEpochsChanged(pre_run)) {
        primary_result.exec_stats.certificates_checked +=
            hit_cert_stats.certificates_checked;
        primary_result.exec_stats.certificates_failed +=
            hit_cert_stats.certificates_failed;
        return primary_result;
      }
      // Mid-query overturn of a consumed ASC: the rows just produced are in
      // jeopardy. Transparently re-execute exactly once on the SC-free
      // backup; the backup consumed no SCs, so it cannot retry again. The
      // backup's certificates are re-checked against the post-overturn
      // registries — a stale certificate never survives the re-plan.
      QueryResult retry;
      retry.from_plan_cache = true;
      retry.used_scs = cached->used_scs;
      retry.used_backup_plan = true;
      ExecStats retry_cert_stats;
      SOFTDB_RETURN_IF_ERROR(CertifyCertificates(cached->backup_certificates,
                                                 &retry_cert_stats));
      SOFTDB_ASSIGN_OR_RETURN(retry,
                              RunPlan(*cached->backup, std::move(retry),
                                      query));
      retry.exec_stats.degraded_retries = 1;
      retry.exec_stats.certificates_checked +=
          retry_cert_stats.certificates_checked;
      retry.exec_stats.certificates_failed +=
          retry_cert_stats.certificates_failed;
      return retry;
    }
  }

  Binder binder(&catalog_);
  SOFTDB_ASSIGN_OR_RETURN(PlanPtr bound, binder.BindSelect(stmt));

  if (ShouldVerifyPlans(options_.verify_plans)) {
    PlanVerifier verifier({&catalog_, &mvs_, &exception_asts_});
    SOFTDB_RETURN_IF_ERROR(verifier.VerifyLogical(*bound, "bind"));
  }

  // Backup plan: rewritten without any soft constraints (IC-driven rules
  // such as FK join elimination still apply — those cannot be overturned).
  OptimizerContext backup_ctx = MakeContext();
  backup_ctx.scs = nullptr;
  backup_ctx.enable_exception_asts = false;
  Rewriter backup_rewriter(&backup_ctx);
  SOFTDB_ASSIGN_OR_RETURN(PlanPtr backup,
                          backup_rewriter.Rewrite(bound->Clone()));

  OptimizerContext ctx = MakeContext();
  Rewriter rewriter(&ctx);
  SOFTDB_ASSIGN_OR_RETURN(PlanPtr primary, rewriter.Rewrite(std::move(bound)));

  // Translation validation (DESIGN.md §13): every SC-driven rewrite just
  // performed must prove itself to the independent checker before the plan
  // is cached or run.
  ExecStats rewrite_cert_stats;
  SOFTDB_RETURN_IF_ERROR(
      CertifyCertificates(ctx.certificates, &rewrite_cert_stats));
  SOFTDB_RETURN_IF_ERROR(
      CertifyCertificates(backup_ctx.certificates, &rewrite_cert_stats));

  QueryResult result;
  result.applied_rules = ctx.applied_rules;
  std::vector<std::string> used = ctx.used_scs;
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  result.used_scs = used;

  if (explain_only) {
    CardinalityEstimator estimator = MakeEstimator();
    PhysicalPlanner planner(&ctx, &estimator);
    result.estimated_rows = estimator.EstimateRows(*primary);
    result.estimated_cost = planner.EstimateCost(*primary);
    result.plan_text = primary->ToString();
    result.exec_stats.certificates_checked +=
        rewrite_cert_stats.certificates_checked;
    result.exec_stats.certificates_failed +=
        rewrite_cert_stats.certificates_failed;
    return result;
  }

  // Build-time epochs of the rewrite-consumed SCs (estimation-only twins
  // excluded): the plan's answers depend on these staying put.
  const ScEpochSnapshot sc_epochs = SnapshotScEpochs(ctx.rewrite_consumed_scs);

  if (options_.use_plan_cache) {
    auto clone_certs = [](const std::vector<RewriteCertificate>& certs) {
      std::vector<RewriteCertificate> out;
      out.reserve(certs.size());
      for (const RewriteCertificate& c : certs) out.push_back(c.Clone());
      return out;
    };
    plan_cache_.Put(sql, primary->Clone(), backup->Clone(), used, sc_epochs,
                    clone_certs(ctx.certificates),
                    clone_certs(backup_ctx.certificates));
  }
  SOFTDB_ASSIGN_OR_RETURN(QueryResult primary_result,
                          RunPlan(*primary, std::move(result), query));
  if (!ScEpochsChanged(sc_epochs)) {
    primary_result.exec_stats.certificates_checked +=
        rewrite_cert_stats.certificates_checked;
    primary_result.exec_stats.certificates_failed +=
        rewrite_cert_stats.certificates_failed;
    return primary_result;
  }
  // A consumed ASC was overturned (or repaired to different parameters)
  // while the primary plan ran: degrade once to the SC-free backup. The
  // backup's certificates are re-checked against the post-overturn
  // registries first — a certificate minted before the epoch moved must
  // never ride through a re-plan unexamined.
  SOFTDB_RETURN_IF_ERROR(
      CertifyCertificates(backup_ctx.certificates, &rewrite_cert_stats));
  QueryResult retry;
  retry.applied_rules = primary_result.applied_rules;
  retry.used_scs = primary_result.used_scs;
  retry.used_backup_plan = true;
  SOFTDB_ASSIGN_OR_RETURN(retry, RunPlan(*backup, std::move(retry), query));
  retry.exec_stats.degraded_retries = 1;
  retry.exec_stats.certificates_checked +=
      rewrite_cert_stats.certificates_checked;
  retry.exec_stats.certificates_failed +=
      rewrite_cert_stats.certificates_failed;
  return retry;
}

void SoftDb::RecordImpact(const DmlImpact& impact) {
  ++impact_stats_.statements;
  impact_stats_.candidate_scs += impact.candidates;
  impact_stats_.impacted_scs += impact.impacted.size();
  if (impact.Narrowed()) ++impact_stats_.narrowed;
}

Status SoftDb::ExecuteInsert(const InsertStmt& stmt) {
  // Static impact analysis (pre-mutation): synchronous SC maintenance only
  // needs to consider the statically impacted subset. An analysis failure
  // just falls back to the unscoped full re-check, which is always sound.
  std::set<std::string> scope_storage;
  const std::set<std::string>* scope = nullptr;
  if (options_.enable_impact_analysis) {
    ImpactAnalyzer analyzer(&catalog_, &ics_, &scs_);
    Result<DmlImpact> impact = analyzer.AnalyzeInsert(stmt);
    if (impact.ok()) {
      RecordImpact(*impact);
      scope_storage = impact->ImpactSet();
      scope = &scope_storage;
    }
  }
  for (const std::vector<ExprPtr>& row_exprs : stmt.rows) {
    std::vector<Value> row;
    row.reserve(row_exprs.size());
    for (const ExprPtr& e : row_exprs) {
      SOFTDB_ASSIGN_OR_RETURN(Value v, e->Eval({}));
      row.push_back(std::move(v));
    }
    SOFTDB_RETURN_IF_ERROR(InsertRowLocked(stmt.table, row, scope));
  }
  return Status::OK();
}

Result<std::uint64_t> SoftDb::ExecuteUpdate(const UpdateStmt& stmt) {
  SOFTDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  const Schema& schema = table->schema();

  std::set<std::string> scope_storage;
  const std::set<std::string>* scope = nullptr;
  if (options_.enable_impact_analysis) {
    ImpactAnalyzer analyzer(&catalog_, &ics_, &scs_);
    Result<DmlImpact> impact = analyzer.AnalyzeUpdate(stmt);
    if (impact.ok()) {
      RecordImpact(*impact);
      scope_storage = impact->ImpactSet();
      scope = &scope_storage;
    }
  }

  ExprPtr where;
  if (stmt.where) {
    where = stmt.where->Clone();
    SOFTDB_RETURN_IF_ERROR(where->Bind(schema));
  }
  std::vector<std::pair<ColumnIdx, ExprPtr>> assignments;
  for (const auto& [col_name, expr] : stmt.assignments) {
    SOFTDB_ASSIGN_OR_RETURN(ColumnIdx col, schema.Resolve(col_name));
    ExprPtr bound = expr->Clone();
    SOFTDB_RETURN_IF_ERROR(bound->Bind(schema));
    assignments.emplace_back(col, std::move(bound));
  }

  std::vector<RowId> matches;
  for (RowId r = 0; r < table->NumSlots(); ++r) {
    if (!table->IsLive(r)) continue;
    if (where) {
      SOFTDB_ASSIGN_OR_RETURN(Value v, where->Eval(table->GetRow(r)));
      if (v.is_null() || !v.AsBool()) continue;
    }
    matches.push_back(r);
  }

  for (RowId r : matches) {
    std::vector<Value> old_row = table->GetRow(r);
    std::vector<Value> new_row = old_row;
    for (const auto& [col, expr] : assignments) {
      SOFTDB_ASSIGN_OR_RETURN(Value v, expr->Eval(old_row));
      if (!v.is_null() && v.type() != schema.Column(col).type &&
          v.type() != TypeId::kString &&
          schema.Column(col).type != TypeId::kString) {
        SOFTDB_ASSIGN_OR_RETURN(v, v.CastTo(schema.Column(col).type));
      }
      new_row[col] = std::move(v);
    }
    SOFTDB_RETURN_IF_ERROR(ApplyUpdateRow(table, r, old_row, new_row, scope));
  }
  return static_cast<std::uint64_t>(matches.size());
}

Status SoftDb::ApplyUpdateRow(Table* table, RowId rid,
                              const std::vector<Value>& old_row,
                              const std::vector<Value>& new_row,
                              const std::set<std::string>* sc_scope) {
  // Re-check ICs as delete + insert so unique keys do not self-conflict.
  ics_.AfterDelete(table->name(), old_row);
  Status check = ics_.CheckInsert(catalog_, table->name(), new_row);
  if (!check.ok()) {
    ics_.AfterInsert(table->name(), old_row);
    return check;
  }
  // Zone maps fold the update BEFORE the cells mutate (they read the old
  // value) and bump their epoch when the envelope widens, degrading any
  // in-flight query that consumed a now-stale skip set.
  SOFTDB_RETURN_IF_ERROR(scs_.OnRowUpdated(catalog_, table->name(), rid,
                                           new_row));
  const Schema& schema = table->schema();
  for (std::size_t c = 0; c < schema.NumColumns(); ++c) {
    const ColumnIdx col = static_cast<ColumnIdx>(c);
    catalog_.NotifyUpdate(table, rid, col, old_row[col], new_row[col]);
    SOFTDB_RETURN_IF_ERROR(table->Set(rid, col, new_row[col]));
  }
  ics_.AfterInsert(table->name(), new_row);
  SOFTDB_RETURN_IF_ERROR(scs_.OnInsert(catalog_, table->name(), new_row,
                                       sc_scope));
  SOFTDB_RETURN_IF_ERROR(mvs_.OnBaseDelete(table->name(), old_row));
  SOFTDB_RETURN_IF_ERROR(mvs_.OnBaseInsert(table->name(), new_row));
  if (wal_ != nullptr && !recovering_) {
    SOFTDB_RETURN_IF_ERROR(wal_->LogUpdate(table->name(), rid, new_row));
  }
  return Status::OK();
}

Result<std::uint64_t> SoftDb::ExecuteDelete(const DeleteStmt& stmt) {
  SOFTDB_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  ExprPtr where;
  if (stmt.where) {
    where = stmt.where->Clone();
    SOFTDB_RETURN_IF_ERROR(where->Bind(table->schema()));
  }
  std::vector<RowId> matches;
  for (RowId r = 0; r < table->NumSlots(); ++r) {
    if (!table->IsLive(r)) continue;
    if (where) {
      SOFTDB_ASSIGN_OR_RETURN(Value v, where->Eval(table->GetRow(r)));
      if (v.is_null() || !v.AsBool()) continue;
    }
    matches.push_back(r);
  }
  for (RowId r : matches) {
    SOFTDB_RETURN_IF_ERROR(ApplyDeleteRow(table, r, table->GetRow(r)));
  }
  return static_cast<std::uint64_t>(matches.size());
}

Status SoftDb::ApplyDeleteRow(Table* table, RowId rid,
                              const std::vector<Value>& old_row) {
  SOFTDB_RETURN_IF_ERROR(table->Delete(rid));
  catalog_.NotifyDelete(table, rid, old_row);
  ics_.AfterDelete(table->name(), old_row);
  SOFTDB_RETURN_IF_ERROR(mvs_.OnBaseDelete(table->name(), old_row));
  if (wal_ != nullptr && !recovering_) {
    SOFTDB_RETURN_IF_ERROR(wal_->LogDelete(table->name(), rid));
  }
  return Status::OK();
}

Status SoftDb::ExecuteCreateTable(const CreateTableStmt& stmt) {
  Schema schema;
  for (const ColumnSpec& col : stmt.columns) {
    ColumnDef def;
    def.name = col.name;
    def.type = col.type;
    def.nullable = !col.not_null;
    schema.AddColumn(std::move(def));
  }
  // PK columns become non-nullable.
  for (const ConstraintSpec& spec : stmt.constraints) {
    if (spec.kind != ConstraintSpec::Kind::kPrimaryKey) continue;
    std::vector<ColumnDef> cols = schema.columns();
    for (ColumnDef& def : cols) {
      for (const std::string& pk_col : spec.columns) {
        if (ToLower(def.name) == ToLower(pk_col)) def.nullable = false;
      }
    }
    schema = Schema(std::move(cols));
  }
  SOFTDB_ASSIGN_OR_RETURN(Table * table,
                          catalog_.CreateTable(stmt.table, std::move(schema)));

  for (const ConstraintSpec& spec : stmt.constraints) {
    std::string name = spec.name.empty()
                           ? StrFormat("ic_%s_%llu", table->name().c_str(),
                                       static_cast<unsigned long long>(
                                           ++ic_name_counter_))
                           : spec.name;
    auto resolve_cols =
        [&](const std::vector<std::string>& names,
            const Schema& s) -> Result<std::vector<ColumnIdx>> {
      std::vector<ColumnIdx> out;
      for (const std::string& n : names) {
        SOFTDB_ASSIGN_OR_RETURN(ColumnIdx idx, s.Resolve(n));
        out.push_back(idx);
      }
      return out;
    };
    const ConstraintMode mode = spec.informational
                                    ? ConstraintMode::kInformational
                                    : ConstraintMode::kEnforced;
    switch (spec.kind) {
      case ConstraintSpec::Kind::kPrimaryKey:
      case ConstraintSpec::Kind::kUnique: {
        SOFTDB_ASSIGN_OR_RETURN(std::vector<ColumnIdx> cols,
                                resolve_cols(spec.columns, table->schema()));
        SOFTDB_RETURN_IF_ERROR(ics_.Add(
            std::make_unique<UniqueConstraint>(
                name, table->name(), std::move(cols),
                spec.kind == ConstraintSpec::Kind::kPrimaryKey, mode),
            catalog_));
        break;
      }
      case ConstraintSpec::Kind::kCheck: {
        ExprPtr expr = spec.check->Clone();
        SOFTDB_RETURN_IF_ERROR(expr->Bind(table->schema()));
        SOFTDB_RETURN_IF_ERROR(
            ics_.Add(std::make_unique<CheckConstraint>(
                         name, table->name(), std::move(expr), mode),
                     catalog_));
        break;
      }
      case ConstraintSpec::Kind::kForeignKey: {
        SOFTDB_ASSIGN_OR_RETURN(std::vector<ColumnIdx> cols,
                                resolve_cols(spec.columns, table->schema()));
        SOFTDB_ASSIGN_OR_RETURN(Table * parent,
                                catalog_.GetTable(spec.ref_table));
        SOFTDB_ASSIGN_OR_RETURN(
            std::vector<ColumnIdx> parent_cols,
            resolve_cols(spec.ref_columns, parent->schema()));
        SOFTDB_RETURN_IF_ERROR(ics_.Add(
            std::make_unique<ForeignKeyConstraint>(
                name, table->name(), std::move(cols), parent->name(),
                std::move(parent_cols), mode),
            catalog_));
        break;
      }
    }
  }
  return Status::OK();
}

Result<QueryResult> SoftDb::Execute(const std::string& sql) {
  if (options_.default_deadline_ms > 0) {
    QueryContext deadline_ctx;
    deadline_ctx.SetDeadlineAfter(
        std::chrono::milliseconds(options_.default_deadline_ms));
    return Execute(sql, &deadline_ctx);
  }
  return Execute(sql, nullptr);
}

Result<QueryResult> SoftDb::Execute(const std::string& sql,
                                    const QueryContext* query) {
  // A deadline that is unsatisfiable on arrival never dispatches: the
  // statement would only burn parse/plan work (and could reach the WAL
  // gate) before the first cooperative check caught it.
  if (options_.reject_expired_deadlines && query != nullptr &&
      query->has_deadline) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= query->deadline) {
      const auto lag = std::chrono::duration_cast<std::chrono::milliseconds>(
          now - query->deadline);
      return WithStatusDetail(
          Status::DeadlineExceeded("deadline unsatisfiable on arrival"),
          "deadline_lag_ms", lag.count());
    }
  }
  SOFTDB_RETURN_IF_ERROR(WalReady());
  if (query != nullptr) SOFTDB_RETURN_IF_ERROR(query->Check());
  SOFTDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  // Readers share the engine; anything that changes data, catalog or SC
  // state runs alone.
  std::shared_lock<RwLock> shared(engine_mu_, std::defer_lock);
  std::unique_lock<RwLock> exclusive(engine_mu_, std::defer_lock);
  if (stmt.kind == Statement::Kind::kSelect ||
      stmt.kind == Statement::Kind::kExplain) {
    shared.lock();
  } else {
    exclusive.lock();
  }
  if (wal_ == nullptr || recovering_) return Dispatch(sql, stmt, query);
  // Attribute WAL activity to this statement: the writer's counters are
  // engine-cumulative, so the statement's share is the delta around
  // dispatch.
  const WalStats before = wal_->stats();
  SOFTDB_ASSIGN_OR_RETURN(QueryResult result, Dispatch(sql, stmt, query));
  const WalStats after = wal_->stats();
  result.exec_stats.wal_records +=
      after.records_appended - before.records_appended;
  result.exec_stats.wal_bytes += after.bytes_appended - before.bytes_appended;
  result.exec_stats.wal_fsyncs += after.fsyncs - before.fsyncs;
  return result;
}

Result<QueryResult> SoftDb::Dispatch(const std::string& sql,
                                     const Statement& stmt,
                                     const QueryContext* query) {
  // DDL is logged as raw SQL after it succeeds (apply-first); DML is not —
  // each affected row logs its own image from the row pipeline.
  const auto log_ddl = [&]() -> Status {
    if (wal_ != nullptr && !recovering_) return wal_->LogDdl(sql);
    return Status::OK();
  };
  QueryResult result;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      return ExecuteSelect(sql, *stmt.select, /*explain_only=*/false, query);
    case Statement::Kind::kExplain:
      return ExecuteSelect(sql, *stmt.select, /*explain_only=*/true, query);
    case Statement::Kind::kInsert:
      SOFTDB_RETURN_IF_ERROR(ExecuteInsert(*stmt.insert));
      return result;
    case Statement::Kind::kUpdate: {
      SOFTDB_ASSIGN_OR_RETURN(std::uint64_t n, ExecuteUpdate(*stmt.update));
      result.estimated_rows = static_cast<double>(n);
      return result;
    }
    case Statement::Kind::kDelete: {
      SOFTDB_ASSIGN_OR_RETURN(std::uint64_t n, ExecuteDelete(*stmt.del));
      result.estimated_rows = static_cast<double>(n);
      return result;
    }
    case Statement::Kind::kCreateTable:
      SOFTDB_RETURN_IF_ERROR(ExecuteCreateTable(*stmt.create_table));
      SOFTDB_RETURN_IF_ERROR(log_ddl());
      return result;
    case Statement::Kind::kCreateIndex:
      SOFTDB_RETURN_IF_ERROR(catalog_
                                 .CreateIndex(stmt.create_index->index,
                                              stmt.create_index->table,
                                              stmt.create_index->column)
                                 .status());
      SOFTDB_RETURN_IF_ERROR(log_ddl());
      return result;
    case Statement::Kind::kAnalyze:
      SOFTDB_RETURN_IF_ERROR(Analyze(stmt.analyze->table));
      SOFTDB_RETURN_IF_ERROR(log_ddl());
      return result;
    case Statement::Kind::kDropTable:
      SOFTDB_RETURN_IF_ERROR(catalog_.DropTable(stmt.drop_table->table));
      // Scoped invalidation: only packages reading the dropped table go;
      // plans over other tables stay warm.
      plan_cache_.OnTableDropped(stmt.drop_table->table);
      SOFTDB_RETURN_IF_ERROR(log_ddl());
      return result;
  }
  return Status::Internal("unhandled statement kind");
}

Result<std::string> SoftDb::Explain(const std::string& sql) {
  SOFTDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect &&
      stmt.kind != Statement::Kind::kExplain) {
    return Status::InvalidArgument("EXPLAIN supports SELECT only");
  }
  std::shared_lock<RwLock> lock(engine_mu_);
  SOFTDB_ASSIGN_OR_RETURN(QueryResult result,
                          ExecuteSelect(sql, *stmt.select,
                                        /*explain_only=*/true,
                                        /*query=*/nullptr));
  std::string out = result.plan_text;
  out += StrFormat("estimated rows: %.1f, estimated cost: %.1f pages\n",
                   result.estimated_rows, result.estimated_cost);
  if (options_.use_vectorized) {
    out += "execution: vectorized (batch engine where supported, row "
           "fallback otherwise)\n";
  }
  for (const std::string& rule : result.applied_rules) {
    out += "rule: " + rule + "\n";
  }
  if (wal_ != nullptr) {
    const WalStats ws = wal_->stats();
    out += StrFormat(
        "wal: records=%llu bytes=%llu fsyncs=%llu checkpoints=%llu\n",
        static_cast<unsigned long long>(ws.records_appended),
        static_cast<unsigned long long>(ws.bytes_appended),
        static_cast<unsigned long long>(ws.fsyncs),
        static_cast<unsigned long long>(ws.checkpoints));
  }
  return out;
}

}  // namespace softdb
