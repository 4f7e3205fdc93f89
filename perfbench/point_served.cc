// point_served: a closed loop of kSessions client threads, each with its own
// Session of one SessionManager (kWorkers dispatcher workers), sending
// read-only primary-key lookups on orders and short range probes on the
// indexed o_totalprice and c_acctbal columns, literals mostly distinct.
// Sessions plus dispatcher workers stay within four CPUs.
//
// Correctness, checked after the timed section: every returned row equals
// the stored row for its key, and every answer holds exactly the stored
// rows its predicate selects (multiset hash over the stored columns).
//
// Traced, the same statements run three times on one engine, the plan
// cache cleared in between: served (server.execute_us, queue depth),
// direct through SoftDb::Execute (server.handoff_us is served minus
// direct), and phase by phase.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "server/session.h"
#include "workload/generator.h"

namespace softdb::perfbench {
namespace {

constexpr int kSessions = 2;
constexpr int kWorkers = 2;
// Per session and round: 120 key lookups, 80 order-price probes, 40
// customer-balance probes. Rounds are long because the round barrier (and
// the reference kernel inside it) leaves the dispatcher workers idle, and
// the first statements after it pay for waking them; those statements must
// stay well under 1% of the total or they set p99_ms.
constexpr int kLookups = 120, kPriceProbes = 80, kBalanceProbes = 40;
constexpr double kRoundsPerSecond = 20.0;

enum Kind { kKeyLookup, kPriceProbe, kBalanceProbe };

struct Probe {
  Kind kind;
  std::string sql;
  double lo = 0, hi = 0;
  Answer answer;
  bool ok = false;
};

Probe MakeProbe(Kind kind, Rng* rng) {
  Probe p;
  p.kind = kind;
  switch (kind) {
    case kKeyLookup:
      p.lo = static_cast<double>(rng->Uniform(0, 9999));
      p.sql = StrFormat(
          "SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice, o_status "
          "FROM orders WHERE o_orderkey = %.0f",
          p.lo);
      break;
    case kPriceProbe:
      p.lo = static_cast<double>(rng->Uniform(100, 19900));
      p.hi = p.lo + 20;
      p.sql = StrFormat(
          "SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice, o_status "
          "FROM orders WHERE o_totalprice BETWEEN %.0f AND %.0f",
          p.lo, p.hi);
      break;
    case kBalanceProbe:
      p.lo = static_cast<double>(rng->Uniform(0, 9980));
      p.hi = p.lo + 20;
      p.sql = StrFormat(
          "SELECT c_custkey, c_nationkey, c_regionkey, c_acctbal, "
          "c_mktsegment FROM customer WHERE c_acctbal BETWEEN %.0f AND %.0f",
          p.lo, p.hi);
      break;
  }
  return p;
}

std::vector<Probe> MakeRound(Rng* rng) {
  std::vector<Probe> round;
  for (int i = 0; i < kLookups; ++i) round.push_back(MakeProbe(kKeyLookup, rng));
  for (int i = 0; i < kPriceProbes; ++i) {
    round.push_back(MakeProbe(kPriceProbe, rng));
  }
  for (int i = 0; i < kBalanceProbes; ++i) {
    round.push_back(MakeProbe(kBalanceProbe, rng));
  }
  for (std::size_t i = round.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        rng->Uniform(0, static_cast<std::int64_t>(i) - 1));
    std::swap(round[i - 1], round[j]);
  }
  return round;
}

/// work[session][round] = that round's probes.
using Work = std::vector<std::vector<std::vector<Probe>>>;

Work MakeWork(std::uint64_t seed, int rounds) {
  Work work(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5E55 + static_cast<std::uint64_t>(s));
    for (int r = 0; r < rounds; ++r) work[s].push_back(MakeRound(&rng));
  }
  return work;
}

struct ServedResult {
  std::vector<double> latencies_us;
  std::vector<Round> rounds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t pages = 0;
};

/// Closed loop: each session thread sends its probes one after another;
/// sessions meet at a barrier after every round, and a round lasts from
/// the end of one barrier to the next.
ServedResult RunServed(SessionManager* server, Work* work) {
  ServedResult out;
  const int rounds = static_cast<int>((*work)[0].size());
  // Filled by the barrier's completion step, which runs once per round
  // while every session waits: the round's end, a reference-kernel sample,
  // and the next round's start (so the sample is in no round's time).
  std::vector<Clock::time_point> round_starts, round_ends;
  std::vector<double> reference_us;
  std::barrier sync(kSessions, [&]() noexcept {
    round_ends.push_back(Clock::now());
    reference_us.push_back(ReferenceMicros());
    round_starts.push_back(Clock::now());
  });
  std::mutex mu;
  std::vector<std::thread> threads;
  std::vector<Session*> sessions;
  for (int s = 0; s < kSessions; ++s) {
    Result<Session*> session = server->OpenSession("client-" + std::to_string(s));
    MustOk(session.status(), "OpenSession");
    sessions.push_back(*session);
  }
  std::vector<std::vector<std::vector<double>>> per_round(
      kSessions, std::vector<std::vector<double>>(rounds));
  round_starts.push_back(Clock::now());
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      ServedResult local;
      for (int r = 0; r < rounds; ++r) {
        for (Probe& p : (*work)[s][r]) {
          const Clock::time_point t0 = Clock::now();
          Result<QueryResult> res = sessions[s]->Execute(p.sql);
          const double micros = MicrosBetween(t0, Clock::now());
          ++local.attempted;
          if (!res.ok()) {
            ++local.failed;
            continue;
          }
          local.latencies_us.push_back(micros);
          per_round[s][r].push_back(micros);
          local.pages += res->exec_stats.pages_read;
          p.answer = Summarize(res->rows);
          p.ok = true;
        }
        sync.arrive_and_wait();
      }
      std::lock_guard<std::mutex> lk(mu);
      out.latencies_us.insert(out.latencies_us.end(),
                              local.latencies_us.begin(),
                              local.latencies_us.end());
      out.attempted += local.attempted;
      out.failed += local.failed;
      out.pages += local.pages;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int r = 0; r < rounds; ++r) {
    Round round;
    for (int s = 0; s < kSessions; ++s) {
      round.latencies_us.insert(round.latencies_us.end(),
                                per_round[s][r].begin(), per_round[s][r].end());
    }
    round.seconds = MicrosBetween(round_starts[r], round_ends[r]) / 1e6;
    round.reference_us = reference_us[r];
    out.rounds.push_back(std::move(round));
  }
  return out;
}

/// Expected answers straight from the stored columns.
class Oracle {
 public:
  explicit Oracle(const Catalog& catalog)
      : orders_(Get(catalog, "orders")), customer_(Get(catalog, "customer")) {
    for (RowId r = 0; r < orders_->NumSlots(); ++r) {
      if (orders_->IsLive(r)) {
        order_slot_[orders_->ColumnData(0).GetInt64(r)] = r;
      }
    }
  }

  Answer Expected(const Probe& p) const {
    Answer a;
    auto add = [&](const Table& t, RowId r) {
      ++a.rows;
      a.multiset_hash += HashRow(t.GetRow(r));
    };
    switch (p.kind) {
      case kKeyLookup: {
        const auto it = order_slot_.find(static_cast<std::int64_t>(p.lo));
        if (it != order_slot_.end()) add(*orders_, it->second);
        break;
      }
      case kPriceProbe:
      case kBalanceProbe: {
        const Table& t = p.kind == kPriceProbe ? *orders_ : *customer_;
        const ColumnVector& col = t.ColumnData(3);
        for (RowId r = 0; r < t.NumSlots(); ++r) {
          if (t.IsLive(r) && col.GetDouble(r) >= p.lo &&
              col.GetDouble(r) <= p.hi) {
            add(t, r);
          }
        }
        break;
      }
    }
    return a;
  }

 private:
  static const Table* Get(const Catalog& catalog, const std::string& name) {
    Result<Table*> t = catalog.GetTable(name);
    MustOk(t.status(), "oracle table lookup");
    return *t;
  }

  const Table* orders_;
  const Table* customer_;
  std::unordered_map<std::int64_t, RowId> order_slot_;
};

}  // namespace

Report RunPointServed(const RunOptions& options) {
  Report report;
  // --- Set-up: generate orders/customer with their indexes, start the
  // server. Engine options are the defaults (no WAL: the workload is
  // read-only).
  auto db = std::make_unique<SoftDb>();
  WorkloadOptions data;
  data.seed = options.seed;
  MustOk(GenerateCustomerOrders(db.get(), data), "GenerateCustomerOrders");
  MustOk(db->Analyze(), "Analyze");
  ServerOptions server_options;
  server_options.worker_threads = kWorkers;
  server_options.checkpoint_on_drain = false;  // Nothing to checkpoint.
  auto server = std::make_unique<SessionManager>(db.get(), server_options);
  const double setup_s = SecondsSinceProcessStart();

  // --- Warm-up round (untimed), then the timed rounds.
  const int rounds = RoundsFor(options.seconds, kRoundsPerSecond);
  Work warmup = MakeWork(options.seed ^ 0xAAAA, 1);
  RunServed(server.get(), &warmup);
  Work work = MakeWork(options.seed, rounds);
  const PlanCache& cache = db->plan_cache();
  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
  ServedResult served = RunServed(server.get(), &work);
  const std::uint64_t hits = cache.hits() - hits0,
                      misses = cache.misses() - misses0;
  const double peak_rss_mb = PeakRssMb();
  report.attempted = served.attempted;
  report.failed = served.failed;
  const std::uint64_t high_water =
      server->stats().queue_depth_high_water.load();
  MustOk(server->Drain(), "Drain");
  server.reset();

  if (options.trace) {
    // Direct pass over the same statements, same plan-cache start state.
    Tracer tracer;
    db->plan_cache().Clear();
    std::vector<double> direct_us;
    for (auto& session_work : work) {
      for (auto& round : session_work) {
        for (const Probe& p : round) {
          const Clock::time_point t0 = Clock::now();
          Result<QueryResult> r = db->Execute(p.sql);
          direct_us.push_back(MicrosBetween(t0, Clock::now()));
          if (!r.ok()) report.Fail("direct execution failed: " + p.sql);
        }
      }
    }
    // Phase-by-phase pass, again from an empty plan cache.
    db->plan_cache().Clear();
    ExecTotals phase_totals;
    for (auto& session_work : work) {
      for (auto& round : session_work) {
        for (const Probe& p : round) {
          Result<QueryResult> r =
              TraceSelect(db.get(), p.sql, &tracer, &phase_totals, &report);
          if (r.ok() && p.ok && Summarize(r->rows) != p.answer) {
            report.Fail("served answer differs from Execute: " + p.sql);
          }
        }
      }
    }
    AddSelectLayerMetrics(tracer, phase_totals, db->plan_cache(), hits,
                          misses, 0, &report);
    const double served_median = Median(served.latencies_us);
    report.Add("server.execute_us", served_median, "us");
    report.Add("server.handoff_us", served_median - Median(direct_us), "us");
    report.Add("server.queue_depth_high_water",
               static_cast<double>(high_water), "count");
    tracer.WriteSpans(options.out_dir + "/trace-point_served.jsonl");
  }

  // --- Correctness, outside the timed section.
  if (options.plant_wrong) work[0][0][0].answer.multiset_hash += 1;
  const Oracle oracle(db->catalog());
  for (const auto& session_work : work) {
    for (const auto& round : session_work) {
      for (const Probe& p : round) {
        if (!p.ok) continue;
        if (p.kind == kKeyLookup && p.answer.rows != 1) {
          report.Fail("key lookup did not return exactly one row: " + p.sql);
        }
        if (oracle.Expected(p) != p.answer) {
          report.Fail("answer differs from the stored rows: " + p.sql);
        }
      }
    }
  }

  if (!options.trace) {
    report.Add("setup_s", setup_s, "s");
    AddTimingMetrics(served.rounds, &report);
    report.Add("pages_per_stmt",
               served.attempted == 0
                   ? 0
                   : static_cast<double>(served.pages) /
                         static_cast<double>(served.attempted),
               "pages");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
  }
  return report;
}

}  // namespace softdb::perfbench
