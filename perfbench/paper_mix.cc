// paper_mix: one client sends a seeded mix of the paper's E1-E10 query
// shapes straight to SoftDb::Execute, literals changing from statement to
// statement, over a database generated with the paper's soft constraints
// armed and zone maps mined.
//
// Correctness, checked after the timed section:
//  * every statement's row count and key checksum equal a plain C++
//    evaluation over the stored columns;
//  * every statement whose plan used an SC rewrite returns the same
//    multiset with every SC rule disabled;
//  * statements inside the planted join hole return zero rows.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "client.h"
#include "common/date.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "workload/generator.h"
#include "workload/sc_kit.h"

namespace softdb::perfbench {
namespace {

// Rounds are whole units of kPerTemplate statements of every template.
constexpr int kPerTemplate = 4;
constexpr double kRoundsPerSecond = 90.0;

enum Template {
  kPredicateIntroduction,  // E1: ship_date = d, index on order_date.
  kJoinHole,               // E2: orders x customer inside/outside the hole.
  kJoinElimination,        // E3: FK join whose parent is never read.
  kFdGroupBy,              // E6: GROUP BY nation, region (FD nation->region).
  kZoneMapRange,           // Zone maps: clustered pu_key range.
  kUnionAll,               // E10: 12-branch month union, date range.
  kSscProjectRange,        // E4: projects active on day d (SSC twin).
  kScanFilter,             // Compute-heavy scan+filter on purchase.
  kNumTemplates,
};

struct Stmt {
  Template tmpl;
  std::string sql;
  double a = 0, b = 0, c = 0, d = 0;  // The statement's literals.
  bool in_hole = false;
  // Filled from the program's answer.
  Answer answer;
  std::int64_t checksum = 0;
  bool sc_rewritten = false;
};

/// Sum over result rows of the integer value of `cols` (the key checksum
/// both the program's answer and the oracle compute).
std::int64_t KeyChecksum(const RowSet& rows, const std::vector<int>& cols) {
  std::int64_t sum = 0;
  for (const auto& row : rows.rows) {
    for (int c : cols) sum += std::llround(row[c].NumericValue());
  }
  return sum;
}

std::vector<int> ChecksumColumns(Template t) {
  return t == kFdGroupBy ? std::vector<int>{0, 2} : std::vector<int>{0};
}

std::string DateText(std::int64_t days) {
  return "DATE '" + Date::ToString(days) + "'";
}

Stmt MakeStmt(Template t, Rng* rng) {
  Stmt s;
  s.tmpl = t;
  const std::int64_t base = Date::FromYmd(1999, 1, 1);
  switch (t) {
    case kPredicateIntroduction:
      s.a = static_cast<double>(base + rng->Uniform(0, 750));
      s.sql = "SELECT pu_key, ship_date FROM purchase WHERE ship_date = " +
              DateText(static_cast<std::int64_t>(s.a));
      break;
    case kJoinHole:
      s.in_hole = rng->Uniform(0, 1) == 0;
      if (s.in_hole) {
        s.a = static_cast<double>(rng->Uniform(8000, 9500));
        s.b = s.a + 500;
        s.c = static_cast<double>(rng->Uniform(0, 1500));
        s.d = s.c + 500;
      } else {
        s.a = static_cast<double>(rng->Uniform(2000, 19000));
        s.b = s.a + 1000;
        s.c = static_cast<double>(rng->Uniform(2000, 9000));
        s.d = s.c + 1000;
      }
      s.sql = StrFormat(
          "SELECT o_orderkey FROM orders JOIN customer ON o_custkey = "
          "c_custkey WHERE o_totalprice BETWEEN %.0f AND %.0f AND c_acctbal "
          "BETWEEN %.0f AND %.0f",
          s.a, s.b, s.c, s.d);
      break;
    case kJoinElimination:
      s.a = static_cast<double>(rng->Uniform(17000, 19900));
      s.sql = StrFormat(
          "SELECT o_orderkey, o_totalprice FROM orders JOIN customer ON "
          "o_custkey = c_custkey WHERE o_totalprice > %.0f",
          s.a);
      break;
    case kFdGroupBy:
      s.a = static_cast<double>(rng->Uniform(0, 9000));
      s.sql = StrFormat(
          "SELECT c_nationkey, c_regionkey, COUNT(*) AS n FROM customer "
          "WHERE c_acctbal > %.0f GROUP BY c_nationkey, c_regionkey",
          s.a);
      break;
    case kZoneMapRange:
      s.a = static_cast<double>(rng->Uniform(0, 19000));
      s.b = static_cast<double>(rng->Uniform(10, 40));
      s.sql = StrFormat(
          "SELECT pu_key, quantity, price FROM purchase WHERE pu_key BETWEEN "
          "%.0f AND %.0f AND quantity < %.0f",
          s.a, s.a + 999, s.b);
      break;
    case kUnionAll: {
      const int first = static_cast<int>(rng->Uniform(1, 10));
      const int last = first + static_cast<int>(rng->Uniform(0, 2));
      s.a = static_cast<double>(Date::FromYmd(1999, first, 1));
      s.b = static_cast<double>(
          Date::FromYmd(1999, last, Date::DaysInMonth(1999, last)));
      for (int m = 1; m <= 12; ++m) {
        if (m > 1) s.sql += " UNION ALL ";
        s.sql += StrFormat(
            "SELECT sale_id, amount FROM sales_m%d WHERE sale_date BETWEEN "
            "%s AND %s",
            m, DateText(static_cast<std::int64_t>(s.a)).c_str(),
            DateText(static_cast<std::int64_t>(s.b)).c_str());
      }
      break;
    }
    case kSscProjectRange:
      s.a = static_cast<double>(base + rng->Uniform(30, 720));
      s.sql = "SELECT proj_id, budget FROM project WHERE start_date <= " +
              DateText(static_cast<std::int64_t>(s.a)) +
              " AND end_date >= " + DateText(static_cast<std::int64_t>(s.a));
      break;
    case kScanFilter:
      s.a = static_cast<double>(rng->Uniform(5, 15));
      s.b = static_cast<double>(rng->Uniform(15, 35));
      s.c = static_cast<double>(rng->Uniform(20, 60));
      s.sql = StrFormat(
          "SELECT pu_key, quantity, price FROM purchase WHERE ship_date - "
          "order_date <= %.0f AND quantity < %.0f AND price * discount > "
          "%.0f AND receipt_date - ship_date >= 1",
          s.a, s.b, s.c);
      break;
    case kNumTemplates:
      break;
  }
  return s;
}

/// One round: kPerTemplate statements of every template, in seeded order.
std::vector<Stmt> MakeRound(Rng* rng) {
  std::vector<Stmt> round;
  for (int i = 0; i < kPerTemplate; ++i) {
    for (int t = 0; t < kNumTemplates; ++t) {
      round.push_back(MakeStmt(static_cast<Template>(t), rng));
    }
  }
  for (std::size_t i = round.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng->Uniform(0, static_cast<std::int64_t>(i) - 1));
    std::swap(round[i - 1], round[j]);
  }
  return round;
}

// ---------------------------------------------------------------------------
// Oracle: plain C++ over the columns read through the storage API.

struct Expected {
  std::uint64_t rows = 0;
  std::int64_t checksum = 0;
};

class Oracle {
 public:
  explicit Oracle(const Catalog& catalog) : catalog_(catalog) {
    const Table* customer = Get("customer");
    const ColumnVector& keys = customer->ColumnData(0);
    for (RowId r = 0; r < customer->NumSlots(); ++r) {
      if (customer->IsLive(r)) customer_slot_[keys.GetInt64(r)] = r;
    }
  }

  Expected Evaluate(const Stmt& s) const {
    switch (s.tmpl) {
      case kPredicateIntroduction:
        return Scan("purchase", [&](const Table& t, RowId r) {
          return Int(t, 4, r) == static_cast<std::int64_t>(s.a)
                     ? Int(t, 0, r) : kSkip;
        });
      case kJoinHole:
        return JoinOrders([&](double price, double balance) {
          return price >= s.a && price <= s.b && balance >= s.c &&
                 balance <= s.d;
        });
      case kJoinElimination:
        return JoinOrders([&](double price, double) { return price > s.a; });
      case kFdGroupBy: {
        const Table* t = Get("customer");
        std::vector<std::int64_t> per_nation(25, 0);
        for (RowId r = 0; r < t->NumSlots(); ++r) {
          if (t->IsLive(r) && t->ColumnData(3).GetDouble(r) > s.a) {
            ++per_nation[static_cast<std::size_t>(Int(*t, 1, r))];
          }
        }
        Expected e;
        for (std::size_t n = 0; n < per_nation.size(); ++n) {
          if (per_nation[n] == 0) continue;
          ++e.rows;
          e.checksum += static_cast<std::int64_t>(n) + per_nation[n];
        }
        return e;
      }
      case kZoneMapRange:
        return Scan("purchase", [&](const Table& t, RowId r) {
          const std::int64_t key = Int(t, 0, r);
          return key >= s.a && key <= s.a + 999 && Int(t, 6, r) < s.b
                     ? key : kSkip;
        });
      case kUnionAll: {
        Expected e;
        for (int m = 1; m <= 12; ++m) {
          const Expected part =
              Scan(StrFormat("sales_m%d", m), [&](const Table& t, RowId r) {
                const std::int64_t day = Int(t, 1, r);
                return day >= s.a && day <= s.b ? Int(t, 0, r) : kSkip;
              });
          e.rows += part.rows;
          e.checksum += part.checksum;
        }
        return e;
      }
      case kSscProjectRange:
        return Scan("project", [&](const Table& t, RowId r) {
          return Int(t, 1, r) <= s.a && Int(t, 2, r) >= s.a ? Int(t, 0, r)
                                                              : kSkip;
        });
      case kScanFilter:
        return Scan("purchase", [&](const Table& t, RowId r) {
          const std::int64_t order = Int(t, 3, r), ship = Int(t, 4, r),
                             receipt = Int(t, 5, r);
          const double price = t.ColumnData(7).GetDouble(r);
          const double discount = t.ColumnData(8).GetDouble(r);
          return ship - order <= s.a && Int(t, 6, r) < s.b &&
                         price * discount > s.c && receipt - ship >= 1
                     ? Int(t, 0, r) : kSkip;
        });
      case kNumTemplates:
        break;
    }
    return {};
  }

 private:
  static constexpr std::int64_t kSkip = INT64_MIN;

  const Table* Get(const std::string& name) const {
    Result<Table*> t = catalog_.GetTable(name);
    MustOk(t.status(), "oracle table lookup");
    return *t;
  }
  static std::int64_t Int(const Table& t, ColumnIdx col, RowId r) {
    return t.ColumnData(col).GetInt64(r);
  }

  /// Rows of `table` for which `key_of` returns a key (not kSkip).
  Expected Scan(const std::string& table,
                const std::function<std::int64_t(const Table&, RowId)>& key_of)
      const {
    const Table* t = Get(table);
    Expected e;
    for (RowId r = 0; r < t->NumSlots(); ++r) {
      if (!t->IsLive(r)) continue;
      const std::int64_t key = key_of(*t, r);
      if (key == kSkip) continue;
      ++e.rows;
      e.checksum += key;
    }
    return e;
  }

  /// orders joined to customer on o_custkey = c_custkey, filtered on
  /// (o_totalprice, c_acctbal); checksum over o_orderkey.
  Expected JoinOrders(const std::function<bool(double, double)>& keep) const {
    const Table* orders = Get("orders");
    const Table* customer = Get("customer");
    Expected e;
    for (RowId r = 0; r < orders->NumSlots(); ++r) {
      if (!orders->IsLive(r)) continue;
      const auto it = customer_slot_.find(Int(*orders, 1, r));
      if (it == customer_slot_.end()) continue;
      if (!keep(orders->ColumnData(3).GetDouble(r),
                customer->ColumnData(3).GetDouble(it->second))) {
        continue;
      }
      ++e.rows;
      e.checksum += Int(*orders, 0, r);
    }
    return e;
  }

  const Catalog& catalog_;
  std::unordered_map<std::int64_t, RowId> customer_slot_;
};

/// Re-executes `sql` with every SC-driven rule off and the plan cache
/// bypassed; restores the engine options afterwards.
Result<QueryResult> ExecuteWithoutScs(SoftDb* db, const std::string& sql) {
  const EngineOptions saved = db->options();
  EngineOptions& o = db->options();
  o.use_plan_cache = false;
  o.enable_predicate_introduction = false;
  o.enable_twinning = false;
  o.enable_join_elimination = false;
  o.enable_fd_pruning = false;
  o.enable_hole_trimming = false;
  o.enable_domain_rules = false;
  o.enable_unionall_pruning = false;
  o.enable_exception_asts = false;
  o.enable_implication = false;
  o.use_twins_in_estimation = false;
  o.enable_zone_maps = false;
  o.enable_runtime_parameterization = false;
  Result<QueryResult> r = db->Execute(sql);
  db->options() = saved;
  return r;
}

}  // namespace

Report RunPaperMix(const RunOptions& options) {
  Report report;
  // --- Set-up: generate, arm the paper's SCs, mine zone maps. Engine
  // options are the defaults (no WAL: the workload is read-only).
  auto db = std::make_unique<SoftDb>();
  WorkloadOptions data;
  data.seed = options.seed;
  data.ship_conf = 1.0;  // The ship window is an absolute SC (E1).
  MustOk(GenerateWorkload(db.get(), data), "GenerateWorkload");
  MustOk(RegisterShipWindowSc(db.get()).status(), "ship-window SC");
  MustOk(RegisterProjectWindowSc(db.get()).status(), "project-window SC");
  MustOk(RegisterCustomerRegionFd(db.get()).status(), "customer FD");
  MustOk(RegisterOrdersHoleSc(db.get()).status(), "orders join hole");
  MustOk(db->MineZoneMaps("purchase"), "zone maps");
  const double setup_s = SecondsSinceProcessStart();

  // --- Timed section.
  std::unique_ptr<Tracer> tracer =
      options.trace ? std::make_unique<Tracer>() : nullptr;
  Client client(db.get(), tracer.get(), &report);
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 0xA11CE);
  client.set_recording(false);  // Warm-up round: untimed.
  for (const Stmt& s : MakeRound(&rng)) client.Select(s.sql);
  client.set_recording(true);

  const PlanCache& cache = db->plan_cache();
  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses(),
                      inval0 = cache.invalidations();
  std::vector<Stmt> done;
  const int rounds = RoundsFor(options.seconds, kRoundsPerSecond);
  for (int round = 0; round < rounds; ++round) {
    for (Stmt& s : MakeRound(&rng)) {
      std::optional<QueryResult> r = client.Select(s.sql);
      if (!r) continue;
      s.answer = Summarize(r->rows);
      s.checksum = KeyChecksum(r->rows, ChecksumColumns(s.tmpl));
      s.sc_rewritten = !r->used_scs.empty() || !r->applied_rules.empty();
      done.push_back(std::move(s));
    }
    client.EndRound();
  }
  const double peak_rss_mb = PeakRssMb();

  if (options.trace) {
    AddSelectLayerMetrics(*tracer, client.totals(), cache,
                          cache.hits() - hits0, cache.misses() - misses0,
                          cache.invalidations() - inval0, &report);
    tracer->WriteSpans(options.out_dir + "/trace-paper_mix.jsonl");
  }

  // --- Correctness, outside the timed section.
  if (options.plant_wrong && !done.empty()) done.front().checksum += 1;
  const Oracle oracle(db->catalog());
  std::unordered_map<std::string, Answer> without_scs;
  for (const Stmt& s : done) {
    const Expected e = oracle.Evaluate(s);
    if (e.rows != s.answer.rows || e.checksum != s.checksum) {
      report.Fail(StrFormat("oracle mismatch (rows %llu vs %llu): %s",
                            static_cast<unsigned long long>(s.answer.rows),
                            static_cast<unsigned long long>(e.rows),
                            s.sql.c_str()));
    }
    if (s.in_hole && s.answer.rows != 0) {
      report.Fail("statement inside the join hole returned rows: " + s.sql);
    }
    if (!s.sc_rewritten) continue;
    auto it = without_scs.find(s.sql);
    if (it == without_scs.end()) {
      Result<QueryResult> plain = ExecuteWithoutScs(db.get(), s.sql);
      if (!plain.ok()) {
        report.Fail("SC-free execution failed: " + s.sql);
        continue;
      }
      it = without_scs.emplace(s.sql, Summarize(plain->rows)).first;
    }
    if (it->second != s.answer) {
      report.Fail("answer differs with every SC rule disabled: " + s.sql);
    }
  }

  if (!options.trace) {
    report.Add("setup_s", setup_s, "s");
    client.AddEndToEndMetrics(&report);
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
  }
  return report;
}

}  // namespace softdb::perfbench
