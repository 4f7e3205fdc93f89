// ingest_wal: one client streams INSERTs into purchase with the WAL on
// (group commit: one fsync per kSyncEveryN records) and the ship-window
// ASC armed under the async-repair policy, with reads on the same table
// interleaved whose cached plans rest on that ASC. Once per round of 100
// inserts (1% of the stream) the client inserts a late shipment outside
// the window: the ASC is overturned
// and cached plans fall back to their SC-free backups. A few statements
// later the client deletes that row again and calls RunMaintenance, which
// repairs the ASC to its original window and re-arms the plans. The run
// ends with a clean shutdown and timed SoftDb::Recover calls on the log.
//
// Correctness: each read is checked right after it (outside its timing)
// against a C++ scan of the live columns; at the end the table's row count
// and checksum equal the client's own record of acknowledged writes, live
// and after every recovery, and every SC still ACTIVE holds on the stored
// columns.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/impact.h"
#include "client.h"
#include "common/date.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "constraints/column_offset_sc.h"
#include "constraints/zone_map_sc.h"
#include "sql/parser.h"
#include "storage/recovery.h"
#include "workload/generator.h"
#include "workload/sc_kit.h"

namespace softdb::perfbench {
namespace {

// One late row per 100 inserts: the 1%-violating insert stream of the
// paper-reproduction experiment E7b (bench/bench_e7_maintenance.cc).
constexpr int kInsertsPerRound = 100;
constexpr int kReadEvery = 4;       // One read after every 4th insert.
constexpr int kLateAt = 50;         // Late row inserted after insert 50...
constexpr int kRetractAt = 75;      // ...and deleted + repaired after 75.
constexpr std::size_t kSyncEveryN = 128;
constexpr int kWindow = 21;          // Ship-window ASC: lag in [0, 21].
constexpr double kRoundsPerSecond = 20.0;

// purchase columns.
constexpr ColumnIdx kKey = 0, kOrderDate = 3, kShipDate = 4, kQuantity = 6;

std::uint64_t RowChecksum(std::int64_t key, std::int64_t ship_date,
                          std::int64_t quantity) {
  return static_cast<std::uint64_t>(key) * 1000003ULL +
         static_cast<std::uint64_t>(ship_date) * 31ULL +
         static_cast<std::uint64_t>(quantity);
}

/// Row count and checksum of the live purchase rows.
struct TableDigest {
  std::uint64_t rows = 0;
  std::uint64_t checksum = 0;
  bool operator!=(const TableDigest& o) const {
    return rows != o.rows || checksum != o.checksum;
  }
};

const Table& Purchase(SoftDb* db) {
  Result<Table*> t = db->catalog().GetTable("purchase");
  MustOk(t.status(), "purchase lookup");
  return **t;
}

TableDigest Digest(const Table& t) {
  TableDigest d;
  for (RowId r = 0; r < t.NumSlots(); ++r) {
    if (!t.IsLive(r)) continue;
    ++d.rows;
    d.checksum += RowChecksum(t.ColumnData(kKey).GetInt64(r),
                              t.ColumnData(kShipDate).GetInt64(r),
                              t.ColumnData(kQuantity).GetInt64(r));
  }
  return d;
}

/// Every SC still ACTIVE on purchase holds on the stored columns.
void CheckActiveScs(SoftDb* db, Report* report) {
  const Table& t = Purchase(db);
  for (SoftConstraint* sc : db->scs().On("purchase")) {
    if (!sc->active()) continue;
    if (auto* offset = dynamic_cast<ColumnOffsetSc*>(sc)) {
      const auto [lo, hi] = offset->offset_range();
      for (RowId r = 0; r < t.NumSlots(); ++r) {
        if (!t.IsLive(r)) continue;
        const std::int64_t lag = t.ColumnData(offset->col_y()).GetInt64(r) -
                                 t.ColumnData(offset->col_x()).GetInt64(r);
        if (lag < lo || lag > hi) {
          report->Fail("ACTIVE SC " + sc->name() + " violated by a stored row");
          break;
        }
      }
    } else if (auto* zone = dynamic_cast<ZoneMapSc*>(sc)) {
      const std::vector<ZoneMapSc::BlockSma> blocks = zone->SnapshotBlocks();
      const ColumnVector& col = t.ColumnData(zone->column());
      for (RowId r = 0; r < t.NumSlots(); ++r) {
        if (!t.IsLive(r) || col.IsNull(r)) continue;
        const std::size_t b = r / kZoneMapBlockRows;
        const double v = col.GetNumeric(r);
        if (b >= blocks.size() || v < blocks[b].min || v > blocks[b].max) {
          report->Fail("ACTIVE zone map " + sc->name() +
                       " does not cover a stored value");
          break;
        }
      }
    }
  }
}

/// The read templates: both rest on the ship-window ASC (predicate
/// introduction onto the order_date index).
struct Read {
  std::string sql;
  std::int64_t lo = 0, hi = 0;  // ship_date range.
  std::int64_t max_quantity = 0;  // 0 = no quantity filter.
};

Read MakeRead(int n, std::int64_t latest, Rng* rng) {
  Read r;
  r.lo = latest - rng->Uniform(0, 20);
  if (n % 2 == 0) {
    r.hi = r.lo;
    r.sql = "SELECT pu_key, ship_date, quantity FROM purchase WHERE "
            "ship_date = DATE '" + Date::ToString(r.lo) + "'";
  } else {
    r.hi = r.lo + 3;
    r.max_quantity = 10;
    r.sql = "SELECT pu_key, ship_date, quantity FROM purchase WHERE "
            "ship_date BETWEEN DATE '" + Date::ToString(r.lo) + "' AND DATE '" +
            Date::ToString(r.hi) + "' AND quantity < 10";
  }
  return r;
}

/// Expected answer of a read from the live columns, as a multiset hash of
/// the (pu_key, ship_date, quantity) rows.
Answer ExpectedRead(const Table& t, const Read& read) {
  Answer a;
  for (RowId r = 0; r < t.NumSlots(); ++r) {
    if (!t.IsLive(r)) continue;
    const std::int64_t ship = t.ColumnData(kShipDate).GetInt64(r);
    const std::int64_t qty = t.ColumnData(kQuantity).GetInt64(r);
    if (ship < read.lo || ship > read.hi) continue;
    if (read.max_quantity > 0 && qty >= read.max_quantity) continue;
    ++a.rows;
    a.multiset_hash +=
        HashRow({t.Get(r, kKey), t.Get(r, kShipDate), t.Get(r, kQuantity)});
  }
  return a;
}

/// Seeded stream of purchase rows continuing the generated data in time.
class RowStream {
 public:
  RowStream(const Table& t, std::uint64_t seed) : rng_(seed) {
    for (RowId r = 0; r < t.NumSlots(); ++r) {
      next_key_ = std::max(next_key_, t.ColumnData(kKey).GetInt64(r) + 1);
      order_date_ = std::max(order_date_, t.ColumnData(kOrderDate).GetInt64(r));
    }
  }

  struct Row {
    std::int64_t key, order_date, ship_date, quantity;
    std::string sql;
  };

  Row Next(bool late) {
    Row row;
    row.key = next_key_++;
    if (rng_.Uniform(0, 7) == 0) ++order_date_;
    row.order_date = order_date_;
    row.ship_date = row.order_date +
                    (late ? rng_.Uniform(kWindow + 1, kWindow + 30)
                          : rng_.Uniform(0, kWindow));
    const std::int64_t receipt = row.ship_date + rng_.Uniform(0, 7);
    row.quantity = rng_.Uniform(1, 50);
    const std::int64_t order_key = rng_.Uniform(0, 9999);
    const std::int64_t part_key = rng_.Uniform(0, 1999);
    const std::int64_t price_units = rng_.Uniform(1, 998);
    const std::int64_t price_cents = rng_.Uniform(0, 99);
    const std::int64_t discount_cents = rng_.Uniform(0, 9);
    row.sql = StrFormat(
        "INSERT INTO purchase VALUES (%lld, %lld, %lld, DATE '%s', DATE '%s', "
        "DATE '%s', %lld, %lld.%02lld, 0.0%lld)",
        static_cast<long long>(row.key), static_cast<long long>(order_key),
        static_cast<long long>(part_key),
        Date::ToString(row.order_date).c_str(),
        Date::ToString(row.ship_date).c_str(),
        Date::ToString(receipt).c_str(), static_cast<long long>(row.quantity),
        static_cast<long long>(price_units),
        static_cast<long long>(price_cents),
        static_cast<long long>(discount_cents));
    return row;
  }

  std::int64_t latest_ship_date() const { return order_date_ + kWindow; }
  Rng* rng() { return &rng_; }

 private:
  Rng rng_;
  std::int64_t next_key_ = 0;
  std::int64_t order_date_ = 0;
};

/// Inserts one row phase by phase: ParseStatement → ImpactAnalyzer →
/// SoftDb::InsertRow with the analyzer's scope (SC maintenance, index and
/// zone-map folds, WAL append).
Status InsertByPhase(SoftDb* db, const std::string& sql, Tracer* tracer) {
  const std::uint64_t stmt = tracer->NextStatement();
  Clock::time_point t = Clock::now();
  SOFTDB_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(sql));
  Clock::time_point u = Clock::now();
  tracer->Span(stmt, "sql.parse", "statement", t, u);
  tracer->Sample("sql.parse_us", MicrosBetween(t, u));

  t = Clock::now();
  const ImpactAnalyzer analyzer(&db->catalog(), &db->ics(), &db->scs());
  SOFTDB_ASSIGN_OR_RETURN(DmlImpact impact,
                          analyzer.AnalyzeInsert(*parsed.insert));
  const std::set<std::string> scope = impact.ImpactSet();
  u = Clock::now();
  tracer->Span(stmt, "analysis.impact", "statement", t, u);
  tracer->Sample("analysis.impact_us", MicrosBetween(t, u));
  tracer->Sample("analysis.impacted", static_cast<double>(impact.impacted.size()));
  tracer->Sample("analysis.candidates", static_cast<double>(impact.candidates));

  t = Clock::now();
  for (const std::vector<ExprPtr>& exprs : parsed.insert->rows) {
    std::vector<Value> row;
    for (const ExprPtr& e : exprs) {
      SOFTDB_ASSIGN_OR_RETURN(Value v, e->Eval({}));
      row.push_back(std::move(v));
    }
    SOFTDB_RETURN_IF_ERROR(db->InsertRow(parsed.insert->table, row, &scope));
  }
  u = Clock::now();
  tracer->Span(stmt, "constraints.insert_row", "statement", t, u);
  tracer->Sample("constraints.insert_row_us", MicrosBetween(t, u));
  return Status::OK();
}

}  // namespace

Report RunIngestWal(const RunOptions& options) {
  Report report;
  // --- Set-up: generate purchase, arm the ship-window ASC (async repair),
  // mine zone maps, checkpoint (the generator writes around the WAL).
  const std::string wal_dir = options.out_dir + "/wal-ingest_wal";
  ResetDir(wal_dir);
  EngineOptions engine_options;
  engine_options.wal_dir = wal_dir;
  engine_options.wal_sync_every_n = kSyncEveryN;
  auto db = std::make_unique<SoftDb>(engine_options);
  WorkloadOptions data;
  data.seed = options.seed;
  data.ship_conf = 1.0;
  data.ship_window = kWindow;
  MustOk(GeneratePurchaseTable(db.get(), data), "GeneratePurchaseTable");
  MustOk(db->Analyze("purchase"), "Analyze");
  Result<std::string> window = RegisterShipWindowSc(db.get(), kWindow);
  MustOk(window.status(), "ship-window SC");
  db->scs().Find(*window)->set_policy(ScMaintenancePolicy::kAsyncRepair);
  MustOk(db->MineZoneMaps("purchase"), "zone maps");
  const Clock::time_point c0 = Clock::now();
  MustOk(db->Checkpoint(), "Checkpoint");
  const double checkpoint_s = SecondsSince(c0);
  const double setup_s = SecondsSinceProcessStart();

  // The client's own record of acknowledged writes.
  TableDigest acked = Digest(Purchase(db.get()));
  RowStream stream(Purchase(db.get()), options.seed * 0x9E3779B97F4A7C15ULL + 0x1A6E);

  std::unique_ptr<Tracer> tracer =
      options.trace ? std::make_unique<Tracer>() : nullptr;
  Client client(db.get(), tracer.get(), &report);
  std::uint64_t rows_inserted = 0, dml_statements = 0;

  // Inserts the stream's next row; returns it once acknowledged.
  auto insert = [&](bool late) -> std::optional<RowStream::Row> {
    RowStream::Row row = stream.Next(late);
    bool ok = false;
    if (tracer != nullptr && rows_inserted % 2 == 0) {
      // Traced: every other insert goes phase by phase, timed per phase.
      ++report.attempted;
      const Status st = InsertByPhase(db.get(), row.sql, tracer.get());
      ok = st.ok();
      if (!ok) ++report.failed;
    } else {
      ok = client.Execute(row.sql).has_value();
    }
    ++dml_statements;
    if (!ok) return std::nullopt;
    ++rows_inserted;
    acked.rows += 1;
    acked.checksum += RowChecksum(row.key, row.ship_date, row.quantity);
    return row;
  };
  auto read = [&](int n) {
    const Read r = MakeRead(n, stream.latest_ship_date(), stream.rng());
    std::optional<QueryResult> res = client.Select(r.sql);
    if (!res) return;
    if (Summarize(res->rows) != ExpectedRead(Purchase(db.get()), r)) {
      report.Fail("read differs from the live rows: " + r.sql);
    }
  };

  const PlanCache& cache = db->plan_cache();
  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses(),
                      inval0 = cache.invalidations();
  const std::uint64_t checks0 = db->scs().stats().row_checks.load();
  const WalStats wal0 = db->wal()->stats();
  std::vector<double> repair_us;
  const int rounds = RoundsFor(options.seconds, kRoundsPerSecond);
  for (int round = 0; round < rounds; ++round) {
    std::optional<RowStream::Row> late;
    for (int i = 1; i <= kInsertsPerRound; ++i) {
      insert(false);
      if (i % kReadEvery == 0) read(i / kReadEvery);
      if (i == kLateAt) late = insert(true);
      if (i == kRetractAt && late) {
        if (client.Execute(StrFormat("DELETE FROM purchase WHERE pu_key = %lld",
                                     static_cast<long long>(late->key)))) {
          acked.rows -= 1;
          acked.checksum -= RowChecksum(late->key, late->ship_date, late->quantity);
        }
        ++dml_statements;
        const Clock::time_point r0 = Clock::now();
        MustOk(client.Operation([&] { return db->RunMaintenance(); }),
               "RunMaintenance");
        repair_us.push_back(MicrosBetween(r0, Clock::now()));
        if (!db->scs().Find(*window)->active()) {
          report.Fail("ship-window ASC not re-armed after repair");
        }
      }
    }
    client.EndRound();
  }
  const WalStats wal1 = db->wal()->stats();
  const double peak_rss_mb = PeakRssMb();

  if (options.trace) {
    AddSelectLayerMetrics(*tracer, client.totals(), cache,
                          cache.hits() - hits0, cache.misses() - misses0,
                          cache.invalidations() - inval0, &report);
    const double rows = std::max<double>(1, static_cast<double>(rows_inserted));
    report.Add("constraints.insert_row_us",
               tracer->MedianOf("constraints.insert_row_us"), "us");
    report.Add("constraints.sc_checks_per_row",
               static_cast<double>(db->scs().stats().row_checks.load() - checks0) /
                   rows,
               "count");
    report.Add("constraints.repair_us", Median(repair_us), "us");
    report.Add("analysis.impact_us", tracer->MedianOf("analysis.impact_us"),
               "us");
    const double candidates = tracer->MeanOf("analysis.candidates");
    report.Add("analysis.impacted_sc_ratio",
               candidates == 0 ? 0 : tracer->MeanOf("analysis.impacted") / candidates,
               "ratio");
    report.Add("storage.wal_fsyncs_per_row",
               static_cast<double>(wal1.fsyncs - wal0.fsyncs) / rows, "count");
    report.Add("storage.wal_records_per_stmt",
               static_cast<double>(wal1.records_appended - wal0.records_appended) /
                   std::max<double>(1, static_cast<double>(dml_statements)),
               "count");
    report.Add("storage.wal_bytes_per_row",
               static_cast<double>(wal1.bytes_appended - wal0.bytes_appended) /
                   rows,
               "bytes");
    report.Add("storage.checkpoint_s", checkpoint_s, "s");
    tracer->WriteSpans(options.out_dir + "/trace-ingest_wal.jsonl");
  }

  // --- Correctness: live table against the client's record.
  if (options.plant_wrong) acked.checksum += 1;
  if (Digest(Purchase(db.get())) != acked) {
    report.Fail("live purchase table differs from the acknowledged writes");
  }
  CheckActiveScs(db.get(), &report);

  // --- Clean shutdown, then timed recoveries of the log.
  MustOk(db->wal()->Sync(), "WAL sync");
  db.reset();
  const double recover_s = TimeRecovery(wal_dir, 5, [&](SoftDb* recovered) {
    if (Digest(Purchase(recovered)) != acked) {
      report.Fail("recovered purchase table differs from the acknowledged writes");
    }
    CheckActiveScs(recovered, &report);
  });
  RemoveDir(wal_dir);
  if (options.trace) report.Add("storage.recover_s", recover_s, "s");

  if (!options.trace) {
    report.Add("setup_s", setup_s, "s");
    client.AddEndToEndMetrics(&report);
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
  }
  return report;
}

}  // namespace softdb::perfbench
