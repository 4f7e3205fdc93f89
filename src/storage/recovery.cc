#include "storage/recovery.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "constraints/column_offset_sc.h"
#include "constraints/domain_sc.h"
#include "constraints/fd_sc.h"
#include "constraints/inclusion_sc.h"
#include "constraints/integrity.h"
#include "constraints/join_hole_sc.h"
#include "constraints/linear_correlation_sc.h"
#include "constraints/predicate_sc.h"
#include "constraints/zone_map_sc.h"
#include "engine/softdb.h"
#include "sql/parser.h"
#include "stats/analyzer.h"
#include "storage/catalog.h"

namespace softdb {

namespace {

constexpr char kCheckpointMagic[8] = {'S', 'D', 'B', 'C', 'K', 'P', 'T', '1'};

Status WriteFileDurable(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("cannot create " + path);
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      ::close(fd);
      return Status::IOError("write failed for " + path);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IOError("fsync failed for " + path);
  }
  if (::close(fd) != 0) return Status::IOError("close failed for " + path);
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed for " + path);
  return bytes;
}

void EncodeHistogram(const EquiDepthHistogram& h, BinWriter* w) {
  w->PutU64(h.total_count());
  w->PutU32(static_cast<std::uint32_t>(h.buckets().size()));
  for (const EquiDepthHistogram::Bucket& b : h.buckets()) {
    w->PutDouble(b.lo);
    w->PutDouble(b.hi);
    w->PutU64(b.count);
    w->PutU64(b.distinct);
  }
}

Result<EquiDepthHistogram> DecodeHistogram(BinReader* r) {
  SOFTDB_ASSIGN_OR_RETURN(std::uint64_t total, r->GetU64());
  SOFTDB_ASSIGN_OR_RETURN(std::uint32_t n, r->GetU32());
  std::vector<EquiDepthHistogram::Bucket> buckets;
  buckets.reserve(std::min<std::uint32_t>(n, 4096));
  for (std::uint32_t i = 0; i < n; ++i) {
    EquiDepthHistogram::Bucket b;
    SOFTDB_ASSIGN_OR_RETURN(b.lo, r->GetDouble());
    SOFTDB_ASSIGN_OR_RETURN(b.hi, r->GetDouble());
    SOFTDB_ASSIGN_OR_RETURN(b.count, r->GetU64());
    SOFTDB_ASSIGN_OR_RETURN(b.distinct, r->GetU64());
    buckets.push_back(b);
  }
  return EquiDepthHistogram::FromParts(std::move(buckets), total);
}

void EncodeColumnList(const std::vector<ColumnIdx>& cols, BinWriter* w) {
  w->PutU32(static_cast<std::uint32_t>(cols.size()));
  for (ColumnIdx c : cols) w->PutU32(c);
}

Result<std::vector<ColumnIdx>> DecodeColumnList(BinReader* r) {
  SOFTDB_ASSIGN_OR_RETURN(std::uint32_t n, r->GetU32());
  std::vector<ColumnIdx> cols;
  cols.reserve(std::min<std::uint32_t>(n, 4096));
  for (std::uint32_t i = 0; i < n; ++i) {
    SOFTDB_ASSIGN_OR_RETURN(ColumnIdx c, r->GetU32());
    cols.push_back(c);
  }
  return cols;
}

/// Reads one u8 and checks it is a valid enumerator (<= `max`). The CRC
/// already rules out corruption; this catches version-skewed files.
Result<std::uint8_t> GetEnumU8(BinReader* r, std::uint8_t max,
                               const char* what) {
  SOFTDB_ASSIGN_OR_RETURN(std::uint8_t v, r->GetU8());
  if (v > max) {
    return Status::DataLoss(StrFormat("invalid %s enum value %u", what, v));
  }
  return v;
}

/// A durable →active transition awaiting its commit record during replay.
struct PendingArm {
  ScState from = ScState::kActive;
  ScState to = ScState::kActive;
  std::uint64_t epoch = 0;
  ScArmMode mode = ScArmMode::kNone;
};

}  // namespace

// ---------------------------------------------------------------------------
// DurabilityManager: record encoders.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    std::string dir, std::uint64_t seq, std::size_t sync_every_n) {
  SOFTDB_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> writer,
                          WalWriter::Open(dir, seq, sync_every_n));
  return std::unique_ptr<DurabilityManager>(
      new DurabilityManager(std::move(dir), std::move(writer)));
}

Status DurabilityManager::LogDdl(const std::string& sql) {
  BinWriter w;
  w.PutString(sql);
  return writer_->Append(WalRecordKind::kDdl, w.data());
}

Status DurabilityManager::LogInsert(const std::string& table,
                                    const std::vector<Value>& row) {
  BinWriter w;
  w.PutString(table);
  w.PutU32(static_cast<std::uint32_t>(row.size()));
  for (const Value& v : row) w.PutValue(v);
  return writer_->Append(WalRecordKind::kInsert, w.data());
}

Status DurabilityManager::LogUpdate(const std::string& table, RowId rid,
                                    const std::vector<Value>& new_row) {
  BinWriter w;
  w.PutString(table);
  w.PutU64(rid);
  w.PutU32(static_cast<std::uint32_t>(new_row.size()));
  for (const Value& v : new_row) w.PutValue(v);
  return writer_->Append(WalRecordKind::kUpdate, w.data());
}

Status DurabilityManager::LogDelete(const std::string& table, RowId rid) {
  BinWriter w;
  w.PutString(table);
  w.PutU64(rid);
  return writer_->Append(WalRecordKind::kDelete, w.data());
}

Status DurabilityManager::LogExceptionAst(const std::string& sc_name) {
  BinWriter w;
  w.PutString(sc_name);
  return writer_->Append(WalRecordKind::kExceptionAst, w.data());
}

Status DurabilityManager::LogRegister(const SoftConstraint& sc) {
  BinWriter w;
  SOFTDB_RETURN_IF_ERROR(EncodeSoftConstraint(sc, &w));
  return writer_->Append(WalRecordKind::kScRegister, w.data());
}

Status DurabilityManager::LogDrop(const SoftConstraint& sc) {
  BinWriter w;
  w.PutString(sc.name());
  return writer_->Append(WalRecordKind::kScDrop, w.data());
}

Status DurabilityManager::LogTransition(const SoftConstraint& sc, ScState from,
                                        ScState to, ScArmMode mode) {
  BinWriter w;
  w.PutString(sc.name());
  w.PutU8(static_cast<std::uint8_t>(from));
  w.PutU8(static_cast<std::uint8_t>(to));
  w.PutU64(sc.epoch());
  w.PutU8(static_cast<std::uint8_t>(mode));
  return writer_->Append(WalRecordKind::kScTransition, w.data());
}

Status DurabilityManager::LogArmCommit(const SoftConstraint& sc) {
  BinWriter w;
  w.PutString(sc.name());
  w.PutU64(sc.epoch());
  return writer_->Append(WalRecordKind::kScArmCommit, w.data());
}

Status DurabilityManager::LogAudit(const RepairAuditRecord& record) {
  BinWriter w;
  w.PutString(record.sc_name);
  w.PutU64(record.attempts);
  w.PutString(record.last_error);
  w.PutString(record.action);
  return writer_->Append(WalRecordKind::kScAudit, w.data());
}

// ---------------------------------------------------------------------------
// Soft-constraint serialization.
// ---------------------------------------------------------------------------

Status EncodeSoftConstraint(const SoftConstraint& sc, BinWriter* w) {
  w->PutU8(static_cast<std::uint8_t>(sc.kind()));
  w->PutString(sc.name());
  w->PutString(sc.table());
  w->PutU8(static_cast<std::uint8_t>(sc.state()));
  w->PutU64(sc.epoch());
  w->PutDouble(sc.confidence());
  w->PutU8(static_cast<std::uint8_t>(sc.policy()));
  w->PutU64(sc.verified_version());
  w->PutU64(sc.verified_rows());

  switch (sc.kind()) {
    case ScKind::kLinearCorrelation: {
      const auto& lc = static_cast<const LinearCorrelationSc&>(sc);
      const LinearCorrelationSc::Band band = lc.band();
      w->PutU32(lc.col_a());
      w->PutU32(lc.col_b());
      w->PutDouble(band.k);
      w->PutDouble(band.c);
      w->PutDouble(band.epsilon);
      return Status::OK();
    }
    case ScKind::kColumnOffset: {
      const auto& co = static_cast<const ColumnOffsetSc&>(sc);
      const auto [min_offset, max_offset] = co.offset_range();
      w->PutU32(co.col_x());
      w->PutU32(co.col_y());
      w->PutI64(min_offset);
      w->PutI64(max_offset);
      EncodeHistogram(co.duration_histogram(), w);
      return Status::OK();
    }
    case ScKind::kJoinHole: {
      const auto& jh = static_cast<const JoinHoleSc&>(sc);
      w->PutU32(jh.left_join_col());
      w->PutU32(jh.attr_a());
      w->PutString(jh.right_table());
      w->PutU32(jh.right_join_col());
      w->PutU32(jh.attr_b());
      const std::vector<HoleRect> holes = jh.holes();
      w->PutU32(static_cast<std::uint32_t>(holes.size()));
      for (const HoleRect& h : holes) {
        w->PutDouble(h.a_lo);
        w->PutDouble(h.a_hi);
        w->PutDouble(h.b_lo);
        w->PutDouble(h.b_hi);
      }
      return Status::OK();
    }
    case ScKind::kFunctionalDependency: {
      const auto& fd = static_cast<const FunctionalDependencySc&>(sc);
      EncodeColumnList(fd.determinants(), w);
      EncodeColumnList(fd.dependents(), w);
      return Status::OK();
    }
    case ScKind::kInclusion: {
      const auto& inc = static_cast<const InclusionSc&>(sc);
      EncodeColumnList(inc.child_columns(), w);
      w->PutString(inc.parent_table());
      EncodeColumnList(inc.parent_columns(), w);
      return Status::OK();
    }
    case ScKind::kDomain: {
      const auto& dom = static_cast<const DomainSc&>(sc);
      w->PutU32(dom.column());
      w->PutValue(dom.min_value());
      w->PutValue(dom.max_value());
      return Status::OK();
    }
    case ScKind::kPredicate: {
      const auto& pred = static_cast<const PredicateSc&>(sc);
      // Round-trip through the SQL rendering; decode re-parses and re-binds
      // against the table schema (the softdb_lint catalog-dump idiom).
      w->PutString(pred.expr().ToString());
      return Status::OK();
    }
    case ScKind::kBlockZoneMap: {
      const auto& zm = static_cast<const ZoneMapSc&>(sc);
      w->PutU32(zm.column());
      const std::vector<ZoneMapSc::BlockSma> blocks = zm.SnapshotBlocks();
      w->PutU32(static_cast<std::uint32_t>(blocks.size()));
      for (const ZoneMapSc::BlockSma& b : blocks) {
        w->PutDouble(b.min);
        w->PutDouble(b.max);
        w->PutU8(b.has_value ? 1 : 0);
        w->PutU64(b.null_count);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled SC kind in EncodeSoftConstraint");
}

Result<ScPtr> DecodeSoftConstraint(BinReader* r, const Catalog& catalog) {
  SOFTDB_ASSIGN_OR_RETURN(
      std::uint8_t kind_raw,
      GetEnumU8(r, static_cast<std::uint8_t>(ScKind::kBlockZoneMap),
                "ScKind"));
  const ScKind kind = static_cast<ScKind>(kind_raw);
  SOFTDB_ASSIGN_OR_RETURN(std::string name, r->GetString());
  SOFTDB_ASSIGN_OR_RETURN(std::string table, r->GetString());
  SOFTDB_ASSIGN_OR_RETURN(
      std::uint8_t state_raw,
      GetEnumU8(r, static_cast<std::uint8_t>(ScState::kDropped), "ScState"));
  SOFTDB_ASSIGN_OR_RETURN(std::uint64_t epoch, r->GetU64());
  SOFTDB_ASSIGN_OR_RETURN(double confidence, r->GetDouble());
  SOFTDB_ASSIGN_OR_RETURN(
      std::uint8_t policy_raw,
      GetEnumU8(r, static_cast<std::uint8_t>(ScMaintenancePolicy::kTolerate),
                "ScMaintenancePolicy"));
  SOFTDB_ASSIGN_OR_RETURN(std::uint64_t verified_version, r->GetU64());
  SOFTDB_ASSIGN_OR_RETURN(std::uint64_t verified_rows, r->GetU64());

  ScPtr sc;
  switch (kind) {
    case ScKind::kLinearCorrelation: {
      SOFTDB_ASSIGN_OR_RETURN(ColumnIdx col_a, r->GetU32());
      SOFTDB_ASSIGN_OR_RETURN(ColumnIdx col_b, r->GetU32());
      SOFTDB_ASSIGN_OR_RETURN(double k, r->GetDouble());
      SOFTDB_ASSIGN_OR_RETURN(double c, r->GetDouble());
      SOFTDB_ASSIGN_OR_RETURN(double epsilon, r->GetDouble());
      sc = std::make_unique<LinearCorrelationSc>(name, table, col_a, col_b, k,
                                                 c, epsilon);
      break;
    }
    case ScKind::kColumnOffset: {
      SOFTDB_ASSIGN_OR_RETURN(ColumnIdx col_x, r->GetU32());
      SOFTDB_ASSIGN_OR_RETURN(ColumnIdx col_y, r->GetU32());
      SOFTDB_ASSIGN_OR_RETURN(std::int64_t min_offset, r->GetI64());
      SOFTDB_ASSIGN_OR_RETURN(std::int64_t max_offset, r->GetI64());
      SOFTDB_ASSIGN_OR_RETURN(EquiDepthHistogram hist, DecodeHistogram(r));
      auto co = std::make_unique<ColumnOffsetSc>(name, table, col_x, col_y,
                                                 min_offset, max_offset);
      co->RestoreDurationHistogram(std::move(hist));
      sc = std::move(co);
      break;
    }
    case ScKind::kJoinHole: {
      SOFTDB_ASSIGN_OR_RETURN(ColumnIdx left_join_col, r->GetU32());
      SOFTDB_ASSIGN_OR_RETURN(ColumnIdx attr_a, r->GetU32());
      SOFTDB_ASSIGN_OR_RETURN(std::string right_table, r->GetString());
      SOFTDB_ASSIGN_OR_RETURN(ColumnIdx right_join_col, r->GetU32());
      SOFTDB_ASSIGN_OR_RETURN(ColumnIdx attr_b, r->GetU32());
      SOFTDB_ASSIGN_OR_RETURN(std::uint32_t n, r->GetU32());
      std::vector<HoleRect> holes;
      holes.reserve(std::min<std::uint32_t>(n, 4096));
      for (std::uint32_t i = 0; i < n; ++i) {
        HoleRect h;
        SOFTDB_ASSIGN_OR_RETURN(h.a_lo, r->GetDouble());
        SOFTDB_ASSIGN_OR_RETURN(h.a_hi, r->GetDouble());
        SOFTDB_ASSIGN_OR_RETURN(h.b_lo, r->GetDouble());
        SOFTDB_ASSIGN_OR_RETURN(h.b_hi, r->GetDouble());
        holes.push_back(h);
      }
      sc = std::make_unique<JoinHoleSc>(name, table, left_join_col, attr_a,
                                        right_table, right_join_col, attr_b,
                                        std::move(holes));
      break;
    }
    case ScKind::kFunctionalDependency: {
      SOFTDB_ASSIGN_OR_RETURN(std::vector<ColumnIdx> det, DecodeColumnList(r));
      SOFTDB_ASSIGN_OR_RETURN(std::vector<ColumnIdx> dep, DecodeColumnList(r));
      sc = std::make_unique<FunctionalDependencySc>(name, table,
                                                    std::move(det),
                                                    std::move(dep));
      break;
    }
    case ScKind::kInclusion: {
      SOFTDB_ASSIGN_OR_RETURN(std::vector<ColumnIdx> child_cols,
                              DecodeColumnList(r));
      SOFTDB_ASSIGN_OR_RETURN(std::string parent, r->GetString());
      SOFTDB_ASSIGN_OR_RETURN(std::vector<ColumnIdx> parent_cols,
                              DecodeColumnList(r));
      sc = std::make_unique<InclusionSc>(name, table, std::move(child_cols),
                                         parent, std::move(parent_cols));
      break;
    }
    case ScKind::kDomain: {
      SOFTDB_ASSIGN_OR_RETURN(ColumnIdx column, r->GetU32());
      SOFTDB_ASSIGN_OR_RETURN(Value min, r->GetValue());
      SOFTDB_ASSIGN_OR_RETURN(Value max, r->GetValue());
      sc = std::make_unique<DomainSc>(name, table, column, std::move(min),
                                      std::move(max));
      break;
    }
    case ScKind::kPredicate: {
      SOFTDB_ASSIGN_OR_RETURN(std::string text, r->GetString());
      SOFTDB_ASSIGN_OR_RETURN(Table * t, catalog.GetTable(table));
      SOFTDB_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(text));
      SOFTDB_RETURN_IF_ERROR(expr->Bind(t->schema()));
      sc = std::make_unique<PredicateSc>(name, table, std::move(expr));
      break;
    }
    case ScKind::kBlockZoneMap: {
      SOFTDB_ASSIGN_OR_RETURN(ColumnIdx column, r->GetU32());
      SOFTDB_ASSIGN_OR_RETURN(std::uint32_t n, r->GetU32());
      auto zm = std::make_unique<ZoneMapSc>(name, table, column);
      for (std::uint32_t i = 0; i < n; ++i) {
        ZoneMapSc::BlockSma b;
        SOFTDB_ASSIGN_OR_RETURN(b.min, r->GetDouble());
        SOFTDB_ASSIGN_OR_RETURN(b.max, r->GetDouble());
        SOFTDB_ASSIGN_OR_RETURN(std::uint8_t has_value, r->GetU8());
        b.has_value = has_value != 0;
        SOFTDB_ASSIGN_OR_RETURN(b.null_count, r->GetU64());
        zm->DeclareBlock(i, b);
      }
      sc = std::move(zm);
      break;
    }
  }
  if (sc == nullptr) {
    return Status::DataLoss("undecodable SC kind in checkpoint/WAL");
  }
  sc->RestoreLifecycle(static_cast<ScState>(state_raw), epoch, confidence,
                       static_cast<ScMaintenancePolicy>(policy_raw),
                       verified_version, verified_rows);
  return sc;
}

// ---------------------------------------------------------------------------
// Checkpoint body (engine-state snapshot).
// ---------------------------------------------------------------------------

namespace {

void EncodeTables(const Catalog& catalog, BinWriter* w) {
  const std::vector<std::string> names = catalog.TableNames();
  w->PutU32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    const Table* table = catalog.GetTable(name).value();
    w->PutString(table->name());
    const Schema& schema = table->schema();
    w->PutU32(static_cast<std::uint32_t>(schema.NumColumns()));
    for (std::size_t c = 0; c < schema.NumColumns(); ++c) {
      const ColumnDef& def = schema.Column(static_cast<ColumnIdx>(c));
      w->PutString(def.name);
      w->PutU8(static_cast<std::uint8_t>(def.type));
      w->PutU8(def.nullable ? 1 : 0);
    }
    w->PutU64(table->version());
    // Every slot, tombstones included: RowIds are load-bearing (indexes,
    // zone-map blocks, logged UPDATE/DELETE positions), so the restore
    // re-appends dead rows and re-deletes them to reproduce slot layout.
    w->PutU64(table->NumSlots());
    for (RowId rid = 0; rid < table->NumSlots(); ++rid) {
      w->PutU8(table->IsLive(rid) ? 1 : 0);
      const std::vector<Value> row = table->GetRow(rid);
      for (const Value& v : row) w->PutValue(v);
    }
  }
}

void EncodeIndexes(const Catalog& catalog, BinWriter* w) {
  std::vector<const Index*> indexes;
  for (const std::string& name : catalog.TableNames()) {
    for (const Index* idx : catalog.IndexesOn(name)) indexes.push_back(idx);
  }
  w->PutU32(static_cast<std::uint32_t>(indexes.size()));
  for (const Index* idx : indexes) {
    w->PutString(idx->name());
    w->PutString(idx->table()->name());
    w->PutString(idx->table()->schema().Column(idx->column()).name);
  }
}

Status EncodeIntegrityConstraints(const IcRegistry& ics, BinWriter* w) {
  const std::vector<IntegrityConstraint*> all = ics.All();
  w->PutU32(static_cast<std::uint32_t>(all.size()));
  for (const IntegrityConstraint* ic : all) {
    w->PutU8(static_cast<std::uint8_t>(ic->kind()));
    w->PutString(ic->name());
    w->PutString(ic->table());
    w->PutU8(static_cast<std::uint8_t>(ic->mode()));
    switch (ic->kind()) {
      case IcKind::kUnique: {
        const auto* uq = static_cast<const UniqueConstraint*>(ic);
        w->PutU8(uq->is_primary() ? 1 : 0);
        EncodeColumnList(uq->columns(), w);
        break;
      }
      case IcKind::kCheck: {
        const auto* ck = static_cast<const CheckConstraint*>(ic);
        w->PutString(ck->expr().ToString());
        break;
      }
      case IcKind::kForeignKey: {
        const auto* fk = static_cast<const ForeignKeyConstraint*>(ic);
        EncodeColumnList(fk->columns(), w);
        w->PutString(fk->parent_table());
        EncodeColumnList(fk->parent_columns(), w);
        break;
      }
    }
  }
  return Status::OK();
}

void EncodeStats(const StatsCatalog& stats, BinWriter* w) {
  const std::vector<std::string> names = stats.AnalyzedTables();
  w->PutU32(static_cast<std::uint32_t>(names.size()));
  for (const std::string& name : names) {
    const TableStats* ts = stats.Get(name);
    w->PutString(name);
    w->PutU64(ts->row_count);
    w->PutU64(ts->analyzed_version);
    w->PutU32(static_cast<std::uint32_t>(ts->columns.size()));
    for (const ColumnStats& cs : ts->columns) {
      w->PutU64(cs.row_count);
      w->PutU64(cs.null_count);
      w->PutU64(cs.distinct_count);
      w->PutU8(cs.min.has_value() ? 1 : 0);
      if (cs.min.has_value()) w->PutValue(*cs.min);
      w->PutU8(cs.max.has_value() ? 1 : 0);
      if (cs.max.has_value()) w->PutValue(*cs.max);
      EncodeHistogram(cs.histogram, w);
      w->PutU32(static_cast<std::uint32_t>(cs.mcvs.size()));
      for (const FrequentValue& fv : cs.mcvs) {
        w->PutValue(fv.value);
        w->PutU64(fv.count);
      }
    }
  }
}

Status DecodeTables(BinReader* r, Catalog* catalog) {
  SOFTDB_ASSIGN_OR_RETURN(std::uint32_t ntables, r->GetU32());
  for (std::uint32_t t = 0; t < ntables; ++t) {
    SOFTDB_ASSIGN_OR_RETURN(std::string name, r->GetString());
    SOFTDB_ASSIGN_OR_RETURN(std::uint32_t ncols, r->GetU32());
    Schema schema;
    for (std::uint32_t c = 0; c < ncols; ++c) {
      ColumnDef def;
      SOFTDB_ASSIGN_OR_RETURN(def.name, r->GetString());
      SOFTDB_ASSIGN_OR_RETURN(
          std::uint8_t type_raw,
          GetEnumU8(r, static_cast<std::uint8_t>(TypeId::kBool), "TypeId"));
      def.type = static_cast<TypeId>(type_raw);
      SOFTDB_ASSIGN_OR_RETURN(std::uint8_t nullable, r->GetU8());
      def.nullable = nullable != 0;
      schema.AddColumn(std::move(def));
    }
    SOFTDB_ASSIGN_OR_RETURN(Table * table,
                            catalog->CreateTable(name, std::move(schema)));
    SOFTDB_ASSIGN_OR_RETURN(std::uint64_t version, r->GetU64());
    SOFTDB_ASSIGN_OR_RETURN(std::uint64_t nslots, r->GetU64());
    const std::size_t arity = table->schema().NumColumns();
    for (std::uint64_t rid = 0; rid < nslots; ++rid) {
      SOFTDB_ASSIGN_OR_RETURN(std::uint8_t live, r->GetU8());
      std::vector<Value> row;
      row.reserve(arity);
      for (std::size_t c = 0; c < arity; ++c) {
        SOFTDB_ASSIGN_OR_RETURN(Value v, r->GetValue());
        row.push_back(std::move(v));
      }
      SOFTDB_ASSIGN_OR_RETURN(RowId got, table->Append(row));
      if (got != rid) {
        return Status::DataLoss(
            StrFormat("checkpoint restore: slot %llu of %s landed at %llu",
                      static_cast<unsigned long long>(rid), name.c_str(),
                      static_cast<unsigned long long>(got)));
      }
      if (live == 0) SOFTDB_RETURN_IF_ERROR(table->Delete(got));
    }
    table->RestoreVersion(version);
  }
  return Status::OK();
}

Status DecodeIndexes(BinReader* r, Catalog* catalog) {
  SOFTDB_ASSIGN_OR_RETURN(std::uint32_t n, r->GetU32());
  for (std::uint32_t i = 0; i < n; ++i) {
    SOFTDB_ASSIGN_OR_RETURN(std::string index_name, r->GetString());
    SOFTDB_ASSIGN_OR_RETURN(std::string table_name, r->GetString());
    SOFTDB_ASSIGN_OR_RETURN(std::string column_name, r->GetString());
    SOFTDB_RETURN_IF_ERROR(
        catalog->CreateIndex(index_name, table_name, column_name).status());
  }
  return Status::OK();
}

Status DecodeIntegrityConstraints(BinReader* r, const Catalog& catalog,
                                  IcRegistry* ics) {
  SOFTDB_ASSIGN_OR_RETURN(std::uint32_t n, r->GetU32());
  for (std::uint32_t i = 0; i < n; ++i) {
    SOFTDB_ASSIGN_OR_RETURN(
        std::uint8_t kind_raw,
        GetEnumU8(r, static_cast<std::uint8_t>(IcKind::kForeignKey),
                  "IcKind"));
    SOFTDB_ASSIGN_OR_RETURN(std::string name, r->GetString());
    SOFTDB_ASSIGN_OR_RETURN(std::string table, r->GetString());
    SOFTDB_ASSIGN_OR_RETURN(
        std::uint8_t mode_raw,
        GetEnumU8(r,
                  static_cast<std::uint8_t>(ConstraintMode::kInformational),
                  "ConstraintMode"));
    const ConstraintMode mode = static_cast<ConstraintMode>(mode_raw);
    IcPtr ic;
    switch (static_cast<IcKind>(kind_raw)) {
      case IcKind::kUnique: {
        SOFTDB_ASSIGN_OR_RETURN(std::uint8_t is_primary, r->GetU8());
        SOFTDB_ASSIGN_OR_RETURN(std::vector<ColumnIdx> cols,
                                DecodeColumnList(r));
        ic = std::make_unique<UniqueConstraint>(name, table, std::move(cols),
                                                is_primary != 0, mode);
        break;
      }
      case IcKind::kCheck: {
        SOFTDB_ASSIGN_OR_RETURN(std::string text, r->GetString());
        SOFTDB_ASSIGN_OR_RETURN(Table * t, catalog.GetTable(table));
        SOFTDB_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(text));
        SOFTDB_RETURN_IF_ERROR(expr->Bind(t->schema()));
        ic = std::make_unique<CheckConstraint>(name, table, std::move(expr),
                                               mode);
        break;
      }
      case IcKind::kForeignKey: {
        SOFTDB_ASSIGN_OR_RETURN(std::vector<ColumnIdx> cols,
                                DecodeColumnList(r));
        SOFTDB_ASSIGN_OR_RETURN(std::string parent, r->GetString());
        SOFTDB_ASSIGN_OR_RETURN(std::vector<ColumnIdx> parent_cols,
                                DecodeColumnList(r));
        ic = std::make_unique<ForeignKeyConstraint>(name, table,
                                                    std::move(cols), parent,
                                                    std::move(parent_cols),
                                                    mode);
        break;
      }
    }
    SOFTDB_RETURN_IF_ERROR(ics->Add(std::move(ic), catalog));
  }
  return Status::OK();
}

Status DecodeStats(BinReader* r, StatsCatalog* stats) {
  SOFTDB_ASSIGN_OR_RETURN(std::uint32_t n, r->GetU32());
  for (std::uint32_t i = 0; i < n; ++i) {
    SOFTDB_ASSIGN_OR_RETURN(std::string name, r->GetString());
    TableStats ts;
    SOFTDB_ASSIGN_OR_RETURN(ts.row_count, r->GetU64());
    SOFTDB_ASSIGN_OR_RETURN(ts.analyzed_version, r->GetU64());
    SOFTDB_ASSIGN_OR_RETURN(std::uint32_t ncols, r->GetU32());
    for (std::uint32_t c = 0; c < ncols; ++c) {
      ColumnStats cs;
      SOFTDB_ASSIGN_OR_RETURN(cs.row_count, r->GetU64());
      SOFTDB_ASSIGN_OR_RETURN(cs.null_count, r->GetU64());
      SOFTDB_ASSIGN_OR_RETURN(cs.distinct_count, r->GetU64());
      SOFTDB_ASSIGN_OR_RETURN(std::uint8_t has_min, r->GetU8());
      if (has_min != 0) {
        SOFTDB_ASSIGN_OR_RETURN(Value v, r->GetValue());
        cs.min = std::move(v);
      }
      SOFTDB_ASSIGN_OR_RETURN(std::uint8_t has_max, r->GetU8());
      if (has_max != 0) {
        SOFTDB_ASSIGN_OR_RETURN(Value v, r->GetValue());
        cs.max = std::move(v);
      }
      SOFTDB_ASSIGN_OR_RETURN(cs.histogram, DecodeHistogram(r));
      SOFTDB_ASSIGN_OR_RETURN(std::uint32_t nmcvs, r->GetU32());
      for (std::uint32_t m = 0; m < nmcvs; ++m) {
        FrequentValue fv;
        SOFTDB_ASSIGN_OR_RETURN(fv.value, r->GetValue());
        SOFTDB_ASSIGN_OR_RETURN(fv.count, r->GetU64());
        cs.mcvs.push_back(std::move(fv));
      }
      ts.columns.push_back(std::move(cs));
    }
    stats->Restore(name, std::move(ts));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// SoftDb::Checkpoint — the six-step protocol documented in recovery.h.
// ---------------------------------------------------------------------------

Status SoftDb::Checkpoint() {
  std::unique_lock<RwLock> lock(engine_mu_);
  SOFTDB_RETURN_IF_ERROR(WalReady());
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "checkpoint requires a WAL (set EngineOptions::wal_dir)");
  }
  const std::string& dir = wal_->dir();
  WalWriter& writer = wal_->writer();

  // Step 1: mark the checkpoint in the log. Everything at or before this
  // marker will be superseded by the snapshot.
  SOFTDB_INJECT_FAULT("wal.checkpoint_begin",
                      Status::IOError("injected fault: wal.checkpoint_begin"));
  SOFTDB_RETURN_IF_ERROR(writer.Append(WalRecordKind::kCheckpointBegin, ""));
  SOFTDB_RETURN_IF_ERROR(writer.Sync());
  const std::uint64_t sealed_seq = writer.seq();

  // Step 2: snapshot the full engine state to checkpoint.tmp. The engine
  // lock keeps statements out; the repair worker must be stopped or idle.
  BinWriter body;
  body.PutU64(sealed_seq + 1);  // wal_start_seq: replay begins here.
  EncodeTables(catalog_, &body);
  EncodeIndexes(catalog_, &body);
  SOFTDB_RETURN_IF_ERROR(EncodeIntegrityConstraints(ics_, &body));
  body.PutU64(ic_name_counter_);
  EncodeStats(stats_, &body);
  {
    const std::vector<SoftConstraint*> all = scs_.All();
    body.PutU32(static_cast<std::uint32_t>(all.size()));
    for (const SoftConstraint* sc : all) {
      SOFTDB_RETURN_IF_ERROR(EncodeSoftConstraint(*sc, &body));
    }
  }
  {
    const auto tickets = scs_.TicketSnapshot();
    body.PutU32(static_cast<std::uint32_t>(tickets.size()));
    for (const auto& [name, attempts] : tickets) {
      body.PutString(name);
      body.PutU64(attempts);
    }
    const auto audits = scs_.repair_audit();
    body.PutU32(static_cast<std::uint32_t>(audits.size()));
    for (const RepairAuditRecord& rec : audits) {
      body.PutString(rec.sc_name);
      body.PutU64(rec.attempts);
      body.PutString(rec.last_error);
      body.PutString(rec.action);
    }
    const auto uses = scs_.UseSnapshot();
    body.PutU32(static_cast<std::uint32_t>(uses.size()));
    for (const auto& [name, count, benefit] : uses) {
      body.PutString(name);
      body.PutU64(count);
      body.PutDouble(benefit);
    }
  }
  {
    body.PutU32(static_cast<std::uint32_t>(exception_asts_.size()));
    for (const auto& [sc_name, view_name] : exception_asts_) {
      (void)view_name;  // Derived ("exc_" + sc_name); recreated on load.
      body.PutString(sc_name);
    }
  }
  std::string file(kCheckpointMagic, sizeof(kCheckpointMagic));
  const std::uint32_t crc = Crc32(body.data().data(), body.data().size());
  BinWriter crc_bytes;
  crc_bytes.PutU32(crc);
  file += crc_bytes.data();
  file += body.data();
  SOFTDB_RETURN_IF_ERROR(WriteFileDurable(CheckpointTmpPath(dir), file));

  // Step 3: the end marker makes "a complete snapshot exists" durable.
  SOFTDB_INJECT_FAULT("wal.checkpoint_end",
                      Status::IOError("injected fault: wal.checkpoint_end"));
  SOFTDB_RETURN_IF_ERROR(writer.Append(WalRecordKind::kCheckpointEnd, ""));
  SOFTDB_RETURN_IF_ERROR(writer.Sync());

  // Step 4: truncate by rolling to a fresh segment; the snapshot governs
  // everything before it.
  SOFTDB_INJECT_FAULT("wal.truncate",
                      Status::IOError("injected fault: wal.truncate"));
  SOFTDB_RETURN_IF_ERROR(writer.Roll(sealed_seq + 1));

  // Step 5: atomically publish the snapshot.
  std::error_code ec;
  std::filesystem::rename(CheckpointTmpPath(dir), CheckpointPath(dir), ec);
  if (ec) {
    return Status::IOError("checkpoint rename failed: " + ec.message());
  }

  // Step 6: drop superseded segments. Best effort — leftovers are skipped
  // by wal_start_seq on recovery.
  SOFTDB_ASSIGN_OR_RETURN(std::vector<std::uint64_t> seqs,
                          ListWalSegments(dir));
  for (std::uint64_t seq : seqs) {
    if (seq <= sealed_seq) {
      std::filesystem::remove(WalSegmentPath(dir, seq), ec);
    }
  }
  writer.BumpCheckpointCount();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SoftDb::Recover — checkpoint load + epoch-aware tail replay.
// ---------------------------------------------------------------------------

Result<std::unique_ptr<SoftDb>> SoftDb::Recover(const std::string& dir,
                                                EngineOptions options) {
  namespace fs = std::filesystem;

  // Boot an empty engine with the WAL and repair worker off: replay must
  // not re-log records, and background repair must not race the replay.
  EngineOptions boot = options;
  boot.wal_dir.clear();
  boot.enable_repair_worker = false;
  auto db = std::make_unique<SoftDb>(boot);
  db->recovering_ = true;

  WalStats rstats;
  std::error_code ec;
  // An orphaned checkpoint.tmp is an unpublished snapshot from a crash
  // mid-checkpoint; the rename never happened, so it never governs.
  fs::remove(CheckpointTmpPath(dir), ec);

  // Highest epoch durably recorded per SC: recovered epochs must strictly
  // dominate every value a pre-crash plan could have stamped.
  std::map<std::string, std::uint64_t> durable_epoch;

  std::uint64_t start_seq = 0;
  const bool have_checkpoint = fs::exists(CheckpointPath(dir), ec);
  if (have_checkpoint) {
    SOFTDB_ASSIGN_OR_RETURN(std::string file,
                            ReadWholeFile(CheckpointPath(dir)));
    if (file.size() < sizeof(kCheckpointMagic) + 4 ||
        file.compare(0, sizeof(kCheckpointMagic), kCheckpointMagic,
                     sizeof(kCheckpointMagic)) != 0) {
      return Status::DataLoss("checkpoint.bin: bad magic");
    }
    BinReader crc_reader(file.data() + sizeof(kCheckpointMagic), 4);
    SOFTDB_ASSIGN_OR_RETURN(std::uint32_t want_crc, crc_reader.GetU32());
    const char* body = file.data() + sizeof(kCheckpointMagic) + 4;
    const std::size_t body_size = file.size() - sizeof(kCheckpointMagic) - 4;
    if (Crc32(body, body_size) != want_crc) {
      return Status::DataLoss("checkpoint.bin: CRC mismatch");
    }
    BinReader r(body, body_size);
    SOFTDB_ASSIGN_OR_RETURN(start_seq, r.GetU64());
    SOFTDB_RETURN_IF_ERROR(DecodeTables(&r, &db->catalog_));
    SOFTDB_RETURN_IF_ERROR(DecodeIndexes(&r, &db->catalog_));
    SOFTDB_RETURN_IF_ERROR(
        DecodeIntegrityConstraints(&r, db->catalog_, &db->ics_));
    SOFTDB_ASSIGN_OR_RETURN(db->ic_name_counter_, r.GetU64());
    SOFTDB_RETURN_IF_ERROR(DecodeStats(&r, &db->stats_));
    SOFTDB_ASSIGN_OR_RETURN(std::uint32_t nscs, r.GetU32());
    for (std::uint32_t i = 0; i < nscs; ++i) {
      SOFTDB_ASSIGN_OR_RETURN(ScPtr sc, DecodeSoftConstraint(&r, db->catalog_));
      durable_epoch[sc->name()] = sc->epoch();
      SOFTDB_RETURN_IF_ERROR(
          db->scs_.Add(std::move(sc), db->catalog_, /*verify_now=*/false));
    }
    SOFTDB_ASSIGN_OR_RETURN(std::uint32_t ntickets, r.GetU32());
    for (std::uint32_t i = 0; i < ntickets; ++i) {
      SOFTDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
      SOFTDB_ASSIGN_OR_RETURN(std::uint64_t attempts, r.GetU64());
      db->scs_.RestoreTicket(name, static_cast<std::size_t>(attempts));
    }
    SOFTDB_ASSIGN_OR_RETURN(std::uint32_t naudits, r.GetU32());
    for (std::uint32_t i = 0; i < naudits; ++i) {
      RepairAuditRecord rec;
      SOFTDB_ASSIGN_OR_RETURN(rec.sc_name, r.GetString());
      SOFTDB_ASSIGN_OR_RETURN(std::uint64_t attempts, r.GetU64());
      rec.attempts = static_cast<std::size_t>(attempts);
      SOFTDB_ASSIGN_OR_RETURN(rec.last_error, r.GetString());
      SOFTDB_ASSIGN_OR_RETURN(rec.action, r.GetString());
      db->scs_.RestoreAudit(std::move(rec));
    }
    SOFTDB_ASSIGN_OR_RETURN(std::uint32_t nuses, r.GetU32());
    for (std::uint32_t i = 0; i < nuses; ++i) {
      SOFTDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
      SOFTDB_ASSIGN_OR_RETURN(std::uint64_t count, r.GetU64());
      SOFTDB_ASSIGN_OR_RETURN(double benefit, r.GetDouble());
      db->scs_.RestoreUse(name, count, benefit);
    }
    SOFTDB_ASSIGN_OR_RETURN(std::uint32_t nasts, r.GetU32());
    for (std::uint32_t i = 0; i < nasts; ++i) {
      SOFTDB_ASSIGN_OR_RETURN(std::string sc_name, r.GetString());
      SOFTDB_RETURN_IF_ERROR(db->CreateExceptionAst(sc_name).status());
    }
    if (!r.done()) {
      return Status::DataLoss("checkpoint.bin: trailing bytes after body");
    }
    rstats.recovery_checkpoint_loaded = 1;
  }

  SOFTDB_ASSIGN_OR_RETURN(std::vector<std::uint64_t> seqs,
                          ListWalSegments(dir));
  if (!have_checkpoint && seqs.empty()) {
    return Status::NotFound("no WAL segments or checkpoint in " + dir);
  }

  // Replay the tail. Arms (→active transitions carrying a re-derivation
  // mode) are held pending until their commit record; a commit re-runs the
  // re-derivation at the same log position the live engine ran it.
  std::map<std::string, PendingArm> pending;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const std::uint64_t seq = seqs[i];
    if (seq < start_seq) continue;  // Superseded by the checkpoint.
    const bool is_last = i + 1 == seqs.size();
    SOFTDB_ASSIGN_OR_RETURN(WalSegment segment,
                            ReadWalSegment(WalSegmentPath(dir, seq), is_last));
    rstats.recovery_torn_records_dropped += segment.torn_records_dropped;
    for (const WalRecord& rec : segment.records) {
      ++rstats.recovery_records_replayed;
      BinReader r(rec.payload);
      switch (rec.kind) {
        case WalRecordKind::kDdl: {
          SOFTDB_ASSIGN_OR_RETURN(std::string sql, r.GetString());
          SOFTDB_RETURN_IF_ERROR(db->Execute(sql).status());
          break;
        }
        case WalRecordKind::kInsert: {
          SOFTDB_ASSIGN_OR_RETURN(std::string table, r.GetString());
          SOFTDB_ASSIGN_OR_RETURN(std::uint32_t n, r.GetU32());
          std::vector<Value> row;
          row.reserve(n);
          for (std::uint32_t c = 0; c < n; ++c) {
            SOFTDB_ASSIGN_OR_RETURN(Value v, r.GetValue());
            row.push_back(std::move(v));
          }
          SOFTDB_RETURN_IF_ERROR(db->InsertRow(table, row));
          break;
        }
        case WalRecordKind::kUpdate: {
          SOFTDB_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
          SOFTDB_ASSIGN_OR_RETURN(RowId rid, r.GetU64());
          SOFTDB_ASSIGN_OR_RETURN(std::uint32_t n, r.GetU32());
          std::vector<Value> new_row;
          new_row.reserve(n);
          for (std::uint32_t c = 0; c < n; ++c) {
            SOFTDB_ASSIGN_OR_RETURN(Value v, r.GetValue());
            new_row.push_back(std::move(v));
          }
          SOFTDB_ASSIGN_OR_RETURN(Table * table,
                                  db->catalog_.GetTable(table_name));
          const std::vector<Value> old_row = table->GetRow(rid);
          SOFTDB_RETURN_IF_ERROR(
              db->ApplyUpdateRow(table, rid, old_row, new_row, nullptr));
          break;
        }
        case WalRecordKind::kDelete: {
          SOFTDB_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
          SOFTDB_ASSIGN_OR_RETURN(RowId rid, r.GetU64());
          SOFTDB_ASSIGN_OR_RETURN(Table * table,
                                  db->catalog_.GetTable(table_name));
          const std::vector<Value> old_row = table->GetRow(rid);
          SOFTDB_RETURN_IF_ERROR(db->ApplyDeleteRow(table, rid, old_row));
          break;
        }
        case WalRecordKind::kScRegister: {
          SOFTDB_ASSIGN_OR_RETURN(ScPtr sc,
                                  DecodeSoftConstraint(&r, db->catalog_));
          durable_epoch[sc->name()] =
              std::max(durable_epoch[sc->name()], sc->epoch());
          SOFTDB_RETURN_IF_ERROR(
              db->scs_.Add(std::move(sc), db->catalog_, /*verify_now=*/false));
          break;
        }
        case WalRecordKind::kScDrop: {
          SOFTDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
          SOFTDB_RETURN_IF_ERROR(db->scs_.Drop(name));
          pending.erase(name);
          break;
        }
        case WalRecordKind::kScTransition: {
          SOFTDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
          SOFTDB_ASSIGN_OR_RETURN(
              std::uint8_t from_raw,
              GetEnumU8(&r, static_cast<std::uint8_t>(ScState::kDropped),
                        "ScState"));
          SOFTDB_ASSIGN_OR_RETURN(
              std::uint8_t to_raw,
              GetEnumU8(&r, static_cast<std::uint8_t>(ScState::kDropped),
                        "ScState"));
          SOFTDB_ASSIGN_OR_RETURN(std::uint64_t epoch, r.GetU64());
          SOFTDB_ASSIGN_OR_RETURN(
              std::uint8_t mode_raw,
              GetEnumU8(&r, static_cast<std::uint8_t>(ScArmMode::kVerify),
                        "ScArmMode"));
          durable_epoch[name] = std::max(durable_epoch[name], epoch);
          const ScState to = static_cast<ScState>(to_raw);
          const ScArmMode mode = static_cast<ScArmMode>(mode_raw);
          if (mode != ScArmMode::kNone) {
            pending[name] = PendingArm{static_cast<ScState>(from_raw), to,
                                       epoch, mode};
            break;
          }
          SoftConstraint* sc = db->scs_.Find(name);
          if (sc == nullptr) break;  // Dropped later in the log.
          sc->RestoreLifecycle(to, epoch, sc->confidence(), sc->policy(),
                               sc->verified_version(), sc->verified_rows());
          if (to == ScState::kQuarantined) {
            db->scs_.DropTicket(name);  // Live engine popped the ticket.
          } else if (to == ScState::kRepairQueued) {
            db->scs_.RestoreTicket(name, 0);
          }
          break;
        }
        case WalRecordKind::kScArmCommit: {
          SOFTDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
          SOFTDB_ASSIGN_OR_RETURN(std::uint64_t epoch, r.GetU64());
          durable_epoch[name] = std::max(durable_epoch[name], epoch);
          const auto it = pending.find(name);
          if (it == pending.end()) break;  // Stray commit: nothing pending.
          const PendingArm arm = it->second;
          pending.erase(it);
          SoftConstraint* sc = db->scs_.Find(name);
          if (sc == nullptr) break;
          // Re-derive parameters exactly as the live engine did: an exact
          // repair refits them, a verify recounts with the existing ones.
          Status st = arm.mode == ScArmMode::kRepairFull
                          ? sc->RepairFull(db->catalog_)
                          : sc->Verify(db->catalog_).status();
          if (!st.ok()) {
            // Replay could not reproduce the arm — recover it disarmed and
            // queued for revalidation rather than trusting the log blind.
            sc->set_state(ScState::kRepairQueued);
            db->scs_.RestoreTicket(name, 0);
            break;
          }
          sc->RestoreLifecycle(arm.to, epoch, sc->confidence(), sc->policy(),
                               sc->verified_version(), sc->verified_rows());
          if (arm.mode == ScArmMode::kRepairFull) db->scs_.DropTicket(name);
          break;
        }
        case WalRecordKind::kScAudit: {
          RepairAuditRecord rec;
          SOFTDB_ASSIGN_OR_RETURN(rec.sc_name, r.GetString());
          SOFTDB_ASSIGN_OR_RETURN(std::uint64_t attempts, r.GetU64());
          rec.attempts = static_cast<std::size_t>(attempts);
          SOFTDB_ASSIGN_OR_RETURN(rec.last_error, r.GetString());
          SOFTDB_ASSIGN_OR_RETURN(rec.action, r.GetString());
          db->scs_.RestoreAudit(std::move(rec));
          break;
        }
        case WalRecordKind::kExceptionAst: {
          SOFTDB_ASSIGN_OR_RETURN(std::string sc_name, r.GetString());
          SOFTDB_RETURN_IF_ERROR(db->CreateExceptionAst(sc_name).status());
          break;
        }
        case WalRecordKind::kCheckpointBegin:
        case WalRecordKind::kCheckpointEnd:
          break;  // Protocol markers; the published snapshot governs.
      }
    }
  }

  // Dangling arms: a →active transition whose commit never became durable
  // is NOT an arm. The SC recovers disarmed, queued for revalidation — an
  // overturned SC must never resurrect on the strength of half a protocol.
  for (const auto& [name, arm] : pending) {
    SoftConstraint* sc = db->scs_.Find(name);
    if (sc == nullptr || sc->state() == ScState::kDropped) continue;
    if (arm.to == ScState::kActive) {
      sc->set_state(ScState::kRepairQueued);
      db->scs_.RestoreTicket(name, 0);
    }
  }

  // Strict epoch domination: every recovered SC ends one epoch past the
  // highest durably-recorded value, so no pre-crash plan stamp (all of
  // which were at or below a durable epoch) can pass the PR 8 certificate
  // epoch fast path against recovered state.
  for (SoftConstraint* sc : db->scs_.All()) {
    std::uint64_t floor_epoch = sc->epoch();
    const auto it = durable_epoch.find(sc->name());
    if (it != durable_epoch.end()) {
      floor_epoch = std::max(floor_epoch, it->second);
    }
    sc->RestoreLifecycle(sc->state(), floor_epoch + 1, sc->confidence(),
                         sc->policy(), sc->verified_version(),
                         sc->verified_rows());
  }

  // Reopen the log past every existing segment, fold the recovery counters
  // into the fresh writer, and compact the replayed tail into a new
  // checkpoint so the next recovery starts from here.
  std::uint64_t max_seq = start_seq;
  if (!seqs.empty()) max_seq = std::max(max_seq, seqs.back());
  db->recovering_ = false;
  const std::size_t sync_every_n =
      options.wal_sync_every_n == 0 ? 1 : options.wal_sync_every_n;
  SOFTDB_ASSIGN_OR_RETURN(
      db->wal_, DurabilityManager::Open(dir, max_seq + 1, sync_every_n));
  db->wal_->writer().AdoptRecoveryStats(rstats);
  db->options_.wal_dir = dir;
  db->options_.enable_repair_worker = options.enable_repair_worker;
  db->scs_.SetWalLog(db->wal_.get());
  SOFTDB_RETURN_IF_ERROR(db->Checkpoint());
  if (options.enable_repair_worker) db->StartRepairWorker();
  return db;
}

}  // namespace softdb
