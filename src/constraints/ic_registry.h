#ifndef SOFTDB_CONSTRAINTS_IC_REGISTRY_H_
#define SOFTDB_CONSTRAINTS_IC_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "constraints/integrity.h"

namespace softdb {

/// Registry of declared integrity constraints. Enforcement policy lives
/// here: enforced constraints are checked on every insert; informational
/// constraints are registered, visible to the optimizer, and never checked
/// (§1's informational-constraint facility).
class IcRegistry {
 public:
  IcRegistry() = default;
  IcRegistry(const IcRegistry&) = delete;
  IcRegistry& operator=(const IcRegistry&) = delete;

  /// Adds a constraint. Enforced constraints are validated against current
  /// data first and rejected if violated; informational ones are trusted
  /// as-is. FK constraints are wired to the parent's PK/unique key set when
  /// one is declared.
  Status Add(IcPtr constraint, const Catalog& catalog);

  /// Runs all *enforced* constraints of `table` against a candidate row.
  Status CheckInsert(const Catalog& catalog, const std::string& table,
                     const std::vector<Value>& row);

  /// Post-mutation bookkeeping (key sets), applied to all constraints
  /// (informational ones keep their sets usable for the optimizer).
  void AfterInsert(const std::string& table, const std::vector<Value>& row);
  void AfterDelete(const std::string& table, const std::vector<Value>& row);

  /// All constraints on `table`, any kind/mode.
  std::vector<IntegrityConstraint*> On(const std::string& table) const;

  /// FK constraints whose child is `table` (enforced or informational —
  /// both are valid for rewrite).
  std::vector<ForeignKeyConstraint*> ForeignKeysFrom(
      const std::string& table) const;

  /// The primary key of `table`, or the first unique constraint, or null.
  const UniqueConstraint* KeyOf(const std::string& table) const;

  /// True when `columns` is a superset of some unique key of `table`.
  bool IsUniqueOver(const std::string& table,
                    const std::vector<ColumnIdx>& columns) const;

  /// All CHECK constraints on `table` (the rewriter uses these like ASCs).
  std::vector<CheckConstraint*> ChecksOn(const std::string& table) const;

  IntegrityConstraint* Find(const std::string& name) const;
  Status Drop(const std::string& name);

  /// Every registered constraint, in registration order (checkpoint
  /// serialization).
  std::vector<IntegrityConstraint*> All() const {
    std::vector<IntegrityConstraint*> out;
    out.reserve(constraints_.size());
    for (const IcPtr& ic : constraints_) out.push_back(ic.get());
    return out;
  }

  std::size_t size() const { return constraints_.size(); }

  /// Total row checks executed (the E7 maintenance-cost metric).
  std::uint64_t checks_performed() const {
    return checks_performed_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<IcPtr> constraints_;
  std::atomic<std::uint64_t> checks_performed_{0};
};

}  // namespace softdb

#endif  // SOFTDB_CONSTRAINTS_IC_REGISTRY_H_
