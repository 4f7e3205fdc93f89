#ifndef SOFTDB_STORAGE_INDEX_H_
#define SOFTDB_STORAGE_INDEX_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "storage/table.h"

namespace softdb {

/// An ordered secondary index over one column, backed by a sorted entry
/// vector (a flattened B+-tree leaf level — sufficient for an in-memory
/// engine, and gives the optimizer the index-range-scan access path the
/// paper's predicate-introduction rewrite targets).
class Index {
 public:
  Index(std::string name, const Table* table, ColumnIdx column);

  const std::string& name() const { return name_; }
  const Table* table() const { return table_; }
  ColumnIdx column() const { return column_; }
  std::size_t NumEntries() const { return entries_.size(); }

  /// Rebuilds from the current table contents (NULL keys are skipped, as in
  /// typical single-column B-tree indexes).
  void Rebuild();

  /// Inserts one entry (called on table append).
  Status Insert(const Value& key, RowId row);

  /// Removes the entry for `row` with key `key` (called on delete/update).
  Status Remove(const Value& key, RowId row);

  /// Collects live row ids with keys in the given range. Unset bounds are
  /// unbounded. Results are in key order.
  std::vector<RowId> RangeScan(const std::optional<Value>& lo, bool lo_inclusive,
                               const std::optional<Value>& hi,
                               bool hi_inclusive) const;

  /// Entries that a range scan would touch, for page-cost accounting
  /// (leaf pages = entries / kRowsPerPage).
  std::size_t RangeSize(const std::optional<Value>& lo, bool lo_inclusive,
                        const std::optional<Value>& hi,
                        bool hi_inclusive) const;

  /// Smallest / largest key currently indexed — the Sybase-style min/max
  /// "soft constraint" of §2 falls out of the index for free.
  std::optional<Value> MinKey() const;
  std::optional<Value> MaxKey() const;

  /// Expected data pages fetched per entry when scanning in key order — a
  /// clustering measure like PostgreSQL's correlation statistic. 1/64 for
  /// a perfectly clustered table (each page yields kRowsPerPage entries
  /// before moving on), approaching 1.0 for random placement. The planner
  /// multiplies this by the matching row count for its data-page cost.
  double PageSwitchDensity() const;

 private:
  struct Entry {
    Value key;
    RowId row;
  };

  // Index into entries_ of the first entry >= (or > if !inclusive) `key`.
  std::size_t LowerBound(const Value& key, bool inclusive) const;
  // 1 when entries_[i] and entries_[i + 1] sit on different data pages.
  std::size_t PageSwitchAt(std::size_t i) const;

  std::string name_;
  const Table* table_;
  ColumnIdx column_;
  std::vector<Entry> entries_;
  // Adjacent entry pairs on different data pages, kept exact by Rebuild,
  // Insert and Remove (each fixes at most two pairs).
  std::size_t page_switches_ = 0;
};

}  // namespace softdb

#endif  // SOFTDB_STORAGE_INDEX_H_
