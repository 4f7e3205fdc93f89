// Per-layer tracing for perfbench. Spans are recorded from the benchmark's
// own files around calls into each engine module's public functions, kept
// in memory and written out as JSON lines when the run ends.
#ifndef SOFTDB_PERFBENCH_TRACE_H_
#define SOFTDB_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace softdb::perfbench {

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// A fresh statement id; every span of one statement shares it.
  std::uint64_t NextStatement() { return ++statements_; }

  /// Records one span under `parent` ("" for a statement's root span).
  void Span(std::uint64_t stmt, const char* name, const char* parent,
            Clock::time_point start, Clock::time_point end);

  /// Adds one per-statement sample to the named per-layer series.
  void Sample(const std::string& series, double value) {
    samples_[series].push_back(value);
  }
  double MedianOf(const std::string& series) const;
  double MeanOf(const std::string& series) const;

  /// Writes every span as one JSON object per line.
  void WriteSpans(const std::string& path) const;

 private:
  struct SpanRecord {
    std::uint64_t stmt;
    const char* name;
    const char* parent;
    double start_us;
    double end_us;
  };

  Clock::time_point origin_;
  std::uint64_t statements_ = 0;
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Executor counters summed over a run's SELECTs.
struct ExecTotals {
  std::uint64_t selects = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_total = 0;
  std::uint64_t index_lookups = 0;

  void Add(const ExecStats& stats) {
    ++selects;
    rows_scanned += stats.rows_scanned;
    blocks_skipped += stats.blocks_skipped;
    blocks_total += stats.blocks_total;
    index_lookups += stats.index_lookups;
  }
};

/// Runs one SELECT twice: first phase by phase (ParseStatement →
/// Binder::BindSelect → PlanVerifier → Rewriter::Rewrite for the SC-free
/// backup and the primary plan → CertificateChecker →
/// PhysicalPlanner::Plan → operator drain), each phase in its own span,
/// then through SoftDb::Execute. A mismatch between the two answers is
/// recorded on `report` as an incorrect output. Returns Execute's result.
Result<QueryResult> TraceSelect(SoftDb* db, const std::string& sql,
                                Tracer* tracer, ExecTotals* totals,
                                Report* report);

/// Per-layer metrics common to every traced workload: the phase medians,
/// the engine's own statement time and glue, executor counters and the
/// plan-cache figures (given as deltas over the traced section).
void AddSelectLayerMetrics(const Tracer& tracer, const ExecTotals& totals,
                           const PlanCache& cache, std::uint64_t hits,
                           std::uint64_t misses, std::uint64_t invalidations,
                           Report* report);

}  // namespace softdb::perfbench

#endif  // SOFTDB_PERFBENCH_TRACE_H_
