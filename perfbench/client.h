// One single-threaded benchmark client: sends statements to a SoftDb and
// keeps the latency, throughput and page-count bookkeeping. Untraced, a
// statement is one timed SoftDb::Execute call; traced, a SELECT goes
// through TraceSelect (phase path plus Execute) and nothing is timed for
// the end-to-end metrics.
#ifndef SOFTDB_PERFBENCH_CLIENT_H_
#define SOFTDB_PERFBENCH_CLIENT_H_

#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace softdb::perfbench {

class Client {
 public:
  /// `tracer` is null for an untraced run.
  Client(SoftDb* db, Tracer* tracer, Report* report)
      : db_(db), tracer_(tracer), report_(report) {}

  /// While off (warm-up), statements run but count toward nothing.
  void set_recording(bool on) { recording_ = on; }

  /// Runs one SELECT. A failed statement is counted and yields nullopt.
  std::optional<QueryResult> Select(const std::string& sql);
  /// Runs one DML statement through SoftDb::Execute, timed in both modes.
  std::optional<QueryResult> Execute(const std::string& sql);
  /// Times one non-SQL operation (e.g. RunMaintenance) as a statement.
  Status Operation(const std::function<Status()>& op);

  /// Closes a round (its duration is its statements' summed latency) and
  /// takes its reference-kernel sample.
  void EndRound();

  /// stmts_per_s, p50_ms, p99_ms (see AddTimingMetrics), pages_per_stmt.
  void AddEndToEndMetrics(Report* report) const;

  ExecTotals& totals() { return totals_; }

 private:
  void Record(double micros, const ExecStats* stats);

  SoftDb* db_;
  Tracer* tracer_;
  Report* report_;
  bool recording_ = true;
  ExecTotals totals_;
  std::vector<Round> rounds_;
  Round round_;
  std::uint64_t statements_ = 0;
  std::uint64_t pages_ = 0;
};

}  // namespace softdb::perfbench

#endif  // SOFTDB_PERFBENCH_CLIENT_H_
