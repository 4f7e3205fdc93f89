#include "client.h"

#include <cstdio>
#include <utility>

namespace softdb::perfbench {

void Client::Record(double micros, const ExecStats* stats) {
  if (!recording_) return;
  ++report_->attempted;
  ++statements_;
  round_.latencies_us.push_back(micros);
  round_.seconds += micros / 1e6;
  if (stats != nullptr) pages_ += stats->pages_read;
}

std::optional<QueryResult> Client::Select(const std::string& sql) {
  // Warm-up statements skip the phase path, so they add no per-layer
  // samples.
  if (tracer_ == nullptr || !recording_) return Execute(sql);
  Result<QueryResult> r = TraceSelect(db_, sql, tracer_, &totals_, report_);
  ++report_->attempted;
  ++statements_;
  if (!r.ok()) {
    ++report_->failed;
    return std::nullopt;
  }
  pages_ += r->exec_stats.pages_read;
  return *std::move(r);
}

std::optional<QueryResult> Client::Execute(const std::string& sql) {
  const Clock::time_point t0 = Clock::now();
  Result<QueryResult> r = db_->Execute(sql);
  const double micros = MicrosBetween(t0, Clock::now());
  if (!r.ok()) {
    if (recording_) {
      ++report_->attempted;
      ++report_->failed;
    }
    std::fprintf(stderr, "perfbench: statement failed: %s: %s\n", sql.c_str(),
                 r.status().ToString().c_str());
    return std::nullopt;
  }
  Record(micros, &r->exec_stats);
  if (tracer_ != nullptr && recording_) tracer_->Sample("engine.execute_us", micros);
  return *std::move(r);
}

Status Client::Operation(const std::function<Status()>& op) {
  const Clock::time_point t0 = Clock::now();
  Status st = op();
  const double micros = MicrosBetween(t0, Clock::now());
  if (!st.ok()) {
    if (recording_) {
      ++report_->attempted;
      ++report_->failed;
    }
    return st;
  }
  Record(micros, nullptr);
  return st;
}

void Client::EndRound() {
  if (!round_.latencies_us.empty()) {
    round_.reference_us = ReferenceMicros();
    rounds_.push_back(std::move(round_));
  }
  round_ = Round();
}

void Client::AddEndToEndMetrics(Report* report) const {
  AddTimingMetrics(rounds_, report);
  report->Add("pages_per_stmt",
              statements_ == 0 ? 0
                               : static_cast<double>(pages_) /
                                     static_cast<double>(statements_),
              "pages");
}

}  // namespace softdb::perfbench
