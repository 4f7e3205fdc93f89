// Shared declarations of the SoftDB end-to-end benchmark (perfbench).
//
// Each workload builds its own engine from a seed, runs a fixed, seeded
// amount of work, checks the answers against oracles that read the stored
// columns directly, and fills a Report. With tracing on, the same work is
// sent statement by statement through the engine's public phase functions
// (parse, bind, rewrite, plan, verify, certify, execute) and timed from
// here; the engine itself carries no tracing.
#ifndef SOFTDB_PERFBENCH_BENCH_H_
#define SOFTDB_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/softdb.h"

namespace softdb::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (WAL, recovery copies, trace).
  std::string out_dir;
  /// Self-test: corrupt one answer before checking, so the run must report
  /// correct=false.
  bool plant_wrong = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First failed correctness check, printed to stderr.
  std::string first_error;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed correctness check (the first message is kept).
  void Fail(const std::string& message) {
    if (correct) first_error = message;
    correct = false;
  }
};

Report RunPaperMix(const RunOptions& options);
Report RunPointServed(const RunOptions& options);
Report RunIngestWal(const RunOptions& options);

// ---------------------------------------------------------------------------
// Timing and summary statistics.

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Host-speed normalisation. The reference host's speed swings by up to
/// ±25% over seconds as its neighbours' load changes (same binary, same
/// seed, runs five seconds apart). Every timing is therefore scaled by
/// kNominalReferenceUs over the median time of a fixed reference kernel
/// (sort 4096 integers, build and probe a 1024-key open-addressing table;
/// no engine code, no heap allocation, working set re-warmed before each
/// timed pass) measured next to it, and reads as time on a host where that
/// kernel takes kNominalReferenceUs. The raw figures go to stderr.
constexpr double kNominalReferenceUs = 320.0;
constexpr int kReferenceSamples = 9;

/// One run of the reference kernel, in microseconds.
double ReferenceMicros();
/// kNominalReferenceUs over the median of `reference_us`.
double HostScale(std::vector<double> reference_us);
/// HostScale over `samples` kernel runs taken now.
double HostScaleNow(int samples);

/// One timed round: its statements' latencies, its duration, and one
/// reference-kernel time taken right after it.
struct Round {
  std::vector<double> latencies_us;
  double seconds = 0;
  double reference_us = 0;
};

/// Adds stmts_per_s, p50_ms and p99_ms. The rounds are cut into eight
/// consecutive blocks; each block's times are scaled by the host speed of
/// that block (the median reference time over its rounds), and each metric
/// is the median over the blocks of the block's figure, so a burst of host
/// load that covers fewer than half the blocks does not move it. The
/// unscaled figures and the median reference time go to stderr.
void AddTimingMetrics(const std::vector<Round>& rounds, Report* report);

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

/// Time from this process's start to now, in seconds (cold set-up time),
/// host-normalised by reference-kernel runs taken right after; the raw
/// figure goes to stderr.
double SecondsSinceProcessStart();

/// Number of timed rounds for a run of `seconds`: the work per run is fixed
/// by the arguments, never by the clock.
int RoundsFor(int seconds, double rounds_per_second);

// ---------------------------------------------------------------------------
// Answers. A result is summarized by its row count and an order-independent
// hash of its rows (sum of per-row hashes), so two evaluation paths can be
// compared as multisets without keeping the rows.

struct Answer {
  std::uint64_t rows = 0;
  std::uint64_t multiset_hash = 0;
  bool operator==(const Answer& o) const {
    return rows == o.rows && multiset_hash == o.multiset_hash;
  }
  bool operator!=(const Answer& o) const { return !(*this == o); }
};

std::uint64_t HashRow(const std::vector<Value>& row);
Answer Summarize(const RowSet& rows);

/// Aborts the run (exit code 2) when a set-up step fails: a benchmark
/// that cannot build its input has nothing to report.
void MustOk(const Status& status, const char* what);

/// Creates an empty directory `path`, removing whatever was there.
void ResetDir(const std::string& path);
void RemoveDir(const std::string& path);

/// Times `copies` recoveries of the WAL directory `dir`, each from its own
/// copy because Recover re-checkpoints and each host-normalised by
/// reference-kernel runs taken right after it; returns the fastest, since
/// device stalls in Recover's own checkpoint fsync only ever add time.
/// `check` runs on every recovered engine, outside the timed call.
double TimeRecovery(const std::string& dir, int copies,
                    const std::function<void(SoftDb*)>& check);

}  // namespace softdb::perfbench

#endif  // SOFTDB_PERFBENCH_BENCH_H_
