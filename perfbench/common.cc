// Utilities shared by the perfbench workloads: statistics, process
// metrics, answer summaries and WAL-directory handling.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"

namespace softdb::perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[idx];
}

namespace {
// Rounds are normalised and summarized in blocks of this share of the run:
// long enough to hold many reference samples and statements, short enough
// to follow the host's swings.
constexpr std::size_t kBlocksPerRun = 8;
volatile std::uint64_t reference_sink = 0;

// The reference kernel's working set, allocated once: 4096 integers, a
// sorted copy and a 2048-slot open-addressing table, about 48 KB.
constexpr std::size_t kReferenceInput = 4096;
constexpr std::size_t kReferenceKeys = 1024;
constexpr std::size_t kReferenceSlots = 2048;
constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

struct ReferenceData {
  std::array<std::uint32_t, kReferenceInput> input;
  std::array<std::uint32_t, kReferenceInput> sorted;
  std::array<std::uint32_t, kReferenceSlots> keys;
  std::array<std::uint32_t, kReferenceSlots> values;
};

ReferenceData& Reference() {
  static ReferenceData* data = [] {
    auto* d = new ReferenceData();
    std::uint64_t x = 12345;
    for (std::uint32_t& e : d->input) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      e = static_cast<std::uint32_t>(x >> 33);  // Below kEmptySlot.
    }
    return d;
  }();
  return *data;
}

/// Sorts a copy of the input, puts every fourth sorted value into the
/// open-addressing table and probes it with the whole input. Touches no
/// heap memory beyond `d`.
std::uint64_t ReferencePass(ReferenceData* d) {
  d->sorted = d->input;
  std::sort(d->sorted.begin(), d->sorted.end());
  d->keys.fill(kEmptySlot);
  auto slot_of = [&](std::uint32_t key) {
    std::size_t slot = (key * 2654435761u) & (kReferenceSlots - 1);
    while (d->keys[slot] != kEmptySlot && d->keys[slot] != key) {
      slot = (slot + 1) & (kReferenceSlots - 1);
    }
    return slot;
  };
  for (std::size_t i = 0; i < kReferenceKeys; ++i) {
    const std::size_t slot = slot_of(d->sorted[i * 4]);
    d->keys[slot] = d->sorted[i * 4];
    d->values[slot] = static_cast<std::uint32_t>(i);
  }
  std::uint64_t sum = 0;
  for (std::uint32_t key : d->input) {
    const std::size_t slot = slot_of(key);
    if (d->keys[slot] == key) sum += d->values[slot];
  }
  return sum + d->sorted[17];
}

}  // namespace

double ReferenceMicros() {
  ReferenceData& d = Reference();
  // An untimed pass first brings the working set back into cache, so the
  // timed pass does not depend on what the engine left there.
  reference_sink = ReferencePass(&d);
  const Clock::time_point t0 = Clock::now();
  reference_sink = ReferencePass(&d);
  return MicrosBetween(t0, Clock::now());
}

double HostScale(std::vector<double> reference_us) {
  const double median = Median(std::move(reference_us));
  return median > 0 ? kNominalReferenceUs / median : 1.0;
}

double HostScaleNow(int samples) {
  std::vector<double> reference_us;
  for (int i = 0; i < samples; ++i) reference_us.push_back(ReferenceMicros());
  return HostScale(std::move(reference_us));
}

namespace {

struct TimingFigures {
  std::vector<double> stmts_per_s, p50_ms, p99_ms;
};

/// Adds the figures of rounds [begin, end), their times multiplied by
/// `scale`, as one block of `out`.
void AddBlock(const std::vector<Round>& rounds, std::size_t begin,
              std::size_t end, double scale, TimingFigures* out) {
  std::vector<double> latencies;
  double seconds = 0;
  for (std::size_t i = begin; i < end; ++i) {
    for (double us : rounds[i].latencies_us) latencies.push_back(us * scale);
    seconds += rounds[i].seconds * scale;
  }
  if (latencies.empty()) return;
  out->stmts_per_s.push_back(static_cast<double>(latencies.size()) / seconds);
  out->p50_ms.push_back(Quantile(latencies, 0.50) / 1000.0);
  out->p99_ms.push_back(Quantile(latencies, 0.99) / 1000.0);
}

}  // namespace

void AddTimingMetrics(const std::vector<Round>& rounds, Report* report) {
  TimingFigures normalised, raw;
  std::vector<double> all_reference_us;
  const std::size_t block_rounds = std::max<std::size_t>(
      1, (rounds.size() + kBlocksPerRun - 1) / kBlocksPerRun);
  for (std::size_t begin = 0; begin < rounds.size(); begin += block_rounds) {
    const std::size_t end = std::min(rounds.size(), begin + block_rounds);
    std::vector<double> reference_us;
    for (std::size_t i = begin; i < end; ++i) {
      reference_us.push_back(rounds[i].reference_us);
      all_reference_us.push_back(rounds[i].reference_us);
    }
    AddBlock(rounds, begin, end, HostScale(std::move(reference_us)),
             &normalised);
    AddBlock(rounds, begin, end, 1.0, &raw);
  }
  report->Add("stmts_per_s", Median(normalised.stmts_per_s), "stmts/s");
  report->Add("p50_ms", Median(normalised.p50_ms), "ms");
  report->Add("p99_ms", Median(normalised.p99_ms), "ms");
  std::fprintf(stderr,
               "perfbench: raw stmts_per_s=%.6g p50_ms=%.6g p99_ms=%.6g "
               "reference_us=%.6g\n",
               Median(raw.stmts_per_s), Median(raw.p50_ms),
               Median(raw.p99_ms), Median(std::move(all_reference_us)));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

namespace {
// Initialized before main() runs: the process's start, as near as this
// program can observe it.
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

double SecondsSinceProcessStart() {
  const double seconds = SecondsSince(kProcessStart);
  std::fprintf(stderr, "perfbench: raw setup_s=%.6g\n", seconds);
  return seconds * HostScaleNow(kReferenceSamples);
}

int RoundsFor(int seconds, double rounds_per_second) {
  return std::max(1, static_cast<int>(std::lround(seconds * rounds_per_second)));
}

std::uint64_t HashRow(const std::vector<Value>& row) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (const Value& v : row) {
    h ^= static_cast<std::uint64_t>(v.Hash()) + 0x9E3779B97F4A7C15ULL +
         (h << 6) + (h >> 2);
  }
  return h;
}

Answer Summarize(const RowSet& rows) {
  Answer a;
  a.rows = rows.NumRows();
  for (const auto& row : rows.rows) a.multiset_hash += HashRow(row);
  return a;
}

void MustOk(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

void ResetDir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

void RemoveDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

namespace {

/// Flushes every file of `path`, and `path` itself, to the device, so that
/// writeback of a fresh copy does not land inside the timed recovery.
void SyncDir(const std::string& path) {
  std::vector<std::string> names{path};
  for (const auto& entry : std::filesystem::directory_iterator(path)) {
    if (entry.is_regular_file()) names.push_back(entry.path().string());
  }
  for (const std::string& name : names) {
    const int fd = ::open(name.c_str(), O_RDONLY);
    if (fd < 0) continue;
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

double TimeRecovery(const std::string& dir, int copies,
                    const std::function<void(SoftDb*)>& check) {
  std::vector<double> seconds;
  for (int i = 0; i < copies; ++i) {
    const std::string copy = dir + ".recover" + std::to_string(i);
    RemoveDir(copy);
    std::filesystem::copy(dir, copy);
    SyncDir(copy);
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<SoftDb>> recovered = SoftDb::Recover(copy);
    const double elapsed = SecondsSince(t0);
    MustOk(recovered.status(), "SoftDb::Recover");
    seconds.push_back(elapsed * HostScaleNow(kReferenceSamples));
    check(recovered->get());
    recovered->reset();
    RemoveDir(copy);
  }
  return *std::min_element(seconds.begin(), seconds.end());
}

}  // namespace softdb::perfbench
