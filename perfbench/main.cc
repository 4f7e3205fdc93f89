// softdb_perfbench: runs one workload from a seed and prints one JSON
// object as its last line of standard output:
//
//   softdb_perfbench --workload paper_mix|point_served|ingest_wal
//                    --seed N --seconds S --trace 0|1 --out-dir DIR
//                    [--plant-wrong]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --plant-wrong corrupts one recorded answer before the correctness checks
// (the benchmark's self-test: the run must then report correct=false).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include "bench.h"

namespace softdb::perfbench {
namespace {

// Every per-layer metric, printed by every traced run. A layer a workload
// does not exercise reports 0 (for example server.* on paper_mix).
constexpr const char* kPerLayer[][2] = {
    {"sql.parse_us", "us"},
    {"sql.bind_us", "us"},
    {"optimizer.rewrite_us", "us"},
    {"optimizer.physical_plan_us", "us"},
    {"analysis.verify_us", "us"},
    {"analysis.certify_us", "us"},
    {"analysis.certificates_invalid_per_stmt", "count"},
    {"optimizer.plan_cache_hit_ratio", "ratio"},
    {"optimizer.plan_cache_entries", "count"},
    {"optimizer.plan_cache_invalidations", "count"},
    {"optimizer.q_error_p50", "ratio"},
    {"exec.run_us", "us"},
    {"exec.rows_scanned_per_stmt", "rows"},
    {"exec.blocks_skipped_ratio", "ratio"},
    {"exec.index_lookups_per_stmt", "count"},
    {"server.execute_us", "us"},
    {"server.handoff_us", "us"},
    {"server.queue_depth_high_water", "count"},
    {"constraints.insert_row_us", "us"},
    {"constraints.sc_checks_per_row", "count"},
    {"constraints.repair_us", "us"},
    {"analysis.impact_us", "us"},
    {"analysis.impacted_sc_ratio", "ratio"},
    {"storage.wal_fsyncs_per_row", "count"},
    {"storage.wal_records_per_stmt", "count"},
    {"storage.wal_bytes_per_row", "bytes"},
    {"storage.checkpoint_s", "s"},
    {"storage.recover_s", "s"},
    {"engine.execute_us", "us"},
    {"engine.glue_us", "us"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: softdb_perfbench --workload "
               "paper_mix|point_served|ingest_wal --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--plant-wrong]\n",
               message);
  std::exit(64);
}

void PrintJson(const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  std::set<std::string> seen;
  bool first = true;
  auto emit = [&](const std::string& name, double value,
                  const std::string& unit) {
    if (!seen.insert(name).second) return;
    char number[64];
    std::snprintf(number, sizeof(number), "%.9g", value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + number +
           ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  for (const Metric& m : report.metrics) emit(m.name, m.value, m.unit);
  if (trace) {
    for (const auto& [name, unit] : kPerLayer) emit(name, 0, unit);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace softdb::perfbench

int main(int argc, char** argv) {
  using namespace softdb::perfbench;
  RunOptions options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
      have_trace = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else if (arg == "--plant-wrong") {
      options.plant_wrong = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty() || options.out_dir.empty() || !have_trace ||
      options.seconds < 1) {
    Usage("--workload, --seconds >= 1, --trace and --out-dir are required");
  }
  std::filesystem::create_directories(options.out_dir);

  Report report;
  if (options.workload == "paper_mix") {
    report = RunPaperMix(options);
  } else if (options.workload == "point_served") {
    report = RunPointServed(options);
  } else if (options.workload == "ingest_wal") {
    report = RunIngestWal(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  if (!report.correct) {
    std::fprintf(stderr, "perfbench: INCORRECT: %s\n",
                 report.first_error.c_str());
  }
  PrintJson(report, options.trace);
  return 0;
}
