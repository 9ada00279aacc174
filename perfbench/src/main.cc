// perfbench: runs one named workload for a fixed time, checks its outputs
// and prints its metrics. The last stdout line is the machine-readable
// result; everything above it is the human-readable report. Every run
// also writes a result record stamped with the identity block to
// <out-dir>/<workload>-seed<seed>-trace<0|1>.json.
//
//   perfbench --workload index_range|serve_read|serve_mixed --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--commit C]
//             [--source-digest D]

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::vector<std::pair<std::string, std::string>> Identity(const Args& args) {
  return {
      {"cpu_model", CpuModel()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"simd_tier", wazi::simd::LevelName(wazi::simd::DetectedLevel())},
      {"git_commit", args.commit},
      {"source_digest", args.source_digest},
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"seconds", std::to_string(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
  };
}

std::string JsonObject(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(kv[i].first) + ": " + JsonString(kv[i].second);
  }
  return out + "}";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->seconds < 1) {
    std::fprintf(stderr, "perfbench: --seconds must be >= 1\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Report (*run)(const Args&) = nullptr;
  if (args.workload == "index_range") {
    run = RunIndexRange;
  } else if (args.workload == "serve_read") {
    run = RunServeRead;
  } else if (args.workload == "serve_mixed") {
    run = RunServeMixed;
  } else {
    std::fprintf(stderr,
                 "perfbench: --workload must be index_range, serve_read or "
                 "serve_mixed\n");
    return 2;
  }
  mkdir(args.out_dir.c_str(), 0755);  // may already exist

  const auto identity = Identity(args);
  std::printf("perfbench %s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("identity: %s\n", JsonObject(identity).c_str());
  std::fflush(stdout);

  const Report report = run(args);
  if (!report.invalid.empty()) {
    std::fprintf(stderr, "perfbench: run invalid: %s\n",
                 report.invalid.c_str());
    return 3;
  }
  std::printf("params: %s\n", JsonObject(report.params).c_str());
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  const std::vector<Metric>& shown =
      args.trace ? report.per_layer : report.end_to_end;
  for (const Metric& m : shown) {
    std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!args.trace) {
    for (const Metric& m : report.reported) {
      std::printf("  %-44s %16.6f %s (reported, no bound)\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    }
  }
  const double failed_ratio =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 0.0;
  std::printf("  %-44s %16.6f ratio (%lld failed / %lld attempted)\n",
              "failed_ratio", failed_ratio,
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));

  const std::string record_path = args.out_dir + "/" + args.workload +
                                  "-seed" + std::to_string(args.seed) +
                                  "-trace" + (args.trace ? "1" : "0") +
                                  ".json";
  std::string notes = "[";
  for (size_t i = 0; i < report.notes.size(); ++i) {
    notes += (i > 0 ? ", " : "") + JsonString(report.notes[i]);
  }
  notes += "]";
  std::ofstream record(record_path);
  record << "{\"identity\": " << JsonObject(identity)
         << ", \"params\": " << JsonObject(report.params)
         << ", \"end_to_end\": " << JsonMetrics(report.end_to_end)
         << ", \"reported\": " << JsonMetrics(report.reported)
         << ", \"per_layer\": " << JsonMetrics(report.per_layer)
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed
         << ", \"failed_ratio\": " << JsonNumber(failed_ratio)
         << ", \"notes\": " << notes << "}\n";
  if (!record) std::printf("note: result record %s not written\n",
                           record_path.c_str());

  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              JsonMetrics(shown).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
