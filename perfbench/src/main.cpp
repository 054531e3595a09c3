// omu_perfbench — runs one benchmark workload and prints its metrics.
//
//   omu_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>] [--trace-dir <dir>]
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1). Exit code 0 only when the run completed; a failed
// correctness check still prints its result with "correct": false.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/src/workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "omu_perfbench: " << why
            << "\nusage: omu_perfbench --workload <fr079_dense|fleet_service>"
               " --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] [--trace-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  omu::perfbench::Options opt;
  opt.work_dir = ".bench_build/work";
  opt.trace_dir = ".bench_build/traces";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = value == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  omu::perfbench::RunResult result;
  try {
    result = omu::perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "omu_perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& f : result.failures) std::cout << "CHECK FAILED: " << f << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    json << (i ? ", " : "") << json_string(m.name) << ": {\"value\": " << json_number(m.value)
         << ", \"unit\": " << json_string(m.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
