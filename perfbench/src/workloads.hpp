// The benchmark's two workloads (see BENCHMARK.json for why each exists).
//
//   fr079_dense        dense FR-079 corridor scans, octree Mapper, insert +
//                      flush per scan, one thread; a fresh session per pass,
//                      passes alternating between two seeds
//   fleet_service      3 tenants (octree, hybrid-over-world, tiled world) on
//                      an in-process MapService over a Unix socket, sharing a
//                      paging budget; insert RPC per scan, flush + query RPC
//                      every 10 scans, each tenant with a subscribed mirror
//
// Every workload is closed loop and deterministic in its inputs for a seed.
// An untraced run reports the end-to-end metrics; a traced run repeats a
// fixed-size slice of the workload untraced and traced (for the tracing
// overhead), then replays the same inputs layer by layer for the ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace omu::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch for sockets and world tiles; removed at exit
  std::string trace_dir;  ///< where a traced run writes its spans (CSV)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< why `correct` is false
};

/// Names accepted by run_workload.
std::vector<std::string> workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const Options& options);

}  // namespace omu::perfbench
