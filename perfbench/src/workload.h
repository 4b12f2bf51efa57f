// The three workloads: set-up, closed-loop timed window, output checks and
// (in the traced run) the per-layer probes.  README.md gives the layer map.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string trace_path;  // CSV of the traced run's spans ("" = not kept)
};

struct RunResult {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> violations;  // empty = every check passed
  MetricSet metrics;
};

/// Names accepted by run_workload.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload.  `process_start` anchors setup_s (a cold set-up timed
/// from the start of the process).
[[nodiscard]] RunResult run_workload(const RunConfig& config,
                                     Clock::time_point process_start);

}  // namespace perfbench
