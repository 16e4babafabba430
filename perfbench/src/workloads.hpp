// The benchmark's workloads. Each one builds its inputs from the seed,
// plans back to back for the requested time, checks every plan, serves one
// plan in the queueing engine, and reports the end-to-end metrics (or, for
// the traced run, the per-layer ones).
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Names accepted by run_workload, in BENCHMARK.json order.
[[nodiscard]] std::vector<std::string> workload_names();

/// Runs one workload. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace perfbench
