#pragma once

// Layer replay for traced runs: the benchmark calls each layer's public
// functions single-threaded on the workload's own items, records one span
// per call, and reports per layer function
//   <layer>.<fn>_us_p50, <layer>.<fn>_us_p99   per-call time
//   <layer>.<fn>.calls, <layer>.<fn>.busy_s    work done, time busy
// plus pca.observe_tps_1thread, the single-threaded baseline of the job.

#include "report.h"
#include "workloads.h"

namespace perfbench {

/// Throws std::runtime_error when a replayed call gives a wrong answer
/// (a frame that does not decode, a valid item that validation rejects,
/// a query that fails).
void replay_layers(const WorkloadSpec& spec, const Inputs& inputs,
                   Tracer& tracer, Report& report);

}  // namespace perfbench
