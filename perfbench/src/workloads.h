#pragma once

// The benchmark's workloads and the pipeline job that measures them.
//
// A job builds one app::StreamingPcaPipeline over a pre-generated,
// seed-determined input pool, streams `tuples` items through it, and
// measures it from outside: the generator callback stamps each hand-off,
// one thread samples the engines' applied counts, one thread queries the
// serving layer on a fixed schedule.  Nothing in the program is
// instrumented for the benchmark.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/pipeline.h"
#include "linalg/matrix.h"
#include "report.h"
#include "spectra/generator.h"
#include "stream/registry.h"
#include "stream/source.h"

namespace perfbench {

namespace app = astro::app;
namespace linalg = astro::linalg;
namespace pca = astro::pca;
namespace serve = astro::serve;
namespace spectra = astro::spectra;
namespace stream = astro::stream;

/// The serve reader: queries per second, and k of its top_k_components
/// calls.
inline constexpr double kReaderQps = 2000.0;
inline constexpr std::size_t kTopK = 5;

struct WorkloadSpec {
  std::string name;
  spectra::SpectraConfig spectra;
  app::PipelineConfig pipeline;
  std::size_t tuples = 0;      ///< items streamed per job
  std::size_t pool = 0;        ///< distinct pre-generated items, replayed
  double offered_rate = 0.0;   ///< t/s of the generator's schedule; 0 = closed loop
  /// Accuracy bounds of a run's final result (leading `spectra.components`
  /// directions): subspace affinity to the generator's true basis and to
  /// a single-threaded replay of the same items.
  double min_affinity_truth = 0.0;
  double min_affinity_replay = 0.0;
};

/// Every workload name, in the order they are documented.
[[nodiscard]] const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name,
                                         std::uint64_t seed);

struct Inputs {
  std::vector<stream::SourceItem> pool;
  linalg::Matrix true_basis;
  /// Item i of every job is pool[i % pool.size()].
  [[nodiscard]] const stream::SourceItem& item(std::size_t i) const {
    return pool[i % pool.size()];
  }
};
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec);

/// What one job measured.
struct JobResult {
  double setup_s = 0.0;      ///< construct + start()
  double job_s = 0.0;        ///< start() -> wait() returned
  double stream_s = 0.0;     ///< first hand-off -> last apply
  double applied_tps = 0.0;  ///< applied / stream_s
  double drain_s = 0.0;      ///< last apply -> wait() returned
  std::uint64_t generated = 0;
  std::uint64_t applied = 0;
  std::uint64_t queries_attempted = 0;  ///< queries issued after the first publish
  std::uint64_t queries_failed = 0;     ///< of those, any status but kOk
  std::vector<double> staleness_ms;
  std::vector<double> query_us;
  std::vector<double> late_ms;  ///< hand-off minus due time (paced only)
  double split_tps = 0.0;       ///< throughput(): the legacy split rate
  std::vector<std::string> failures;  ///< correctness checks that failed
  // Traced jobs only.
  stream::RegistrySnapshot registry;
  std::uint64_t allocs = 0;  ///< program allocations, start() -> last apply
};

/// Runs one job.  `tracer` (may be null) turns on the traced extras:
/// spans around the benchmark's calls, allocation counting and a registry
/// snapshot.  `result` (may be null) receives the pipeline's final merged
/// eigensystem.
JobResult run_job(const WorkloadSpec& spec, const Inputs& inputs,
                  Tracer* tracer, pca::EigenSystem* result);

/// Subspace affinity of the leading k directions of two eigensystems /
/// bases.
[[nodiscard]] double leading_affinity(const linalg::Matrix& a,
                                      const linalg::Matrix& b, std::size_t k);

/// Single-threaded reference: one engine fed the job's items the way a
/// pipeline engine absorbs them (masked items one by one, unmasked runs in
/// batches of at most `batch_max`).
[[nodiscard]] pca::EigenSystem replay_reference(const WorkloadSpec& spec,
                                                const Inputs& inputs);

}  // namespace perfbench
