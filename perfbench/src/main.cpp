// End-to-end benchmark of the streaming PCA pipeline.
//
//   perfbench --workload <fig6_d250|serve_live|tcp_d64> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file.jsonl>]
//
// Inputs come from the seed; the program under test only ever sees the
// pre-generated items.  The run repeats pipeline jobs for `--seconds`
// (at least three), checks every job's outputs, and prints a table of
// metrics with their sample counts followed by one JSON result line.
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics (layer replay, registry counters of traced jobs, the
// per-engine time ledger).  Exit status: 0 when every check passed, 1
// when a check failed, 2 on a usage or setup error (no result line).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "replay.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr std::size_t kMinJobs = 3;
constexpr std::size_t kMaxJobs = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

using Jobs = std::vector<const JobResult*>;

template <typename F>
std::vector<double> collect(const Jobs& jobs, F&& field) {
  std::vector<double> out;
  for (const JobResult* j : jobs) out.push_back(field(*j));
  return out;
}

std::vector<double> pooled(const Jobs& jobs,
                           std::vector<double> JobResult::*samples) {
  std::vector<double> out;
  for (const JobResult* j : jobs) {
    out.insert(out.end(), (j->*samples).begin(), (j->*samples).end());
  }
  return out;
}

double extra(const stream::OperatorSnapshot* op, const std::string& key) {
  if (op == nullptr) return 0.0;
  for (const auto& [k, v] : op->extras) {
    if (k == key) return v;
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer values of one traced job, from the registry snapshot the job
/// took after wait() and from the job's own measurements.
std::vector<Metric> job_layers(const WorkloadSpec& spec, const JobResult& j) {
  const stream::RegistrySnapshot& reg = j.registry;
  const stream::OperatorSnapshot* split = reg.find_operator("split");
  std::vector<const stream::OperatorSnapshot*> engines;
  for (std::size_t e = 0; e < spec.pipeline.engines; ++e) {
    engines.push_back(reg.find_operator("pca-" + std::to_string(e)));
  }
  double busy = 0, pop_wait = 0, hold_p95 = 0, batches = 0, batched = 0,
         merges = 0, skipped = 0;
  std::size_t hwm = 0;
  for (std::size_t e = 0; e < engines.size(); ++e) {
    const stream::OperatorSnapshot* op = engines[e];
    if (op == nullptr) continue;
    busy += double(op->proc_ns.sum) / 1e9;
    pop_wait += double(op->pop_wait_ns.sum) / 1e9;
    hold_p95 = std::max(hold_p95, extra(op, "lock_hold_ns_p95") / 1e3);
    batches += extra(op, "batches");
    batched += extra(op, "batches") * extra(op, "batch_size_mean");
    merges += extra(op, "merges_applied");
    skipped += extra(op, "merges_skipped");
    if (const auto* q = reg.find_queue("chan.split->pca-" + std::to_string(e))) {
      hwm = std::max(hwm, q->high_watermark);
    }
  }
  const bool tcp = spec.pipeline.transport.enabled &&
                   spec.pipeline.transport.kind ==
                       app::PipelineConfig::TransportOptions::Kind::kTcp;
  const bool shm = spec.pipeline.transport.enabled && !tcp;
  const stream::OperatorSnapshot* uplink = reg.find_operator("uplink");
  const stream::OperatorSnapshot* serve_op = reg.find_operator("serve");
  const double hits = extra(serve_op, "cache_hits");
  const double misses = extra(serve_op, "cache_misses");
  const double split_busy = split ? double(split->proc_ns.sum) / 1e9 : 0.0;
  const double split_blocked =
      split ? double(split->push_wait_ns.sum) / 1e9 : 0.0;
  const double tcp_bytes =
      tcp && uplink ? ratio(double(uplink->bytes_out), extra(uplink, "acked"))
                    : 0.0;
  std::vector<Metric> v{
      {"stream.split.busy_s", split_busy, "s"},
      {"stream.split.push_blocked_s", split_blocked, "s"},
      {"stream.engine.busy_s", busy, "s"},
      {"stream.engine.pop_wait_s", pop_wait, "s"},
      {"stream.engine.lock_hold_us_p95", hold_p95, "us"},
      {"stream.engine.batch_mean", ratio(batched, batches), "tuples"},
      {"stream.queue.engine_hwm", double(hwm), "count"},
      {"sync.rounds", extra(reg.find_operator("sync-controller"), "rounds"), "count"},
      {"sync.merges_applied", merges, "count"},
      {"sync.merge_ratio", ratio(merges, merges + skipped), "ratio"},
      {"sync.drain_s", j.drain_s, "s"},
      {"stream.tcp.bytes_per_tuple", tcp_bytes, "B"},
      {"stream.tcp.retransmits", tcp ? extra(uplink, "retransmits") : 0.0, "count"},
      {"app.allocs_per_tuple", ratio(double(j.allocs), double(spec.tuples)), "count"},
      {"stream.shm.ring_blocked", shm ? extra(uplink, "blocked_waits") : 0.0, "count"},
      {"serve.publish_hz", ratio(extra(serve_op, "version"), j.job_s), "1/s"},
      {"serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
  };
  // The time ledger: what the engine's own histograms account for, as a
  // share of its thread's lifetime.
  for (std::size_t e = 0; e < engines.size(); ++e) {
    const stream::OperatorSnapshot* op = engines[e];
    const double explained =
        op ? ratio(double(op->proc_ns.sum + op->pop_wait_ns.sum +
                          op->push_wait_ns.sum) / 1e9,
                   op->elapsed_seconds)
           : 0.0;
    const std::string name = "ledger.pca-" + std::to_string(e);
    v.push_back({name + ".explained", explained, "ratio"});
    v.push_back({name + ".unexplained", 1.0 - explained, "ratio"});
  }
  return v;
}

void print_ledger(const WorkloadSpec& spec, const Jobs& traced) {
  std::printf("\nper-engine time ledger (traced jobs, median):\n");
  std::printf("  %-7s %9s %11s %15s %10s %10s %12s\n", "engine", "busy_s",
              "pop_wait_s", "push_blocked_s", "window_s", "explained",
              "unexplained");
  for (std::size_t e = 0; e < spec.pipeline.engines; ++e) {
    const std::string name = "pca-" + std::to_string(e);
    const auto field = [&](auto get) {
      return median(collect(traced, [&](const JobResult& j) {
        const stream::OperatorSnapshot* op = j.registry.find_operator(name);
        return op ? get(*op) : 0.0;
      }));
    };
    const double busy = field([](const auto& op) { return op.proc_ns.sum / 1e9; });
    const double pop = field([](const auto& op) { return op.pop_wait_ns.sum / 1e9; });
    const double push = field([](const auto& op) { return op.push_wait_ns.sum / 1e9; });
    const double window = field([](const auto& op) { return op.elapsed_seconds; });
    const double explained = ratio(busy + pop + push, window);
    std::printf("  %-7s %9.4f %11.4f %15.4f %10.4f %9.1f%% %11.1f%%\n",
                name.c_str(), busy, pop, push, window, 100.0 * explained,
                100.0 * (1.0 - explained));
  }
}

/// End-to-end metrics over the measured jobs.  applied_tps pools them:
/// every item they applied over all their stream time.
void report_e2e(const Jobs& jobs, double rss_first_job, Report& report) {
  double applied = 0.0, stream_s = 0.0;
  for (const JobResult* j : jobs) {
    applied += double(j->applied);
    stream_s += j->stream_s;
  }
  report.add("applied_tps", ratio(applied, stream_s), "1/s", jobs.size());
  report.add("job_s", median(collect(jobs, [](const JobResult& j) { return j.job_s; })),
             "s", jobs.size());
  report.add("setup_s",
             median(collect(jobs, [](const JobResult& j) { return j.setup_s; })),
             "s", jobs.size());
  report.add("rss_mb", rss_first_job, "MB");
  const std::vector<double> staleness = pooled(jobs, &JobResult::staleness_ms);
  report.add("staleness_ms_p50", quantile(staleness, 0.5), "ms", staleness.size());
}

void report_layers(const WorkloadSpec& spec, const Jobs& jobs, double rss_run,
                   Report& report) {
  // Jobs alternate traced (odd) and untraced (even) after the warm-up
  // job 0, so both sets see the same stretch of the run.
  Jobs traced, untraced;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    (i % 2 == 0 ? traced : untraced).push_back(jobs[i]);
  }
  std::vector<std::vector<Metric>> per_job;
  for (const JobResult* j : traced) per_job.push_back(job_layers(spec, *j));
  for (std::size_t k = 0; k < per_job.front().size(); ++k) {
    std::vector<double> values;
    for (const auto& layers : per_job) values.push_back(layers[k].value);
    report.add(per_job.front()[k].name, median(values), per_job.front()[k].unit,
               values.size());
  }
  // Serve latencies too unsteady across runs to gate (perfbench/README.md).
  const std::vector<double> staleness = pooled(jobs, &JobResult::staleness_ms);
  if (!percentile_supported(staleness.size(), 99.0)) {
    throw std::runtime_error("staleness_ms_p99: too few queries");
  }
  report.add("staleness_ms_p99", quantile(staleness, 0.99), "ms",
             staleness.size());
  report.add_p50_p99("query_us", pooled(jobs, &JobResult::query_us), "us");
  report.add("app.rss_growth_run_mb", rss_run, "MB");
  const std::vector<double> late = pooled(jobs, &JobResult::late_ms);
  if (late.empty()) {  // closed loop: nothing is scheduled, nothing is late
    report.add("source.late_ms_p50", 0.0, "ms", 0);
    report.add("source.late_ms_p99", 0.0, "ms", 0);
  } else {
    report.add_p50_p99("source.late_ms", late, "ms");
  }
  report.add("stream.split_tps",
             median(collect(jobs, [](const JobResult& j) { return j.split_tps; })),
             "1/s", jobs.size());
  const auto tps = [](const JobResult& j) { return j.applied_tps; };
  report.add("trace.overhead",
             median(collect(traced, tps)) - median(collect(untraced, tps)),
             "1/s", jobs.size());
  print_ledger(spec, traced);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  Report report;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  try {
    args = parse_args(argc, argv);
    spec = workload_spec(args.workload, args.seed);
    const Inputs inputs = make_inputs(spec);
    std::optional<Tracer> tracer;
    if (args.trace) tracer.emplace();

    const std::int64_t deadline =
        now_ns() + std::int64_t(args.seconds * 1e9);
    if (tracer) replay_layers(spec, inputs, *tracer, report);
    // Traced runs alternate untraced and traced jobs so the tracing
    // overhead is measured on the same inputs in the same process.
    std::vector<JobResult> jobs;
    jobs.reserve(kMaxJobs);
    pca::EigenSystem result;
    // Peak-RSS growth of the first job (the pipeline's footprint from a
    // cold start; later jobs reuse what it freed) and of the whole run.
    const double rss_before = peak_rss_mb();
    double rss_first_job = 0.0;
    while (jobs.size() < kMinJobs ||
           (now_ns() < deadline && jobs.size() < kMaxJobs)) {
      const bool traced_job = tracer && jobs.size() % 2 == 1;
      jobs.push_back(
          run_job(spec, inputs, traced_job ? &*tracer : nullptr, &result));
      if (jobs.size() == 1) rss_first_job = peak_rss_mb() - rss_before;
    }
    const double rss_run = peak_rss_mb() - rss_before;

    for (const JobResult& j : jobs) {
      attempted += j.generated + j.queries_attempted;
      failed += (j.generated - std::min(j.generated, j.applied)) +
                j.queries_failed;
      failures.insert(failures.end(), j.failures.begin(), j.failures.end());
    }
    // Accuracy of the final result, against the generator's truth and a
    // single-threaded replay of the same items (out of the measured
    // window; every job streams the same sequence).
    const pca::EigenSystem reference = replay_reference(spec, inputs);
    const std::size_t k = spec.spectra.components;
    const double truth_affinity =
        leading_affinity(result.basis(), inputs.true_basis, k);
    const double replay_affinity =
        leading_affinity(result.basis(), reference.basis(), k);
    const double reference_truth =
        leading_affinity(reference.basis(), inputs.true_basis, k);
    if (truth_affinity < spec.min_affinity_truth) {
      failures.push_back("affinity to the true basis " +
                         std::to_string(truth_affinity) + " < " +
                         std::to_string(spec.min_affinity_truth));
    }
    if (replay_affinity < spec.min_affinity_replay) {
      failures.push_back("affinity to the single-threaded replay " +
                         std::to_string(replay_affinity) + " < " +
                         std::to_string(spec.min_affinity_replay));
    }

    // The first job warms the allocator, page tables and caches.
    Jobs measured;
    for (std::size_t i = 1; i < jobs.size(); ++i) measured.push_back(&jobs[i]);
    if (tracer) {
      report_layers(spec, measured, rss_run, report);
      if (!args.spans.empty() && !tracer->write_jsonl(args.spans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
      }
      if (tracer->dropped() != 0) {
        std::fprintf(stderr, "perfbench: span buffer full, %llu spans dropped\n",
                     static_cast<unsigned long long>(tracer->dropped()));
      }
    } else {
      report_e2e(measured, rss_first_job, report);
    }
    std::printf("\n%s: seed %llu, %zu jobs of %zu items, %s; final result's "
                "affinity to truth %.4f, to the single-threaded replay %.4f "
                "(replay to truth %.4f)\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                jobs.size(), spec.tuples, args.trace ? "traced" : "untraced",
                truth_affinity, replay_affinity, reference_truth);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  const bool correct = failures.empty();
  std::printf("%s", report.table().c_str());
  std::printf("failures: %llu of %llu operations attempted\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("%s\n", report.result_line(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
