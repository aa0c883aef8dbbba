#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>

#include "alloc_count.h"
#include "pca/robust_pca.h"
#include "pca/subspace.h"
#include "serve/snapshot_server.h"

namespace perfbench {

namespace {

using Transport = app::PipelineConfig::TransportOptions::Kind;

/// Applied-count sampling period: 1 ms against jobs of about a second.
constexpr auto kSamplePeriod = std::chrono::milliseconds(1);

std::chrono::steady_clock::time_point at_ns(std::int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

std::uint64_t applied_count(const app::StreamingPcaPipeline& pipeline) {
  std::uint64_t applied = 0;
  for (const auto& s : pipeline.engine_stats()) applied += s.tuples;
  return applied;
}

linalg::Matrix leading_columns(const linalg::Matrix& m, std::size_t k) {
  linalg::Matrix out(m.rows(), k);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < k; ++c) out(r, c) = m(r, c);
  }
  return out;
}

/// The reader: one caller that waits for each reply, issuing queries on a
/// fixed schedule (a closed loop paced at kReaderQps) while the
/// stream runs, cycling project / residual_score / top_k_components.
struct ReaderLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t version_regressions = 0;
  std::vector<double> staleness_ms;
  std::vector<double> query_us;
  std::vector<std::pair<std::int64_t, std::int64_t>> calls;  // traced only
};

void read_loop(std::stop_token stop, const WorkloadSpec& spec,
               const Inputs& inputs, const serve::SnapshotServer& server,
               const std::atomic<std::int64_t>* handoff,
               const std::atomic<bool>& stream_done, bool traced,
               ReaderLog& log) {
  alloc::BenchScope bench;
  serve::QueryWorkspace ws;
  serve::ProjectionResult projection;
  serve::ResidualResult residual;
  std::shared_ptr<const serve::TopKResult> topk;
  std::uint64_t last_version = 0;
  const auto period = std::int64_t(1e9 / kReaderQps);
  std::int64_t due = now_ns();
  for (std::uint64_t k = 0;
       !stop.stop_requested() && !stream_done.load(std::memory_order_acquire);
       ++k) {
    due += period;
    std::this_thread::sleep_until(at_ns(due));
    if (server.current() == nullptr) continue;  // first publish not done
    const linalg::Vector& x = inputs.item(k).values;
    serve::QueryStatus status;
    std::uint64_t version = 0;
    std::uint64_t observations = 0;
    const std::int64_t t0 = now_ns();
    switch (k % 3) {
      case 0:
        status = server.project(x, ws, projection);
        version = projection.version;
        observations = projection.observations;
        break;
      case 1:
        status = server.residual_score(x, ws, residual);
        version = residual.version;
        observations = residual.observations;
        break;
      default:
        status = server.top_k_components(kTopK, topk);
        if (status == serve::QueryStatus::kOk) {
          version = topk->version;
          observations = topk->observations;
        }
        break;
    }
    const std::int64_t t1 = now_ns();
    ++log.attempted;
    if (status != serve::QueryStatus::kOk) {
      ++log.failed;
      if (status == serve::QueryStatus::kOverloaded) ++log.overloaded;
      continue;
    }
    if (version < last_version) ++log.version_regressions;
    last_version = version;
    log.query_us.push_back(double(t1 - t0) / 1e3);
    if (traced) log.calls.emplace_back(t0, t1);
    // The answering version merged the engines' local counts, so it has
    // absorbed as many items as the generator had handed over when item
    // number `observations` left it.
    if (observations >= 1 && observations <= spec.tuples) {
      const std::int64_t h =
          handoff[observations - 1].load(std::memory_order_relaxed);
      if (h > 0) log.staleness_ms.push_back(double(t1 - h) / 1e6);
    }
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fig6_d250", "serve_live",
                                              "tcp_d64"};
  return names;
}

WorkloadSpec workload_spec(const std::string& name, std::uint64_t seed) {
  WorkloadSpec w;
  w.name = name;
  w.spectra.seed = seed;
  w.spectra.components = 5;
  w.spectra.outlier_fraction = 0.02;
  app::PipelineConfig& p = w.pipeline;
  p.pca.rho = "bisquare";
  p.pca.alpha = 1.0 - 1.0 / 5000.0;
  p.engines = 2;
  p.sync_strategy = "ring";
  p.sync_rate_hz = 2.0;
  p.serve.enabled = true;
  p.serve.publish_interval_seconds = 0.05;
  if (name == "fig6_d250") {
    w.spectra.pixels = 250;
    p.pca.rank = 10;
    p.batch_max = 1;
    w.tuples = 30000;
    w.pool = 8192;
    w.min_affinity_truth = 0.85;
    w.min_affinity_replay = 0.85;
  } else if (name == "serve_live") {
    w.spectra.pixels = 250;
    p.pca.rank = 10;
    p.batch_max = 8;
    p.transport.enabled = true;
    p.transport.kind = Transport::kShm;
    p.serve.publish_interval_seconds = 0.005;
    w.offered_rate = 20000.0;
    w.tuples = 45000;
    w.pool = 8192;
    w.min_affinity_truth = 0.85;
    w.min_affinity_replay = 0.85;
  } else if (name == "tcp_d64") {
    w.spectra.pixels = 64;
    w.spectra.max_redshift = 0.3;
    p.pca.rank = 5;
    p.pca.extra_rank = 2;
    p.batch_max = 8;
    p.validate_ingest = true;
    p.transport.enabled = true;
    p.transport.kind = Transport::kTcp;
    w.tuples = 100000;
    w.pool = 16384;
    w.min_affinity_truth = 0.6;
    w.min_affinity_replay = 0.6;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  p.pca.dim = w.spectra.pixels;
  return w;
}

Inputs make_inputs(const WorkloadSpec& spec) {
  spectra::GalaxySpectrumGenerator gen(spec.spectra);
  Inputs in;
  in.pool.reserve(spec.pool);
  for (std::size_t i = 0; i < spec.pool; ++i) {
    spectra::GalaxySpectrumGenerator::Sample s = gen.next();
    in.pool.push_back({std::move(s.flux), std::move(s.mask)});
  }
  in.true_basis = gen.true_basis();
  return in;
}

double leading_affinity(const linalg::Matrix& a, const linalg::Matrix& b,
                        std::size_t k) {
  return pca::subspace_affinity(leading_columns(a, k), leading_columns(b, k));
}

pca::EigenSystem replay_reference(const WorkloadSpec& spec,
                                  const Inputs& inputs) {
  pca::RobustIncrementalPca engine(spec.pipeline.pca);
  const std::size_t b = std::max<std::size_t>(spec.pipeline.batch_max, 1);
  std::vector<const linalg::Vector*> run;
  std::vector<pca::ObservationReport> reports(b);
  const auto flush = [&] {
    if (run.empty()) return;
    engine.observe_batch(run.data(), run.size(), reports.data());
    run.clear();
  };
  for (std::size_t i = 0; i < spec.tuples; ++i) {
    if (i % b == 0) flush();
    const stream::SourceItem& item = inputs.item(i);
    if (item.mask.empty()) {
      run.push_back(&item.values);
    } else {
      flush();
      (void)engine.observe(item.values, item.mask);
    }
  }
  flush();
  return engine.eigensystem();
}

JobResult run_job(const WorkloadSpec& spec, const Inputs& inputs,
                  Tracer* tracer, pca::EigenSystem* result_out) {
  const std::size_t n = spec.tuples;
  const bool traced = tracer != nullptr;
  JobResult r;

  // Hand-off stamps: written by the source thread inside the generator,
  // read by the reader to date the answering version.
  auto handoff = std::make_unique<std::atomic<std::int64_t>[]>(n);  // zeroed
  if (spec.offered_rate > 0.0) r.late_ms.reserve(n);
  std::size_t next = 0;
  std::int64_t schedule_start = 0;
  stream::GeneratorSource::MaskedGenerator generator =
      [&]() -> std::optional<stream::SourceItem> {
    alloc::BenchScope bench;
    if (next == n) return std::nullopt;
    const std::size_t i = next++;
    std::int64_t due = 0;
    if (spec.offered_rate > 0.0) {
      // Open loop: item i is due at i / rate after the first hand-off,
      // however late the pipeline runs.
      if (i == 0) schedule_start = now_ns();
      due = schedule_start + std::int64_t(double(i) * 1e9 / spec.offered_rate);
      std::this_thread::sleep_until(at_ns(due));
    }
    stream::SourceItem item = inputs.item(i);
    const std::int64_t t = now_ns();
    handoff[i].store(t, std::memory_order_relaxed);
    if (spec.offered_rate > 0.0) r.late_ms.push_back(double(t - due) / 1e6);
    return item;
  };

  const std::int64_t t_construct = now_ns();
  app::StreamingPcaPipeline pipeline(spec.pipeline, std::move(generator));
  const std::int64_t t_constructed = now_ns();
  pipeline.start();
  const std::int64_t t_started = now_ns();
  r.setup_s = double(t_started - t_construct) / 1e9;

  const std::uint64_t allocs_base = alloc::count();
  if (traced) alloc::set_counting(true);

  std::atomic<bool> stream_done{false};
  std::int64_t t_last_apply = 0;
  std::uint64_t allocs_at_last_apply = 0;
  ReaderLog reader_log;
  reader_log.query_us.reserve(std::size_t(kReaderQps * 4.0));
  reader_log.staleness_ms.reserve(std::size_t(kReaderQps * 4.0));
  {
    std::jthread sampler([&](std::stop_token stop) {
      alloc::BenchScope bench;
      while (!stop.stop_requested()) {
        const std::uint64_t applied = applied_count(pipeline);
        if (applied >= n) {
          t_last_apply = now_ns();
          allocs_at_last_apply = alloc::count();
          stream_done.store(true, std::memory_order_release);
          return;
        }
        std::this_thread::sleep_for(kSamplePeriod);
      }
    });
    std::jthread reader;
    if (serve::SnapshotServer* server = pipeline.serve_server()) {
      reader = std::jthread([&, server](std::stop_token stop) {
        read_loop(stop, spec, inputs, *server, handoff.get(), stream_done,
                  traced, reader_log);
      });
    }
    pipeline.wait();
  }  // stops and joins the sampler and the reader
  const std::int64_t t_done = now_ns();
  alloc::set_counting(false);

  r.job_s = double(t_done - t_started) / 1e9;
  r.generated = next;
  r.applied = applied_count(pipeline);
  if (t_last_apply == 0) t_last_apply = t_done;  // never completed
  r.stream_s = double(t_last_apply - handoff[0].load()) / 1e9;
  r.applied_tps = r.stream_s > 0.0 ? double(r.applied) / r.stream_s : 0.0;
  r.drain_s = double(t_done - t_last_apply) / 1e9;
  r.split_tps = pipeline.throughput();
  r.queries_attempted = reader_log.attempted;
  r.queries_failed = reader_log.failed;
  r.staleness_ms = std::move(reader_log.staleness_ms);
  r.query_us = std::move(reader_log.query_us);

  // Correctness: conservation, transport accounting, serve invariants.
  auto check = [&r](bool ok, const std::string& what) {
    if (!ok) r.failures.push_back(what);
  };
  check(r.generated == n, "generator handed over " +
                              std::to_string(r.generated) + " of " +
                              std::to_string(n));
  check(r.applied == n, "engines applied " + std::to_string(r.applied) +
                            " of " + std::to_string(n) + " items");
  const auto check_leg = [&](const std::string& leg, const auto& c) {
    check(c.accepted == n && c.accepted == c.acked + c.lossy_dropped &&
              c.lossy_dropped == 0,
          leg + ": accepted " + std::to_string(c.accepted) + ", acked " +
              std::to_string(c.acked) + ", lossy " +
              std::to_string(c.lossy_dropped));
  };
  if (const auto* up = pipeline.transport_uplink()) {
    check_leg("tcp", up->counters());
  }
  if (const auto* up = pipeline.transport_shm_uplink()) {
    check_leg("shm", up->counters());
  }
  if (const auto* v = pipeline.validator()) {
    check(v->quarantined() == 0,
          "validate quarantined " + std::to_string(v->quarantined()));
  }
  if (const auto* dlq = pipeline.dead_letters()) {
    check(dlq->count() == 0,
          "dead letters on clean input: " + std::to_string(dlq->count()));
  }
  check(reader_log.version_regressions == 0,
        "reader saw the served version go backwards " +
            std::to_string(reader_log.version_regressions) + " times");
  check(reader_log.overloaded == 0,
        "kOverloaded at a single reader: " +
            std::to_string(reader_log.overloaded));
  if (result_out != nullptr) *result_out = pipeline.result();

  if (traced) {
    r.registry = pipeline.metrics_registry().snapshot();
    r.allocs = allocs_at_last_apply > allocs_base
                   ? allocs_at_last_apply - allocs_base
                   : 0;
    const std::uint32_t job = tracer->record(tracer->name_id("job"),
                                             t_construct, t_done);
    tracer->record(tracer->name_id("job.construct"), t_construct,
                   t_constructed, job);
    tracer->record(tracer->name_id("job.start"), t_constructed, t_started,
                   job);
    tracer->record(tracer->name_id("job.wait"), t_started, t_done, job);
    tracer->record(tracer->name_id("job.stream"), handoff[0].load(),
                   t_last_apply, job);
    tracer->record(tracer->name_id("job.drain"), t_last_apply, t_done, job);
    const std::uint32_t query = tracer->name_id("job.serve_query");
    for (const auto& [t0, t1] : reader_log.calls) {
      tracer->record(query, t0, t1, job);
    }
  }
  return r;
}

}  // namespace perfbench
