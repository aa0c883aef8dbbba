#include "replay.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "io/frame.h"
#include "linalg/svd.h"
#include "pca/merge.h"
#include "pca/robust_pca.h"
#include "serve/snapshot_server.h"
#include "spectra/validate.h"

namespace perfbench {

namespace {

namespace io = astro::io;

/// Items the engines' warm-up consumes before any call is timed: the init
/// batch plus the first workspace growth.
constexpr std::size_t kWarmItems = 400;
/// Calls per replayed function; at least 1000 so the p99 has ten samples
/// beyond it.
constexpr std::size_t kCalls = 2000;
constexpr std::size_t kSlowCalls = 1000;  // merge, publish: ~0.1-0.3 ms each

class LayerTimer {
 public:
  LayerTimer(Tracer& tracer, Report& report)
      : tracer_(tracer), report_(report) {}

  /// Times `calls` invocations of call(i) — each one span named `name`
  /// under a `replay.<name>` parent — running prepare(i) untimed before
  /// each, and reports the layer metrics.  Returns the busy seconds.
  template <typename Prepare, typename Call>
  double run(const std::string& name, std::size_t calls, Prepare&& prepare,
             Call&& call) {
    const std::uint32_t id = tracer_.name_id(name);
    const std::uint32_t parent =
        tracer_.record(tracer_.name_id("replay." + name), now_ns(), 0);
    for (std::size_t i = 0; i < calls; ++i) {
      prepare(i);
      const std::int64_t t0 = now_ns();
      call(i);
      tracer_.record(id, t0, now_ns(), parent);
    }
    tracer_.close(parent, now_ns());
    const std::vector<double> us = tracer_.durations_us(id);
    const double busy_s = std::accumulate(us.begin(), us.end(), 0.0) / 1e6;
    report_.add_p50_p99(name + "_us", us, "us");
    report_.add(name + ".calls", double(us.size()), "count");
    report_.add(name + ".busy_s", busy_s, "s", us.size());
    return busy_s;
  }

 private:
  Tracer& tracer_;
  Report& report_;
};

void nothing(std::size_t) {}

/// One engine call the way a pipeline engine makes it: a masked item on
/// its own, or a run of unmasked items as one batch.
struct EngineCall {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool masked = false;
};

/// Splits items [begin, end) into engine calls: chunks of `batch_max`,
/// within which masked items go one by one and unmasked runs batch.
std::vector<EngineCall> engine_calls(const Inputs& in, std::size_t begin,
                                     std::size_t end, std::size_t batch_max) {
  std::vector<EngineCall> calls;
  for (std::size_t chunk = begin; chunk < end; chunk += batch_max) {
    const std::size_t chunk_end = std::min(end, chunk + batch_max);
    for (std::size_t i = chunk; i < chunk_end;) {
      if (!in.item(i).mask.empty()) {
        calls.push_back({i, i + 1, true});
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < chunk_end && in.item(j).mask.empty()) ++j;
      calls.push_back({i, j, false});
      i = j;
    }
  }
  return calls;
}

class Engine {
 public:
  Engine(const WorkloadSpec& spec, const Inputs& in)
      : pca_(spec.pipeline.pca),
        in_(in),
        batch_max_(std::max<std::size_t>(spec.pipeline.batch_max, 1)),
        reports_(batch_max_) {}

  void apply(const EngineCall& c) {
    if (c.masked) {
      const stream::SourceItem& item = in_.item(c.begin);
      (void)pca_.observe(item.values, item.mask);
      return;
    }
    xs_.clear();
    for (std::size_t i = c.begin; i < c.end; ++i) {
      xs_.push_back(&in_.item(i).values);
    }
    pca_.observe_batch(xs_.data(), xs_.size(), reports_.data());
  }
  void apply_items(std::size_t begin, std::size_t end) {
    for (const EngineCall& c : engine_calls(in_, begin, end, batch_max_)) {
      apply(c);
    }
  }
  [[nodiscard]] std::size_t batch_max() const { return batch_max_; }
  [[nodiscard]] const pca::EigenSystem& system() const {
    return pca_.eigensystem();
  }

 private:
  pca::RobustIncrementalPca pca_;
  const Inputs& in_;
  std::size_t batch_max_;
  std::vector<const linalg::Vector*> xs_;
  std::vector<pca::ObservationReport> reports_;
};

/// The low-rank update's augmented matrix at the engine's shape,
/// d x (rank + batch_max): the current components scaled by the square
/// roots of their forgotten eigenvalues, then centered items.
linalg::Matrix update_matrix(const pca::EigenSystem& sys, double alpha,
                             const Inputs& in, std::size_t first,
                             std::size_t batch) {
  const std::size_t d = sys.dim();
  const std::size_t r = sys.rank();
  linalg::Matrix a(d, r + batch);
  for (std::size_t c = 0; c < r; ++c) {
    const double s = std::sqrt(alpha * std::max(sys.eigenvalues()[c], 0.0));
    for (std::size_t i = 0; i < d; ++i) a(i, c) = sys.basis()(i, c) * s;
  }
  const double w = std::sqrt(1.0 - alpha);
  for (std::size_t j = 0; j < batch; ++j) {
    const linalg::Vector& x = in.item(first + j).values;
    for (std::size_t i = 0; i < d; ++i) {
      a(i, r + j) = (x[i] - sys.mean()[i]) * w;
    }
  }
  return a;
}

}  // namespace

void replay_layers(const WorkloadSpec& spec, const Inputs& in, Tracer& tracer,
                   Report& report) {
  LayerTimer timer(tracer, report);
  std::size_t bad = 0;

  // pca: the engine update, at the workload's batch bound.  Enough items
  // for 4000 tuples and at least 1200 calls.
  Engine engine(spec, in);
  engine.apply_items(0, kWarmItems);
  std::vector<EngineCall> calls;
  std::size_t end = kWarmItems;
  while (calls.size() < 1200 || end - kWarmItems < 4000) {
    const std::vector<EngineCall> more =
        engine_calls(in, end, end + 8 * engine.batch_max(), engine.batch_max());
    calls.insert(calls.end(), more.begin(), more.end());
    end += 8 * engine.batch_max();
  }
  const double observe_s = timer.run("pca.observe", calls.size(), nothing,
                                     [&](std::size_t i) { engine.apply(calls[i]); });
  report.add("pca.observe_tps_1thread", double(end - kWarmItems) / observe_s,
             "1/s", calls.size());

  // linalg: the thin SVD of that update's augmented matrix, as wide as the
  // replayed engine calls were on average (masked items update one by one).
  const pca::EigenSystem& state = engine.system();
  const std::size_t width = std::max<std::size_t>(
      1, std::size_t(std::lround(double(end - kWarmItems) / double(calls.size()))));
  std::vector<linalg::Matrix> updates;
  for (std::size_t m = 0; m < 16; ++m) {
    updates.push_back(update_matrix(state, spec.pipeline.pca.alpha, in,
                                    m * width, width));
  }
  linalg::SvdWorkspace ws;
  linalg::Matrix u;
  linalg::Vector s;
  timer.run("linalg.svd_left", kCalls, nothing, [&](std::size_t i) {
    linalg::svd_left_inplace(updates[i % updates.size()], ws, {&u, &s});
  });

  // pca.merge: the publisher's two-engine pooling.
  Engine other(spec, in);
  other.apply_items(in.pool.size() / 2, in.pool.size() / 2 + 2000);
  const std::vector<pca::EigenSystem> pair{state, other.system()};
  pca::EigenSystem merged;
  timer.run("pca.merge", kSlowCalls, nothing,
            [&](std::size_t) { merged = pca::merge(pair); });

  // spectra: ingest validation of the workload's items.
  spectra::ValidationPolicy policy = spec.pipeline.validation;
  policy.expected_dim = spec.pipeline.pca.dim;
  linalg::Vector values;
  pca::PixelMask mask;
  timer.run(
      "spectra.validate", kCalls,
      [&](std::size_t i) {
        values = in.item(i).values;
        mask = in.item(i).mask;
      },
      [&](std::size_t) {
        if (!spectra::validate_and_repair(values, mask, policy).ok()) ++bad;
      });

  // io: the TCP leg's frame codec (CRC32C included).
  std::vector<stream::DataTuple> tuples(64);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].seq = i;
    tuples[i].values = in.item(i).values;
    tuples[i].mask = in.item(i).mask;
  }
  std::vector<std::vector<std::uint8_t>> frames(tuples.size());
  timer.run(
      "io.encode_tuple", kCalls,
      [&](std::size_t i) { frames[i % frames.size()].clear(); },
      [&](std::size_t i) {
        frames[i % frames.size()] = io::encode_tuple(tuples[i % tuples.size()], i);
      });
  std::optional<stream::DataTuple> decoded;
  timer.run(
      "io.decode_tuple", kCalls, [&](std::size_t) { decoded.reset(); },
      [&](std::size_t i) {
        decoded = io::decode_tuple(frames[i % frames.size()]);
        if (!decoded || decoded->values.size() != spec.pipeline.pca.dim) ++bad;
      });

  // serve: publication and the three queries, on the merged system.
  serve::SnapshotServer server;
  pca::EigenSystem to_publish;
  timer.run(
      "serve.publish", kSlowCalls, [&](std::size_t) { to_publish = merged; },
      [&](std::size_t i) {
        server.publish(std::move(to_publish), -1, std::int64_t(i));
      });
  serve::QueryWorkspace qws;
  serve::ProjectionResult projection;
  serve::ResidualResult residual;
  std::shared_ptr<const serve::TopKResult> topk;
  const auto ok = [&](serve::QueryStatus st) {
    if (st != serve::QueryStatus::kOk) ++bad;
  };
  timer.run("serve.project", kCalls, nothing, [&](std::size_t i) {
    ok(server.project(in.item(i).values, qws, projection));
  });
  timer.run("serve.residual", kCalls, nothing, [&](std::size_t i) {
    ok(server.residual_score(in.item(i).values, qws, residual));
  });
  timer.run("serve.topk", kCalls, nothing,
            [&](std::size_t) { ok(server.top_k_components(kTopK, topk)); });

  if (bad != 0) {
    throw std::runtime_error("layer replay: " + std::to_string(bad) +
                             " calls gave a wrong answer");
  }
}

}  // namespace perfbench
