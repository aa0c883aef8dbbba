// The sync control loop's pacing (paper §III-B: controller -> throttle ->
// router -> engines): the throttle's pacing wait ends on request_stop(), so
// a slow sync rate puts no floor under shutdown, and the controller is paced
// by the throttle (a depth-1 channel), so its `rounds` counter tracks the
// rounds actually handed to the engines instead of a queued backlog.

#include <gtest/gtest.h>

#include <chrono>

#include "app/pipeline.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::app {
namespace {

using Clock = std::chrono::steady_clock;

PipelineConfig loop_config(double sync_rate_hz) {
  PipelineConfig cfg;
  cfg.pca.dim = 16;
  cfg.pca.rank = 3;
  cfg.pca.alpha = 1.0 - 1.0 / 500.0;
  cfg.pca.init_count = 20;
  cfg.engines = 2;
  cfg.sync_strategy = "ring";
  cfg.sync_rate_hz = sync_rate_hz;
  cfg.independence_fallback = 100;
  return cfg;
}

std::vector<linalg::Vector> stream_of(std::size_t n) {
  stats::Rng rng(7);
  const auto model = pca::testing::make_model(rng, 16, 3);
  return pca::testing::draw_many(model, rng, n);
}

TEST(SyncLoop, SlowSyncRateAddsNoShutdownFloor) {
  // At 0.5 Hz one throttle period is 2 s; run() used to end only when the
  // period in progress did.  500 tuples drain in milliseconds.
  StreamingPcaPipeline pipeline(loop_config(0.5), stream_of(500));
  const auto t0 = Clock::now();
  pipeline.run();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_LT(seconds, 0.5) << "run() took " << seconds << " s at 0.5 Hz";
  std::uint64_t applied = 0;
  for (const auto& s : pipeline.engine_stats()) applied += s.tuples;
  EXPECT_EQ(applied, 500u);
}

TEST(SyncLoop, RoundsCountRoundsHandedOff) {
  // 1500 tuples at 1000 t/s keep the loop running ~1.5 s at 10 Hz.  With a
  // ring over 2 engines every round is one command, so rounds counted can
  // lead commands routed only by the round in the channel and the one the
  // throttle holds.
  PipelineConfig cfg = loop_config(10.0);
  cfg.source_rate = 1000.0;
  StreamingPcaPipeline pipeline(cfg, stream_of(1500));
  const auto t0 = Clock::now();
  pipeline.run();
  ASSERT_GE(Clock::now() - t0, std::chrono::seconds(1));

  const stream::RegistrySnapshot snap = pipeline.metrics_registry().snapshot();
  const stream::OperatorSnapshot* router = snap.find_operator("control-router");
  ASSERT_NE(router, nullptr);
  ASSERT_NE(pipeline.sync_controller(), nullptr);
  const std::uint64_t rounds = pipeline.sync_controller()->rounds();
  EXPECT_GE(rounds, router->tuples_out);
  EXPECT_LE(rounds - router->tuples_out, 2u)
      << "rounds " << rounds << ", routed " << router->tuples_out;
  EXPECT_GT(router->tuples_out, 5u) << "the loop must actually have run";
}

}  // namespace
}  // namespace astro::app
