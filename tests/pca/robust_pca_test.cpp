#include "pca/robust_pca.h"

#include <gtest/gtest.h>

#include "pca/subspace.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::pca {
namespace {

using stats::Rng;

RobustPcaConfig base_config(std::size_t d = 20, std::size_t p = 3) {
  RobustPcaConfig cfg;
  cfg.dim = d;
  cfg.rank = p;
  cfg.alpha = 1.0 - 1.0 / 2000.0;
  cfg.init_count = 30;
  return cfg;
}

TEST(RobustPca, ConfigValidation) {
  RobustPcaConfig cfg;
  cfg.dim = 0;
  EXPECT_THROW(RobustIncrementalPca{cfg}, std::invalid_argument);
  cfg.dim = 5;
  cfg.rank = 0;
  EXPECT_THROW(RobustIncrementalPca{cfg}, std::invalid_argument);
  cfg.rank = 4;
  cfg.extra_rank = 3;  // 4 + 3 > 5
  EXPECT_THROW(RobustIncrementalPca{cfg}, std::invalid_argument);
  cfg.extra_rank = 0;
  cfg.alpha = 2.0;
  EXPECT_THROW(RobustIncrementalPca{cfg}, std::invalid_argument);
  cfg.alpha = 1.0;
  cfg.rho = "nope";
  EXPECT_THROW(RobustIncrementalPca{cfg}, std::invalid_argument);
  cfg.rho = "bisquare";
  cfg.delta = 2.0;
  EXPECT_THROW(RobustIncrementalPca{cfg}, std::invalid_argument);
}

TEST(RobustPca, PendingInitReported) {
  RobustIncrementalPca pca(base_config());
  Rng rng(91);
  const auto rep = pca.observe(rng.gaussian_vector(20));
  EXPECT_TRUE(rep.pending_init);
  EXPECT_FALSE(pca.initialized());
}

TEST(RobustPca, RecoversSubspaceOnCleanData) {
  Rng rng(93);
  const auto model = testing::make_model(rng, 20, 3, 3.0, 0.01);
  RobustIncrementalPca pca(base_config());
  for (int i = 0; i < 4000; ++i) pca.observe(testing::draw(model, rng));
  EXPECT_GT(subspace_affinity(pca.eigensystem().basis(), model.basis), 0.99);
}

TEST(RobustPca, SigmaSatisfiesScaleEquationOnCleanStream) {
  // The streaming sigma^2 must settle at the M-scale fixed point: the
  // average rho(r^2/sigma^2) over fresh clean data equals delta (eq. 5).
  Rng rng(97);
  const double noise = 0.1;
  const auto model = testing::make_model(rng, 20, 3, 3.0, noise);
  auto cfg = base_config();
  cfg.delta = 0.5;
  RobustIncrementalPca pca(cfg);
  for (int i = 0; i < 6000; ++i) pca.observe(testing::draw(model, rng));

  const double s2 = pca.sigma2();
  ASSERT_GT(s2, 0.0);
  double avg_rho = 0.0;
  const int probes = 2000;
  for (int i = 0; i < probes; ++i) {
    const linalg::Vector x = testing::draw(model, rng);
    const EigenSystem& s = pca.eigensystem();
    const linalg::Vector y = s.center(x);
    const linalg::Vector c = s.project(x);
    double proj = 0.0;
    for (std::size_t k = 0; k < 3; ++k) proj += c[k] * c[k];
    const double r2 = std::max(0.0, y.squared_norm() - proj);
    avg_rho += pca.rho().rho(r2 / s2);
  }
  avg_rho /= double(probes);
  EXPECT_NEAR(avg_rho, 0.5, 0.06);
  // And sigma^2 stays on the order of the residual energy (d-p) * noise^2.
  const double r2_scale = noise * noise * double(20 - 3);
  EXPECT_GT(s2, 0.5 * r2_scale);
  EXPECT_LT(s2, 5.0 * r2_scale);
}

TEST(RobustPca, OutliersAreFlaggedAndRejected) {
  Rng rng(101);
  const auto model = testing::make_model(rng, 20, 3, 3.0, 0.01);
  RobustIncrementalPca pca(base_config());

  // Warm up clean.
  for (int i = 0; i < 1000; ++i) pca.observe(testing::draw(model, rng));
  const std::uint64_t before = pca.outliers_flagged();

  // Outliers must be flagged with zero weight.
  int flagged = 0;
  for (int i = 0; i < 50; ++i) {
    const auto rep = pca.observe(testing::draw_outlier(model, rng, 50.0));
    if (rep.outlier) {
      ++flagged;
      EXPECT_EQ(rep.weight, 0.0);
    }
    // Interleave clean data so sigma cannot inflate to absorb them.
    for (int j = 0; j < 20; ++j) pca.observe(testing::draw(model, rng));
  }
  EXPECT_GE(flagged, 45);
  EXPECT_EQ(pca.outliers_flagged(), before + std::uint64_t(flagged));
}

TEST(RobustPca, ContaminatedStreamStillConverges) {
  // 5 % gross outliers: the robust engine must still find the true
  // subspace, which is exactly Figure 1's claim.
  Rng rng(103);
  const auto model = testing::make_model(rng, 20, 3, 3.0, 0.01);
  RobustIncrementalPca pca(base_config());
  for (int i = 0; i < 6000; ++i) {
    if (rng.bernoulli(0.05)) {
      pca.observe(testing::draw_outlier(model, rng, 30.0));
    } else {
      pca.observe(testing::draw(model, rng));
    }
  }
  EXPECT_GT(subspace_affinity(pca.eigensystem().basis(), model.basis), 0.98);
}

TEST(RobustPca, OutlierDoesNotMoveMeanOrBasis) {
  Rng rng(107);
  const auto model = testing::make_model(rng, 20, 3, 3.0, 0.01);
  RobustIncrementalPca pca(base_config());
  for (int i = 0; i < 2000; ++i) pca.observe(testing::draw(model, rng));

  const linalg::Vector mean_before = pca.eigensystem().mean();
  const linalg::Matrix basis_before = pca.eigensystem().basis();
  const auto rep = pca.observe(testing::draw_outlier(model, rng, 100.0));
  ASSERT_TRUE(rep.outlier);
  EXPECT_TRUE(approx_equal(pca.eigensystem().mean(), mean_before, 1e-12));
  EXPECT_TRUE(approx_equal(pca.eigensystem().basis(), basis_before, 1e-12));
}

TEST(RobustPca, QuadraticRhoReproducesClassicBehaviour) {
  // With rho(t) = t the "robust" machinery must behave like classic PCA:
  // outliers get full weight and swing the eigensystem.
  Rng rng(109);
  const auto model = testing::make_model(rng, 20, 3, 3.0, 0.01);
  auto cfg = base_config();
  cfg.rho = "quadratic";
  cfg.delta = 1.0;
  RobustIncrementalPca pca(cfg);
  for (int i = 0; i < 2000; ++i) pca.observe(testing::draw(model, rng));
  const auto rep = pca.observe(testing::draw_outlier(model, rng, 100.0));
  EXPECT_FALSE(rep.outlier);
  EXPECT_EQ(rep.weight, 1.0);
}

TEST(RobustPca, ReportedSystemTruncatesExtraRank) {
  Rng rng(113);
  const auto model = testing::make_model(rng, 20, 3, 3.0, 0.01);
  auto cfg = base_config();
  cfg.extra_rank = 2;
  RobustIncrementalPca pca(cfg);
  for (int i = 0; i < 500; ++i) pca.observe(testing::draw(model, rng));
  EXPECT_EQ(pca.eigensystem().rank(), 5u);
  const EigenSystem rep = pca.reported_system();
  EXPECT_EQ(rep.rank(), 3u);
  EXPECT_EQ(rep.observations(), pca.eigensystem().observations());
}

TEST(RobustPca, TruncateValidation) {
  EigenSystem s(6, 3);
  EXPECT_THROW(truncate(s, 4), std::invalid_argument);
  const EigenSystem t = truncate(s, 2);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(), 6u);
}

TEST(RobustPca, RobustEigenvalueTrackingConverges) {
  Rng rng(117);
  const auto model = testing::make_model(rng, 20, 2, 3.0, 0.01);
  auto cfg = base_config(20, 2);
  cfg.track_robust_eigenvalues = true;
  cfg.delta = -1.0;
  RobustIncrementalPca pca(cfg);
  for (int i = 0; i < 8000; ++i) pca.observe(testing::draw(model, rng));
  const auto& rl = pca.robust_eigenvalues();
  ASSERT_EQ(rl.size(), 2u);
  // Robust lambda_k should approximate scale_k^2 = 9 and 2.25.
  EXPECT_NEAR(rl[0], 9.0, 2.0);
  EXPECT_NEAR(rl[1], 2.25, 0.6);
}

TEST(RobustPca, BasisStaysOrthonormalOverLongStreams) {
  Rng rng(119);
  const auto model = testing::make_model(rng, 15, 3);
  auto cfg = base_config(15, 3);
  cfg.reorthonormalize_every = 512;
  RobustIncrementalPca pca(cfg);
  for (int i = 0; i < 5000; ++i) pca.observe(testing::draw(model, rng));
  EXPECT_LT(pca.eigensystem().basis_drift(), 1e-9);
}

TEST(RobustPca, SetEigensystemRequiresFullRank) {
  auto cfg = base_config(10, 2);
  cfg.extra_rank = 1;
  RobustIncrementalPca pca(cfg);
  EXPECT_THROW(pca.set_eigensystem(EigenSystem(10, 2)), std::invalid_argument);
  pca.set_eigensystem(EigenSystem(10, 3));
  EXPECT_TRUE(pca.initialized());
}

class RobustPcaRhoTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RobustPcaRhoTest, ConvergesUnderModerateContamination) {
  Rng rng(131);
  const auto model = testing::make_model(rng, 16, 2, 3.0, 0.02);
  auto cfg = base_config(16, 2);
  cfg.rho = GetParam();
  cfg.delta = -1.0;
  RobustIncrementalPca pca(cfg);
  for (int i = 0; i < 5000; ++i) {
    if (rng.bernoulli(0.02)) {
      pca.observe(testing::draw_outlier(model, rng, 25.0));
    } else {
      pca.observe(testing::draw(model, rng));
    }
  }
  EXPECT_GT(subspace_affinity(pca.eigensystem().basis(), model.basis), 0.95)
      << "rho = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Rhos, RobustPcaRhoTest,
                         ::testing::Values("bisquare", "huber", "cauchy"));

}  // namespace
}  // namespace astro::pca
