#include "pca/eigensystem.h"

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::pca {
namespace {

using stats::Rng;

EigenSystem small_system() {
  // 3-d system with basis = first two coordinate axes.
  linalg::Vector mean{1.0, 2.0, 3.0};
  linalg::Matrix basis{{1.0, 0.0}, {0.0, 1.0}, {0.0, 0.0}};
  linalg::Vector lambda{4.0, 1.0};
  return EigenSystem(mean, basis, lambda, 0.5, stats::RobustRunningSums(1.0),
                     10);
}

TEST(EigenSystem, EmptyConstruction) {
  EigenSystem s(5, 2);
  EXPECT_EQ(s.dim(), 5u);
  EXPECT_EQ(s.rank(), 2u);
  EXPECT_FALSE(s.initialized());
}

TEST(EigenSystem, RankExceedsDimThrows) {
  EXPECT_THROW(EigenSystem(3, 4), std::invalid_argument);
}

TEST(EigenSystem, InconsistentShapesThrow) {
  EXPECT_THROW(EigenSystem(linalg::Vector(3), linalg::Matrix(4, 2),
                           linalg::Vector(2), 0.0,
                           stats::RobustRunningSums(1.0), 0),
               std::invalid_argument);
}

TEST(EigenSystem, ProjectAndReconstruct) {
  const EigenSystem s = small_system();
  linalg::Vector x{3.0, 5.0, 3.0};  // y = (2, 3, 0)
  const linalg::Vector c = s.project(x);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
  const linalg::Vector rec = s.reconstruct(c);
  EXPECT_TRUE(approx_equal(rec, x, 1e-14));
  EXPECT_THROW((void)s.reconstruct(linalg::Vector(3)), std::invalid_argument);
}

TEST(EigenSystem, ResidualOrthogonalToBasis) {
  const EigenSystem s = small_system();
  linalg::Vector x{3.0, 5.0, 7.0};  // y = (2, 3, 4): residual (0, 0, 4)
  const linalg::Vector r = s.residual(x);
  EXPECT_NEAR(r[0], 0.0, 1e-14);
  EXPECT_NEAR(r[1], 0.0, 1e-14);
  EXPECT_NEAR(r[2], 4.0, 1e-14);
  EXPECT_NEAR(s.squared_residual(x), 16.0, 1e-12);
}

TEST(EigenSystem, SquaredResidualMatchesExplicit) {
  Rng rng(51);
  const auto model = testing::make_model(rng, 20, 4);
  EigenSystem s(model.mean, model.basis,
                linalg::Vector{9.0, 4.0, 1.0, 0.25}, 1.0,
                stats::RobustRunningSums(1.0), 1);
  for (int i = 0; i < 10; ++i) {
    const linalg::Vector x = rng.gaussian_vector(20);
    EXPECT_NEAR(s.squared_residual(x), s.residual(x).squared_norm(), 1e-10);
  }
}

TEST(EigenSystem, CovarianceMatchesDefinition) {
  const EigenSystem s = small_system();
  const linalg::Matrix c = s.covariance();
  EXPECT_DOUBLE_EQ(c(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 0.0);
}

TEST(EigenSystem, RetainedVariance) {
  EXPECT_DOUBLE_EQ(small_system().retained_variance(), 5.0);
}

TEST(EigenSystem, BasisDriftAndReorthonormalize) {
  EigenSystem s = small_system();
  EXPECT_NEAR(s.basis_drift(), 0.0, 1e-15);
  s.mutable_vectors()(1, 0) = 0.3;  // break orthogonality
  EXPECT_GT(s.basis_drift(), 0.01);
  s.reorthonormalize();
  EXPECT_NEAR(s.basis_drift(), 0.0, 1e-12);
}

}  // namespace
}  // namespace astro::pca
