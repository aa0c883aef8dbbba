#include "pca/robust_eigenvalues.h"

#include <gtest/gtest.h>

#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::pca {
namespace {

using stats::Rng;

TEST(RobustEigenvalues, EmptyDataThrows) {
  stats::BisquareRho rho;
  EXPECT_THROW(
      (void)robust_variance_along({}, linalg::Vector(3), linalg::Vector(3), rho),
      std::invalid_argument);
}

TEST(RobustEigenvalues, MatchesClassicalVarianceOnCleanData) {
  Rng rng(241);
  const auto model = testing::make_model(rng, 10, 2, 3.0, 0.01);
  const auto data = testing::draw_many(model, rng, 8000);
  stats::BisquareRho rho;
  // Gaussian-consistent delta so sigma^2 estimates the variance.
  const double delta = rho.gaussian_expectation();
  const linalg::Vector lambda =
      robust_eigenvalues(data, model.mean, model.basis.transpose(), rho, delta);
  EXPECT_NEAR(lambda[0], 9.0, 0.6);
  EXPECT_NEAR(lambda[1], 2.25, 0.2);
}

TEST(RobustEigenvalues, InsensitiveToOutliers) {
  Rng rng(243);
  const auto model = testing::make_model(rng, 10, 1, 2.0, 0.01);
  auto data = testing::draw_many(model, rng, 4000);
  // Classical variance along e would explode with these.
  for (int i = 0; i < 400; ++i) {
    data.push_back(model.mean + model.basis.col(0) * 200.0);
  }
  stats::BisquareRho rho;
  const double lam = robust_variance_along(data, model.mean,
                                           model.basis.col(0), rho,
                                           rho.gaussian_expectation());
  EXPECT_NEAR(lam, 4.0, 1.5);  // still ~ scale^2, not ~ 200^2

  double classical = 0.0;
  for (const auto& x : data) {
    const double p = linalg::dot(model.basis.col(0), x - model.mean);
    classical += p * p;
  }
  classical /= double(data.size());
  EXPECT_GT(classical, 1000.0);
}

TEST(RobustEigenvalues, ComparesBasesConsistently) {
  // The paper: robust eigenvalues can rank arbitrary bases.  The true basis
  // direction must carry more robust variance than a random direction.
  Rng rng(247);
  const auto model = testing::make_model(rng, 15, 1, 3.0, 0.05);
  const auto data = testing::draw_many(model, rng, 3000);
  stats::BisquareRho rho;
  const double on_axis = robust_variance_along(
      data, model.mean, model.basis.col(0), rho, rho.gaussian_expectation());
  linalg::Vector random_dir = rng.gaussian_vector(15);
  random_dir.normalize();
  const double off_axis = robust_variance_along(data, model.mean, random_dir,
                                                rho,
                                                rho.gaussian_expectation());
  EXPECT_GT(on_axis, 5.0 * off_axis);
}

}  // namespace
}  // namespace astro::pca
