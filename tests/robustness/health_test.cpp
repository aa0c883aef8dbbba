// Numerical-health watchdog unit coverage (pca/health.h): each HealthFault
// must be reachable by poisoning exactly the state it guards, and a
// freshly trained engine must pass with margin.

#include "pca/health.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "pca/incremental_pca.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::pca {
namespace {

using pca::testing::draw;
using pca::testing::make_model;
using stats::Rng;

EigenSystem trained_system(std::uint64_t seed = 303) {
  Rng rng(seed);
  const auto model = make_model(rng, 8, 2, 2.0, 0.05);
  IncrementalPcaConfig cfg;
  cfg.dim = 8;
  cfg.rank = 2;
  IncrementalPca pca(cfg);
  for (int i = 0; i < 200; ++i) pca.observe(draw(model, rng));
  return pca.eigensystem();
}

TEST(Health, UninitializedSystemIsHealthy) {
  EigenSystem empty;
  EXPECT_TRUE(check_health(empty, HealthThresholds{}).ok());
  EXPECT_TRUE(all_finite(empty));
}

TEST(Health, TrainedSystemPassesWithMargin) {
  const EigenSystem sys = trained_system();
  const HealthReport r = check_health(sys, HealthThresholds{});
  EXPECT_TRUE(r.ok()) << to_string(r.fault);
  EXPECT_LT(r.basis_drift, 1e-8);  // freshly orthonormalized
  EXPECT_GT(r.total_energy, 0.0);
  EXPECT_TRUE(all_finite(sys));
}

TEST(Health, NanInMeanIsNonFinite) {
  EigenSystem sys = trained_system();
  sys.mutable_mean()[3] = std::nan("");
  EXPECT_EQ(check_health(sys, HealthThresholds{}).fault,
            HealthFault::kNonFinite);
  EXPECT_FALSE(all_finite(sys));
}

TEST(Health, InfInBasisIsNonFinite) {
  EigenSystem sys = trained_system();
  sys.mutable_vectors()(1, 2) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(check_health(sys, HealthThresholds{}).fault,
            HealthFault::kNonFinite);
  EXPECT_FALSE(all_finite(sys));
}

TEST(Health, NanEigenvalueIsNonFinite) {
  EigenSystem sys = trained_system();
  sys.mutable_eigenvalues()[0] = std::nan("");
  EXPECT_EQ(check_health(sys, HealthThresholds{}).fault,
            HealthFault::kNonFinite);
}

TEST(Health, NanSigmaIsNonFinite) {
  EigenSystem sys = trained_system();
  sys.set_sigma2(std::nan(""));
  EXPECT_FALSE(all_finite(sys));
  EXPECT_EQ(check_health(sys, HealthThresholds{}).fault,
            HealthFault::kNonFinite);
}

TEST(Health, NegativeEigenvalueBeyondToleranceTrips) {
  EigenSystem sys = trained_system();
  sys.mutable_eigenvalues()[sys.rank() - 1] = -1.0;
  EXPECT_EQ(check_health(sys, HealthThresholds{}).fault,
            HealthFault::kNegativeEigenvalue);
}

TEST(Health, TinyNegativeEigenvalueWithinToleranceIsHealthy) {
  // Rounding can leave λ_min a hair below zero; the relative tolerance
  // must absorb it rather than quarantine a healthy engine.
  EigenSystem sys = trained_system();
  sys.mutable_eigenvalues()[sys.rank() - 1] =
      -1e-12 * (1.0 + sys.eigenvalues()[0]);
  EXPECT_TRUE(check_health(sys, HealthThresholds{}).ok());
}

TEST(Health, DegenerateBasisTripsDriftCheck) {
  EigenSystem sys = trained_system();
  for (std::size_t r = 0; r < sys.dim(); ++r) {
    sys.mutable_vectors()(0, r) *= 2.0;  // no longer unit norm
  }
  const HealthReport rep = check_health(sys, HealthThresholds{});
  EXPECT_EQ(rep.fault, HealthFault::kBasisDrift);
  EXPECT_GT(rep.basis_drift, 1.0);
  EXPECT_TRUE(all_finite(sys));  // drift is not a finiteness defect
}

TEST(Health, EnergyExplosionTripsAbsoluteCeiling) {
  EigenSystem sys = trained_system();
  sys.mutable_eigenvalues()[0] = 1e13;
  HealthThresholds t;
  t.max_total_energy = 1e12;
  EXPECT_EQ(check_health(sys, t).fault, HealthFault::kEnergyExplosion);
  t.max_total_energy = 0.0;  // 0 disables the ceiling
  EXPECT_TRUE(check_health(sys, t).ok());
}

TEST(Health, ZeroEnergyOnInitializedSystemIsCollapse) {
  EigenSystem sys = trained_system();
  for (std::size_t i = 0; i < sys.rank(); ++i) {
    sys.mutable_eigenvalues()[i] = 0.0;
  }
  EXPECT_EQ(check_health(sys, HealthThresholds{}).fault,
            HealthFault::kEnergyCollapse);
}

TEST(Health, WorkspaceIsReusableAcrossChecks) {
  const EigenSystem a = trained_system(303);
  const EigenSystem b = trained_system(404);
  EXPECT_TRUE(check_health(a, HealthThresholds{}).ok());
  EXPECT_TRUE(check_health(b, HealthThresholds{}).ok());
  EXPECT_TRUE(check_health(a, HealthThresholds{}).ok());
}

TEST(Health, FaultNamesAreStable) {
  EXPECT_EQ(to_string(HealthFault::kHealthy), "healthy");
  EXPECT_EQ(to_string(HealthFault::kNonFinite), "non_finite");
  EXPECT_EQ(to_string(HealthFault::kNegativeEigenvalue),
            "negative_eigenvalue");
  EXPECT_EQ(to_string(HealthFault::kBasisDrift), "basis_drift");
  EXPECT_EQ(to_string(HealthFault::kEnergyCollapse), "energy_collapse");
  EXPECT_EQ(to_string(HealthFault::kEnergyExplosion), "energy_explosion");
}

}  // namespace
}  // namespace astro::pca
