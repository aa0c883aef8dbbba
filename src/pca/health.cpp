#include "pca/health.h"

#include <cmath>

namespace astro::pca {

std::string to_string(HealthFault f) {
  switch (f) {
    case HealthFault::kHealthy: return "healthy";
    case HealthFault::kNonFinite: return "non_finite";
    case HealthFault::kNegativeEigenvalue: return "negative_eigenvalue";
    case HealthFault::kBasisDrift: return "basis_drift";
    case HealthFault::kEnergyCollapse: return "energy_collapse";
    case HealthFault::kEnergyExplosion: return "energy_explosion";
  }
  return "unknown";
}

bool all_finite(const EigenSystem& system) noexcept {
  for (double v : system.mean()) {
    if (!std::isfinite(v)) return false;
  }
  const linalg::Matrix& vectors = system.vectors();
  for (std::size_t k = 0; k < vectors.rows(); ++k) {
    for (double v : vectors.row_span(k)) {
      if (!std::isfinite(v)) return false;
    }
  }
  for (double v : system.eigenvalues()) {
    if (!std::isfinite(v)) return false;
  }
  if (!std::isfinite(system.sigma2())) return false;
  const stats::RobustRunningSums& sums = system.sums();
  return std::isfinite(sums.u()) && std::isfinite(sums.v()) &&
         std::isfinite(sums.q());
}

HealthReport check_health(const EigenSystem& system,
                          const HealthThresholds& thresholds) {
  HealthReport report;
  if (!system.initialized()) return report;

  if (!all_finite(system)) {
    report.fault = HealthFault::kNonFinite;
    return report;
  }

  // Eigenvalue sanity: a covariance spectrum is non-negative; anything
  // meaningfully below zero means the low-rank update went wrong.
  const linalg::Vector& lambda = system.eigenvalues();
  const double top = lambda.empty() ? 0.0 : lambda[0];
  const double neg_floor = -thresholds.eigenvalue_tolerance * (1.0 + top);
  for (double l : lambda) {
    if (l < neg_floor) {
      report.fault = HealthFault::kNegativeEigenvalue;
      report.total_energy = lambda.sum();
      return report;
    }
  }

  // Energy-ratio sanity: the retained variance must be positive, finite,
  // and bounded.  σ² ≥ 0 is implied by the finite scan + the update rules,
  // but a poisoned merge can still blow Σλ up by orders of magnitude.
  report.total_energy = lambda.sum();
  if (!(report.total_energy > 0.0)) {
    report.fault = HealthFault::kEnergyCollapse;
    return report;
  }
  if (thresholds.max_total_energy > 0.0 &&
      report.total_energy > thresholds.max_total_energy) {
    report.fault = HealthFault::kEnergyExplosion;
    return report;
  }

  // Orthonormality drift: row dot products, no scratch.
  report.basis_drift = system.basis_drift();
  if (report.basis_drift > thresholds.max_basis_drift) {
    report.fault = HealthFault::kBasisDrift;
  }
  return report;
}

}  // namespace astro::pca
