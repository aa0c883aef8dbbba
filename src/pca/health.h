#pragma once

// Numerical-health checks for a streaming eigensystem (DESIGN.md
// "Data-plane robustness").
//
// A single NaN/Inf flux value that slips past ingest validation — or an
// accumulation of rounding drift — silently poisons the low-rank update:
// every subsequent observation blends against a corrupt mean/basis, and a
// sync merge then propagates the damage to healthy peers.  The watchdog
// turns "silently poisoned" into a typed, detectable fault:
//
//   kNonFinite           NaN/Inf anywhere in {mean, basis, eigenvalues, σ²,
//                        running sums}
//   kNegativeEigenvalue  λ_k below -tol·(1+λ₁) — an impossible spectrum
//   kBasisDrift          max |E_pᵀE_p − I| above the threshold
//   kEnergyCollapse      Σλ not finite, or ≤ 0 on an initialized system
//   kEnergyExplosion     Σλ above the absolute ceiling (runaway update)
//
// check_health() is allocation-free, so engines can run it on a
// tuple-count cadence without touching the allocator.

#include <cstddef>
#include <string>

#include "pca/eigensystem.h"

namespace astro::pca {

enum class HealthFault : int {
  kHealthy = 0,
  kNonFinite,
  kNegativeEigenvalue,
  kBasisDrift,
  kEnergyCollapse,
  kEnergyExplosion,
};

[[nodiscard]] std::string to_string(HealthFault f);

struct HealthThresholds {
  /// Max |E_pᵀE_p − I|_∞ before the basis counts as degenerate.  The
  /// engines re-orthonormalize every few thousand updates, so steady-state
  /// drift sits near 1e-12; 1e-4 flags genuine corruption only.
  double max_basis_drift = 1e-4;
  /// Relative tolerance for negative eigenvalues: λ_k ≥ -tol·(1 + λ₁).
  double eigenvalue_tolerance = 1e-9;
  /// Absolute ceiling on the retained variance Σλ (0 disables the check).
  /// Unit-normalized spectra keep Σλ = O(1); 1e12 only trips on runaway
  /// feedback from corrupt inputs.
  double max_total_energy = 1e12;
};

/// Outcome of one self-check: the first fault found plus the measured
/// indicators (valid whether or not the check passed).
struct HealthReport {
  HealthFault fault = HealthFault::kHealthy;
  double basis_drift = 0.0;   ///< max |E_pᵀE_p − I| (0 when skipped early)
  double total_energy = 0.0;  ///< Σλ
  [[nodiscard]] bool ok() const noexcept {
    return fault == HealthFault::kHealthy;
  }
};

/// Full self-check in fault order: finite scan (cheap, catches the common
/// poisoning) before the O(d p²) orthonormality check.  An uninitialized
/// system is healthy by definition — there is nothing to corrupt yet.
[[nodiscard]] HealthReport check_health(const EigenSystem& system,
                                        const HealthThresholds& thresholds);

/// Finite scan only: true when every entry of {mean, basis, eigenvalues,
/// σ², running sums} is finite.  O(d p), allocation-free — cheap enough to
/// gate every checkpoint write and every sync publish/merge.
[[nodiscard]] bool all_finite(const EigenSystem& system) noexcept;

/// Thrown by an engine whose watchdog failed; caught at the top of the run
/// loop exactly like stream::InjectedCrash — the poisoned in-memory state
/// is wiped and the Supervisor reinitializes from the last good checkpoint.
struct NumericalFault {
  HealthFault fault = HealthFault::kHealthy;
};

}  // namespace astro::pca
