#pragma once

// The truncated eigensystem {mean, E_p, Λ_p, σ²} plus the running sums that
// make it mergeable — the state every streaming PCA engine maintains and
// the unit of exchange during synchronization (paper §II-C, §III-B).
//
// E_p is stored eigenvector-major: a p x d matrix whose row k is e_k, d
// contiguous doubles.  The update kernel projects onto and rotates these
// rows in place, and every projection Eᵀy is p contiguous dot products.
// The d x p view whose columns are the eigenvectors is only handed out as
// a copy, for callers outside the hot path.

#include <cstdint>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "stats/running.h"

namespace astro::pca {

class EigenSystem {
 public:
  EigenSystem() = default;

  /// Empty system of dimension `d` and rank `p` with forgetting factor α.
  EigenSystem(std::size_t d, std::size_t p, double alpha = 1.0);

  /// A fully-specified system from a d x p basis (columns are
  /// eigenvectors), transposed once into rows: batch solvers, checkpoint
  /// decode, tests.
  EigenSystem(linalg::Vector mean, const linalg::Matrix& basis,
              linalg::Vector eigenvalues, double sigma2,
              stats::RobustRunningSums sums, std::uint64_t observations);

  /// A fully-specified system from p x d eigenvector rows, kept as given:
  /// the update kernel's output (merge, init).
  [[nodiscard]] static EigenSystem from_vectors(
      linalg::Vector mean, linalg::Matrix vectors, linalg::Vector eigenvalues,
      double sigma2, stats::RobustRunningSums sums,
      std::uint64_t observations);

  [[nodiscard]] std::size_t dim() const noexcept { return mean_.size(); }
  [[nodiscard]] std::size_t rank() const noexcept { return eigenvalues_.size(); }

  [[nodiscard]] const linalg::Vector& mean() const noexcept { return mean_; }
  /// The eigenvectors, p x d: row k is e_k.
  [[nodiscard]] const linalg::Matrix& vectors() const noexcept {
    return vectors_;
  }
  /// A d x p copy whose columns are the eigenvectors.
  [[nodiscard]] linalg::Matrix basis() const { return vectors_.transpose(); }
  [[nodiscard]] const linalg::Vector& eigenvalues() const noexcept {
    return eigenvalues_;
  }
  /// Robust M-scale of the residuals, σ².
  [[nodiscard]] double sigma2() const noexcept { return sigma2_; }
  /// Raw number of observations consumed (no forgetting).
  [[nodiscard]] std::uint64_t observations() const noexcept { return observations_; }
  [[nodiscard]] const stats::RobustRunningSums& sums() const noexcept {
    return sums_;
  }

  linalg::Vector& mutable_mean() noexcept { return mean_; }
  linalg::Matrix& mutable_vectors() noexcept { return vectors_; }
  linalg::Vector& mutable_eigenvalues() noexcept { return eigenvalues_; }
  stats::RobustRunningSums& mutable_sums() noexcept { return sums_; }
  void set_sigma2(double s2) noexcept { sigma2_ = s2; }
  void count_observation() noexcept { ++observations_; }
  void set_observations(std::uint64_t n) noexcept { observations_ = n; }

  /// Centered copy y = x − µ.
  [[nodiscard]] linalg::Vector center(const linalg::Vector& x) const;

  /// Allocation-free centering into caller scratch (hot path): y = x − µ,
  /// bit-identical to center().  `y` must not alias `x`.
  void center_into(const linalg::Vector& x, linalg::Vector& y) const;

  /// Expansion coefficients c = E_pᵀ (x − µ).
  [[nodiscard]] linalg::Vector project(const linalg::Vector& x) const;

  /// c_k = e_kᵀ y for the leading `count` eigenvectors of an already
  /// centered y, one SIMD dot per row.  Every Eᵀy in the library goes
  /// through here, so two paths that project the same y agree to the bit.
  /// Allocation-free once `c` holds `count` entries.
  void coefficients_into(const linalg::Vector& y, std::size_t count,
                         linalg::Vector& c) const;

  /// Reconstruction µ + E_p c from coefficients.
  [[nodiscard]] linalg::Vector reconstruct(const linalg::Vector& coeffs) const;

  /// Hyperplane-fit residual r = (I − E_p E_pᵀ)(x − µ)  (paper eq. 4).
  [[nodiscard]] linalg::Vector residual(const linalg::Vector& x) const;

  /// Squared residual norm |r|² without materializing r:
  /// |y|² − |E_pᵀ y|² (numerically clamped at 0).
  [[nodiscard]] double squared_residual(const linalg::Vector& x) const;

  /// Workspace overload: same arithmetic (bit-identical result), but the
  /// centered vector and coefficients land in caller-owned scratch instead
  /// of fresh allocations.  The scratch contents are overwritten.
  [[nodiscard]] double squared_residual(const linalg::Vector& x,
                                        linalg::Vector& y_scratch,
                                        linalg::Vector& coeff_scratch) const;

  /// The truncated covariance approximation E_p Λ_p E_pᵀ (paper eq. 1).
  [[nodiscard]] linalg::Matrix covariance() const;

  /// Total retained variance Σ λ_k.
  [[nodiscard]] double retained_variance() const noexcept {
    return eigenvalues_.sum();
  }

  /// True once the system has a usable basis (post-initialization).
  [[nodiscard]] bool initialized() const noexcept {
    return !vectors_.empty() && observations_ > 0;
  }

  /// Max deviation of E_pᵀE_p from identity — numerical health indicator.
  /// Allocation-free.
  [[nodiscard]] double basis_drift() const;

  /// Re-orthonormalizes the basis in place (QR hygiene).
  void reorthonormalize();

 private:
  linalg::Vector mean_;
  linalg::Matrix vectors_;      // p x d, rows are eigenvectors
  linalg::Vector eigenvalues_;  // p, descending
  double sigma2_ = 0.0;
  stats::RobustRunningSums sums_;
  std::uint64_t observations_ = 0;
};

}  // namespace astro::pca
