#pragma once

// Robust "eigenvalues" along arbitrary basis vectors (paper §II-B, closing
// paragraph): for any unit vector e, project the centered data onto e and
// solve the M-scale equation (eq. 5) with the residuals replaced by the
// projections.  The resulting σ² is a robust estimate of the variance the
// data exhibits along e — enabling a meaningful comparison of the
// performance of different bases (e.g. eigenspectra from different surveys)
// on the same stream.

#include <span>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "stats/rho.h"

namespace astro::pca {

/// Robust variance of `data` (already centered by `mean`) along unit
/// direction `e`: the M-scale of the projections e·(x − µ).
[[nodiscard]] double robust_variance_along(std::span<const linalg::Vector> data,
                                           const linalg::Vector& mean,
                                           const linalg::Vector& e,
                                           const stats::RhoFunction& rho,
                                           double delta = 0.5);

/// Robust eigenvalue for every row e_k of `vectors` (one eigenvector per
/// row, as EigenSystem::vectors()); the robust analogue of the classical
/// λ_k = var(e_kᵀ y).
[[nodiscard]] linalg::Vector robust_eigenvalues(
    std::span<const linalg::Vector> data, const linalg::Vector& mean,
    const linalg::Matrix& vectors, const stats::RhoFunction& rho,
    double delta = 0.5);

}  // namespace astro::pca
