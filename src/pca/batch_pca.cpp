#include "pca/batch_pca.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "linalg/eigen_sym.h"
#include "linalg/svd.h"
#include "stats/mscale.h"
#include "pca/robust_eigenvalues.h"
#include "stats/rho.h"

namespace astro::pca {

namespace {

linalg::Vector sample_mean(std::span<const linalg::Vector> data) {
  linalg::Vector mean(data[0].size());
  for (const auto& x : data) mean += x;
  mean *= 1.0 / double(data.size());
  return mean;
}

// Top-p eigensystem of (1/wsum) * sum_n w_n y_n y_n^T given per-row weights,
// via SVD of the sqrt(w)-scaled, centered data matrix (d x n layout).
void weighted_eigensystem(std::span<const linalg::Vector> data,
                          const linalg::Vector& mean,
                          std::span<const double> w, double wsum,
                          std::size_t p, linalg::Matrix* basis,
                          linalg::Vector* lambda) {
  const std::size_t d = mean.size();
  const std::size_t n = data.size();
  linalg::Matrix y(d, n);
  for (std::size_t c = 0; c < n; ++c) {
    const double s = std::sqrt(std::max(0.0, w[c]) / wsum);
    for (std::size_t r = 0; r < d; ++r) y(r, c) = s * (data[c][r] - mean[r]);
  }
  const linalg::ThinUResult svd = linalg::svd_left(y);
  *basis = linalg::Matrix(d, p);
  *lambda = linalg::Vector(p);
  const std::size_t keep = std::min(p, svd.singular_values.size());
  for (std::size_t c = 0; c < keep; ++c) {
    (*lambda)[c] = svd.singular_values[c] * svd.singular_values[c];
    for (std::size_t r = 0; r < d; ++r) (*basis)(r, c) = svd.u(r, c);
  }
}

}  // namespace

EigenSystem batch_pca(std::span<const linalg::Vector> data, std::size_t p) {
  if (data.empty()) throw std::invalid_argument("batch_pca: no data");
  const std::size_t d = data[0].size();
  if (p == 0 || p > d) throw std::invalid_argument("batch_pca: bad rank");

  const linalg::Vector mean = sample_mean(data);
  std::vector<double> w(data.size(), 1.0);
  linalg::Matrix basis;
  linalg::Vector lambda;
  weighted_eigensystem(data, mean, w, double(data.size()), p, &basis, &lambda);

  EigenSystem system(mean, std::move(basis), std::move(lambda), 0.0,
                     stats::RobustRunningSums(1.0), 0);
  double r2sum = 0.0;
  for (const auto& x : data) {
    const double r2 = system.squared_residual(x);
    system.mutable_sums().update(1.0, r2);
    system.count_observation();
    r2sum += r2;
  }
  system.set_sigma2(r2sum / double(data.size()));
  return system;
}

BatchRobustResult batch_robust_pca(std::span<const linalg::Vector> data,
                                   std::size_t p,
                                   const BatchRobustOptions& opts) {
  if (data.empty()) throw std::invalid_argument("batch_robust_pca: no data");
  const std::size_t d = data[0].size();
  const std::size_t n = data.size();
  if (p == 0 || p > d) throw std::invalid_argument("batch_robust_pca: bad rank");

  const auto rho = stats::make_rho(opts.rho);
  const double delta =
      opts.delta > 0.0 ? opts.delta : rho->gaussian_expectation();

  // Solve with extra candidate components when robust rank selection is
  // requested, so a slot captured by in-span contamination does not push a
  // genuine component out of the candidate set.
  const std::size_t p_solve =
      std::min({p + opts.candidate_extra, d, n >= 2 ? n - 1 : std::size_t(1)});

  BatchRobustResult out;
  out.system = batch_pca(data, p_solve);  // non-robust initializer
  const double classic_sigma2 = out.system.sigma2();

  std::vector<double> residuals(n), w(n);
  double sigma2_prev = 0.0;

  for (int iter = 0; iter < opts.max_iter; ++iter) {
    out.iterations = iter + 1;

    for (std::size_t i = 0; i < n; ++i) {
      residuals[i] = std::sqrt(out.system.squared_residual(data[i]));
    }
    stats::MScaleOptions mopts;
    mopts.delta = delta;
    const double sigma2 = stats::m_scale(residuals, *rho, mopts).sigma2;
    if (sigma2 <= 0.0) {  // perfectly fit: done
      out.system.set_sigma2(0.0);
      out.converged = true;
      break;
    }
    // Scale-implosion guard: with large delta and few samples, a rank-p
    // basis can exactly fit the (1-delta) fraction of points the M-scale
    // needs, collapsing sigma to ~0 and concentrating all weight on that
    // subset.  Stop iterating before the estimate degenerates.
    if (classic_sigma2 > 0.0 && sigma2 < 1e-9 * classic_sigma2) {
      break;
    }

    double wsum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rho->weight(residuals[i] * residuals[i] / sigma2);
      wsum += w[i];
    }
    if (wsum <= 0.0) break;  // everything rejected; keep last estimate

    // Weighted mean (eq. 6) and weighted-covariance eigensystem (eq. 7).
    linalg::Vector mean(d);
    for (std::size_t i = 0; i < n; ++i) mean.axpy(w[i] / wsum, data[i]);

    double wr2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      wr2 += w[i] * residuals[i] * residuals[i];
    }

    linalg::Matrix basis;
    linalg::Vector lambda;
    weighted_eigensystem(data, mean, w, wsum, p_solve, &basis, &lambda);
    // eq. (7) scales the weighted covariance by sigma^2 / (sum w r^2 /
    // sum w).  The factor is a consistency correction of order 1; when the
    // weighted residual energy degenerates (overfit small batches) the
    // ratio explodes, so clamp it to a plausible band instead of poisoning
    // the eigenvalues.
    double cov_scale = wr2 > 0.0 ? sigma2 * wsum / wr2 : 1.0;
    cov_scale = std::clamp(cov_scale, 1e-2, 1e2);
    lambda *= cov_scale;

    out.system = EigenSystem(std::move(mean), std::move(basis),
                             std::move(lambda), sigma2,
                             stats::RobustRunningSums(1.0), n);

    if (iter > 0 &&
        std::abs(sigma2 - sigma2_prev) <= opts.tol * std::max(sigma2, 1e-300)) {
      out.converged = true;
      break;
    }
    sigma2_prev = sigma2;
  }

  // Robust rank selection (§II-B): rank candidates by the M-scale of their
  // projections and keep the top p.  In-span contamination has large
  // classical variance but concentrates its projection mass at zero for
  // the clean majority, so its robust variance — and hence its rank — is
  // small.
  if (p_solve > p) {
    linalg::Vector robust_lambda =
        robust_eigenvalues(data, out.system.mean(), out.system.vectors(), *rho,
                           rho->gaussian_expectation());
    std::vector<std::size_t> order(p_solve);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      return robust_lambda[a] > robust_lambda[b];
    });
    linalg::Matrix vectors(p, d);
    linalg::Vector lambda(p);
    for (std::size_t k = 0; k < p; ++k) {
      lambda[k] = robust_lambda[order[k]];
      const auto e = out.system.vectors().row_span(order[k]);
      std::copy(e.begin(), e.end(), vectors.row_span(k).begin());
    }
    // Re-derive the residual scale for the truncated system.
    EigenSystem truncated = EigenSystem::from_vectors(
        out.system.mean(), std::move(vectors), std::move(lambda), 0.0,
        stats::RobustRunningSums(1.0), n);
    std::vector<double> res(n);
    for (std::size_t i = 0; i < n; ++i) {
      res[i] = std::sqrt(truncated.squared_residual(data[i]));
    }
    stats::MScaleOptions mopts;
    mopts.delta = delta;
    truncated.set_sigma2(stats::m_scale(res, *rho, mopts).sigma2);
    out.system = std::move(truncated);
  }

  // Populate the running sums from the final weights so the result can be
  // merged like any streaming system.
  for (std::size_t i = 0; i < n; ++i) {
    const double r2 = out.system.squared_residual(data[i]);
    const double s2 = std::max(out.system.sigma2(), 1e-300);
    const double wi = rho->weight(r2 / s2);
    out.system.mutable_sums().update(wi, wi * r2);
  }
  return out;
}

}  // namespace astro::pca
