#include "pca/gap_fill.h"

#include <algorithm>
#include <stdexcept>

#include "linalg/cholesky.h"

namespace astro::pca {

GapFillResult fill_gaps(const EigenSystem& system, const linalg::Vector& x,
                        const PixelMask& observed) {
  const std::size_t d = system.dim();
  const std::size_t p = system.rank();
  if (x.size() != d || observed.size() != d) {
    throw std::invalid_argument("fill_gaps: dimension mismatch");
  }

  GapFillResult out;
  out.missing = d - std::size_t(std::count(observed.begin(), observed.end(), true));
  if (out.missing == 0) {
    out.patched = x;
    out.coeffs = system.project(x);
    return out;
  }

  // Masked normal equations: (E_oᵀ E_o) c = E_oᵀ y_o over observed pixels.
  const linalg::Matrix& e = system.vectors();
  linalg::Matrix gram(p, p);
  linalg::Vector rhs(p);
  for (std::size_t i = 0; i < d; ++i) {
    if (!observed[i]) continue;
    const double yi = x[i] - system.mean()[i];
    for (std::size_t a = 0; a < p; ++a) {
      const double ea = e(a, i);
      rhs[a] += ea * yi;
      for (std::size_t b = a; b < p; ++b) gram(a, b) += ea * e(b, i);
    }
  }
  for (std::size_t a = 0; a < p; ++a) {
    for (std::size_t b = 0; b < a; ++b) gram(a, b) = gram(b, a);
  }

  // Wiener shrinkage: add sigma_pix^2 / lambda_a to the diagonal so
  // coefficients the observed pixels barely constrain shrink toward 0
  // instead of extrapolating noise into the gap.
  const std::size_t resid_dof = d > p ? d - p : 1;
  const double sigma_pix2 = system.sigma2() / double(resid_dof);
  if (sigma_pix2 > 0.0) {
    const double lambda_floor =
        1e-6 * (system.retained_variance() / double(p) + sigma_pix2);
    for (std::size_t a = 0; a < p; ++a) {
      const double lambda = std::max(system.eigenvalues()[a], lambda_floor);
      gram(a, a) += sigma_pix2 / lambda;
    }
  }

  // Ridge escalation: a fully-masked component with no noise estimate can
  // still leave the gram singular.
  auto chol = linalg::cholesky(gram);
  double ridge = 1e-10 * (gram.trace() / double(p) + 1.0);
  while (!chol.has_value()) {
    for (std::size_t a = 0; a < p; ++a) gram(a, a) += ridge;
    ridge *= 10.0;
    chol = linalg::cholesky(gram);
  }
  out.coeffs = linalg::cholesky_solve(*chol, rhs);

  out.patched = x;
  for (std::size_t i = 0; i < d; ++i) {
    if (observed[i]) continue;
    double v = system.mean()[i];
    for (std::size_t a = 0; a < p; ++a) v += e(a, i) * out.coeffs[a];
    out.patched[i] = v;
  }
  return out;
}

double corrected_squared_residual(const EigenSystem& system, std::size_t p,
                                  const linalg::Vector& patched,
                                  const PixelMask& observed) {
  const std::size_t d = system.dim();
  const std::size_t full = system.rank();
  if (p > full) {
    throw std::invalid_argument("corrected_squared_residual: p > rank");
  }
  if (patched.size() != d || observed.size() != d) {
    throw std::invalid_argument("corrected_squared_residual: bad sizes");
  }

  const linalg::Vector y = system.center(patched);
  const linalg::Matrix& e = system.vectors();
  linalg::Vector c;
  system.coefficients_into(y, full, c);

  double r2 = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    if (observed[i]) {
      // True residual of the rank-p fit on a measured pixel.
      double ri = y[i];
      for (std::size_t k = 0; k < p; ++k) ri -= c[k] * e(k, i);
      r2 += ri * ri;
    } else {
      // Missing pixel: the patch has zero rank-`full` residual by
      // construction; estimate the unseen rank-p residual from the higher-
      // order components p..full-1.
      double est = 0.0;
      for (std::size_t k = p; k < full; ++k) est += c[k] * e(k, i);
      r2 += est * est;
    }
  }
  return r2;
}

double coverage(const PixelMask& observed) {
  if (observed.empty()) return 1.0;
  const auto n = std::count(observed.begin(), observed.end(), true);
  return double(n) / double(observed.size());
}

}  // namespace astro::pca
