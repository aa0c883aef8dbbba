#include "pca/eigensystem.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/qr.h"
#include "linalg/simd.h"

namespace astro::pca {

EigenSystem::EigenSystem(std::size_t d, std::size_t p, double alpha)
    : mean_(d), vectors_(p, d), eigenvalues_(p), sums_(alpha) {
  if (p > d) throw std::invalid_argument("EigenSystem: rank p must be <= d");
}

EigenSystem::EigenSystem(linalg::Vector mean, const linalg::Matrix& basis,
                         linalg::Vector eigenvalues, double sigma2,
                         stats::RobustRunningSums sums,
                         std::uint64_t observations)
    : EigenSystem(from_vectors(std::move(mean), basis.transpose(),
                               std::move(eigenvalues), sigma2, sums,
                               observations)) {}

EigenSystem EigenSystem::from_vectors(linalg::Vector mean,
                                      linalg::Matrix vectors,
                                      linalg::Vector eigenvalues,
                                      double sigma2,
                                      stats::RobustRunningSums sums,
                                      std::uint64_t observations) {
  if (vectors.cols() != mean.size() || vectors.rows() != eigenvalues.size()) {
    throw std::invalid_argument("EigenSystem: inconsistent shapes");
  }
  EigenSystem s;
  s.mean_ = std::move(mean);
  s.vectors_ = std::move(vectors);
  s.eigenvalues_ = std::move(eigenvalues);
  s.sigma2_ = sigma2;
  s.sums_ = sums;
  s.observations_ = observations;
  return s;
}

linalg::Vector EigenSystem::center(const linalg::Vector& x) const {
  return x - mean_;
}

void EigenSystem::center_into(const linalg::Vector& x,
                              linalg::Vector& y) const {
  const std::size_t d = mean_.size();
  y.resize_no_shrink(d);
  const double* xs = x.data();
  const double* mu = mean_.data();
  double* ys = y.data();
  for (std::size_t r = 0; r < d; ++r) ys[r] = xs[r] - mu[r];
}

void EigenSystem::coefficients_into(const linalg::Vector& y, std::size_t count,
                                    linalg::Vector& c) const {
  const linalg::simd::Kernels& kn = linalg::simd::active();
  c.resize_no_shrink(count);
  for (std::size_t k = 0; k < count; ++k) {
    c[k] = kn.dot(vectors_.row_span(k).data(), y.data(), dim());
  }
}

linalg::Vector EigenSystem::project(const linalg::Vector& x) const {
  linalg::Vector c;
  coefficients_into(center(x), rank(), c);
  return c;
}

linalg::Vector EigenSystem::reconstruct(const linalg::Vector& coeffs) const {
  if (coeffs.size() != rank()) {
    throw std::invalid_argument("reconstruct: coefficient count != rank");
  }
  linalg::Vector out = mean_;
  for (std::size_t k = 0; k < rank(); ++k) {
    const double ck = coeffs[k];
    if (ck == 0.0) continue;
    const auto e = vectors_.row_span(k);
    for (std::size_t r = 0; r < dim(); ++r) out[r] += ck * e[r];
  }
  return out;
}

linalg::Vector EigenSystem::residual(const linalg::Vector& x) const {
  linalg::Vector y = center(x);
  linalg::Vector c;
  coefficients_into(y, rank(), c);
  for (std::size_t k = 0; k < rank(); ++k) {
    const double ck = c[k];
    if (ck == 0.0) continue;
    const auto e = vectors_.row_span(k);
    for (std::size_t r = 0; r < dim(); ++r) y[r] -= ck * e[r];
  }
  return y;
}

double EigenSystem::squared_residual(const linalg::Vector& x) const {
  linalg::Vector y, c;
  return squared_residual(x, y, c);
}

double EigenSystem::squared_residual(const linalg::Vector& x,
                                     linalg::Vector& y_scratch,
                                     linalg::Vector& coeff_scratch) const {
  center_into(x, y_scratch);
  coefficients_into(y_scratch, rank(), coeff_scratch);
  return std::max(0.0,
                  y_scratch.squared_norm() - coeff_scratch.squared_norm());
}

linalg::Matrix EigenSystem::covariance() const {
  // E diag(lambda) E^T without forming diag explicitly.
  linalg::Matrix scaled = vectors_;
  for (std::size_t k = 0; k < rank(); ++k) {
    for (double& v : scaled.row_span(k)) v *= eigenvalues_[k];
  }
  return scaled.transpose() * vectors_;
}

double EigenSystem::basis_drift() const {
  const linalg::simd::Kernels& kn = linalg::simd::active();
  double worst = 0.0;
  for (std::size_t i = 0; i < rank(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double g = kn.dot(vectors_.row_span(i).data(),
                              vectors_.row_span(j).data(), dim());
      worst = std::max(worst, std::abs(g - (i == j ? 1.0 : 0.0)));
    }
  }
  return worst;
}

void EigenSystem::reorthonormalize() {
  if (vectors_.empty()) return;
  linalg::Matrix basis = vectors_.transpose();
  linalg::orthonormalize_columns(basis);
  vectors_ = basis.transpose();
}

}  // namespace astro::pca
