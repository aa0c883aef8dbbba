#include "pca/exact_ipca.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/eigen_sym.h"
#include "pca/continuity.h"
#include "pca/robust_pca.h"

namespace astro::pca {

ExactIpca::ExactIpca(const ExactIpcaConfig& config)
    : config_(config),
      mean_(config.dim),
      c_(config.dim, config.dim),
      sums_(config.alpha) {
  if (config.dim == 0) {
    throw std::invalid_argument("ExactIpca: dim must be > 0");
  }
  if (config.rank == 0) {
    throw std::invalid_argument("ExactIpca: rank must be > 0");
  }
  if (config.alpha <= 0.0 || config.alpha > 1.0) {
    throw std::invalid_argument("ExactIpca: alpha in (0, 1]");
  }
  config_.init_count = std::max<std::size_t>(config_.init_count, 2);
  // Pre-grow the only per-tuple scratch so the first observe() is already
  // on the allocation-free path.
  ws_.y.resize_no_shrink(config_.dim);
}

void ExactIpca::observe(const linalg::Vector& x) {
  const std::size_t d = config_.dim;
  if (x.size() != d) {
    throw std::invalid_argument("ExactIpca::observe: wrong dimensionality");
  }
  ws_.y.resize_no_shrink(d);
  const double* xs = x.data();
  const double* mu = mean_.data();
  double* y = ws_.y.data();
  for (std::size_t r = 0; r < d; ++r) y[r] = xs[r] - mu[r];

  // The q sum (weighted residual energy) exists for interface parity with
  // the robust engines — merge() absorbs it but never reads it — so the
  // full pre-update central energy stands in for the rank-p residual.
  const auto g = sums_.update(1.0, ws_.y.squared_norm());
  // One gamma drives both recursions: with unit weights v == u, and after
  // a restore from foreign sums using the same blend keeps mean and
  // scatter self-consistent (the exactness proof needs them to share it).
  const double gamma = g.g3;
  const double fresh = gamma * (1.0 - gamma);

  double* c = c_.data();
  for (std::size_t r = 0; r < d; ++r) {
    const double yr = fresh * y[r];
    double* row = c + r * d;
    for (std::size_t j = 0; j < d; ++j) row[j] = gamma * row[j] + yr * y[j];
  }

  double* m = mean_.data();
  const double one_minus = 1.0 - gamma;
  for (std::size_t r = 0; r < d; ++r) m[r] = gamma * m[r] + one_minus * xs[r];

  ++observations_;
  emit_valid_ = false;
}

void ExactIpca::observe_batch(const linalg::Vector* const* xs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) observe(*xs[i]);
}

void ExactIpca::observe_batch(const std::vector<linalg::Vector>& xs) {
  for (const linalg::Vector& x : xs) observe(x);
}

const EigenSystem& ExactIpca::eigensystem() const {
  if (!initialized()) return emitted_;  // empty until the init gate opens
  if (!emit_valid_) {
    refresh_emit();
    emit_valid_ = true;
  }
  return emitted_;
}

EigenSystem ExactIpca::reported_system() const {
  const EigenSystem& full = eigensystem();
  if (!full.initialized()) return full;
  return truncate(full, std::min(config_.rank, config_.dim));
}

void ExactIpca::refresh_emit() const {
  const std::size_t d = config_.dim;
  linalg::EigResult eig = linalg::eig_sym(c_);
  // The scatter is PSD by construction; tiny negative eigenvalues are
  // decomposition round-off.
  for (auto& v : eig.values) {
    if (v < 0.0) v = 0.0;
  }

  if (prev_top_.cols() > 0) {
    continuity_reorder(prev_top_, eig.vectors, eig.values);
    continuity_signs(prev_top_, eig.vectors);
  } else {
    // First emit (or first after a restore that installed no basis): no
    // previous emit to be continuous with — deterministic convention.
    apply_sign_convention(eig.vectors);
  }

  const std::size_t tracked = std::min(config_.rank, d);
  prev_top_.resize_no_shrink(d, tracked);
  for (std::size_t c = 0; c < tracked; ++c) {
    for (std::size_t r = 0; r < d; ++r) prev_top_(r, c) = eig.vectors(r, c);
  }

  // sigma^2 of the emit is the energy outside the reported rank-p block —
  // the exact counterpart of the truncated engines' residual scale, so
  // serve residual scores stay t = r^2 / sigma^2.
  double trace = 0.0;
  for (std::size_t r = 0; r < d; ++r) trace += c_(r, r);
  double top = 0.0;
  for (std::size_t k = 0; k < tracked; ++k) top += eig.values[k];
  const double sigma2 = std::max(0.0, trace - top);

  emitted_ = EigenSystem(mean_, std::move(eig.vectors), std::move(eig.values),
                         sigma2, sums_, observations_);
}

void ExactIpca::set_eigensystem(EigenSystem system) {
  const std::size_t d = config_.dim;
  if (system.dim() != d) {
    throw std::invalid_argument("ExactIpca::set_eigensystem: dim mismatch");
  }
  const std::size_t r = system.rank();

  mean_ = system.mean();
  sums_ = system.sums();
  observations_ = system.observations();

  // Rebuild the scatter from the carried spectrum.  Rank-d systems (our
  // own emits) restore it losslessly; lower-rank installs spread the
  // carried residual energy isotropically over the orthogonal complement:
  //   C = sum_k (lambda_k - s) e_k e_k^T + s I,  s = sigma^2 / (d - r).
  const double spread = (r < d && system.sigma2() > 0.0)
                            ? system.sigma2() / double(d - r)
                            : 0.0;
  c_.resize_no_shrink(d, d);
  double* c = c_.data();
  for (std::size_t i = 0; i < d * d; ++i) c[i] = 0.0;
  const linalg::Matrix& vectors = system.vectors();
  for (std::size_t k = 0; k < r; ++k) {
    const double lk = system.eigenvalues()[k] - spread;
    if (lk == 0.0) continue;
    const auto e = vectors.row_span(k);
    for (std::size_t i = 0; i < d; ++i) {
      const double bik = lk * e[i];
      if (bik == 0.0) continue;
      double* row = c + i * d;
      for (std::size_t j = 0; j < d; ++j) row[j] += bik * e[j];
    }
  }
  if (spread > 0.0) {
    for (std::size_t i = 0; i < d; ++i) c[i * d + i] += spread;
  }

  // The installed basis seeds continuity tracking: the first emit after a
  // restore is matched (and sign-fixed) against exactly what the restored
  // checkpoint carried, so recovery introduces no flip or swap.
  const std::size_t tracked = std::min({config_.rank, r, d});
  prev_top_.resize_no_shrink(d, tracked);
  for (std::size_t k = 0; k < tracked; ++k) {
    for (std::size_t i = 0; i < d; ++i) prev_top_(i, k) = vectors(k, i);
  }

  installed_ = true;
  emit_valid_ = false;
  ws_.y.resize_no_shrink(d);
}

}  // namespace astro::pca
