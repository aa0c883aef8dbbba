#include "pca/incremental_pca.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/rank_one_eig.h"
#include "linalg/simd.h"
#include "linalg/tridiag.h"

namespace astro::pca {

namespace {

// A residual below this fraction of its fresh column's norm is rounding
// left of a column in the span; it is dropped (ρ = 0) rather than
// normalized into a direction that would not be orthogonal to the basis.
constexpr double kNullResidual = 1e-12;

// [E; Q]: the k basis rows where the eigensystem keeps them, followed by
// the residual directions in the workspace's fresh rows.
struct Stacked {
  const linalg::Matrix& e;
  const linalg::Matrix& q;
  [[nodiscard]] const double* row(std::size_t j) const noexcept {
    return j < e.rows() ? e.row_span(j).data()
                        : q.row_span(j - e.rows()).data();
  }
};

// CGS2: two classical Gram-Schmidt passes of `v` against rows [0, m) of `w`
// (d contiguous entries each).  Each pass takes every coefficient against
// the same v before subtracting any, so both are m dot products followed
// by m axpys through the SIMD table.  The second pass removes what
// rounding left of the first ("twice is enough"); when `core` is non-null
// the coefficients of both passes are summed into rows [0, m) of its
// column `col`.  `tmp` holds m doubles.  Returns |v| after.
double project_out(const Stacked& w, std::size_t m, std::size_t d, double* v,
                   double* tmp, linalg::Matrix* core, std::size_t col) {
  const linalg::simd::Kernels& kn = linalg::simd::active();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t j = 0; j < m; ++j) tmp[j] = kn.dot(w.row(j), v, d);
    for (std::size_t j = 0; j < m; ++j) kn.axpy(v, w.row(j), -tmp[j], d);
    if (core != nullptr) {
      for (std::size_t j = 0; j < m; ++j) (*core)(j, col) += tmp[j];
    }
  }
  return std::sqrt(kn.dot(v, v, d));
}

void scale(double* v, double s, std::size_t d) {
  for (std::size_t r = 0; r < d; ++r) v[r] *= s;
}

// Writes into `v` a unit vector orthogonal to rows [0, m) of `w`: the first
// coordinate axis whose CGS2 remainder keeps half its length, else the axis
// with the largest remainder.  The remainders' squares average (d - m) / d
// over the axes, so while m < d some axis keeps at least 1/d of its squared
// length; below half that, the rows already span R^d and v is left zero.
void complete_direction(const Stacked& w, std::size_t m, std::size_t d,
                        double* v, double* tmp) {
  std::size_t best = d;
  double best_norm = std::sqrt(0.5 / double(d));
  for (std::size_t axis = 0; axis < d; ++axis) {
    std::fill(v, v + d, 0.0);
    v[axis] = 1.0;
    const double norm = project_out(w, m, d, v, tmp, nullptr, 0);
    if (norm > 0.5) {
      scale(v, 1.0 / norm, d);
      return;
    }
    if (norm > best_norm) {
      best_norm = norm;
      best = axis;
    }
  }
  std::fill(v, v + d, 0.0);
  if (best == d) return;
  v[best] = 1.0;
  scale(v, 1.0 / project_out(w, m, d, v, tmp, nullptr, 0), d);
}

// Eigenpairs of K Kᵀ for the n x n core K in ws.core into ws.core_u /
// ws.core_lambda, descending.  K is upper triangular, so
// (K Kᵀ)(i, j) = Σ_{l ≥ max(i, j)} K(i, l) K(j, l).  The QL eigenvalues of
// K Kᵀ are only accurate to rounding of its largest one, which leaves null
// directions at ~1e-16·λ_max; each λ is therefore taken as the Rayleigh
// quotient ‖Kᵀu‖² on K itself, which carries K's rounding squared, and the
// pairs are re-sorted by it.  The QL order is already descending up to
// that rounding, so the insertion sort moves almost nothing.
void core_eig(UpdateWorkspace& ws, std::size_t n) {
  const linalg::Matrix& core = ws.core;
  linalg::Matrix& u = ws.core_u;
  linalg::Vector& lambda = ws.core_lambda;
  u.resize_no_shrink(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = 0.0;
      for (std::size_t l = i; l < n; ++l) s += core(i, l) * core(j, l);
      u(i, j) = s;
      u(j, i) = s;
    }
  }
  linalg::eig_sym_tridiag(u, ws.tridiag, u, lambda);
  for (std::size_t c = 0; c < n; ++c) {
    double norm2 = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
      double t = 0.0;
      for (std::size_t i = 0; i <= l; ++i) t += core(i, l) * u(i, c);
      norm2 += t * t;
    }
    lambda[c] = norm2;
  }
  for (std::size_t c = 1; c < n; ++c) {
    for (std::size_t j = c; j > 0 && lambda[j] > lambda[j - 1]; --j) {
      std::swap(lambda[j], lambda[j - 1]);
      for (std::size_t r = 0; r < n; ++r) std::swap(u(r, j), u(r, j - 1));
    }
  }
}

}  // namespace

void low_rank_update_batch(const linalg::Matrix& vectors,
                           const linalg::Vector& eigenvalues,
                           double history_scale, std::size_t batch,
                           std::size_t p, UpdateWorkspace& ws,
                           linalg::Matrix& e_out, linalg::Vector& lambda_out) {
  const std::size_t d = ws.a.cols();
  const std::size_t k = eigenvalues.size();
  const std::size_t n = k + batch;
  const Stacked w{vectors, ws.a};

  // Core K = [[diag(sqrt(h λ)), C], [0, T]]: each fresh row f_i, CGS2-
  // projected against E and the residual directions before it, leaves its
  // coefficients in column k+i and becomes q_i = r_i / ρ_i in place, so
  // [E | F] = [E | Q] K with [E | Q] orthonormal.  A vanished residual gets
  // ρ_i = 0 and a completing unit direction instead.
  ws.core.resize_no_shrink(n, n);
  ws.core.fill(0.0);
  for (std::size_t c = 0; c < k; ++c) {
    ws.core(c, c) = std::sqrt(std::max(0.0, history_scale * eigenvalues[c]));
  }
  ws.coeffs.resize_no_shrink(n);
  const linalg::simd::Kernels& kn = linalg::simd::active();
  for (std::size_t m = k; m < n; ++m) {
    double* f = ws.a.row_span(m - k).data();
    const double f_norm = std::sqrt(kn.dot(f, f, d));
    const double rho =
        project_out(w, m, d, f, ws.coeffs.data(), &ws.core, m);
    if (rho > kNullResidual * f_norm) {
      ws.core(m, m) = rho;
      scale(f, 1.0 / rho, d);
    } else {
      complete_direction(w, m, d, f, ws.coeffs.data());
    }
  }

  // One tuple: K Kᵀ = diag(δ) + z zᵀ with δ = (K(0,0)², …, K(k-1,k-1)², 0)
  // and z = column k of K, so the secular equation gives λ and U_K in
  // O(k²), U_K orthonormal to rounding (linalg/rank_one_eig.h).  A
  // micro-batch core has b dense columns: K Kᵀ goes to Householder + QL.
  if (batch == 1) {
    ws.poles.resize_no_shrink(n);
    for (std::size_t c = 0; c < k; ++c) {
      ws.poles[c] = ws.core(c, c) * ws.core(c, c);
      ws.coeffs[c] = ws.core(c, k);
    }
    ws.poles[k] = 0.0;
    ws.coeffs[k] = ws.core(k, k);
    linalg::rank_one_eig(ws.poles.data(), ws.coeffs.data(), n, ws.rank_one,
                         ws.core_u, ws.core_lambda);
  } else {
    core_eig(ws, n);
  }

  // E_new = [E | Q] U_K[:, :p] as one blocked rotation of the rows, written
  // over `e_out` — which may be `vectors` itself, read last right here.
  // If p > k+batch (larger rank than columns available) the remaining
  // eigenpairs are zero — they fill in as more data arrives.
  const std::size_t keep = std::min(p, n);
  e_out.resize_no_shrink(p, d);
  ws.stage.resize_no_shrink(p * linalg::simd::kRotateStageWidth);
  kn.rotate_rows(vectors.data(), k, ws.a.data(), batch, ws.core_u.data(),
                 ws.core_u.cols(), d, e_out.data(), p, ws.stage.data());
  lambda_out.resize_no_shrink(p);
  for (std::size_t c = 0; c < keep; ++c) lambda_out[c] = ws.core_lambda[c];
  for (std::size_t c = keep; c < p; ++c) lambda_out[c] = 0.0;
}

IncrementalPca::IncrementalPca(const IncrementalPcaConfig& config)
    : config_(config), system_(config.dim, config.rank, config.alpha) {
  if (config.dim == 0) {
    throw std::invalid_argument("IncrementalPca: dim must be > 0");
  }
  if (config.rank == 0 || config.rank > config.dim) {
    throw std::invalid_argument("IncrementalPca: need 0 < rank <= dim");
  }
  if (config.alpha <= 0.0 || config.alpha > 1.0) {
    throw std::invalid_argument("IncrementalPca: alpha must be in (0, 1]");
  }
  config_.init_count = std::max(config_.init_count, config_.rank + 1);
  init_buffer_.reserve(config_.init_count);
}

void IncrementalPca::observe(const linalg::Vector& x) {
  const linalg::Vector* xp = &x;
  observe_batch(&xp, 1);
}

void IncrementalPca::observe_batch(const linalg::Vector* const* xs,
                                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i]->size() != config_.dim) {
      throw std::invalid_argument("observe_batch: wrong dimensionality");
    }
  }
  std::size_t j = 0;
  // The init buffer takes tuples one at a time (it may complete mid-batch).
  for (; j < n && !init_done_; ++j) {
    init_buffer_.push_back(*xs[j]);
    if (init_buffer_.size() >= config_.init_count) initialize_from_buffer();
  }
  if (j == n) return;
  const std::size_t b = n - j;
  const std::size_t p = config_.rank;
  const std::size_t d = config_.dim;
  ws_.ensure(d, p + b);

  // Pass 1 — per-tuple scalar recursions: residual against the pre-batch
  // basis and the running mean, forgetting-sum advance (every observation
  // has unit weight), mean blend (eq. 9), σ² diagnostic.  Each tuple's
  // fresh direction is centered against its own updated mean straight into
  // its fresh row of ws_.a; the row's weight is only known once the later
  // tuples' γ exist, so scaling is deferred.
  linalg::Vector& mean = system_.mutable_mean();
  for (std::size_t i = 0; i < b; ++i) {
    const linalg::Vector& x = *xs[j + i];
    const double r2 = system_.squared_residual(x, ws_.y, ws_.coeffs);
    const auto gammas = system_.mutable_sums().update(1.0, r2);
    const double gamma = gammas.g3;
    mean *= gamma;
    mean.axpy(1.0 - gamma, x);
    const auto f = ws_.a.row_span(i);
    for (std::size_t r = 0; r < d; ++r) f[r] = x[r] - mean[r];
    ws_.batch_gammas[i] = gamma;
    system_.set_sigma2(gamma * system_.sigma2() + (1.0 - gamma) * r2);
    system_.count_observation();
  }

  // Pass 2 — unroll the covariance recursion without intermediate
  // truncation:  C_b = (∏γ_i) C_0 + Σ_j (1−γ_j)(∏_{i>j}γ_i) y_j y_jᵀ.
  // Sweeping the suffix product right-to-left prices every fresh row.
  double suffix = 1.0;
  for (std::size_t i = b; i-- > 0;) {
    const double w =
        std::sqrt(std::max(0.0, (1.0 - ws_.batch_gammas[i]) * suffix));
    for (double& v : ws_.a.row_span(i)) v *= w;
    suffix *= ws_.batch_gammas[i];
  }

  low_rank_update_batch(system_.vectors(), system_.eigenvalues(), suffix, b,
                        p, ws_, system_.mutable_vectors(),
                        system_.mutable_eigenvalues());
}

void IncrementalPca::observe_batch(const std::vector<linalg::Vector>& xs) {
  std::vector<const linalg::Vector*> ptrs(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) ptrs[i] = &xs[i];
  observe_batch(ptrs.data(), ptrs.size());
}

void IncrementalPca::initialize_from_buffer() {
  const std::size_t n = init_buffer_.size();
  const std::size_t d = config_.dim;

  linalg::Vector mean(d);
  for (const auto& x : init_buffer_) mean += x;
  mean *= 1.0 / double(n);

  {
    // The sample covariance is A Aᵀ for the centered observations / √n as
    // fresh columns: a k = 0 batch update of an empty eigensystem.  Scoped
    // so the n-column workspace is freed before the replay below — the
    // engine's long-lived footprint is the eigensystem plus a workspace
    // sized for its own updates, not for the init batch.
    UpdateWorkspace init_ws;
    init_ws.ensure(d, n);
    const double inv_sqrt_n = 1.0 / std::sqrt(double(n));
    for (std::size_t c = 0; c < n; ++c) {
      const auto f = init_ws.a.row_span(c);
      for (std::size_t r = 0; r < d; ++r) {
        f[r] = (init_buffer_[c][r] - mean[r]) * inv_sqrt_n;
      }
    }
    linalg::Matrix vectors;
    linalg::Vector lambda;
    low_rank_update_batch(linalg::Matrix(0, d), linalg::Vector(), 1.0, n,
                          config_.rank, init_ws, vectors, lambda);
    system_ = EigenSystem::from_vectors(
        std::move(mean), std::move(vectors), std::move(lambda), 0.0,
        stats::RobustRunningSums(config_.alpha), 0);
  }

  // Replay the buffer through the running sums so merge weights reflect the
  // data actually absorbed; sigma2 seeds from the mean squared residual.
  ws_.ensure(d, config_.rank + 1);
  double r2sum = 0.0;
  for (const auto& x : init_buffer_) {
    const double r2 = system_.squared_residual(x, ws_.y, ws_.coeffs);
    system_.mutable_sums().update(1.0, r2);
    system_.count_observation();
    r2sum += r2;
  }
  system_.set_sigma2(r2sum / double(n));
  // Release the init batch outright: clear() keeps vector capacity (n
  // observations of d doubles) alive for the engine's whole life otherwise.
  init_buffer_.clear();
  init_buffer_.shrink_to_fit();
  init_done_ = true;
}

void IncrementalPca::set_eigensystem(EigenSystem system) {
  if (system.dim() != config_.dim || system.rank() != config_.rank) {
    throw std::invalid_argument("set_eigensystem: shape mismatch");
  }
  system_ = std::move(system);
  ws_.ensure(config_.dim, config_.rank + 1);
  init_done_ = true;
}

}  // namespace astro::pca
