#include "pca/incremental_pca.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/simd.h"
#include "linalg/svd.h"

namespace astro::pca {

namespace {

// A residual below this fraction of its fresh column's norm is rounding
// left of a column in the span; it is dropped (ρ = 0) rather than
// normalized into a direction that would not be orthogonal to the basis.
constexpr double kNullResidual = 1e-12;

// CGS2: two classical Gram-Schmidt passes of `v` against rows [0, m) of `w`
// (each row one column of [E Q], d contiguous entries).  Each pass takes
// every coefficient against the same v before subtracting any, so both are
// m dot products followed by m axpys through the SIMD table.  The second
// pass removes what rounding left of the first ("twice is enough"); when
// `core` is non-null the coefficients of both passes are summed into rows
// [0, m) of its column `col`.  `tmp` holds m doubles.  Returns |v| after.
double project_out(const linalg::Matrix& w, std::size_t m, double* v,
                   double* tmp, linalg::Matrix* core, std::size_t col) {
  const linalg::simd::Kernels& kn = linalg::simd::active();
  const std::size_t d = w.cols();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t j = 0; j < m; ++j) {
      tmp[j] = kn.dot(w.row_span(j).data(), v, d);
    }
    for (std::size_t j = 0; j < m; ++j) {
      kn.axpy(v, w.row_span(j).data(), -tmp[j], d);
    }
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
void complete_direction(const linalg::Matrix& w, std::size_t m, double* v,
                        double* tmp) {
  const std::size_t d = w.cols();
  std::size_t best = d;
  double best_norm = std::sqrt(0.5 / double(d));
  for (std::size_t axis = 0; axis < d; ++axis) {
    std::fill(v, v + d, 0.0);
    v[axis] = 1.0;
    const double norm = project_out(w, m, v, tmp, nullptr, 0);
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
  scale(v, 1.0 / project_out(w, m, v, tmp, nullptr, 0), d);
}

}  // namespace

void low_rank_update(const linalg::Matrix& basis,
                     const linalg::Vector& eigenvalues,
                     const linalg::Vector& y, double gamma,
                     double fresh_weight, std::size_t p, linalg::Matrix* e_out,
                     linalg::Vector* lambda_out) {
  UpdateWorkspace ws;
  low_rank_update(basis, eigenvalues, y, gamma, fresh_weight, p, ws, *e_out,
                  *lambda_out);
}

void low_rank_update(const linalg::Matrix& basis,
                     const linalg::Vector& eigenvalues,
                     const linalg::Vector& y, double gamma,
                     double fresh_weight, std::size_t p, UpdateWorkspace& ws,
                     linalg::Matrix& e_out, linalg::Vector& lambda_out) {
  const std::size_t d = y.size();
  const std::size_t k = eigenvalues.size();
  ws.a.resize_no_shrink(k + 1, d);
  const double yscale = std::sqrt(std::max(0.0, fresh_weight));
  double* f = ws.a.row_span(k).data();
  for (std::size_t r = 0; r < d; ++r) f[r] = y[r] * yscale;
  low_rank_update_batch(basis, eigenvalues, gamma, 1, p, ws, e_out,
                        lambda_out);
}

void low_rank_update_batch(const linalg::Matrix& basis,
                           const linalg::Vector& eigenvalues,
                           double history_scale, std::size_t batch,
                           std::size_t p, UpdateWorkspace& ws,
                           linalg::Matrix& e_out, linalg::Vector& lambda_out) {
  const std::size_t d = basis.rows();
  const std::size_t k = eigenvalues.size();
  const std::size_t n = k + batch;
  linalg::Matrix& w = ws.a;
  w.resize_no_shrink(n, d);  // no-op when the caller staged the fresh rows

  // Rows [0, k) of w take E column by column.  This copy is the last read
  // of `basis`, which is what makes aliasing e_out onto it legal.
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < k; ++c) w(c, r) = basis(r, c);
  }

  // Core K = [[diag(sqrt(h λ)), C], [0, T]]: each fresh column f_i, CGS2-
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
    double* f = w.row_span(m).data();
    const double f_norm = std::sqrt(kn.dot(f, f, d));
    const double rho = project_out(w, m, f, ws.coeffs.data(), &ws.core, m);
    if (rho > kNullResidual * f_norm) {
      ws.core(m, m) = rho;
      scale(f, 1.0 / rho, d);
    } else {
      complete_direction(w, m, f, ws.coeffs.data());
    }
  }

  // E_new inherits U_K's loss of orthogonality, which the Jacobi stopping
  // rule bounds by `tol`, and keeps it across updates until the next QR.
  // At the default 1e-12 the basis would drift past 1e-11 between QRs and
  // later tall decompositions (merges) would rotate its columns back into
  // orthogonality; 1e-14 keeps it below 1e-12 for a few percent more
  // core time.
  linalg::SvdOptions core_opts;
  core_opts.tol = 1e-14;
  linalg::svd_left_inplace(ws.core, ws.svd,
                           linalg::ThinUView{&ws.core_u, &ws.s}, core_opts);

  // E_new = [E | Q] U_K[:, :p], one axpy per (output, input) row pair, then
  // transposed into the row-major basis; λ = s².
  const std::size_t keep = std::min(p, n);
  ws.u.resize_no_shrink(keep, d);
  for (std::size_t c = 0; c < keep; ++c) {
    double* out = ws.u.row_span(c).data();
    std::fill(out, out + d, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      kn.axpy(out, w.row_span(j).data(), ws.core_u(j, c), d);
    }
  }
  e_out.resize_no_shrink(d, p);
  lambda_out.resize_no_shrink(p);
  for (std::size_t c = 0; c < keep; ++c) lambda_out[c] = ws.s[c] * ws.s[c];
  // If p > k+batch (larger rank than columns available) the remaining
  // eigenpairs are zeroed — they fill in as more data arrives.  Explicit
  // because resize_no_shrink leaves stale values behind.
  for (std::size_t c = keep; c < p; ++c) lambda_out[c] = 0.0;
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < keep; ++c) e_out(r, c) = ws.u(c, r);
    for (std::size_t c = keep; c < p; ++c) e_out(r, c) = 0.0;
  }
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
  if (x.size() != config_.dim) {
    throw std::invalid_argument("observe: wrong dimensionality");
  }
  if (!init_done_) {
    init_buffer_.push_back(x);
    if (init_buffer_.size() >= config_.init_count) initialize_from_buffer();
    return;
  }
  update(x);
}

void IncrementalPca::observe_batch(const linalg::Vector* const* xs,
                                   std::size_t n) {
  std::size_t j = 0;
  // The init buffer wants tuples one at a time (it may complete mid-batch).
  while (j < n && !init_done_) observe(*xs[j++]);
  if (j == n) return;
  const std::size_t b = n - j;
  if (b == 1) {
    update(*xs[j]);
    return;
  }
  for (std::size_t i = j; i < n; ++i) {
    if (xs[i]->size() != config_.dim) {
      throw std::invalid_argument("observe_batch: wrong dimensionality");
    }
  }

  const std::size_t p = config_.rank;
  const std::size_t d = config_.dim;
  ws_.ensure(d, p + b);
  ws_.a.resize_no_shrink(p + b, d);

  // Pass 1 — per-tuple scalar recursions, sequenced exactly like b
  // observe() calls: residual against the pre-batch basis and the running
  // mean, forgetting-sum advance, mean blend, σ² diagnostic.  Each tuple's
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
    const auto f = ws_.a.row_span(p + i);
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
    for (double& v : ws_.a.row_span(p + i)) v *= w;
    suffix *= ws_.batch_gammas[i];
  }

  low_rank_update_batch(system_.basis(), system_.eigenvalues(), suffix, b, p,
                        ws_, system_.mutable_basis(),
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
    // Columns of Y are centered observations / sqrt(n); eigensystem of the
    // sample covariance is the left SVD of Y.  Scoped so the d x n batch
    // matrix and its factors are freed before the replay below — the
    // engine's long-lived footprint should be the eigensystem plus one
    // workspace, not the init batch.
    linalg::Matrix y(d, n);
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = 0; r < d; ++r) {
        y(r, c) = (init_buffer_[c][r] - mean[r]) / std::sqrt(double(n));
      }
    }
    const linalg::ThinUResult svd = linalg::svd_left(y);

    linalg::Matrix basis(d, config_.rank);
    linalg::Vector lambda(config_.rank);
    const std::size_t keep =
        std::min(config_.rank, svd.singular_values.size());
    for (std::size_t c = 0; c < keep; ++c) {
      lambda[c] = svd.singular_values[c] * svd.singular_values[c];
      for (std::size_t r = 0; r < d; ++r) basis(r, c) = svd.u(r, c);
    }

    system_ = EigenSystem(std::move(mean), std::move(basis),
                          std::move(lambda), 0.0,
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

void IncrementalPca::update(const linalg::Vector& x) {
  // Forgetting count drives both the mean and covariance blend; in the
  // classic algorithm every observation has unit weight.  Every temporary
  // lives in ws_ — a steady-state update performs no heap allocation
  // (pinned by tests/perf/alloc_count_test).
  const double r2 = system_.squared_residual(x, ws_.y, ws_.coeffs);
  const auto gammas = system_.mutable_sums().update(1.0, r2);
  const double gamma = gammas.g3;  // alpha*u_prev/u

  // mu = gamma*mu_prev + (1-gamma)*x  (eq. 9 with w = 1)
  linalg::Vector& mean = system_.mutable_mean();
  mean *= gamma;
  mean.axpy(1.0 - gamma, x);

  system_.center_into(x, ws_.y);  // against the updated mean

  low_rank_update(system_.basis(), system_.eigenvalues(), ws_.y, gamma,
                  1.0 - gamma, config_.rank, ws_, system_.mutable_basis(),
                  system_.mutable_eigenvalues());

  // Track the (non-robust) mean squared residual as sigma2 for diagnostics.
  const double g = gamma;
  system_.set_sigma2(g * system_.sigma2() + (1.0 - g) * r2);
  system_.count_observation();
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
