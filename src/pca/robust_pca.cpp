#include "pca/robust_pca.h"

#include <cmath>
#include <stdexcept>

#include "linalg/svd.h"
#include "pca/incremental_pca.h"
#include "pca/batch_pca.h"
#include "stats/mscale.h"

namespace astro::pca {

namespace {
constexpr double kTinyResidual = 1e-300;
}

RobustIncrementalPca::RobustIncrementalPca(const RobustPcaConfig& config)
    : config_(config),
      rho_(stats::make_rho(config.rho)),
      system_(config.dim, config.rank + config.extra_rank, config.alpha) {
  if (config.dim == 0) {
    throw std::invalid_argument("RobustIncrementalPca: dim must be > 0");
  }
  const std::size_t full = config.rank + config.extra_rank;
  if (config.rank == 0 || full > config.dim) {
    throw std::invalid_argument(
        "RobustIncrementalPca: need 0 < rank, rank + extra_rank <= dim");
  }
  if (config.alpha <= 0.0 || config.alpha > 1.0) {
    throw std::invalid_argument("RobustIncrementalPca: alpha in (0, 1]");
  }
  if (config.mode == PcaMode::kExact) {
    // Exact reference mode: delegate the whole recursion to ExactIpca.
    // Its internal "full" rank mirrors the truncated engine's p+q so gap
    // patching and serve views keep their shapes; emits are rank d.
    ExactIpcaConfig ec;
    ec.dim = config.dim;
    ec.rank = full;
    ec.alpha = config.alpha;
    ec.init_count = config.init_count;
    exact_ = std::make_unique<ExactIpca>(ec);
    return;
  }
  delta_ = config.delta > 0.0 ? config.delta : rho_->gaussian_expectation();
  if (delta_ > 1.0) {
    throw std::invalid_argument("RobustIncrementalPca: delta must be <= 1");
  }
  // An init batch barely larger than the rank overfits: residuals near 0,
  // sigma^2 collapses, and the robust weighting then rejects everything.
  // Enforce enough initial samples that the residual scale is meaningful.
  config_.init_count = std::max(config_.init_count, 2 * full + 2);
  init_buffer_.reserve(config_.init_count);
  // The reject run can never exceed the reset threshold, so reserving it up
  // front keeps the outlier branch of update() allocation-free too.
  rejected_residuals_.reserve(config_.reject_reset_threshold);
  if (config_.track_robust_eigenvalues) {
    robust_eigenvalues_ = linalg::Vector(config_.rank);
  }
}

ObservationReport RobustIncrementalPca::observe(const linalg::Vector& x) {
  if (x.size() != config_.dim) {
    throw std::invalid_argument("observe: wrong dimensionality");
  }
  if (exact_) {
    // Exact mode absorbs every tuple at unit weight — there is no robust
    // down-weighting and therefore no outlier flagging on this path.
    ObservationReport rep;
    rep.pending_init = !exact_->initialized();
    exact_->observe(x);
    rep.weight = 1.0;
    rep.scale_weight = 1.0;
    return rep;
  }
  if (!init_done_) {
    init_buffer_.push_back(x);
    init_masks_.emplace_back();  // complete observation
    if (init_buffer_.size() >= config_.init_count) initialize_from_buffer();
    ObservationReport rep;
    rep.pending_init = !init_done_;
    return rep;
  }
  return update(x, nullptr);
}

ObservationReport RobustIncrementalPca::observe(const linalg::Vector& x,
                                                const PixelMask& observed) {
  if (x.size() != config_.dim || observed.size() != config_.dim) {
    throw std::invalid_argument("observe(masked): wrong dimensionality");
  }
  if (exact_) {
    ObservationReport rep;
    rep.pending_init = !exact_->initialized();
    rep.weight = 1.0;
    rep.scale_weight = 1.0;
    if (!exact_->initialized()) {
      // No basis to patch against yet; absorb raw (gaps wash out under
      // the forgetting weight, same spirit as the init-phase mean impute).
      exact_->observe(x);
      return rep;
    }
    // Patch against the same rank-(p+q) view the truncated engine uses —
    // the full rank-d emit could reproduce *anything* through the masked
    // least squares, which would defeat the patch's purpose.
    GapFillResult fill = fill_gaps(exact_->reported_system(), x, observed);
    rep.patched_pixels = fill.missing;
    exact_->observe(fill.patched);
    return rep;
  }
  if (!init_done_) {
    // The initializing batch cannot patch gaps (no basis yet); fill missing
    // pixels with the running mean of what has been buffered so far.
    init_buffer_.push_back(x);
    init_masks_.push_back(observed);
    if (init_buffer_.size() >= config_.init_count) initialize_from_buffer();
    ObservationReport rep;
    rep.pending_init = !init_done_;
    return rep;
  }
  return update(x, &observed);
}

void RobustIncrementalPca::observe_batch(const linalg::Vector* const* xs,
                                         std::size_t n,
                                         ObservationReport* reports) {
  if (exact_) {
    // The exact recursion needs no batch algebra — per-tuple rank-1
    // updates are already exact — so batching is a pass-through loop,
    // bit-identical to the sequential path for every batch size.
    for (std::size_t i = 0; i < n; ++i) reports[i] = observe(*xs[i]);
    return;
  }
  std::size_t j = 0;
  // Init-phase tuples are buffered one at a time (the batch decomposition
  // may complete mid-batch, at which point the remainder streams).
  while (j < n && !init_done_) {
    reports[j] = observe(*xs[j]);
    ++j;
  }
  // The robust-eigenvalue recursion (§II-B closing remark) needs the
  // post-update basis after every tuple — batching it would change the
  // quantity tracked, not just its arithmetic — so it pins the engine to
  // the sequential path.
  if (config_.track_robust_eigenvalues) {
    for (; j < n; ++j) reports[j] = observe(*xs[j]);
    return;
  }
  if (j == n) return;
  const std::size_t b = n - j;
  if (b == 1) {
    reports[j] = update(*xs[j], nullptr);
    return;
  }
  for (std::size_t i = j; i < n; ++i) {
    if (xs[i]->size() != config_.dim) {
      throw std::invalid_argument("observe_batch: wrong dimensionality");
    }
  }

  const std::size_t p = config_.rank;
  const std::size_t full = config_.rank + config_.extra_rank;
  const std::size_t d = config_.dim;
  ws_.ensure(d, full + b);
  ws_.a.resize_no_shrink(full + b, d);

  // Pass 1 — the sequential steps 2-6 and 9 of update() per tuple, with one
  // difference: the basis every residual (and therefore every weight and
  // outlier decision) is judged against is the PRE-BATCH one, at most b-1
  // updates stale.  Accepted tuples stage their centered direction in an A
  // column; rejected ones (γ₂ = 1) contribute nothing, exactly like the
  // sequential outlier branch.
  linalg::Vector& mean = system_.mutable_mean();
  std::size_t applied = 0;
  for (std::size_t i = 0; i < b; ++i) {
    const linalg::Vector& x = *xs[j + i];
    ObservationReport rep;

    system_.center_into(x, ws_.y);
    system_.basis().transpose_times_into(ws_.y, ws_.coeffs);
    double proj = 0.0;
    for (std::size_t k = 0; k < p; ++k) proj += ws_.coeffs[k] * ws_.coeffs[k];
    const double r2 = std::max(0.0, ws_.y.squared_norm() - proj);
    rep.squared_residual = r2;

    const double sigma2_old = std::max(system_.sigma2(), kTinyResidual);
    rep.t = r2 / sigma2_old;
    rep.weight = rho_->weight(rep.t);
    rep.scale_weight = rho_->scale_weight(rep.t);
    rep.outlier = rep.t >= rho_->rejection_point();
    if (rep.outlier) {
      ++outliers_flagged_;
      if (config_.reject_reset_threshold > 0) {
        rejected_residuals_.push_back(std::sqrt(r2));
        if (++consecutive_rejects_ >= config_.reject_reset_threshold) {
          stats::MScaleOptions mopts;
          mopts.delta = delta_;
          const double s2 =
              stats::m_scale(rejected_residuals_, *rho_, mopts).sigma2;
          if (s2 > 0.0) system_.set_sigma2(s2);
          rejected_residuals_.clear();
          consecutive_rejects_ = 0;
          ++scale_resets_;
        }
      }
    } else {
      consecutive_rejects_ = 0;
      rejected_residuals_.clear();
    }

    const auto g = system_.mutable_sums().update(rep.weight, rep.weight * r2);

    mean *= g.g1;
    mean.axpy(1.0 - g.g1, x);

    const double sigma2_base = std::max(system_.sigma2(), kTinyResidual);
    const double sigma2_new =
        g.g3 * sigma2_base + (1.0 - g.g3) * rep.scale_weight * r2 / delta_;
    system_.set_sigma2(std::max(sigma2_new, kTinyResidual));

    // Covariance contribution (sequential step 7): stage the direction and
    // remember its per-tuple blending pair (γ̂ = γ₂, fresh weight).  The
    // skip cases — outlier (γ₂ == 1) and a residual too tiny to normalize —
    // leave C untouched sequentially, which the batch reproduces by
    // treating their history coefficient as exactly 1.
    if (g.g2 < 1.0 && r2 > kTinyResidual) {
      const auto f = ws_.a.row_span(full + applied);
      for (std::size_t r = 0; r < d; ++r) f[r] = x[r] - mean[r];
      ws_.batch_gammas[applied] = g.g2;
      ws_.batch_weights[applied] = (1.0 - g.g2) * system_.sigma2() / r2;
      ++applied;
    }

    system_.count_observation();
    reports[j + i] = rep;
  }

  // Pass 2 — price the accepted rows by the unrolled recursion
  //   C_b = (∏γ̂_i) C_0 + Σ_j fresh_j (∏_{i>j} γ̂_i) y_j y_jᵀ
  // and decompose once.  applied == 0 (every tuple rejected/skipped) means
  // C is untouched: no SVD at all, again matching the sequential path.
  // Rejected tuples staged nothing, so only the `applied` leading fresh
  // rows enter the update.
  if (applied > 0) {
    double suffix = 1.0;
    for (std::size_t i = applied; i-- > 0;) {
      const double w =
          std::sqrt(std::max(0.0, ws_.batch_weights[i] * suffix));
      for (double& v : ws_.a.row_span(full + i)) v *= w;
      suffix *= ws_.batch_gammas[i];
    }
    low_rank_update_batch(system_.basis(), system_.eigenvalues(), suffix,
                          applied, system_.rank(), ws_,
                          system_.mutable_basis(),
                          system_.mutable_eigenvalues());
  }

  updates_since_qr_ += b;
  if (config_.reorthonormalize_every > 0 &&
      updates_since_qr_ >= config_.reorthonormalize_every) {
    system_.reorthonormalize();
    updates_since_qr_ = 0;
  }
}

std::vector<ObservationReport> RobustIncrementalPca::observe_batch(
    const std::vector<linalg::Vector>& xs) {
  std::vector<const linalg::Vector*> ptrs(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) ptrs[i] = &xs[i];
  std::vector<ObservationReport> reports(xs.size());
  observe_batch(ptrs.data(), ptrs.size(), reports.data());
  return reports;
}

void RobustIncrementalPca::initialize_from_buffer() {
  const std::size_t n = init_buffer_.size();
  const std::size_t d = config_.dim;
  const std::size_t full = config_.rank + config_.extra_rank;

  // Mean-impute gaps (no basis exists yet to patch against).
  linalg::Vector mean(d), counts(d);
  for (std::size_t i = 0; i < n; ++i) {
    const PixelMask& mask = init_masks_[i];
    for (std::size_t r = 0; r < d; ++r) {
      if (mask.empty() || mask[r]) {
        mean[r] += init_buffer_[i][r];
        counts[r] += 1.0;
      }
    }
  }
  for (std::size_t r = 0; r < d; ++r) {
    if (counts[r] > 0.0) mean[r] /= counts[r];
  }
  std::vector<linalg::Vector> imputed = init_buffer_;
  for (std::size_t i = 0; i < n; ++i) {
    const PixelMask& mask = init_masks_[i];
    if (mask.empty()) continue;
    for (std::size_t r = 0; r < d; ++r) {
      if (!mask[r]) imputed[i][r] = mean[r];
    }
  }

  // Robust batch initialization (Maronna iteration): a plain SVD of the
  // buffer would let any outlier in the initial batch capture the starting
  // basis — and contamination already *inside* the model subspace is
  // invisible to residual-based weighting afterwards.  The paper leans on
  // the forgetting factor to wash such transients out; starting from the
  // robust batch solution removes them outright.
  BatchRobustOptions bopts;
  bopts.rho = config_.rho;
  // Cap the init delta at the maximal-breakdown value: large deltas (e.g.
  // the chi2-dof-consistent choice) are prone to scale implosion on the
  // small init batch, where a rank-p basis can exactly fit the retained
  // fraction.  The streaming recursion re-calibrates sigma^2 under the
  // configured delta as data accumulates.
  bopts.delta = std::min(delta_, 0.5);
  // Robust rank selection vs in-span capture: allow for several captured
  // candidate slots — gross outliers in distinct directions can each claim
  // one in the classical candidate set.
  bopts.candidate_extra = std::max<std::size_t>(2, config_.init_count / 8);
  const BatchRobustResult robust_init = batch_robust_pca(imputed, full, bopts);

  system_ = EigenSystem(robust_init.system.mean(), robust_init.system.basis(),
                        robust_init.system.eigenvalues(), 0.0,
                        stats::RobustRunningSums(config_.alpha), 0);

  // Seed sigma2 with the M-scale of the rank-p residuals of the batch, and
  // replay the buffer through the running sums with the implied weights.
  std::vector<double> residuals(n);
  for (std::size_t i = 0; i < n; ++i) {
    double r2;
    if (init_masks_[i].empty()) {
      r2 = corrected_squared_residual(system_, config_.rank, init_buffer_[i],
                                      PixelMask(d, true));
    } else {
      r2 = corrected_squared_residual(system_, config_.rank, init_buffer_[i],
                                      init_masks_[i]);
    }
    residuals[i] = std::sqrt(r2);
  }
  stats::MScaleOptions mopts;
  mopts.delta = delta_;
  double sigma2 = stats::m_scale(residuals, *rho_, mopts).sigma2;
  if (sigma2 <= 0.0) {
    double ms = 0.0;
    for (double r : residuals) ms += r * r;
    sigma2 = std::max(ms / double(n), kTinyResidual);
  }
  system_.set_sigma2(sigma2);

  for (std::size_t i = 0; i < n; ++i) {
    const double r2 = residuals[i] * residuals[i];
    const double w = rho_->weight(r2 / sigma2);
    system_.mutable_sums().update(w, w * r2);
    system_.count_observation();
  }

  if (config_.track_robust_eigenvalues) {
    // Seed each component's robust scale with its eigenvalue.
    for (std::size_t k = 0; k < config_.rank; ++k) {
      robust_eigenvalues_[k] = system_.eigenvalues()[k];
    }
  }

  // Release the init batch outright (clear() alone would pin n*d doubles of
  // capacity for the engine's lifetime) and size the per-tuple workspace
  // once; every steady-state update() re-enters it allocation-free.
  init_buffer_.clear();
  init_buffer_.shrink_to_fit();
  init_masks_.clear();
  init_masks_.shrink_to_fit();
  ws_.ensure(d, full + 1);
  init_done_ = true;
}

ObservationReport RobustIncrementalPca::update(const linalg::Vector& x,
                                               const PixelMask* observed) {
  ObservationReport rep;
  const std::size_t p = config_.rank;

  // 1. Patch gaps against the current (p+q)-rank basis.
  linalg::Vector patched;
  const linalg::Vector* xp = &x;
  if (observed != nullptr) {
    GapFillResult fill = fill_gaps(system_, x, *observed);
    rep.patched_pixels = fill.missing;
    patched = std::move(fill.patched);
    xp = &patched;
  }

  // 2. Rank-p residual of the (patched) observation against the OLD system,
  //    with the §II-D correction on missing bins.  A gappy observation's
  //    residual has fewer degrees of freedom than a complete one, so its
  //    scaled residual t is normalized by the coverage-adjusted dof — else
  //    heavily-gapped spectra are systematically mis-weighted against a σ²
  //    calibrated on complete ones.
  double dof_scale = 1.0;
  double r2;
  if (observed != nullptr && rep.patched_pixels > 0) {
    r2 = corrected_squared_residual(system_, p, *xp, *observed);
    const std::size_t d = config_.dim;
    const double full_dof = double(d > p ? d - p : 1);
    const std::size_t n_obs = d - rep.patched_pixels;
    const double eff_dof = std::max(1.0, double(n_obs) - double(p));
    dof_scale = full_dof / eff_dof;
  } else {
    // Complete observation: the whole step runs in the engine workspace —
    // no heap allocation (the gappy branch above allocates freely; gap
    // patching is the rare case and inherently builds new vectors).
    system_.center_into(*xp, ws_.y);
    system_.basis().transpose_times_into(ws_.y, ws_.coeffs);
    double proj = 0.0;
    for (std::size_t k = 0; k < p; ++k) proj += ws_.coeffs[k] * ws_.coeffs[k];
    r2 = std::max(0.0, ws_.y.squared_norm() - proj);
  }
  rep.squared_residual = r2;

  // 3. Robust weights from the pre-update scale.
  const double sigma2_old = std::max(system_.sigma2(), kTinyResidual);
  rep.t = r2 * dof_scale / sigma2_old;
  rep.weight = rho_->weight(rep.t);
  rep.scale_weight = rho_->scale_weight(rep.t);
  rep.outlier = rep.t >= rho_->rejection_point();
  if (rep.outlier) {
    ++outliers_flagged_;
    // Rejection-deadlock safety valve: a long unbroken run of rejects means
    // the scale has collapsed (or the stream jumped regimes); re-estimate
    // sigma^2 from the rejected residuals so processing can resume.
    if (config_.reject_reset_threshold > 0) {
      rejected_residuals_.push_back(std::sqrt(r2 * dof_scale));
      if (++consecutive_rejects_ >= config_.reject_reset_threshold) {
        stats::MScaleOptions mopts;
        mopts.delta = delta_;
        const double s2 =
            stats::m_scale(rejected_residuals_, *rho_, mopts).sigma2;
        if (s2 > 0.0) system_.set_sigma2(s2);
        rejected_residuals_.clear();
        consecutive_rejects_ = 0;
        ++scale_resets_;
      }
    }
  } else {
    consecutive_rejects_ = 0;
    rejected_residuals_.clear();
  }

  // 4. Running sums -> blending coefficients (eq. 12-14).
  const auto g = system_.mutable_sums().update(rep.weight, rep.weight * r2);

  // 5. Mean (eq. 9).
  linalg::Vector& mean = system_.mutable_mean();
  mean *= g.g1;
  mean.axpy(1.0 - g.g1, *xp);

  // 6. Scale (eq. 11), solved simultaneously with the eigen-update.  The
  //    dof-corrected residual keeps σ² calibrated to full-coverage
  //    observations even when much of the stream is gappy.  Read the
  //    current σ² again (not sigma2_old): the safety valve above may just
  //    have re-estimated it, and eq. (11) must build on that value.
  const double sigma2_base = std::max(system_.sigma2(), kTinyResidual);
  const double sigma2_new =
      g.g3 * sigma2_base +
      (1.0 - g.g3) * rep.scale_weight * r2 * dof_scale / delta_;
  system_.set_sigma2(std::max(sigma2_new, kTinyResidual));

  // 7. Covariance via the low-rank SVD (eq. 10 realized through eq. 1-3).
  //    fresh weight = (1-gamma2) * sigma2 / r2; gamma2 == 1 for outliers, so
  //    their direction never enters the eigensystem.
  if (g.g2 < 1.0 && r2 > kTinyResidual) {
    system_.center_into(*xp, ws_.y);  // against the new mean
    const double fresh = (1.0 - g.g2) * system_.sigma2() / r2;
    low_rank_update(system_.basis(), system_.eigenvalues(), ws_.y, g.g2,
                    fresh, system_.rank(), ws_, system_.mutable_basis(),
                    system_.mutable_eigenvalues());
  }

  // 8. Optional robust per-component scales (§II-B closing remark): the same
  //    σ² recursion with the residual replaced by the projection onto e_k.
  if (config_.track_robust_eigenvalues) {
    // Re-center explicitly: step 7 may have been skipped (outlier), so
    // ws_.y is not guaranteed to hold x - mu against the current mean.
    system_.center_into(*xp, ws_.y);
    system_.basis().transpose_times_into(ws_.y, ws_.coeffs);
    const linalg::Vector& c = ws_.coeffs;
    for (std::size_t k = 0; k < p; ++k) {
      const double ck2 = c[k] * c[k];
      const double sk2 = std::max(robust_eigenvalues_[k], kTinyResidual);
      const double wk = rho_->scale_weight(ck2 / sk2);
      robust_eigenvalues_[k] =
          g.g3 * robust_eigenvalues_[k] + (1.0 - g.g3) * wk * ck2 / delta_;
    }
  }

  system_.count_observation();

  if (config_.reorthonormalize_every > 0 &&
      ++updates_since_qr_ >= config_.reorthonormalize_every) {
    system_.reorthonormalize();
    updates_since_qr_ = 0;
  }
  return rep;
}

EigenSystem RobustIncrementalPca::reported_system() const {
  if (exact_) {
    const EigenSystem& full = exact_->eigensystem();
    if (!full.initialized()) return full;
    return truncate(full, std::min(config_.rank, config_.dim));
  }
  if (config_.extra_rank == 0) return system_;
  return truncate(system_, config_.rank);
}

EigenSystem RobustIncrementalPca::serve_system() const {
  if (!exact_) return system_;
  return exact_->reported_system();
}

void RobustIncrementalPca::set_eigensystem(EigenSystem system) {
  if (exact_) {
    // Exact mode accepts any rank <= d: rank-d emits restore the scatter
    // losslessly (checkpoint path), lower ranks install lossily with the
    // residual energy spread over the complement (sync merge path).
    exact_->set_eigensystem(std::move(system));
    return;
  }
  if (system.dim() != config_.dim ||
      system.rank() != config_.rank + config_.extra_rank) {
    throw std::invalid_argument("set_eigensystem: shape mismatch");
  }
  system_ = std::move(system);
  // Idempotent: a workspace already at this shape (checkpoint restore,
  // periodic merge install) is untouched — no reallocation per sync round.
  ws_.ensure(config_.dim, config_.rank + config_.extra_rank + 1);
  init_done_ = true;
}

EigenSystem truncate(const EigenSystem& system, std::size_t p) {
  if (p > system.rank()) {
    throw std::invalid_argument("truncate: p exceeds system rank");
  }
  linalg::Matrix basis(system.dim(), p);
  linalg::Vector lambda(p);
  for (std::size_t c = 0; c < p; ++c) {
    lambda[c] = system.eigenvalues()[c];
    for (std::size_t r = 0; r < system.dim(); ++r) {
      basis(r, c) = system.basis()(r, c);
    }
  }
  return EigenSystem(system.mean(), std::move(basis), std::move(lambda),
                     system.sigma2(), system.sums(), system.observations());
}

}  // namespace astro::pca
