#include "pca/merge.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "pca/continuity.h"
#include "pca/incremental_pca.h"

namespace astro::pca {

namespace {

// The one merge body; both public overloads hand it pointers, so merging
// a pair copies neither system.
EigenSystem merge_systems(const EigenSystem* const* systems, std::size_t k,
                          const MergeOptions& opts) {
  if (k == 0) throw std::invalid_argument("merge: no systems");
  const std::size_t d = systems[0]->dim();

  std::size_t rank_out = opts.rank_out;
  for (std::size_t i = 0; i < k; ++i) {
    if (systems[i]->dim() != d) {
      throw std::invalid_argument("merge: dim mismatch");
    }
    if (opts.rank_out == 0) rank_out = std::max(rank_out, systems[i]->rank());
  }

  // Combination weights from the robust running weight sums v_i, falling
  // back to raw counts when no weight has accumulated yet.
  std::vector<double> gamma(k);
  double vsum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    gamma[i] = systems[i]->sums().v();
    vsum += gamma[i];
  }
  if (vsum <= 0.0) {
    vsum = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      gamma[i] = double(systems[i]->observations());
      vsum += gamma[i];
    }
  }
  if (vsum <= 0.0) throw std::invalid_argument("merge: all systems empty");
  for (double& g : gamma) g /= vsum;

  // Pooled mean.
  linalg::Vector mean(d);
  for (std::size_t i = 0; i < k; ++i) mean.axpy(gamma[i], systems[i]->mean());

  // One more low-rank update: system 0 is the basis with history scale γ₀,
  // and the other systems' scaled eigenvectors Eᵢ√(γᵢΛᵢ) plus the
  // mean-correction columns (µᵢ − µ)√γᵢ are its fresh rows.  The mean
  // columns are collinear (Σ γᵢ(µᵢ − µ) = 0), and the kernel completes
  // the one that lands in the span with a ρ = 0 direction.
  const EigenSystem& base = *systems[0];
  const std::size_t k0 = base.rank();
  std::size_t fresh = opts.assume_equal_means ? 0 : k;
  for (std::size_t i = 1; i < k; ++i) fresh += systems[i]->rank();
  UpdateWorkspace ws;
  ws.ensure(d, k0 + fresh);
  std::size_t row = 0;
  for (std::size_t i = 1; i < k; ++i) {
    const EigenSystem& s = *systems[i];
    for (std::size_t c = 0; c < s.rank(); ++c, ++row) {
      const double scale =
          std::sqrt(std::max(0.0, gamma[i] * s.eigenvalues()[c]));
      const auto e = s.vectors().row_span(c);
      const auto f = ws.a.row_span(row);
      for (std::size_t r = 0; r < d; ++r) f[r] = e[r] * scale;
    }
  }
  if (!opts.assume_equal_means) {
    for (std::size_t i = 0; i < k; ++i, ++row) {
      const double scale = std::sqrt(gamma[i]);
      const auto f = ws.a.row_span(row);
      for (std::size_t r = 0; r < d; ++r) {
        f[r] = (systems[i]->mean()[r] - mean[r]) * scale;
      }
    }
  }
  linalg::Matrix vectors;
  linalg::Vector lambda;
  low_rank_update_batch(base.vectors(), base.eigenvalues(), gamma[0], fresh,
                        rank_out, ws, vectors, lambda);

  // Pool the running sums (independent partitions add) and the scale
  // (u-weighted so engines that absorbed more data dominate).
  stats::RobustRunningSums sums(base.sums().alpha());
  double usum = 0.0, sigma2 = 0.0;
  std::uint64_t observations = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const EigenSystem& s = *systems[i];
    sums.absorb(s.sums());
    usum += s.sums().u();
    sigma2 += s.sums().u() * s.sigma2();
    observations += s.observations();
  }
  sigma2 = usum > 0.0 ? sigma2 / usum : 0.0;

  // Merge is a publish boundary (sync installs, pooled serve snapshots,
  // final results): pin the decomposition's arbitrary per-column signs to
  // the deterministic convention so merged bases are reproducible across
  // runs and restarts (pca/continuity.h).
  EigenSystem merged =
      EigenSystem::from_vectors(std::move(mean), std::move(vectors),
                                std::move(lambda), sigma2, sums, observations);
  apply_sign_convention(merged);
  return merged;
}

}  // namespace

EigenSystem merge(std::span<const EigenSystem> systems,
                  const MergeOptions& opts) {
  std::vector<const EigenSystem*> ptrs(systems.size());
  for (std::size_t i = 0; i < systems.size(); ++i) ptrs[i] = &systems[i];
  return merge_systems(ptrs.data(), ptrs.size(), opts);
}

EigenSystem merge(const EigenSystem& a, const EigenSystem& b,
                  const MergeOptions& opts) {
  const EigenSystem* const pair[] = {&a, &b};
  return merge_systems(pair, 2, opts);
}

}  // namespace astro::pca
