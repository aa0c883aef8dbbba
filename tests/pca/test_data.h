#pragma once

// Shared synthetic-data helpers for the PCA test suites: low-rank Gaussian
// manifolds with known ground-truth bases, plus outlier contamination, and
// the staging of one fresh direction for the update kernel.

#include <cmath>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "pca/update_workspace.h"
#include "stats/rng.h"

namespace astro::pca::testing {

struct LowRankModel {
  linalg::Vector mean;     // d
  linalg::Matrix basis;    // d x k, orthonormal columns (ground truth)
  linalg::Vector scales;   // k, stddev along each component (descending)
  double noise = 0.01;     // isotropic noise stddev
};

inline LowRankModel make_model(stats::Rng& rng, std::size_t d, std::size_t k,
                               double top_scale = 3.0, double noise = 0.01) {
  LowRankModel m;
  m.mean = rng.gaussian_vector(d);
  m.basis = stats::random_orthonormal(rng, d, k);
  m.scales = linalg::Vector(k);
  for (std::size_t i = 0; i < k; ++i) {
    m.scales[i] = top_scale / double(i + 1);  // graded spectrum
  }
  m.noise = noise;
  return m;
}

inline linalg::Vector draw(const LowRankModel& m, stats::Rng& rng) {
  linalg::Vector x = m.mean;
  for (std::size_t i = 0; i < m.scales.size(); ++i) {
    const double c = rng.gaussian(0.0, m.scales[i]);
    for (std::size_t r = 0; r < x.size(); ++r) x[r] += c * m.basis(r, i);
  }
  for (std::size_t r = 0; r < x.size(); ++r) x[r] += rng.gaussian(0.0, m.noise);
  return x;
}

inline std::vector<linalg::Vector> draw_many(const LowRankModel& m,
                                             stats::Rng& rng, std::size_t n) {
  std::vector<linalg::Vector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(draw(m, rng));
  return out;
}

/// A gross outlier: far-away point in a random direction.
inline linalg::Vector draw_outlier(const LowRankModel& m, stats::Rng& rng,
                                   double amplitude = 50.0) {
  linalg::Vector dir = rng.gaussian_vector(m.mean.size());
  dir.normalize();
  return m.mean + dir * amplitude;
}

/// Stages y·√weight as the one fresh row (row 0) of `ws.a` — the caller
/// contract of low_rank_update_batch(…, batch = 1, …), which then blends
/// y yᵀ into the eigensystem with that weight.
inline void stage_fresh_row(UpdateWorkspace& ws, const linalg::Vector& y,
                            double weight) {
  ws.a.resize_no_shrink(1, y.size());
  const double s = std::sqrt(weight);
  for (std::size_t r = 0; r < y.size(); ++r) ws.a(0, r) = y[r] * s;
}

}  // namespace astro::pca::testing
