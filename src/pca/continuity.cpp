#include "pca/continuity.h"

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace astro::pca {

namespace {

// The deterministic sign of one vector of n entries `stride` apart: its
// largest-|entry| coordinate (ties to the lowest index) made positive.
void fix_sign(double* v, std::size_t n, std::size_t stride) noexcept {
  std::size_t arg = 0;
  double best = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::abs(v[i * stride]);
    if (a > best) {  // strict: ties keep the lowest index
      best = a;
      arg = i;
    }
  }
  if (n > 0 && v[arg * stride] < 0.0) {
    for (std::size_t i = 0; i < n; ++i) v[i * stride] = -v[i * stride];
  }
}

}  // namespace

void apply_sign_convention(linalg::Matrix& basis) noexcept {
  if (basis.rows() == 0) return;
  for (std::size_t c = 0; c < basis.cols(); ++c) {
    fix_sign(basis.data() + c, basis.rows(), basis.cols());
  }
}

void apply_sign_convention(EigenSystem& system) noexcept {
  linalg::Matrix& vectors = system.mutable_vectors();
  for (std::size_t k = 0; k < vectors.rows(); ++k) {
    fix_sign(vectors.row_span(k).data(), vectors.cols(), 1);
  }
}

void continuity_signs(const linalg::Matrix& prev, linalg::Matrix& vectors) {
  const std::size_t d = vectors.rows();
  const std::size_t m = vectors.cols();
  if (prev.rows() != d) {
    throw std::invalid_argument("continuity_signs: row count mismatch");
  }
  if (d == 0) return;
  const std::size_t tracked = std::min(prev.cols(), m);
  for (std::size_t c = 0; c < m; ++c) {
    if (c < tracked) {
      double dot = 0.0;
      for (std::size_t r = 0; r < d; ++r) dot += prev(r, c) * vectors(r, c);
      if (dot < 0.0) {
        for (std::size_t r = 0; r < d; ++r) vectors(r, c) = -vectors(r, c);
      }
      if (dot != 0.0) continue;
      // Exactly orthogonal to its predecessor: no continuity signal —
      // fall through to the deterministic rule for this column.
    }
    fix_sign(vectors.data() + c, d, m);
  }
}

void continuity_reorder(const linalg::Matrix& prev, linalg::Matrix& vectors,
                        linalg::Vector& values) {
  const std::size_t d = vectors.rows();
  const std::size_t m = vectors.cols();
  const std::size_t tracked = std::min(prev.cols(), m);
  if (tracked == 0) return;
  if (prev.rows() != d) {
    throw std::invalid_argument("continuity_reorder: row count mismatch");
  }
  if (values.size() != m) {
    throw std::invalid_argument("continuity_reorder: values/vectors mismatch");
  }

  // Overlap matrix o(k, j) = |<prev_k, new_j>|, tracked x m.
  std::vector<double> overlap(tracked * m);
  for (std::size_t k = 0; k < tracked; ++k) {
    for (std::size_t j = 0; j < m; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < d; ++r) acc += prev(r, k) * vectors(r, j);
      overlap[k * m + j] = std::abs(acc);
    }
  }

  // Globally greedy assignment: the strongest overlap anywhere claims its
  // (slot, column) pair first, so two previous components competing for
  // the same new direction resolve in favour of the better match.
  constexpr std::size_t kUnset = std::size_t(-1);
  std::vector<std::size_t> slot_of_col(m, kUnset);
  std::vector<std::size_t> col_of_slot(tracked, kUnset);
  for (std::size_t round = 0; round < tracked; ++round) {
    double best = -1.0;
    std::size_t bk = kUnset, bj = kUnset;
    for (std::size_t k = 0; k < tracked; ++k) {
      if (col_of_slot[k] != kUnset) continue;
      for (std::size_t j = 0; j < m; ++j) {
        if (slot_of_col[j] != kUnset) continue;
        if (overlap[k * m + j] > best) {
          best = overlap[k * m + j];
          bk = k;
          bj = j;
        }
      }
    }
    col_of_slot[bk] = bj;
    slot_of_col[bj] = bk;
  }

  // Permutation: tracked slots first, then the unmatched columns in their
  // incoming (descending-eigenvalue) order.
  std::vector<std::size_t> perm;
  perm.reserve(m);
  for (std::size_t k = 0; k < tracked; ++k) perm.push_back(col_of_slot[k]);
  for (std::size_t j = 0; j < m; ++j) {
    if (slot_of_col[j] == kUnset) perm.push_back(j);
  }

  linalg::Matrix reordered(d, m);
  linalg::Vector revalued(m);
  for (std::size_t c = 0; c < m; ++c) {
    const std::size_t src = perm[c];
    revalued[c] = values[src];
    for (std::size_t r = 0; r < d; ++r) reordered(r, c) = vectors(r, src);
  }
  vectors = std::move(reordered);
  values = std::move(revalued);
}

}  // namespace astro::pca
