#pragma once

// Thin singular-value decomposition via one-sided Jacobi rotations.
//
// One-sided Jacobi orthogonalizes *columns* pairwise, costing O(m n^2) per
// sweep for an m x n input — cheap for few columns — and is
// backward-stable without forming A^T A explicitly at working precision.
// The incremental PCA update (paper eq. 1-3) uses it only on its small
// (p+b) x (p+b) core, after projecting the fresh directions onto the basis
// (pca/incremental_pca.h); merges, the init batch and the baselines
// decompose their tall matrices with it directly.
//
// Two entry styles share one kernel:
//   - svd()/svd_left(): value-returning, allocate their results — fine for
//     merges, baselines and tests.
//   - svd_left_inplace(): the hot-path form.  The caller owns an
//     SvdWorkspace (the persistent column-major scratch the rotations run
//     on — columns contiguous, unlike the row-major Matrix layout) and a
//     ThinUView of preallocated outputs; a steady-state call performs zero
//     heap allocations.  svd_left() is a thin wrapper over this function,
//     so the two paths are bit-identical by construction (pinned by
//     tests/perf/svd_inplace_test).

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace astro::linalg {

/// Result of a thin SVD  A (m x n)  =  U diag(s) V^T  with k = min(m, n):
/// U is m x k (orthonormal columns), s holds the k singular values sorted
/// descending, V is n x k (orthonormal columns).
struct SvdResult {
  Matrix u;
  Vector singular_values;
  Matrix v;

  /// Reconstruct U diag(s) V^T (for testing / diagnostics).
  [[nodiscard]] Matrix reconstruct() const;
};

struct SvdOptions {
  /// Convergence threshold on the normalized off-diagonal inner product
  /// |<a_i, a_j>| / (|a_i| |a_j|).
  double tol = 1e-12;
  /// Safety bound on Jacobi sweeps; convergence is typically < 10 sweeps.
  int max_sweeps = 60;
};

/// Caller-owned scratch for the in-place kernel.  Buffers grow to the
/// high-water mark of the shapes they have seen and are never shrunk
/// (resize-no-shrink discipline), so one workspace sized by the first call
/// serves every subsequent same-shape call allocation-free.  A workspace
/// carries no result state between calls — every buffer is fully rewritten
/// — which is what makes reuse bit-identical to a fresh workspace.
/// Not thread-safe: one workspace per thread.
struct SvdWorkspace {
  std::vector<double> colmajor;     ///< m x n working copy, a[c * m + r]
  std::vector<double> col_norms2;   ///< cached squared column norms (sweeps)
  std::vector<double> norms;        ///< exact column norms (extraction)
  std::vector<std::size_t> order;   ///< descending sort permutation
  std::vector<double> cand;         ///< null-column completion scratch
  std::vector<double> v_accum;      ///< right-rotation accumulator (full svd)

  /// Pre-grows every buffer for an m x n decomposition (optional — the
  /// kernel sizes on demand; this just front-loads the one-time growth).
  void reserve(std::size_t m, std::size_t n);
};

/// Destination of the in-place thin-U decomposition: preallocated caller
/// storage, resized in place (no shrink) to m x n / n.  `u` may alias the
/// input only through distinct objects' storage — i.e. not at all; the
/// input matrix is copied into the workspace before outputs are written,
/// but `*u` and `*singular_values` must be distinct objects from `a`.
struct ThinUView {
  Matrix* u = nullptr;
  Vector* singular_values = nullptr;
};

/// Thin SVD of `a` by one-sided Jacobi.  Works for any m, n (including
/// m < n, handled by transposing internally).  Singular values are
/// non-negative and sorted in descending order.
[[nodiscard]] SvdResult svd(const Matrix& a, const SvdOptions& opts = {});

/// Convenience: only U and the singular values (V is never accumulated,
/// saving O(n^2) work per rotation).  This is what the PCA code uses —
/// an eigensystem needs only the left singular vectors and values.
struct ThinUResult {
  Matrix u;
  Vector singular_values;
};
[[nodiscard]] ThinUResult svd_left(const Matrix& a, const SvdOptions& opts = {});

/// Hot-path form of svd_left(): runs the Jacobi sweeps on the workspace's
/// persistent column-major scratch and writes U / s into the caller's
/// preallocated storage.  Zero heap allocations at steady state for tall
/// and square inputs (m >= n); a wide input (m < n) falls back to the
/// allocating full decomposition (never the case on the per-tuple path,
/// whose core is square).
void svd_left_inplace(const Matrix& a, SvdWorkspace& workspace, ThinUView out,
                      const SvdOptions& opts = {});

}  // namespace astro::linalg
