#pragma once

// Eigendecomposition of a diagonal-plus-rank-one matrix  diag(δ) + z zᵀ
// through the secular equation (Bunch, Nielsen & Sorensen 1978; Gu &
// Eisenstat 1994 — the method of LAPACK's dlaed2/dlaed3/dlaed4).
//
// The per-tuple PCA update has exactly this shape: its core
// K = [[diag(√(γλ)), c], [0, ρ]] satisfies K Kᵀ = diag(γλ, 0) + z zᵀ with
// z = (c, ρ) (pca/incremental_pca.h).  One-sided Jacobi would sweep the
// whole core until its columns are orthogonal; this solver costs O(n²):
//   1. Deflation.  A component with |z_j|·‖z‖ ≤ 8ε·max(|δ|max, ‖z‖²) is
//      an eigenpair (δ_j, e_j) already.  Two poles close enough that the
//      coupling left between them is below the same tolerance are merged
//      by a Givens rotation that zeroes one of their z entries.
//   2. Roots.  The remaining eigenvalues interlace the remaining (distinct)
//      poles, one per interval, the largest within ‖z‖² above the top
//      pole.  Each is kept as an offset τ from its nearer pole, so every
//      δ_j − μ_i is formed as (δ_j − δ_origin) − τ without cancellation,
//      and found by a safeguarded two-pole rational iteration (Li's
//      "middle way"), falling back to Newton and then to bisection.
//   3. Vectors.  ẑ is recomputed from the computed roots (Löwner's
//      formula) so that u_i ∝ ẑ ⊘ (δ − μ_i) are orthonormal to rounding;
//      then the rotations and the sort are undone.
// Scalar code only: every SIMD tier gets the same bits.

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace astro::linalg {

/// Caller-owned scratch for rank_one_eig().  Like SvdWorkspace it grows to
/// the high-water size, never shrinks and carries no state between calls,
/// so a workspace sized once serves every later call allocation-free.
/// Not thread-safe: one workspace per thread.
struct RankOneEigWorkspace {
  struct Rotation {
    std::size_t i = 0, j = 0;  ///< sorted positions; z_i was zeroed
    double c = 1.0, s = 0.0;
  };
  std::vector<std::size_t> order;    ///< sorted position -> input index
  std::vector<double> d, z;          ///< poles / weights, ascending
  std::vector<std::size_t> pos;      ///< kept positions, then deflated
  std::vector<Rotation> rotations;   ///< deflation merges, in order
  std::vector<double> pd, pz;        ///< kept poles / weights, then ẑ
  std::vector<double> diff;          ///< d_j − d_origin of one root
  std::vector<std::size_t> origin;   ///< root i = pd[origin[i]] + tau[i]
  std::vector<double> tau;
  std::vector<double> q;             ///< m x m: δ_t − μ_i, then u_i(t)
  std::vector<double> value;         ///< eigenvalue of each slot
  std::vector<std::size_t> slot;     ///< slots by descending eigenvalue

  /// Sizes every buffer for an n x n problem.
  void reserve(std::size_t n);
};

/// Eigenvalues (descending, into `values`, size n) and orthonormal
/// eigenvectors (the columns of `vectors`, n x n) of diag(delta) + z zᵀ
/// for n-long `delta` and `z`.  Outputs are resized no-shrink and fully
/// rewritten; zero heap allocations once `ws` and the outputs have reached
/// size n.
void rank_one_eig(const double* delta, const double* z, std::size_t n,
                  RankOneEigWorkspace& ws, Matrix& vectors, Vector& values);

}  // namespace astro::linalg
