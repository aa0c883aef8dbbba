#pragma once

// Householder tridiagonalization + implicit-shift QL: the symmetric
// eigensolver of the streaming update's micro-batch, merge and init cores.
//
// Those cores arrive as a small n x n K with upper-triangular structure,
// and the update wants the eigensystem of K Kᵀ (pca/incremental_pca.h).
// Householder + QL finishes in a fixed number of O(n³) passes and has no
// trouble with the null directions that rank-deficient cores carry
// (collinear merge means, rejected batch slots, more fresh columns than
// dimensions), where one-sided Jacobi sweeps to its cap.  This is the
// classical EISPACK tred2/tql2 pair (Numerical Recipes form), implemented
// from scratch, running in the caller's storage so a warm call performs no
// heap allocation.  Cyclic Jacobi (eigen_sym.h) stays the reference solver.

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace astro::linalg {

/// Caller-owned scratch for eig_sym_tridiag(): the subdiagonal of the
/// tridiagonal form.  Grows to the high-water size, never shrinks and
/// carries no state between calls.  Not thread-safe: one per thread.
struct TridiagWorkspace {
  std::vector<double> offdiag;

  /// Sizes the buffer for an n x n problem.
  void reserve(std::size_t n) {
    if (offdiag.size() < n) offdiag.resize(n);
  }
};

/// Eigendecomposition a = V diag(w) Vᵀ of the symmetric n x n matrix `a`:
/// eigenvalues sorted descending into `values` (size n), orthonormal
/// eigenvectors as the columns of `vectors` (n x n).  `vectors` may be `a`
/// itself, which is then decomposed in place.  Outputs are resized
/// no-shrink and fully rewritten; zero heap allocations once `ws` and the
/// outputs have reached size n.  Throws std::invalid_argument for
/// non-square input.  Non-finite input yields non-finite output rather
/// than an exception (the QL iteration gives up on an eigenvalue after 50
/// steps, which finite input never reaches).
void eig_sym_tridiag(const Matrix& a, TridiagWorkspace& ws, Matrix& vectors,
                     Vector& values);

}  // namespace astro::linalg
