#pragma once

// Symmetric eigendecomposition via the cyclic Jacobi rotation method.
//
// Used by the exact-IPCA reference (eigendecomposition of its d x d second
// moment) and as the reference solver in tests.  Jacobi is slower than
// tridiagonalization+QL (linalg/tridiag.h) but simple and extremely
// accurate (it computes small eigenvalues to high relative accuracy), and
// the matrices here are modest (d up to a few hundred; the streaming
// engines decompose only small update cores).

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace astro::linalg {

/// Eigendecomposition A = V diag(w) V^T of a symmetric matrix, eigenvalues
/// sorted descending, eigenvectors as the columns of `vectors`.
struct EigResult {
  Vector values;
  Matrix vectors;
};

struct EigOptions {
  double tol = 1e-13;  ///< off-diagonal Frobenius threshold, relative
  int max_sweeps = 60;
};

/// Symmetric eigensolver.  `a` must be square; symmetry is assumed (only
/// the upper triangle participates via symmetrized rotations).  Throws
/// std::invalid_argument for non-square input.
[[nodiscard]] EigResult eig_sym(const Matrix& a, const EigOptions& opts = {});

/// The largest k eigenpairs (descending).  Convenience wrapper.
[[nodiscard]] EigResult eig_sym_top(const Matrix& a, std::size_t k,
                                    const EigOptions& opts = {});

}  // namespace astro::linalg
