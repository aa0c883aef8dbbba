#pragma once

// Per-engine scratch for the allocation-free per-tuple update path
// (DESIGN.md "Hot path & memory discipline").
//
// Every streaming PCA engine owns exactly one UpdateWorkspace, sized once
// when its eigensystem first exists (initialize_from_buffer /
// set_eigensystem) and re-entered by every subsequent observe() with zero
// allocator traffic.  The buffers follow the resize-no-shrink discipline:
// they grow to the high-water mark of the shapes seen and keep that
// capacity for the engine's lifetime.  A workspace carries no result state
// between tuples — every kernel that uses a buffer overwrites it — so a
// recycled workspace (windowed bucket roll, crash-recovery reincarnation)
// behaves bit-identically to a fresh one.
//
// The low-rank update (incremental_pca.h) never decomposes the d x (k+b)
// matrix A of eq. (1)-(3).  It projects the b fresh columns onto the
// basis, orthonormalizes their residuals, and decomposes only the
// (k+b) x (k+b) core; the d-long buffers below are the columns that
// projection and the final rotation stream over, stored one per row so
// every pass is a contiguous SIMD dot/axpy.
//
// Not thread-safe: a workspace belongs to the single thread driving its
// engine, matching the one-engine-one-thread execution model of the
// stream operators.

#include <cstddef>

#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "linalg/vector.h"

namespace astro::pca {

struct UpdateWorkspace {
  /// [E | F] one column per row: rows [0, k) receive the basis, rows
  /// [k, k+b) hold the fresh directions (staged by the caller for a
  /// micro-batch) and are overwritten with their residual directions Q.
  linalg::Matrix a;
  linalg::Matrix u;             ///< [E | Q] U_K, one output column per row
  linalg::Matrix core;          ///< (k+b) x (k+b) core K
  linalg::Matrix core_u;        ///< left singular vectors U_K of the core
  linalg::Vector s;             ///< singular values of the core
  linalg::Vector y;             ///< centered observation x - mu
  linalg::Vector coeffs;        ///< E^T y; projection coefficients of one pass
  linalg::SvdWorkspace svd;     ///< Jacobi scratch for the core
  /// Micro-batch scalar scratch (DESIGN.md "Micro-batching"): one slot per
  /// batched tuple for the history coefficient γ̂_j and the fresh weight of
  /// the tuple's row of `a`.  Sized by ensure()'s `cols` like everything
  /// else, so the b=1 path pays two 1-element vectors and the batched path
  /// is allocation-free at steady state.
  linalg::Vector batch_gammas;
  linalg::Vector batch_weights;

  /// Pre-grows every buffer for a d-dimensional engine whose update has
  /// `cols` = k+b columns — k+1 for the per-tuple path, k+b for a
  /// micro-batch of b observations.  Idempotent and never shrinks, so
  /// calling it again (checkpoint restore, merge install, batch-size
  /// growth) on an already-sized workspace is free once the high-water
  /// shape is reached.
  void ensure(std::size_t d, std::size_t cols) {
    a.resize_no_shrink(cols, d);
    u.resize_no_shrink(cols, d);
    core.resize_no_shrink(cols, cols);
    core_u.resize_no_shrink(cols, cols);
    s.resize_no_shrink(cols);
    y.resize_no_shrink(d);
    coeffs.resize_no_shrink(cols);
    svd.reserve(cols, cols);
    batch_gammas.resize_no_shrink(cols);
    batch_weights.resize_no_shrink(cols);
  }
};

}  // namespace astro::pca
