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
// matrix A of eq. (1)-(3).  It projects the b fresh rows onto the basis,
// orthonormalizes their residuals, and decomposes only the (k+b) x (k+b)
// core — for one tuple (b = 1) as the rank-one eigenproblem
// diag(δ) + z zᵀ, for a micro-batch as the symmetric K Kᵀ by Householder +
// QL.  The basis itself never enters the workspace: the eigensystem keeps
// its eigenvectors one per row (pca/eigensystem.h), the kernel projects
// against those rows where they are and rotates them in place.  The only
// d-long buffers here are the fresh rows and the centered observation.
// Merges and the init batch run the same kernel on a workspace of their
// own, so their one-off shapes never grow an engine's.
//
// Not thread-safe: a workspace belongs to the single thread driving its
// engine, matching the one-engine-one-thread execution model of the
// stream operators.

#include <cstddef>

#include "linalg/matrix.h"
#include "linalg/rank_one_eig.h"
#include "linalg/simd.h"
#include "linalg/tridiag.h"
#include "linalg/vector.h"

namespace astro::pca {

struct UpdateWorkspace {
  /// The fresh directions F, one per row: rows [0, b) are staged by the
  /// caller and overwritten with their residual directions Q.
  linalg::Matrix a;
  linalg::Matrix core;          ///< (k+b) x (k+b) core K
  /// Eigenvectors U_K of K Kᵀ; for a micro-batch it first holds K Kᵀ.
  linalg::Matrix core_u;
  linalg::Vector core_lambda;   ///< eigenvalues of K Kᵀ, descending
  linalg::Vector y;             ///< centered observation x - mu
  /// E^T y; projection coefficients of one pass.  On the per-tuple path it
  /// then holds z = (c, ρ), the core's fresh column.
  linalg::Vector coeffs;
  linalg::Vector poles;         ///< δ_i = K(i,i)², the b = 1 solver's input
  /// Scratch of the row rotation (simd::Kernels::rotate_rows).
  linalg::Vector stage;
  linalg::RankOneEigWorkspace rank_one;  ///< secular scratch (b = 1 core)
  linalg::TridiagWorkspace tridiag;      ///< QL scratch (b > 1 core)
  /// Micro-batch scalar scratch (DESIGN.md "Micro-batching"): one slot per
  /// batched tuple for the history coefficient γ̂_j and the fresh weight of
  /// the tuple's row of `a`.  Sized by ensure()'s `cols` like everything
  /// else, so the b=1 path pays two 1-element vectors and the batched path
  /// is allocation-free at steady state.
  linalg::Vector batch_gammas;
  linalg::Vector batch_weights;

  /// Pre-grows every buffer for a d-dimensional engine whose update has
  /// `cols` = k+b columns — k+1 for the per-tuple path, k+b for a
  /// micro-batch of b observations (`a` gets all `cols` rows, a bound on
  /// the b it stages).  Idempotent and never shrinks, so
  /// calling it again (checkpoint restore, merge install, batch-size
  /// growth) on an already-sized workspace is free once the high-water
  /// shape is reached.
  void ensure(std::size_t d, std::size_t cols) {
    a.resize_no_shrink(cols, d);
    core.resize_no_shrink(cols, cols);
    core_u.resize_no_shrink(cols, cols);
    core_lambda.resize_no_shrink(cols);
    y.resize_no_shrink(d);
    coeffs.resize_no_shrink(cols);
    poles.resize_no_shrink(cols);
    stage.resize_no_shrink(cols * linalg::simd::kRotateStageWidth);
    rank_one.reserve(cols);
    tridiag.reserve(cols);
    batch_gammas.resize_no_shrink(cols);
    batch_weights.resize_no_shrink(cols);
  }
};

}  // namespace astro::pca
