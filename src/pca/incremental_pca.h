#pragma once

// Classic (non-robust) incremental PCA — paper §II, eq. (1)-(3).
//
// Per observation x:
//   y = x − µ
//   C ≈ γ E_p Λ_p E_pᵀ + (1−γ) y yᵀ = A Aᵀ
//   A = [ e_k √(γ λ_k)  |  y √(1−γ) ]          (d x (p+1))
// and the thin SVD A = U W Vᵀ yields the updated eigensystem E = U,
// Λ = W² (truncated back to p columns).  γ comes from the forgetting count
// u = α u_prev + 1:  γ = α u_prev / u, so α = 1 is the classic
// infinite-memory recursion and α = 1 − 1/N a sliding window of N.
//
// A itself is never decomposed (Brand, "Fast low-rank modifications of the
// thin SVD", 2006).  With c = Eᵀy√(1−γ), residual r = y√(1−γ) − Ec and
// ρ = |r|, A = [E r/ρ] K for the (p+1) x (p+1) core
//   K = [ diag(√(γλ))  c ]
//       [ 0            ρ ]
// so U = [E r/ρ] U_K and W = S_K: an O(d p) projection, a small core
// decomposition and an O(d p²) rotation, with no sweep over the d rows.
// K Kᵀ = diag(γλ, 0) + z zᵀ with z = (c, ρ) is diagonal plus rank one, so
// its eigenpairs come from the secular equation in O(p²)
// (linalg/rank_one_eig.h); a micro-batch's wider core goes to Householder
// + QL (linalg/tridiag.h).
//
// There is one update path: observe(x) is a micro-batch of one, and every
// batch stages its weighted fresh rows in the workspace and makes one call
// to low_rank_update_batch, the kernel below, which rotates the
// eigensystem's eigenvector rows in place.  The init batch is the same
// call on an empty eigensystem.
//
// This is both the Figure-1 "classical" baseline (sensitive to outliers)
// and the skeleton the robust variant builds on.

#include <cstddef>
#include <utility>
#include <vector>

#include "pca/eigensystem.h"
#include "pca/update_workspace.h"

namespace astro::pca {

struct IncrementalPcaConfig {
  std::size_t dim = 0;     ///< data dimensionality d
  std::size_t rank = 5;    ///< retained components p
  double alpha = 1.0;      ///< forgetting factor (1 = infinite memory)
  /// Observations buffered before the eigensystem is initialized by one
  /// batch update of an empty eigensystem ("the initial set is kept
  /// small", §III-C).
  std::size_t init_count = 10;
};

class IncrementalPca {
 public:
  explicit IncrementalPca(const IncrementalPcaConfig& config);

  /// Consume one observation: a micro-batch of one, O(d p²) once
  /// initialized.
  void observe(const linalg::Vector& x);

  /// Consume a micro-batch of `n` observations with ONE low-rank update
  /// (DESIGN.md "Micro-batching").  Per-tuple scalar state — the
  /// forgetting sums, the mean recursion and the σ² diagnostic — advances
  /// tuple by tuple; only the eigensystem update is batched, taking the
  /// top-p left singular system of the d x (p+n) matrix
  ///   A = [ E √(G Λ) | y_1 √w_1 | ... | y_n √w_n ],
  /// G = ∏ γ_j and w_j = (1−γ_j) ∏_{i>j} γ_i, which is the eq. (1)-(3)
  /// recursion unrolled WITHOUT the intermediate rank-p truncations.  When
  /// the data lies in the retained subspace the truncations discard
  /// nothing and the batched result equals the sequential one (pinned to
  /// 1e-10 by tests); on general data the batch keeps strictly more of the
  /// update mass than the sequential path.  Tuples still inside the init
  /// phase are buffered individually.  Every tuple's length is checked
  /// before any state moves.
  void observe_batch(const linalg::Vector* const* xs, std::size_t n);
  void observe_batch(const std::vector<linalg::Vector>& xs);

  /// The current estimate.  Valid (non-empty basis) once `initialized()`.
  [[nodiscard]] const EigenSystem& eigensystem() const noexcept {
    return system_;
  }
  [[nodiscard]] bool initialized() const noexcept { return init_done_; }
  [[nodiscard]] const IncrementalPcaConfig& config() const noexcept {
    return config_;
  }

  /// Replace the state wholesale (synchronization installs merged systems).
  void set_eigensystem(EigenSystem system);

  /// Workspace recycling (windowed bucket rolls, crash-recovery engine
  /// reincarnation): steal this engine's scratch, or install an
  /// already-grown one.  The adopted workspace is re-ensured to this
  /// engine's shape on the next init/install, so a mismatched donor only
  /// costs a one-time grow, never correctness.
  [[nodiscard]] UpdateWorkspace take_workspace() noexcept {
    return std::move(ws_);
  }
  void adopt_workspace(UpdateWorkspace ws) noexcept { ws_ = std::move(ws); }

 private:
  void initialize_from_buffer();

  IncrementalPcaConfig config_;
  EigenSystem system_;
  UpdateWorkspace ws_;
  std::vector<linalg::Vector> init_buffer_;
  bool init_done_ = false;
};

/// The update kernel, and the only place a streaming eigensystem is
/// decomposed: the top-`p` left singular system of
/// A = [ E √(history_scale·Λ) | f_1 | ... | f_b ] (d x (k+b)), without
/// forming A.  Tuples and micro-batches, merges (pca/merge.h: system 0 is
/// E, the others' scaled eigenvectors and the mean corrections are the
/// f_i) and the init batch (k = 0, an empty eigensystem) all call it.  E
/// is read where it lives, as the k eigenvector rows of `vectors`
/// (EigenSystem::vectors()).  Each f_i is CGS2-projected against E and the
/// residual directions before it (the coefficients fill column k+i of the
/// upper-triangular (k+b) x (k+b) core K, the normalized residual replaces
/// f_i); the eigensystem of K Kᵀ is taken — for batch = 1 as diagonal plus
/// rank one (linalg::rank_one_eig), otherwise by Householder + QL
/// (linalg::eig_sym_tridiag) with each λ recomputed as the Rayleigh
/// quotient ‖Kᵀu‖² on K — and E_new = [E Q] U_K[:, :p] is one blocked row
/// rotation (simd::Kernels::rotate_rows).  A residual at rounding level
/// (f_i in the span, zero, or a repeat) gets ρ_i = 0 and a unit direction
/// completing [E Q], so the output stays orthonormal; once [E Q] spans R^d
/// there is nothing left to complete and the row stays zero, an exact null
/// direction of K Kᵀ.
/// Caller contract: rows [0, batch) of ws.a (d columns) hold the fresh
/// directions, each pre-scaled by the square root of its blended weight
/// (see IncrementalPca::observe_batch for the weight algebra);
/// `history_scale` is the product of the per-tuple history coefficients.
/// `e_out` receives the p x d eigenvector rows and may be `vectors` itself
/// when k == p (the rotation writes each row over its own input row);
/// `lambda_out` may be `eigenvalues`.  Zero heap allocations once ws has
/// reached this shape.
void low_rank_update_batch(const linalg::Matrix& vectors,
                           const linalg::Vector& eigenvalues,
                           double history_scale, std::size_t batch,
                           std::size_t p, UpdateWorkspace& ws,
                           linalg::Matrix& e_out, linalg::Vector& lambda_out);

}  // namespace astro::pca
