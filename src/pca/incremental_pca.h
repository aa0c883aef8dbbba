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
// so U = [E r/ρ] U_K and W = S_K: an O(d p) projection, a small SVD and an
// O(d p²) rotation, with no Jacobi sweep over the d rows.
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
  /// Observations buffered before the eigensystem is initialized by a small
  /// batch decomposition ("the initial set is kept small", §III-C).
  std::size_t init_count = 10;
};

class IncrementalPca {
 public:
  explicit IncrementalPca(const IncrementalPcaConfig& config);

  /// Consume one observation; cheap O(d p²) once initialized.
  void observe(const linalg::Vector& x);

  /// Consume a micro-batch of `n` observations with ONE low-rank update
  /// (DESIGN.md "Micro-batching").  Per-tuple scalar state — the
  /// forgetting sums, the mean recursion and the σ² diagnostic — advances
  /// sequentially exactly as n observe() calls would; only the
  /// eigensystem update is batched, taking the top-p left singular system
  /// of the d x (p+n) matrix
  ///   A = [ E √(G Λ) | y_1 √w_1 | ... | y_n √w_n ],
  /// G = ∏ γ_j and w_j = (1−γ_j) ∏_{i>j} γ_i, which is the eq. (1)-(3)
  /// recursion unrolled WITHOUT the intermediate rank-p truncations.  When
  /// the data lies in the retained subspace the truncations discard
  /// nothing and the batched result equals the sequential one (pinned to
  /// 1e-10 by tests); on general data the batch keeps strictly more of the
  /// update mass than the sequential path.  Tuples still inside the init
  /// phase are buffered individually.
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
  void update(const linalg::Vector& x);

  IncrementalPcaConfig config_;
  EigenSystem system_;
  UpdateWorkspace ws_;
  std::vector<linalg::Vector> init_buffer_;
  bool init_done_ = false;
};

/// Shared helper: the low-rank eigensystem update.  Given the current basis
/// (orthonormal columns) and eigenvalues, blends in direction `y` with
/// weights (γ on history, `fresh_weight` on y yᵀ) — the top-`p` left
/// singular system of the (p+1)-column A matrix, returned through the
/// out-params.
void low_rank_update(const linalg::Matrix& basis,
                     const linalg::Vector& eigenvalues,
                     const linalg::Vector& y, double gamma,
                     double fresh_weight, std::size_t p, linalg::Matrix* e_out,
                     linalg::Vector* lambda_out);

/// Hot-path form: stages y√fresh_weight as the one fresh row of `ws.a` and
/// runs low_rank_update_batch with batch = 1.  The new basis / eigenvalues
/// are written into preallocated `e_out` / `lambda_out` (resized no-shrink,
/// every entry rewritten).  Zero heap allocations at steady state.
/// `e_out` / `lambda_out` MAY alias `basis` / `eigenvalues`.  The pointer
/// overload above is a thin wrapper over this one (temporary workspace),
/// so both paths are bit-identical by construction.  `y` must not live
/// inside `ws`'s own buffers except as `ws.y` (which the update never
/// touches).
void low_rank_update(const linalg::Matrix& basis,
                     const linalg::Vector& eigenvalues,
                     const linalg::Vector& y, double gamma,
                     double fresh_weight, std::size_t p, UpdateWorkspace& ws,
                     linalg::Matrix& e_out, linalg::Vector& lambda_out);

/// The update kernel, for `batch` >= 1 fresh directions: the top-`p` left
/// singular system of A = [ E √(history_scale·Λ) | f_1 | ... | f_b ]
/// (d x (k+b)), without forming A.  It copies E into rows [0, k) of ws.a,
/// CGS2-projects each f_i against E and the residual directions before it
/// (the coefficients fill column k+i of the (k+b) x (k+b) core K, the
/// normalized residual replaces f_i), decomposes K with svd_left_inplace
/// and rotates E_new = [E Q] U_K[:, :p], λ = s².  A residual at rounding
/// level (f_i in the span, zero, or a repeat) gets ρ_i = 0 and a unit
/// direction completing [E Q], so the output stays orthonormal.
/// Caller contract: ws.a is already resized to (k+batch) x d and its rows
/// [k, k+batch) hold the fresh directions, each pre-scaled by the square
/// root of its blended weight (see IncrementalPca::observe_batch for the
/// weight algebra); `history_scale` is the product of the per-tuple history
/// coefficients.  `basis` is read only before any output is written, so
/// `e_out` / `lambda_out` may alias `basis` / `eigenvalues`.  Zero heap
/// allocations once ws has reached this shape.
void low_rank_update_batch(const linalg::Matrix& basis,
                           const linalg::Vector& eigenvalues,
                           double history_scale, std::size_t batch,
                           std::size_t p, UpdateWorkspace& ws,
                           linalg::Matrix& e_out, linalg::Vector& lambda_out);

}  // namespace astro::pca
