#pragma once

// Continuity corrections for emitted eigensystems — Lippi & Ceccarelli,
// "Incremental PCA: Exact Implementation and Continuity Corrections"
// (1901.07922).  An eigendecomposition is only defined up to per-vector
// sign and, at eigenvalue crossings, up to ordering: two consecutive
// emits of a slowly-drifting covariance can flip a component's sign or
// swap two components whose eigenvalues cross, even though the underlying
// subspace moved infinitesimally.  These helpers restore continuity:
//
//   * apply_sign_convention — deterministic per-column sign: the
//     largest-|entry| coordinate of each column is made positive (ties
//     break to the lowest row index).  Idempotent, and a pure function of
//     the column's direction, so two processes that agree on a basis up
//     to sign agree exactly after applying it — which is what makes ASPC
//     encode/decode round-trips and serve top-k answers sign-stable
//     across restarts.
//
//   * continuity_reorder — crossing-aware ordering: match the new
//     eigenvectors to the previously emitted ones by absolute overlap
//     |<e_new, e_prev>| (globally greedy on the overlap matrix), so a
//     component keeps its slot while its eigenvalue crosses a
//     neighbour's instead of being re-sorted into a different slot.
//
//   * continuity_signs — the 1901.07922 sign correction for consecutive
//     emits: a tracked column is negated when its signed overlap with the
//     same slot of the previous emit is negative.  The deterministic
//     convention alone cannot give emit-to-emit continuity — as a vector
//     rotates, its largest-|entry| coordinate migrates between pixels and
//     the convention flips it at the migration — so engines use this
//     against their previous emit, and the deterministic convention is
//     applied at publication boundaries (merge output, serve publishes)
//     and wherever there is no previous emit to be continuous with.

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "pca/eigensystem.h"

namespace astro::pca {

/// Flip any column of `basis` whose largest-|entry| coordinate is
/// negative.  Idempotent; preserves orthonormality and spans.
void apply_sign_convention(linalg::Matrix& basis) noexcept;

/// The same convention on each eigenvector row of an eigensystem, in place.
void apply_sign_convention(EigenSystem& system) noexcept;

/// Reorder the columns of `vectors` (and the matching entries of
/// `values`) so the leading prev.cols() slots follow the identities of
/// `prev`'s columns: slot k receives the unassigned new column with the
/// largest |overlap| against prev column k, assigned globally greedily
/// (largest overlap anywhere in the matrix first).  Columns left
/// unmatched keep their incoming (descending-eigenvalue) relative order
/// after the tracked block.  `prev` must share vectors' row count;
/// tracked columns beyond vectors.cols() are ignored.
void continuity_reorder(const linalg::Matrix& prev, linalg::Matrix& vectors,
                        linalg::Vector& values);

/// Sign continuity against the previous emit: each of the leading
/// min(prev.cols(), vectors.cols()) columns is negated when its signed
/// overlap with the same slot of `prev` is negative, so consecutive emits
/// never flip.  Columns beyond the tracked block — and a tracked column
/// exactly orthogonal to its predecessor — get the deterministic
/// largest-|entry| convention instead.  `prev` must share vectors' rows.
void continuity_signs(const linalg::Matrix& prev, linalg::Matrix& vectors);

}  // namespace astro::pca
