#pragma once

// Runtime-dispatched SIMD kernels for the linalg hot loops (DESIGN.md
// "Tuple lifecycle & SIMD dispatch").
//
// The dot/axpy/rotation inner loops in svd.cpp and matrix.cpp, and the
// update kernel's projection and row rotation, dominate the per-tuple
// update cost.  The scalar dot product runs eight independent accumulator
// chains — exactly one AVX-512 lane group — so the vector kernels here are
// not approximations of the scalar code, they are the *same arithmetic*
// laid out across lanes:
//
//   - `dot` accumulates chain i of the scalar 8-chain unroll in lane i
//     (AVX-512: one 8-wide register; AVX2: two 4-wide registers) and
//     reduces in the pinned order (((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)))
//     + tail.  No FMA anywhere — the scalar path compiles to separate
//     mul/add, and fusing would change results in the last ulp.
//   - `axpy` and `rotate2` are element-wise: each output entry depends on
//     its own inputs only, so any vector width produces bit-identical
//     results as long as the per-element expression (again mul/add, no
//     FMA) is preserved.
//   - `rotate_rows` is element-wise too: output (c, r) is 0.0 plus
//     U(j, c)·x_j[r] for j in order, mul then add — a zeroed row followed
//     by one `axpy` per input row.  The tiers differ only in how many
//     columns one register holds and how many outputs share a pass over
//     the inputs.
//
// Consequently every mode is bit-identical to scalar, which the dispatch
// test pins with exact equality — stronger than the 1e-12 contract.
//
// Dispatch: the active table is resolved once on first use from cpuid
// (`__builtin_cpu_supports`), overridable by the ASTRO_SIMD environment
// variable (auto|scalar|avx2|avx512) or programmatically via set_mode().
// `kernels_for()` exposes every compiled-in table so tests and benches can
// compare modes without flipping global state.

#include <cstddef>
#include <optional>
#include <string_view>

namespace astro::linalg::simd {

enum class Mode { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Doubles of `rotate_rows` scratch per output row.
inline constexpr std::size_t kRotateStageWidth = 8;

/// Function-pointer table for one instruction-set tier.  Operands must not
/// overlap (the call sites pass rows/columns of distinct buffers, or
/// disjoint columns of one buffer), except where `rotate_rows` says so.
struct Kernels {
  /// Sum of a[i]*b[i] with the 8-chain unrolled reduction order.
  double (*dot)(const double* a, const double* b, std::size_t n);
  /// y[i] += alpha * x[i]
  void (*axpy)(double* y, const double* x, double alpha, std::size_t n);
  /// In-place plane rotation: x'[i] = c*x[i] - s*y[i]; y'[i] = s*x[i] + c*y[i]
  void (*rotate2)(double* x, double* y, double c, double s, std::size_t n);
  /// Row rotation out = U[:, :m]ᵀ X over rows of d contiguous doubles.
  /// The n = k + b input rows x_j are the k rows at `head` followed by the
  /// b rows at `tail`; U is n x n row-major with leading dimension `ldu`.
  /// For c < min(m, n), out row c = Σ_j U(j, c)·x_j accumulated from 0.0
  /// in j order; rows [n, m) are zeroed.  Output row c (at out + c·d) may
  /// be input row c itself: the kernel blocks over columns and loads a
  /// block from every input before it stores any output of it.  `stage`
  /// holds m·kRotateStageWidth doubles and overlaps nothing.
  void (*rotate_rows)(const double* head, std::size_t k, const double* tail,
                      std::size_t b, const double* u, std::size_t ldu,
                      std::size_t d, double* out, std::size_t m,
                      double* stage);
  Mode mode = Mode::kScalar;
};

/// Best mode the running CPU supports (cpuid probe; scalar off-x86).
[[nodiscard]] Mode detect() noexcept;

/// The dispatch table for `m`.  Falls back to the scalar table when the
/// build has no vector implementation for `m` (non-x86 targets).
[[nodiscard]] const Kernels& kernels_for(Mode m) noexcept;

/// The active table, resolved on first use: ASTRO_SIMD env override if set
/// and supported, else detect().
[[nodiscard]] const Kernels& active() noexcept;

[[nodiscard]] Mode active_mode() noexcept;

/// Switches the active table.  Returns false (and changes nothing) when
/// the CPU does not support `m`.  Not for use while linalg kernels run on
/// other threads — flip it at startup or between pipeline runs.
bool set_mode(Mode m) noexcept;

/// "auto" | "scalar" | "avx2" | "avx512" -> mode ("auto" -> detect()).
[[nodiscard]] std::optional<Mode> parse_mode(std::string_view name) noexcept;

[[nodiscard]] const char* mode_name(Mode m) noexcept;

}  // namespace astro::linalg::simd
