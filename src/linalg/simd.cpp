#include "linalg/simd.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define ASTRO_SIMD_X86 1
#include <immintrin.h>
#else
#define ASTRO_SIMD_X86 0
#endif

namespace astro::linalg::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier: verbatim the PR 3 hand-unrolled loops.  The vector tiers
// below reproduce these chains lane for lane; keep them in sync.

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  double a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
  std::size_t r = 0;
  for (; r + 8 <= n; r += 8) {
    a0 += a[r] * b[r];
    a1 += a[r + 1] * b[r + 1];
    a2 += a[r + 2] * b[r + 2];
    a3 += a[r + 3] * b[r + 3];
    a4 += a[r + 4] * b[r + 4];
    a5 += a[r + 5] * b[r + 5];
    a6 += a[r + 6] * b[r + 6];
    a7 += a[r + 7] * b[r + 7];
  }
  double tail = 0.0;
  for (; r < n; ++r) tail += a[r] * b[r];
  return (((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))) + tail;
}

void axpy_scalar(double* y, const double* x, double alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void rotate2_scalar(double* x, double* y, double c, double s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// ---------------------------------------------------------------------------
// Row rotation.  A tier supplies kWidth (columns per register), kBlock (the
// most outputs whose accumulators stay in registers through one pass over
// the inputs) and span<B>, which writes outputs [0, B) over the columns
// [r0, r1) to dst + c·stride + (r − r0).  The block is a template argument
// so the accumulator array is fully unrolled into registers; a runtime
// output count would keep it in memory.

// The n = k + b input rows: k at `head`, then b at `tail`, d apart.
struct Rows {
  const double* head;
  std::size_t k;
  const double* tail;
  std::size_t d;
};

using SpanFn = void (*)(const Rows& x, std::size_t n, const double* u,
                        std::size_t ldu, std::size_t r0, std::size_t r1,
                        double* dst, std::size_t stride);

template <class Tier, std::size_t... I>
constexpr std::array<SpanFn, sizeof...(I)> span_table(
    std::index_sequence<I...>) {
  return {&Tier::template span<I + 1>...};
}

// Outputs [0, keep) over the columns [r0, r1), a whole number of
// Tier::kWidth chunks.  One register block stores straight to `out`: in
// each chunk its loads from every input precede its stores, so an output
// row may be its own input row.  A wider rotation goes chunk by chunk
// through `stage`, so no block overwrites an input that a later block of
// the same chunk still reads.
template <class Tier>
void rotate_columns(const Rows& x, std::size_t n, const double* u,
                    std::size_t ldu, std::size_t keep, std::size_t r0,
                    std::size_t r1, double* out, double* stage) {
  static constexpr std::array<SpanFn, Tier::kBlock> kSpans =
      span_table<Tier>(std::make_index_sequence<Tier::kBlock>{});
  if (keep == 0 || r0 == r1) return;
  if (keep <= Tier::kBlock) {
    kSpans[keep - 1](x, n, u, ldu, r0, r1, out + r0, x.d);
    return;
  }
  constexpr std::size_t w = Tier::kWidth;
  for (std::size_t r = r0; r < r1; r += w) {
    for (std::size_t c0 = 0; c0 < keep; c0 += Tier::kBlock) {
      const std::size_t block = std::min(Tier::kBlock, keep - c0);
      kSpans[block - 1](x, n, u + c0, ldu, r, r + w, stage + c0 * w, w);
    }
    for (std::size_t c = 0; c < keep; ++c) {
      std::copy_n(stage + c * w, w, out + c * x.d + r);
    }
  }
}

struct ScalarRotation {
  static constexpr std::size_t kWidth = 1;
  static constexpr std::size_t kBlock = 16;
  template <std::size_t B>
  static void accumulate(double (&acc)[B], double xj, const double* uj) {
#pragma GCC unroll 16
    for (std::size_t c = 0; c < B; ++c) acc[c] += uj[c] * xj;
  }
  template <std::size_t B>
  static void span(const Rows& x, std::size_t n, const double* u,
                   std::size_t ldu, std::size_t r0, std::size_t r1,
                   double* dst, std::size_t stride) {
    for (std::size_t r = r0; r < r1; ++r) {
      double acc[B];
#pragma GCC unroll 16
      for (std::size_t c = 0; c < B; ++c) acc[c] = 0.0;
      for (std::size_t j = 0; j < x.k; ++j) {
        accumulate<B>(acc, x.head[j * x.d + r], u + j * ldu);
      }
      for (std::size_t j = x.k; j < n; ++j) {
        accumulate<B>(acc, x.tail[(j - x.k) * x.d + r], u + j * ldu);
      }
#pragma GCC unroll 16
      for (std::size_t c = 0; c < B; ++c) dst[c * stride + (r - r0)] = acc[c];
    }
  }
};

// The body in Tier's chunks, the remainder columns one at a time by the
// scalar tier, then the zero rows past the input count.
template <class Tier>
void rotate_rows_tier(const double* head, std::size_t k, const double* tail,
                      std::size_t b, const double* u, std::size_t ldu,
                      std::size_t d, double* out, std::size_t m,
                      double* stage) {
  const Rows x{head, k, tail, d};
  const std::size_t n = k + b;
  const std::size_t keep = std::min(m, n);
  const std::size_t body = d - d % Tier::kWidth;
  rotate_columns<Tier>(x, n, u, ldu, keep, 0, body, out, stage);
  rotate_columns<ScalarRotation>(x, n, u, ldu, keep, body, d, out, stage);
  for (std::size_t c = keep; c < m; ++c) std::fill_n(out + c * d, d, 0.0);
}

constexpr Kernels kScalarKernels{dot_scalar, axpy_scalar, rotate2_scalar,
                                 rotate_rows_tier<ScalarRotation>,
                                 Mode::kScalar};

#if ASTRO_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 tier.  Compiled with per-function target attributes so the rest of
// the binary keeps the baseline ISA; only ever called after cpuid says yes.
// No FMA: mul then add, like the scalar code the compiler emits.

__attribute__((target("avx2"))) double dot_avx2(const double* a,
                                                const double* b,
                                                std::size_t n) {
  // acc0 lanes = scalar chains a0..a3, acc1 lanes = chains a4..a7.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t r = 0;
  for (; r + 8 <= n; r += 8) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(a + r + 4),
                                             _mm256_loadu_pd(b + r + 4)));
  }
  alignas(32) double lo[4], hi[4];
  _mm256_store_pd(lo, acc0);
  _mm256_store_pd(hi, acc1);
  double tail = 0.0;
  for (; r < n; ++r) tail += a[r] * b[r];
  return (((lo[0] + lo[1]) + (lo[2] + lo[3])) +
          ((hi[0] + hi[1]) + (hi[2] + hi[3]))) +
         tail;
}

__attribute__((target("avx2"))) void axpy_avx2(double* y, const double* x,
                                               double alpha, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void rotate2_avx2(double* x, double* y,
                                                  double c, double s,
                                                  std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(
        x + i, _mm256_sub_pd(_mm256_mul_pd(vc, xv), _mm256_mul_pd(vs, yv)));
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_mul_pd(vs, xv), _mm256_mul_pd(vc, yv)));
  }
  for (; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

struct Avx2Rotation {
  static constexpr std::size_t kWidth = 4;
  static constexpr std::size_t kBlock = 12;  // + input + broadcast: 14 of 16
  template <std::size_t B>
  __attribute__((target("avx2"), always_inline)) static inline void
  accumulate(__m256d (&acc)[B], const double* xj, const double* uj) {
    const __m256d xv = _mm256_loadu_pd(xj);
#pragma GCC unroll 16
    for (std::size_t c = 0; c < B; ++c) {
      acc[c] = _mm256_add_pd(acc[c], _mm256_mul_pd(_mm256_set1_pd(uj[c]), xv));
    }
  }
  template <std::size_t B>
  __attribute__((target("avx2"))) static void span(
      const Rows& x, std::size_t n, const double* u, std::size_t ldu,
      std::size_t r0, std::size_t r1, double* dst, std::size_t stride) {
    for (std::size_t r = r0; r < r1; r += kWidth) {
      __m256d acc[B];
#pragma GCC unroll 16
      for (std::size_t c = 0; c < B; ++c) acc[c] = _mm256_setzero_pd();
      for (std::size_t j = 0; j < x.k; ++j) {
        accumulate<B>(acc, x.head + j * x.d + r, u + j * ldu);
      }
      for (std::size_t j = x.k; j < n; ++j) {
        accumulate<B>(acc, x.tail + (j - x.k) * x.d + r, u + j * ldu);
      }
#pragma GCC unroll 16
      for (std::size_t c = 0; c < B; ++c) {
        _mm256_storeu_pd(dst + c * stride + (r - r0), acc[c]);
      }
    }
  }
};

constexpr Kernels kAvx2Kernels{dot_avx2, axpy_avx2, rotate2_avx2,
                               rotate_rows_tier<Avx2Rotation>, Mode::kAvx2};

// ---------------------------------------------------------------------------
// AVX-512 tier.  One 8-wide accumulator IS the scalar 8-chain unroll.

__attribute__((target("avx512f"))) double dot_avx512(const double* a,
                                                     const double* b,
                                                     std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  std::size_t r = 0;
  for (; r + 8 <= n; r += 8) {
    acc = _mm512_add_pd(
        acc, _mm512_mul_pd(_mm512_loadu_pd(a + r), _mm512_loadu_pd(b + r)));
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  double tail = 0.0;
  for (; r < n; ++r) tail += a[r] * b[r];
  return (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
          ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))) +
         tail;
}

__attribute__((target("avx512f"))) void axpy_avx512(double* y, const double* x,
                                                    double alpha,
                                                    std::size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                             _mm512_mul_pd(va, _mm512_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx512f"))) void rotate2_avx512(double* x, double* y,
                                                       double c, double s,
                                                       std::size_t n) {
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d vs = _mm512_set1_pd(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d xv = _mm512_loadu_pd(x + i);
    const __m512d yv = _mm512_loadu_pd(y + i);
    _mm512_storeu_pd(
        x + i, _mm512_sub_pd(_mm512_mul_pd(vc, xv), _mm512_mul_pd(vs, yv)));
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_mul_pd(vs, xv), _mm512_mul_pd(vc, yv)));
  }
  for (; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

struct Avx512Rotation {
  static constexpr std::size_t kWidth = 8;
  static constexpr std::size_t kBlock = 16;
  template <std::size_t B>
  __attribute__((target("avx512f"), always_inline)) static inline void
  accumulate(__m512d (&acc)[B], const double* xj, const double* uj) {
    const __m512d xv = _mm512_loadu_pd(xj);
#pragma GCC unroll 16
    for (std::size_t c = 0; c < B; ++c) {
      acc[c] = _mm512_add_pd(acc[c], _mm512_mul_pd(_mm512_set1_pd(uj[c]), xv));
    }
  }
  template <std::size_t B>
  __attribute__((target("avx512f"))) static void span(
      const Rows& x, std::size_t n, const double* u, std::size_t ldu,
      std::size_t r0, std::size_t r1, double* dst, std::size_t stride) {
    for (std::size_t r = r0; r < r1; r += kWidth) {
      __m512d acc[B];
#pragma GCC unroll 16
      for (std::size_t c = 0; c < B; ++c) acc[c] = _mm512_setzero_pd();
      for (std::size_t j = 0; j < x.k; ++j) {
        accumulate<B>(acc, x.head + j * x.d + r, u + j * ldu);
      }
      for (std::size_t j = x.k; j < n; ++j) {
        accumulate<B>(acc, x.tail + (j - x.k) * x.d + r, u + j * ldu);
      }
#pragma GCC unroll 16
      for (std::size_t c = 0; c < B; ++c) {
        _mm512_storeu_pd(dst + c * stride + (r - r0), acc[c]);
      }
    }
  }
};

constexpr Kernels kAvx512Kernels{dot_avx512, axpy_avx512, rotate2_avx512,
                                 rotate_rows_tier<Avx512Rotation>,
                                 Mode::kAvx512};

#endif  // ASTRO_SIMD_X86

std::atomic<const Kernels*> g_active{nullptr};

const Kernels* resolve_startup() noexcept {
  Mode m = detect();
  if (const char* env = std::getenv("ASTRO_SIMD")) {
    if (auto parsed = parse_mode(env)) {
      // Never select a tier the CPU can't run; a bogus override degrades to
      // the detected best rather than crashing on an illegal instruction.
      if (*parsed <= m) m = *parsed;
    }
  }
  const Kernels* table = &kernels_for(m);
  const Kernels* expected = nullptr;
  g_active.compare_exchange_strong(expected, table,
                                   std::memory_order_acq_rel);
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

Mode detect() noexcept {
#if ASTRO_SIMD_X86 && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return Mode::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Mode::kAvx2;
#endif
  return Mode::kScalar;
}

const Kernels& kernels_for(Mode m) noexcept {
#if ASTRO_SIMD_X86
  switch (m) {
    case Mode::kAvx512:
      return kAvx512Kernels;
    case Mode::kAvx2:
      return kAvx2Kernels;
    case Mode::kScalar:
      break;
  }
#else
  (void)m;
#endif
  return kScalarKernels;
}

const Kernels& active() noexcept {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) k = resolve_startup();
  return *k;
}

Mode active_mode() noexcept { return active().mode; }

bool set_mode(Mode m) noexcept {
  if (m > detect()) return false;
  g_active.store(&kernels_for(m), std::memory_order_release);
  return true;
}

std::optional<Mode> parse_mode(std::string_view name) noexcept {
  if (name == "auto") return detect();
  if (name == "scalar") return Mode::kScalar;
  if (name == "avx2") return Mode::kAvx2;
  if (name == "avx512") return Mode::kAvx512;
  return std::nullopt;
}

const char* mode_name(Mode m) noexcept {
  switch (m) {
    case Mode::kAvx512:
      return "avx512";
    case Mode::kAvx2:
      return "avx2";
    case Mode::kScalar:
      break;
  }
  return "scalar";
}

}  // namespace astro::linalg::simd
