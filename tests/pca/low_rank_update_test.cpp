// The projection kernel behind low_rank_update / low_rank_update_batch,
// pinned against a reference built here: the d x (k+b) matrix
//   A = [ E sqrt(h Λ) | F ]
// assembled explicitly and decomposed with svd_left.  The kernel never
// forms A — it projects F onto E, orthonormalizes the residual block and
// decomposes the (k+b) x (k+b) core — so agreement here is agreement with
// the paper's eq. (1)-(3) update.  Also pinned: the edge cases where a
// residual vanishes, bit-identity across the SIMD tiers, and basis drift
// over a long stream with no periodic re-orthonormalization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/qr.h"
#include "linalg/simd.h"
#include "linalg/svd.h"
#include "pca/incremental_pca.h"
#include "pca/robust_pca.h"
#include "stats/rng.h"
#include "test_data.h"

namespace astro::pca {
namespace {

using linalg::Matrix;
using linalg::Vector;
using stats::Rng;
namespace simd = linalg::simd;

enum class Edge { kNone, kInSpan, kZeroColumn, kDuplicateColumns };

struct Problem {
  Matrix basis;  // d x k, orthonormal
  Vector lambda;
  Matrix fresh;  // d x b, already weighted
  double history = 0.93;
};

Problem make_problem(std::uint64_t seed, std::size_t d, std::size_t k,
                     std::size_t b, Edge edge) {
  Rng rng(seed);
  Problem pr;
  pr.basis = rng.gaussian_matrix(d, k);
  linalg::orthonormalize_columns(pr.basis);
  pr.lambda = Vector(k);
  for (std::size_t c = 0; c < k; ++c) {
    pr.lambda[c] = 2.0 / double(c + 1) + 0.05 * rng.uniform();
  }
  pr.fresh = rng.gaussian_matrix(d, b);
  for (std::size_t i = 0; i < b; ++i) {
    const double w = 0.05 + 0.1 * rng.uniform();
    for (std::size_t r = 0; r < d; ++r) pr.fresh(r, i) *= std::sqrt(w);
  }
  switch (edge) {
    case Edge::kNone:
      break;
    case Edge::kInSpan: {  // column 0 = E c, so its residual ρ is 0
      const Vector c = rng.gaussian_vector(k);
      pr.fresh.set_col(0, pr.basis * c * 0.3);
      break;
    }
    case Edge::kZeroColumn:  // a rejected slot of the robust batch
      pr.fresh.set_col(b / 2, Vector(d));
      break;
    case Edge::kDuplicateColumns:
      pr.fresh.set_col(b - 1, pr.fresh.col(0));
      break;
  }
  return pr;
}

struct Update {
  Matrix basis;
  Vector lambda;
};

Update run_kernel(const Problem& pr, std::size_t p) {
  const std::size_t d = pr.basis.rows();
  const std::size_t k = pr.lambda.size();
  const std::size_t b = pr.fresh.cols();
  UpdateWorkspace ws;
  Update out;
  if (b == 1) {
    // The per-tuple entry point takes y and its weight separately.
    low_rank_update(pr.basis, pr.lambda, pr.fresh.col(0), pr.history, 1.0, p,
                    ws, out.basis, out.lambda);
    return out;
  }
  ws.ensure(d, k + b);
  ws.a.resize_no_shrink(k + b, d);
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t r = 0; r < d; ++r) ws.a(k + i, r) = pr.fresh(r, i);
  }
  low_rank_update_batch(pr.basis, pr.lambda, pr.history, b, p, ws, out.basis,
                        out.lambda);
  return out;
}

linalg::ThinUResult run_reference(const Problem& pr) {
  const std::size_t d = pr.basis.rows();
  const std::size_t k = pr.lambda.size();
  const std::size_t b = pr.fresh.cols();
  Matrix a(d, k + b);
  for (std::size_t c = 0; c < k; ++c) {
    const double s = std::sqrt(pr.history * pr.lambda[c]);
    for (std::size_t r = 0; r < d; ++r) a(r, c) = pr.basis(r, c) * s;
  }
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t r = 0; r < d; ++r) a(r, k + i) = pr.fresh(r, i);
  }
  return linalg::svd_left(a);
}

Matrix leading_columns(const Matrix& m, std::size_t n) {
  Matrix out(m.rows(), n);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < n; ++c) out(r, c) = m(r, c);
  }
  return out;
}

// Eigenvalues to 1e-10 relative (relative to the largest for the ones at
// rounding level), |cos| >= 1 - 1e-10 per column whose eigenvalue is
// separated from both neighbours, orthonormal output columns, and an exact
// zero tail when p exceeds the k+b columns available.
void expect_matches_reference(const Problem& pr, std::size_t p,
                              const std::string& what) {
  const Update got = run_kernel(pr, p);
  const linalg::ThinUResult ref = run_reference(pr);
  const std::size_t n = ref.singular_values.size();
  const std::size_t keep = std::min(p, n);
  ASSERT_EQ(got.basis.rows(), pr.basis.rows()) << what;
  ASSERT_EQ(got.basis.cols(), p) << what;
  ASSERT_EQ(got.lambda.size(), p) << what;

  std::vector<double> ref_lambda(n);
  for (std::size_t c = 0; c < n; ++c) {
    ref_lambda[c] = ref.singular_values[c] * ref.singular_values[c];
  }
  const double top = ref_lambda[0];
  for (std::size_t c = 0; c < keep; ++c) {
    EXPECT_NEAR(got.lambda[c], ref_lambda[c],
                1e-10 * std::max(ref_lambda[c], 1e-6 * top))
        << what << " lambda[" << c << "]";
    const double gap = std::min(
        c == 0 ? top : ref_lambda[c - 1] - ref_lambda[c],
        c + 1 == n ? ref_lambda[c] : ref_lambda[c] - ref_lambda[c + 1]);
    if (gap < 1e-3 * top || ref_lambda[c] < 1e-6 * top) continue;
    double cos = 0.0;
    for (std::size_t r = 0; r < pr.basis.rows(); ++r) {
      cos += got.basis(r, c) * ref.u(r, c);
    }
    EXPECT_GE(std::abs(cos), 1.0 - 1e-10) << what << " column " << c;
  }
  EXPECT_LT(linalg::orthonormality_error(leading_columns(got.basis, keep)),
            1e-12)
      << what;
  for (std::size_t c = keep; c < p; ++c) {
    EXPECT_EQ(got.lambda[c], 0.0) << what;
    for (std::size_t r = 0; r < pr.basis.rows(); ++r) {
      EXPECT_EQ(got.basis(r, c), 0.0) << what;
    }
  }
}

std::string label(std::uint64_t seed, std::size_t d, std::size_t k,
                  std::size_t b, std::size_t p) {
  return "seed " + std::to_string(seed) + " d=" + std::to_string(d) +
         " k=" + std::to_string(k) + " b=" + std::to_string(b) +
         " p=" + std::to_string(p);
}

TEST(LowRankKernel, MatchesExplicitSvdOfA) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (std::size_t d : {12, 64, 250}) {
      for (std::size_t b : {1, 3, 8}) {
        const std::size_t k = 3 + std::size_t(seed) % 8;
        const Problem pr = make_problem(seed, d, k, b, Edge::kNone);
        expect_matches_reference(pr, k, label(seed, d, k, b, k));
      }
    }
  }
}

// The edge cases keep every column the update has (p = k+b, capped at d),
// so the direction completing a vanished residual reaches the output,
// where it must still be orthonormal to the rest.
TEST(LowRankKernel, FreshColumnInSpanOfBasis) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (std::size_t d : {12, 64, 250}) {
      for (std::size_t b : {1, 3, 8}) {
        const std::size_t k = 2 + std::size_t(seed) % 4;
        const std::size_t p = std::min(k + b, d);
        const Problem pr = make_problem(seed, d, k, b, Edge::kInSpan);
        expect_matches_reference(pr, p, label(seed, d, k, b, p) + " in-span");
      }
    }
  }
}

TEST(LowRankKernel, ZeroedFreshColumn) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (std::size_t d : {12, 64, 250}) {
      for (std::size_t b : {1, 3, 8}) {
        const std::size_t k = 2 + std::size_t(seed) % 4;
        const std::size_t p = std::min(k + b, d);
        const Problem pr = make_problem(seed, d, k, b, Edge::kZeroColumn);
        expect_matches_reference(pr, p, label(seed, d, k, b, p) + " zeroed");
      }
    }
  }
}

TEST(LowRankKernel, IdenticalFreshColumns) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (std::size_t d : {12, 64, 250}) {
      for (std::size_t b : {3, 8}) {
        const std::size_t k = 2 + std::size_t(seed) % 4;
        const std::size_t p = std::min(k + b, d);
        const Problem pr =
            make_problem(seed, d, k, b, Edge::kDuplicateColumns);
        expect_matches_reference(pr, p,
                                 label(seed, d, k, b, p) + " duplicate");
      }
    }
  }
}

TEST(LowRankKernel, RankBeyondColumnsZeroPadsTail) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (std::size_t d : {12, 64, 250}) {
      for (std::size_t b : {1, 3}) {
        const std::size_t k = 2;
        const std::size_t p = k + b + 3;
        const Problem pr = make_problem(seed, d, k, b, Edge::kNone);
        expect_matches_reference(pr, p, label(seed, d, k, b, p) + " padded");
      }
    }
  }
}

TEST(LowRankKernel, CompletesWhenNoAxisKeepsHalfItsLength) {
  // E spans the complement of the all-ones direction, so every coordinate
  // axis keeps only 1/sqrt(d) of its length against E.  A fresh column in
  // the span then needs that direction as its completion.
  const std::size_t d = 12;
  const std::size_t k = d - 1;
  Rng rng(77);
  Problem pr;
  pr.basis = rng.gaussian_matrix(d, k);
  for (std::size_t c = 0; c < k; ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < d; ++r) mean += pr.basis(r, c) / double(d);
    for (std::size_t r = 0; r < d; ++r) pr.basis(r, c) -= mean;
  }
  linalg::orthonormalize_columns(pr.basis);
  pr.lambda = Vector(k);
  for (std::size_t c = 0; c < k; ++c) pr.lambda[c] = 2.0 / double(c + 1);
  pr.fresh = Matrix(d, 1);
  pr.fresh.set_col(0, pr.basis * rng.gaussian_vector(k) * 0.2);
  expect_matches_reference(pr, d, "ones complement");
  const Update got = run_kernel(pr, d);
  double along_ones = 0.0;
  for (std::size_t r = 0; r < d; ++r) along_ones += got.basis(r, d - 1);
  EXPECT_NEAR(std::abs(along_ones), std::sqrt(double(d)), 1e-12);
}

TEST(LowRankKernel, AliasedOutputsMatchBatchEntryPoint) {
  // The engines pass their own basis/eigenvalues as the outputs.
  const Problem pr = make_problem(5, 64, 6, 3, Edge::kNone);
  const Update ref = run_kernel(pr, 6);
  UpdateWorkspace ws;
  ws.ensure(64, 9);
  ws.a.resize_no_shrink(9, 64);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t r = 0; r < 64; ++r) ws.a(6 + i, r) = pr.fresh(r, i);
  }
  Matrix basis = pr.basis;
  Vector lambda = pr.lambda;
  low_rank_update_batch(basis, lambda, pr.history, 3, 6, ws, basis, lambda);
  EXPECT_EQ(basis, ref.basis);
  EXPECT_EQ(lambda, ref.lambda);
}

// Every floating-point operation of the kernel goes through the dispatched
// dot/axpy/rotation kernels or mode-independent scalar code, so each tier
// must reproduce the scalar result bit for bit.
TEST(LowRankKernel, BitIdenticalAcrossSimdModes) {
  std::vector<simd::Mode> modes;
  const simd::Mode best = simd::detect();
  if (best >= simd::Mode::kAvx2) modes.push_back(simd::Mode::kAvx2);
  if (best >= simd::Mode::kAvx512) modes.push_back(simd::Mode::kAvx512);

  for (std::size_t d : {12, 64, 250}) {
    for (std::size_t b : {1, 3, 8}) {
      for (Edge edge : {Edge::kNone, Edge::kInSpan, Edge::kZeroColumn}) {
        const Problem pr = make_problem(d * 31 + b, d, 7, b, edge);
        ASSERT_TRUE(simd::set_mode(simd::Mode::kScalar));
        const Update scalar = run_kernel(pr, 7);
        for (simd::Mode m : modes) {
          ASSERT_TRUE(simd::set_mode(m));
          const Update vec = run_kernel(pr, 7);
          EXPECT_EQ(vec.basis, scalar.basis)
              << simd::mode_name(m) << " d=" << d << " b=" << b;
          EXPECT_EQ(vec.lambda, scalar.lambda)
              << simd::mode_name(m) << " d=" << d << " b=" << b;
        }
      }
    }
  }
  ASSERT_TRUE(simd::set_mode(simd::detect()));
}

// The kernel rotates the stored basis instead of rebuilding it from a
// fresh decomposition, so the basis inherits its own rounding from tuple
// to tuple.  Over 50 000 robust updates with the periodic QR switched off,
// the drift must stay orders of magnitude below the health watchdog's
// 1e-4 max_basis_drift — which is what lets the default re-orthonormalize
// only every 4096 updates.  Each update adds at most the core SVD's
// stopping tolerance (1e-14); the stream ends near 7.5e-13.  The 1e-11
// bound leaves a factor of ten above that and would catch the core run at
// the Jacobi default of 1e-12, which drifts to 7.3e-11 here.
TEST(LowRankKernel, DriftStaysFarBelowWatchdogWithoutReorthonormalization) {
  Rng rng(2024);
  const auto model = testing::make_model(rng, 64, 5);
  RobustPcaConfig cfg;
  cfg.dim = 64;
  cfg.rank = 5;
  cfg.alpha = 1.0 - 1.0 / 2000.0;
  cfg.reorthonormalize_every = 0;
  RobustIncrementalPca pca(cfg);
  for (std::size_t i = 0; i < 50000; ++i) {
    pca.observe(i % 97 == 0 ? testing::draw_outlier(model, rng)
                            : testing::draw(model, rng));
  }
  const double drift =
      linalg::orthonormality_error(pca.eigensystem().basis());
  EXPECT_LT(drift, 1e-11);
}

}  // namespace
}  // namespace astro::pca
