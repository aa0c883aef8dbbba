// The secular-equation solver for diag(δ) + z zᵀ, pinned against two
// references built here: eig_sym of the explicit symmetric matrix and,
// for the per-tuple core shape (last pole 0), svd_left of the core
// K = [diag(√δ) | z] itself, whose squared singular values are the same
// eigenvalues.  Every case runs over 20 seeds and n ∈ {2, 6, 11, 21} and
// checks eigenvalues to 1e-12·μ_max, orthonormality to 1e-13·n and the
// residual ‖(D + zzᵀ)u − μu‖ to 1e-12·μ_max per column.  The edge cases
// are the ones deflation exists for: vanished weights, equal and nearly
// equal poles, a zero tail beside the zero slot, extreme weight scales and
// a wide pole range.

#include "linalg/rank_one_eig.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "linalg/eigen_sym.h"
#include "linalg/svd.h"
#include "stats/rng.h"

namespace astro::linalg {
namespace {

using astro::stats::Rng;

enum class Case {
  kCore,           // γλ decaying, last pole 0: the per-tuple core
  kOneZeroWeight,  // one z_j = 0
  kAllZeroWeights,
  kEqualPoles,
  kZeroTail,       // λ = 0 tail beside the zero slot
  kClosePoles,     // two poles 1e-13 apart in relative terms
  kHeavyWeight,    // ‖z‖² = 1e6·δ_max
  kLightWeight,    // ‖z‖² = 1e-6·δ_min, every pole positive
  kWideRange,      // poles over 8 decades, plus the zero slot
};

const char* name(Case c) {
  switch (c) {
    case Case::kCore: return "core";
    case Case::kOneZeroWeight: return "one zero weight";
    case Case::kAllZeroWeights: return "all zero weights";
    case Case::kEqualPoles: return "equal poles";
    case Case::kZeroTail: return "zero tail";
    case Case::kClosePoles: return "close poles";
    case Case::kHeavyWeight: return "heavy weight";
    case Case::kLightWeight: return "light weight";
    case Case::kWideRange: return "wide range";
  }
  return "?";
}

struct Problem {
  std::vector<double> delta, z;
  bool core_shape = false;  // delta.back() == 0, so K = [diag(√δ) | z]
};

double squared_norm(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return s;
}

void scale_to(std::vector<double>& z, double norm2) {
  const double s = std::sqrt(norm2 / squared_norm(z));
  for (double& x : z) x *= s;
}

Problem make_problem(Case c, std::uint64_t seed, std::size_t n) {
  Rng rng(seed * 1000 + n);
  Problem pr;
  pr.delta.assign(n, 0.0);
  pr.z.assign(n, 0.0);
  const double gamma = 0.999;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    pr.delta[i] = gamma * (2.0 / double(i + 1) + 0.05 * rng.uniform());
  }
  for (double& x : pr.z) x = 0.3 * rng.gaussian();
  switch (c) {
    case Case::kCore:
      break;
    case Case::kOneZeroWeight:
      pr.z[n / 2] = 0.0;
      break;
    case Case::kAllZeroWeights:
      std::fill(pr.z.begin(), pr.z.end(), 0.0);
      break;
    case Case::kEqualPoles:
      pr.delta[1] = pr.delta[0];
      break;
    case Case::kZeroTail:
      // Odd seeds: the tail's basis columns are zero, so are their
      // coefficients.  Even seeds: repeated zero poles with weight.
      for (std::size_t i = n / 2; i < n; ++i) {
        pr.delta[i] = 0.0;
        if (seed % 2 == 1 && i + 1 < n) pr.z[i] = 0.0;
      }
      break;
    case Case::kClosePoles:
      pr.delta[1] = pr.delta[0] * (1.0 + 1e-13);
      break;
    case Case::kHeavyWeight:
      scale_to(pr.z, 1e6 * pr.delta[0]);
      break;
    case Case::kLightWeight: {
      for (double& x : pr.delta) x = 1.0 + rng.uniform();
      const double dmin = *std::min_element(pr.delta.begin(), pr.delta.end());
      scale_to(pr.z, 1e-6 * dmin);
      break;
    }
    case Case::kWideRange:
      for (std::size_t i = 0; i + 1 < n; ++i) {
        const double t = n > 2 ? double(i) / double(n - 2) : 0.0;
        pr.delta[i] = std::pow(10.0, -8.0 * t) * (1.0 + 0.1 * rng.uniform());
      }
      break;
  }
  pr.core_shape = pr.delta.back() == 0.0;
  return pr;
}

Matrix explicit_matrix(const Problem& pr) {
  const std::size_t n = pr.delta.size();
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = pr.z[r] * pr.z[c];
    a(r, r) += pr.delta[r];
  }
  return a;
}

Matrix explicit_core(const Problem& pr) {
  const std::size_t n = pr.delta.size();
  Matrix k(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) k(i, i) = std::sqrt(pr.delta[i]);
  for (std::size_t i = 0; i < n; ++i) k(i, n - 1) = pr.z[i];
  return k;
}

void expect_solves(const Problem& pr, const std::string& what) {
  const std::size_t n = pr.delta.size();
  RankOneEigWorkspace ws;
  Matrix u;
  Vector mu;
  rank_one_eig(pr.delta.data(), pr.z.data(), n, ws, u, mu);
  ASSERT_EQ(u.rows(), n) << what;
  ASSERT_EQ(u.cols(), n) << what;
  ASSERT_EQ(mu.size(), n) << what;

  const Matrix a = explicit_matrix(pr);
  const EigResult ref = eig_sym(a);
  const double top = std::max(ref.values[0], 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    EXPECT_NEAR(mu[c], ref.values[c], 1e-12 * top) << what << " mu[" << c
                                                   << "]";
    if (c > 0) {
      EXPECT_GE(mu[c - 1], mu[c]) << what << " order at " << c;
    }
  }
  if (pr.core_shape) {
    const ThinUResult svd = svd_left(explicit_core(pr));
    for (std::size_t c = 0; c < n; ++c) {
      const double s2 = svd.singular_values[c] * svd.singular_values[c];
      EXPECT_NEAR(mu[c], s2, 1e-12 * top) << what << " vs svd " << c;
    }
  }
  EXPECT_LT(orthonormality_error(u), 1e-13 * double(n)) << what;
  for (std::size_t c = 0; c < n; ++c) {
    double residual2 = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      double au = 0.0;
      for (std::size_t j = 0; j < n; ++j) au += a(r, j) * u(j, c);
      const double e = au - mu[c] * u(r, c);
      residual2 += e * e;
    }
    EXPECT_LE(std::sqrt(residual2), 1e-12 * top) << what << " column " << c;
    // Separated eigenvalues pin their vector up to sign.
    const double gap =
        std::min(c == 0 ? top : ref.values[c - 1] - ref.values[c],
                 c + 1 == n ? top : ref.values[c] - ref.values[c + 1]);
    if (gap < 1e-3 * top) continue;
    double cos = 0.0;
    for (std::size_t r = 0; r < n; ++r) cos += u(r, c) * ref.vectors(r, c);
    EXPECT_GE(std::abs(cos), 1.0 - 1e-10) << what << " column " << c;
  }
}

void run_case(Case c) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (std::size_t n : {2, 6, 11, 21}) {
      expect_solves(make_problem(c, seed, n),
                    std::string(name(c)) + " seed " + std::to_string(seed) +
                        " n=" + std::to_string(n));
    }
  }
}

TEST(RankOneEig, MatchesExplicitReferencesOnCoreShape) { run_case(Case::kCore); }
TEST(RankOneEig, OneZeroWeight) { run_case(Case::kOneZeroWeight); }
TEST(RankOneEig, AllZeroWeights) { run_case(Case::kAllZeroWeights); }
TEST(RankOneEig, EqualPoles) { run_case(Case::kEqualPoles); }
TEST(RankOneEig, ZeroTailBesideZeroSlot) { run_case(Case::kZeroTail); }
TEST(RankOneEig, PolesOneEMinus13Apart) { run_case(Case::kClosePoles); }
TEST(RankOneEig, WeightFarAboveLargestPole) { run_case(Case::kHeavyWeight); }
TEST(RankOneEig, WeightFarBelowSmallestPole) { run_case(Case::kLightWeight); }
TEST(RankOneEig, EightDecadesOfPoles) { run_case(Case::kWideRange); }

TEST(RankOneEig, AllZeroWeightsReturnSortedPolesAndAxes) {
  const std::vector<double> delta{0.5, 3.0, 0.0, 1.0};
  const std::vector<double> z(4, 0.0);
  RankOneEigWorkspace ws;
  Matrix u;
  Vector mu;
  rank_one_eig(delta.data(), z.data(), 4, ws, u, mu);
  EXPECT_EQ(mu, (Vector{3.0, 1.0, 0.5, 0.0}));
  const std::size_t axis[] = {1, 3, 0, 2};
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(u(r, c), r == axis[c] ? 1.0 : 0.0) << r << "," << c;
    }
  }
}

TEST(RankOneEig, ReusedWorkspaceMatchesFreshAcrossShapes) {
  // The workspace carries capacity, never state: a call after a larger
  // one equals a call on a fresh workspace, bit for bit.
  RankOneEigWorkspace shared;
  Matrix u_shared;
  Vector mu_shared;
  for (std::size_t n : {21, 6, 11, 2, 21}) {
    const Problem pr = make_problem(Case::kEqualPoles, 7, n);
    rank_one_eig(pr.delta.data(), pr.z.data(), n, shared, u_shared,
                 mu_shared);
    RankOneEigWorkspace fresh;
    Matrix u;
    Vector mu;
    rank_one_eig(pr.delta.data(), pr.z.data(), n, fresh, u, mu);
    EXPECT_EQ(u_shared, u) << "n=" << n;
    EXPECT_EQ(mu_shared, mu) << "n=" << n;
  }
}

}  // namespace
}  // namespace astro::linalg
