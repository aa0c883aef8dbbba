#include "linalg/tridiag.h"

#include <gtest/gtest.h>

#include "linalg/eigen_sym.h"
#include "linalg/rank_one_eig.h"
#include "stats/rng.h"

namespace astro::linalg {
namespace {

using astro::stats::Rng;

Matrix random_symmetric(Rng& rng, std::size_t n) {
  Matrix g = rng.gaussian_matrix(n, n);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = 0.5 * (g(i, j) + g(j, i));
  }
  return a;
}

EigResult solve(const Matrix& a) {
  TridiagWorkspace ws;
  EigResult r;
  eig_sym_tridiag(a, ws, r.vectors, r.values);
  return r;
}

TEST(Tridiag, HouseholderPreservesSpectrumStructure) {
  Rng rng(61);
  const Matrix a = random_symmetric(rng, 10);
  const EigResult r = solve(a);
  // V is orthogonal and V diag(w) Vᵀ reconstructs a.
  EXPECT_LT(orthonormality_error(r.vectors), 1e-10);
  Matrix w(10, 10);
  for (std::size_t i = 0; i < 10; ++i) w(i, i) = r.values[i];
  EXPECT_TRUE(approx_equal(r.vectors * w * r.vectors.transpose(), a, 1e-9));
}

TEST(Tridiag, NonSquareThrows) {
  TridiagWorkspace ws;
  Matrix v;
  Vector w;
  EXPECT_THROW(eig_sym_tridiag(Matrix(2, 3), ws, v, w), std::invalid_argument);
}

TEST(Tridiag, MatchesJacobiEigenvalues) {
  Rng rng(67);
  const Matrix a = random_symmetric(rng, 24);
  const EigResult jacobi = eig_sym(a);
  const EigResult ql = solve(a);
  for (std::size_t k = 0; k < 24; ++k) {
    EXPECT_NEAR(ql.values[k], jacobi.values[k],
                1e-9 * std::max(1.0, std::abs(jacobi.values[k])));
  }
}

TEST(Tridiag, EigenvectorsSatisfyDefinition) {
  Rng rng(71);
  const Matrix a = random_symmetric(rng, 30);
  const EigResult r = solve(a);
  EXPECT_LT(orthonormality_error(r.vectors), 1e-9);
  for (std::size_t k = 0; k < 30; ++k) {
    const Vector v = r.vectors.col(k);
    EXPECT_TRUE(approx_equal(a * v, v * r.values[k], 1e-8));
  }
}

TEST(Tridiag, SortedDescending) {
  Rng rng(73);
  const Matrix a = random_symmetric(rng, 15);
  const EigResult r = solve(a);
  for (std::size_t k = 1; k < 15; ++k) {
    EXPECT_GE(r.values[k - 1], r.values[k]);
  }
}

TEST(Tridiag, TrivialSizes) {
  const EigResult r0 = solve(Matrix(0, 0));
  EXPECT_EQ(r0.values.size(), 0u);

  Matrix one{{3.0}};
  const EigResult r1 = solve(one);
  EXPECT_DOUBLE_EQ(r1.values[0], 3.0);
  EXPECT_DOUBLE_EQ(r1.vectors(0, 0), 1.0);

  Matrix two{{2.0, 1.0}, {1.0, 2.0}};
  const EigResult r2 = solve(two);
  EXPECT_NEAR(r2.values[0], 3.0, 1e-12);
  EXPECT_NEAR(r2.values[1], 1.0, 1e-12);
}

TEST(Tridiag, AlreadyDiagonal) {
  Matrix a(5, 5);
  for (std::size_t i = 0; i < 5; ++i) a(i, i) = double(i + 1);
  const EigResult r = solve(a);
  EXPECT_NEAR(r.values[0], 5.0, 1e-12);
  EXPECT_NEAR(r.values[4], 1.0, 1e-12);
}

TEST(Tridiag, DegenerateEigenvaluesHandled) {
  // Identity: all eigenvalues 1, any orthonormal basis is valid.
  const EigResult r = solve(Matrix::identity(8));
  for (std::size_t k = 0; k < 8; ++k) EXPECT_NEAR(r.values[k], 1.0, 1e-12);
  EXPECT_LT(orthonormality_error(r.vectors), 1e-10);
}

// Trailing zero rows and columns are what a core's residual directions
// leave once its earlier rows span R^d (merges and init batches with more
// columns than dimensions).  Householder reduces bottom-up, so each one is
// split off untouched: the eigenvalue comes back as exactly 0.0 and its
// vector as exactly the coordinate axis.
TEST(Tridiag, ZeroRowGivesExactZeroEigenvalue) {
  const Matrix a{{4.0, 1.0, 2.0, 0.0, 0.0},
                 {1.0, 3.0, 0.5, 0.0, 0.0},
                 {2.0, 0.5, 5.0, 0.0, 0.0},
                 {0.0, 0.0, 0.0, 0.0, 0.0},
                 {0.0, 0.0, 0.0, 0.0, 0.0}};
  const EigResult r = solve(a);
  EXPECT_GT(r.values[2], 1.0);
  for (std::size_t c = 3; c < 5; ++c) {
    EXPECT_EQ(r.values[c], 0.0) << c;
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(r.vectors(i, c), 0.0) << c;
    EXPECT_EQ(std::abs(r.vectors(3, c)) + std::abs(r.vectors(4, c)), 1.0)
        << c;
  }
}

// The update kernel dispatches a b = 1 core (diagonal plus rank one) to
// the secular solver and wider cores to this one: on the b = 1 shape the
// two must agree with each other and with Jacobi.
TEST(Tridiag, AutoDispatchAgreesWithBoth) {
  Rng rng(79);
  const std::size_t n = 12;
  std::vector<double> delta(n, 0.0), z(n);
  Matrix a(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) delta[i] = 2.0 / double(i + 1);
  for (std::size_t i = 0; i < n; ++i) z[i] = 0.3 * rng.gaussian();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = (i == j ? delta[i] : 0.0) + z[i] * z[j];
    }
  }
  const EigResult ql = solve(a);
  const EigResult jacobi = eig_sym(a);
  RankOneEigWorkspace ws;
  Matrix secular_vectors;
  Vector secular_values;
  rank_one_eig(delta.data(), z.data(), n, ws, secular_vectors, secular_values);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(ql.values[k], jacobi.values[k], 1e-12);
    EXPECT_NEAR(ql.values[k], secular_values[k], 1e-12);
    double cos = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cos += ql.vectors(i, k) * secular_vectors(i, k);
    }
    EXPECT_NEAR(std::abs(cos), 1.0, 1e-10) << k;
  }
}

TEST(Tridiag, InPlaceAndReusedWorkspaceMatchFreshCall) {
  Rng rng(83);
  const Matrix big = random_symmetric(rng, 20);
  const Matrix small = random_symmetric(rng, 7);
  TridiagWorkspace ws;
  Matrix v;
  Vector w;
  eig_sym_tridiag(big, ws, v, w);  // grows ws and the outputs past 7
  eig_sym_tridiag(small, ws, v, w);
  Matrix in_place = small;
  Vector w_in_place;
  eig_sym_tridiag(in_place, ws, in_place, w_in_place);
  const EigResult fresh = solve(small);
  EXPECT_EQ(v, fresh.vectors);
  EXPECT_EQ(w, fresh.values);
  EXPECT_EQ(in_place, fresh.vectors);
  EXPECT_EQ(w_in_place, fresh.values);
}

class TridiagSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TridiagSizeTest, TraceAndOrthonormality) {
  const std::size_t n = GetParam();
  Rng rng(n);
  const Matrix a = random_symmetric(rng, n);
  const EigResult r = solve(a);
  EXPECT_NEAR(r.values.sum(), a.trace(), 1e-7 * double(n));
  EXPECT_LT(orthonormality_error(r.vectors), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagSizeTest,
                         ::testing::Values(2, 3, 5, 17, 33, 64, 100, 150));

}  // namespace
}  // namespace astro::linalg
