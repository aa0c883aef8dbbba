// Tolerance-ZERO regression of the cache-friendly matmul/gram kernels
// against naive reference implementations.  The i-k-j rewrite
// reorders the loops but not the per-entry accumulation order (terms still
// arrive in increasing k / row index), so every entry must match the naive
// triple loop exactly — EXPECT_EQ on doubles, no epsilon.

#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace astro::linalg {
namespace {

using astro::stats::Rng;

Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

Matrix naive_gram(const Matrix& a) {
  Matrix out(a.cols(), a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r) acc += a(r, i) * a(r, j);
      out(i, j) = acc;
    }
  }
  return out;
}

void expect_exactly_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      EXPECT_EQ(got(i, j), want(i, j)) << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(MatmulRegression, ProductMatchesNaiveExactly) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    const Matrix a = rng.gaussian_matrix(17, 13);
    const Matrix b = rng.gaussian_matrix(13, 11);
    expect_exactly_equal(a * b, naive_multiply(a, b));
  }
}

TEST(MatmulRegression, ProductWithExactZerosMatchesNaive) {
  // The rewrite dropped the `== 0.0` skip branches; entries that are exact
  // zeros (including negative zero inputs) must still reproduce the naive
  // result bit for bit.
  Rng rng(11);
  Matrix a = rng.gaussian_matrix(9, 7);
  Matrix b = rng.gaussian_matrix(7, 5);
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, 2) = 0.0;
  for (std::size_t j = 0; j < b.cols(); ++j) b(3, j) = -0.0;
  expect_exactly_equal(a * b, naive_multiply(a, b));
}

TEST(MatmulRegression, GramMatchesNaiveExactly) {
  for (std::uint64_t seed : {9u, 10u}) {
    Rng rng(seed);
    const Matrix a = rng.gaussian_matrix(23, 8);
    expect_exactly_equal(a.gram(), naive_gram(a));
  }
}

TEST(MatmulRegression, IntoVariantsReuseCapacityAndMatchOperators) {
  Rng rng(12);
  const Matrix a = rng.gaussian_matrix(10, 6);
  const Matrix b = rng.gaussian_matrix(6, 4);

  Matrix mout(30, 30);  // oversized: shrink must reuse capacity
  a.multiply_into(b, mout);
  expect_exactly_equal(mout, a * b);
}

}  // namespace
}  // namespace astro::linalg
