#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace astro::linalg {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 0.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, RowColExtraction) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Vector r = m.row(1);
  EXPECT_EQ(r[0], 3.0);
  EXPECT_EQ(r[1], 4.0);
  const Vector c = m.col(1);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c[2], 6.0);
}

TEST(Matrix, SetRowSetCol) {
  Matrix m(2, 2);
  m.set_row(0, Vector{1.0, 2.0});
  m.set_col(1, Vector{7.0, 8.0});
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 7.0);
  EXPECT_EQ(m(1, 1), 8.0);
  EXPECT_THROW(m.set_row(0, Vector(3)), std::invalid_argument);
  EXPECT_THROW(m.set_col(0, Vector(3)), std::invalid_argument);
}

TEST(Matrix, Product) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ProductDimensionMismatchThrows) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, MatVec) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = a * Vector{1.0, 1.0};
  EXPECT_EQ(y[0], 3.0);
  EXPECT_EQ(y[1], 7.0);
  EXPECT_THROW(a * Vector(3), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t(0, 1), 4.0);
  EXPECT_TRUE(approx_equal(t.transpose(), a, 0.0));
}

TEST(Matrix, GramMatchesExplicitProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Matrix g = a.gram();
  const Matrix expected = a.transpose() * a;
  EXPECT_TRUE(approx_equal(g, expected, 1e-12));
}

TEST(Matrix, IdentityAndTrace) {
  const Matrix i = Matrix::identity(3);
  EXPECT_EQ(i(0, 0), 1.0);
  EXPECT_EQ(i(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(i.trace(), 3.0);
}

TEST(Matrix, OuterProduct) {
  const Matrix m = Matrix::outer(Vector{1.0, 2.0}, Vector{3.0, 4.0, 5.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 10.0);
}

TEST(Matrix, AddSubScale) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{3.0, 5.0}};
  EXPECT_EQ((a + b)(0, 1), 7.0);
  EXPECT_EQ((b - a)(0, 0), 2.0);
  EXPECT_EQ((a * 3.0)(0, 1), 6.0);
  EXPECT_EQ((3.0 * a)(0, 0), 3.0);
  Matrix c(2, 2);
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(Matrix, OrthonormalityError) {
  EXPECT_NEAR(orthonormality_error(Matrix::identity(4)), 0.0, 1e-15);
  Matrix skew{{2.0, 0.0}, {0.0, 1.0}};
  EXPECT_NEAR(orthonormality_error(skew), 3.0, 1e-15);  // (2)^2 - 1
}

}  // namespace
}  // namespace astro::linalg
