#include "linalg/matrix.h"

#include "linalg/simd.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace astro::linalg {

namespace {
void check_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string("Matrix shape mismatch in ") + op);
  }
}
}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix initializer rows differ in length");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Vector Matrix::row(std::size_t r) const {
  Vector v(cols_);
  const auto s = row_span(r);
  std::copy(s.begin(), s.end(), v.begin());
  return v;
}

Vector Matrix::col(std::size_t c) const {
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  if (v.size() != cols_) {
    throw std::invalid_argument("set_row: dimension mismatch");
  }
  std::copy(v.begin(), v.end(), row_span(r).begin());
}

void Matrix::set_col(std::size_t c, const Vector& v) {
  if (v.size() != rows_) {
    throw std::invalid_argument("set_col: dimension mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  check_same_shape(*this, rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  check_same_shape(*this, rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  Matrix out;
  multiply_into(rhs, out);
  return out;
}

void Matrix::multiply_into(const Matrix& rhs, Matrix& out) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix product: inner dimensions differ");
  }
  out.resize_no_shrink(rows_, rhs.cols_);
  out.fill(0.0);
  const std::size_t n = rhs.cols_;
  // i-k-j loop order: the innermost loop streams one rhs row into one
  // output row, both contiguous in row-major — the accumulation order over
  // k matches the naive i-j-k triple loop term for term, so results are
  // bit-identical to it (pinned by the tolerance-zero regression test).
  // The inner axpy goes through the runtime SIMD dispatch; every tier is
  // element-wise mul/add without FMA, preserving the bit-identity.
  const simd::Kernels& kn = simd::active();
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* arow = data_.data() + i * cols_;
    double* orow = out.data_.data() + i * n;
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = arow[k];
      const double* brow = rhs.data_.data() + k * n;
      kn.axpy(orow, brow, aik, n);
    }
  }
}

Vector Matrix::operator*(const Vector& v) const {
  if (cols_ != v.size()) {
    throw std::invalid_argument("Matrix*Vector: dimension mismatch");
  }
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* arow = data_.data() + i * cols_;
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += arow[j] * v[j];
    out[i] = acc;
  }
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

Matrix Matrix::gram() const {
  Matrix out(cols_, cols_);
  // One pass over the rows, accumulating each row's outer product into the
  // upper triangle (i-k-j order per row; contiguous reads and writes), then
  // mirror.  Term order per (i, j) entry is increasing row index — the same
  // as the naive entry-wise dot product, so results are bit-identical.
  const simd::Kernels& kn = simd::active();
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* arow = data_.data() + r * cols_;
    for (std::size_t i = 0; i < cols_; ++i) {
      const double ai = arow[i];
      double* orow = out.data_.data() + i * cols_;
      kn.axpy(orow + i, arow + i, ai, cols_ - i);
    }
  }
  for (std::size_t i = 0; i < cols_; ++i) {
    for (std::size_t j = 0; j < i; ++j) out(i, j) = out(j, i);
  }
  return out;
}

double Matrix::frobenius_norm() const noexcept {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double Matrix::trace() const noexcept {
  double acc = 0.0;
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t i = 0; i < n; ++i) acc += (*this)(i, i);
  return acc;
}

void Matrix::fill(double value) noexcept {
  for (double& x : data_) x = value;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::outer(const Vector& a, const Vector& b) {
  Matrix m(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) m(i, j) = ai * b[j];
  }
  return m;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix m, double s) { return m *= s; }
Matrix operator*(double s, Matrix m) { return m *= s; }

bool approx_equal(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (std::abs(a(i, j) - b(i, j)) > tol) return false;
    }
  }
  return true;
}

double orthonormality_error(const Matrix& a) {
  const Matrix g = a.gram();
  double worst = 0.0;
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      const double target = (i == j) ? 1.0 : 0.0;
      worst = std::max(worst, std::abs(g(i, j) - target));
    }
  }
  return worst;
}

}  // namespace astro::linalg
