#pragma once

// Dense row-major double-precision matrix.
//
// Sized for the paper's workloads: the per-tuple low-rank update rotates a
// d x p basis (d up to 2000, p ~ 5-20); merges stack a handful of
// eigensystems; baselines eigendecompose d x d covariances for modest d.
// Row-major keeps row extraction (one observation) contiguous; kernels
// that stream over columns (the SVD, the low-rank update) keep their own
// column-major copies.

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/vector.h"

namespace astro::linalg {

class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized `rows x cols` matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Construct from nested initializer lists (row per inner list).
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  /// Contiguous view of row `r`.
  [[nodiscard]] std::span<const double> row_span(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<double> row_span(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  /// Copy of row `r` / column `c` as a Vector.
  [[nodiscard]] Vector row(std::size_t r) const;
  [[nodiscard]] Vector col(std::size_t c) const;

  void set_row(std::size_t r, const Vector& v);
  void set_col(std::size_t c, const Vector& v);

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;

  /// Matrix product this * rhs.
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;
  /// Matrix-vector product this * v.
  [[nodiscard]] Vector operator*(const Vector& v) const;

  [[nodiscard]] Matrix transpose() const;

  /// this^T * v without materializing the transpose.
  [[nodiscard]] Vector transpose_times(const Vector& v) const;

  /// this^T * this (the Gram matrix), exploiting symmetry.
  [[nodiscard]] Matrix gram() const;

  /// Write-into variants for the allocation-free hot path: identical
  /// arithmetic (same accumulation order, so results are bit-identical to
  /// the value-returning forms), but the output is resized in place with
  /// resize_no_shrink — zero allocator traffic once the destination has
  /// reached its high-water capacity.  `out` must not alias `this` / `v`.
  void multiply_into(const Matrix& rhs, Matrix& out) const;
  void transpose_times_into(const Vector& v, Vector& out) const;
  void gram_into(Matrix& out) const;

  /// Resize preserving capacity (see Vector::resize_no_shrink).  Entries
  /// are NOT re-zeroed when shrinking or reshaping within capacity — the
  /// workspace contract is that the next kernel overwrites every element.
  void resize_no_shrink(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols, 0.0);
  }

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const noexcept;

  /// Sum of diagonal entries (requires square not enforced; sums min(r,c)).
  [[nodiscard]] double trace() const noexcept;

  void fill(double value) noexcept;

  /// n x n identity.
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// Rank-1 outer product a b^T.
  [[nodiscard]] static Matrix outer(const Vector& a, const Vector& b);

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator+(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator-(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator*(Matrix m, double s);
[[nodiscard]] Matrix operator*(double s, Matrix m);

/// True when |a - b|_max <= tol (elementwise).
[[nodiscard]] bool approx_equal(const Matrix& a, const Matrix& b, double tol);

/// max_ij |(A^T A - I)_ij| — how far the columns of A are from orthonormal.
[[nodiscard]] double orthonormality_error(const Matrix& a);

}  // namespace astro::linalg
