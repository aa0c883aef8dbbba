#include "linalg/tridiag.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace astro::linalg {

namespace {

// tred2: Householder reduction of the symmetric z to tridiagonal form, in
// place, indices descending.  On return z holds the accumulated orthogonal
// transform Q with a = Q T Qᵀ, d the diagonal of T and e its subdiagonal
// (e[0] unused).
void householder_tridiagonalize(Matrix& z, double* d, double* e) {
  const std::size_t n = z.rows();
  for (std::size_t i = n; i-- > 1;) {
    const std::size_t l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(z(i, k));
      if (scale == 0.0) {
        e[i] = z(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = z(i, j);
          e[j] = g = e[j] - hh * f;
          for (std::size_t k = 0; k <= j; ++k) {
            z(j, k) -= f * e[k] + g * z(i, k);
          }
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      for (std::size_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k < i; ++k) g += z(i, k) * z(k, j);
        for (std::size_t k = 0; k < i; ++k) z(k, j) -= g * z(k, i);
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      z(j, i) = 0.0;
      z(i, j) = 0.0;
    }
  }
}

// tql2: implicit-shift QL on the tridiagonal (d, e); the rotations
// accumulate into the columns of q.  On return d holds the eigenvalues,
// unsorted.
void tridiagonal_ql(double* d, double* e, Matrix& q) {
  const std::size_t n = q.rows();
  // Shift the subdiagonal up by one for the classic indexing.
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-300 || std::abs(e[m]) <= 2.3e-16 * dd) {
          break;
        }
      }
      // Only non-finite entries keep the iteration from converging.
      if (m != l && ++iter > 50) m = l;
      if (m != l) {
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] +
            e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0, c = 1.0, p = 0.0;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (std::size_t k = 0; k < n; ++k) {
            f = q(k, i + 1);
            q(k, i + 1) = s * q(k, i) + c * f;
            q(k, i) = c * q(k, i) - s * f;
          }
        }
        if (r == 0.0 && m - l > 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

}  // namespace

void eig_sym_tridiag(const Matrix& a, TridiagWorkspace& ws, Matrix& vectors,
                     Vector& values) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("eig_sym_tridiag: must be square");
  }
  const std::size_t n = a.rows();
  if (&vectors != &a) {
    vectors.resize_no_shrink(n, n);
    std::copy(a.data(), a.data() + n * n, vectors.data());
  }
  values.resize_no_shrink(n);
  if (n == 0) return;
  ws.reserve(n);
  householder_tridiagonalize(vectors, values.data(), ws.offdiag.data());
  tridiagonal_ql(values.data(), ws.offdiag.data(), vectors);

  // Selection sort, descending: at most n - 1 column swaps, no allocation.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t best = i;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (values[j] > values[best]) best = j;
    }
    if (best == i) continue;
    std::swap(values[i], values[best]);
    for (std::size_t r = 0; r < n; ++r) {
      std::swap(vectors(r, i), vectors(r, best));
    }
  }
}

}  // namespace astro::linalg
