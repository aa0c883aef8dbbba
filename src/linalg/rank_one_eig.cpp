#include "linalg/rank_one_eig.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace astro::linalg {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
// Rational-model steps per root before the iteration turns to pure
// bisection; it converges in a handful, so the switch only bounds the
// work on pathological input.  Bisection then halves the bracket to
// double resolution within the overall cap.
constexpr int kModelIterations = 30;
constexpr int kMaxIterations = 100;

// Stable insertion sort of the index array idx[0, n) by `before`, which
// keeps equal keys in their incoming order (so ties resolve the same way
// on every call).  n is the core size, a few tens at most.
template <class Before>
void insertion_sort(std::size_t* idx, std::size_t n, Before before) {
  for (std::size_t a = 1; a < n; ++a) {
    const std::size_t v = idx[a];
    std::size_t b = a;
    for (; b > 0 && before(v, idx[b - 1]); --b) idx[b] = idx[b - 1];
    idx[b] = v;
  }
}

// f(μ) = 1 + ψ + φ = 1 + Σ z_j²/(d_j − μ) at μ = d_origin + τ, from
// diff_j = d_j − d_origin, split at `split` into ψ (j ≤ split) and φ
// (j > split), whose derivatives weight the two poles of the rational
// model.  `err` bounds the rounding error of f (dlaed4's ERRETM).
struct Secular {
  double f = 1.0, dpsi = 0.0, dphi = 0.0, err = 0.0;
};

Secular evaluate(const double* diff, const double* z, std::size_t m,
                 std::size_t split, double tau) {
  double psi = 0.0, phi = 0.0;
  Secular r;
  std::size_t j = 0;
  for (; j <= split; ++j) {
    const double t = z[j] / (diff[j] - tau);
    psi += z[j] * t;
    r.dpsi += t * t;
  }
  for (; j < m; ++j) {
    const double t = z[j] / (diff[j] - tau);
    phi += z[j] * t;
    r.dphi += t * t;
  }
  // Every ψ term is negative; the φ terms share one sign (positive below
  // the top pole, the single negative term above it).
  r.f = 1.0 + psi + phi;
  r.err = 8.0 * (1.0 - psi + std::abs(phi)) + std::abs(tau) * (r.dpsi + r.dphi);
  return r;
}

bool inside(double x, double lo, double hi) { return lo < x && x < hi; }

// A two-pole rational model c + w_a/(p_a − η) + w_b/(p_b − η) of f around
// a point vanishes where c·η² − a·η + b = 0.  Writes to `next` the root
// that puts base + η strictly inside (lo, hi), each root taken in its
// cancellation-free form (the smaller step when both qualify), and
// returns false when neither does.
bool model_root(double a, double b, double c, double base, double lo,
                double hi, double& next) {
  const double sq = std::sqrt(std::abs(a * a - 4.0 * b * c));
  const double qa = a >= 0.0 ? a + sq : a - sq;
  const double eta1 = c != 0.0 ? qa / (2.0 * c) : 0.0;
  const double eta2 = qa != 0.0 ? 2.0 * b / qa : 0.0;
  const bool ok1 = c != 0.0 && inside(base + eta1, lo, hi);
  const bool ok2 = qa != 0.0 && inside(base + eta2, lo, hi);
  if (!ok1 && !ok2) return false;
  next = base + (ok1 && (!ok2 || std::abs(eta1) < std::abs(eta2)) ? eta1
                                                                    : eta2);
  return true;
}

// Root i of 1 + Σ z_j²/(d_j − μ) = 0 over m ≥ 2 ascending, distinct poles
// d with nonzero weights z, Σ z² = rho.  Root i < m−1 lies in
// (d_i, d_{i+1}); the last in (d_{m−1}, d_{m−1} + rho].  The root is
// returned as an origin pole and the offset τ from it.
void solve_root(const double* d, const double* z, std::size_t m, double rho,
                std::size_t i, double* diff, std::size_t& origin,
                double& tau) {
  // Bracket on τ: f < 0 at lo, f ≥ 0 at hi (f increases between poles).
  // f at the midpoint of the interval — of (d_{m−1}, d_{m−1} + rho] for
  // the last root — picks the nearer pole as the origin.
  double lo = 0.0, hi = 0.0;
  std::size_t split = 0;
  Secular s;
  if (i + 1 < m) {
    split = i;
    const double half = (d[i + 1] - d[i]) / 2.0;
    for (std::size_t j = 0; j < m; ++j) diff[j] = d[j] - d[i];
    s = evaluate(diff, z, m, split, half);
    if (s.f >= 0.0) {
      origin = i;
      hi = tau = half;
    } else {
      origin = i + 1;
      for (std::size_t j = 0; j < m; ++j) diff[j] = d[j] - d[i + 1];
      lo = tau = -half;
    }
  } else {
    split = m - 2;
    origin = m - 1;
    for (std::size_t j = 0; j < m; ++j) diff[j] = d[j] - d[m - 1];
    tau = rho / 2.0;
    s = evaluate(diff, z, m, split, tau);
    lo = s.f < 0.0 ? tau : 0.0;
    hi = s.f < 0.0 ? rho : tau;
  }

  // First guess: the two poles of the model with their exact weights and
  // the other terms frozen at their midpoint value (dlaed4's start).  One
  // of the two poles is the origin, so b is a single exact product.
  {
    const double pa = diff[split], pb = diff[split + 1];
    const double wa = z[split] * z[split], wb = z[split + 1] * z[split + 1];
    const double c = s.f - wa / (pa - tau) - wb / (pb - tau);
    double guess = 0.0;
    if (model_root(c * (pa + pb) + wa + wb, wa * pb + wb * pa, c, 0.0, lo,
                   hi, guess)) {
      tau = guess;
      s = evaluate(diff, z, m, split, tau);
    }
  }

  for (int it = 0;; ++it) {
    if (std::abs(s.f) <= kEps * s.err || it == kMaxIterations) return;
    (s.f < 0.0 ? lo : hi) = tau;

    // Middle way: f(τ+η) ≈ C + Δa²ψ'/(Δa − η) + Δb²φ'/(Δb − η), matched in
    // value, ψ' and φ' at τ; then Newton; then bisection.
    double next = lo + (hi - lo) / 2.0;
    if (it < kModelIterations) {
      const double da = diff[split] - tau;
      const double db = diff[split + 1] - tau;
      const double c = s.f - da * s.dpsi - db * s.dphi;
      const double a = (da + db) * s.f - da * db * (s.dpsi + s.dphi);
      const double newton = tau - s.f / (s.dpsi + s.dphi);
      if (!model_root(a, da * db * s.f, c, tau, lo, hi, next) &&
          inside(newton, lo, hi)) {
        next = newton;
      }
    }
    if (!inside(next, lo, hi)) return;  // bracket at double resolution
    const bool settled = std::abs(next - tau) <= kEps * std::abs(next);
    tau = next;
    if (settled) return;
    s = evaluate(diff, z, m, split, tau);
  }
}

}  // namespace

void RankOneEigWorkspace::reserve(std::size_t n) {
  order.resize(n);
  d.resize(n);
  z.resize(n);
  pos.resize(n);
  rotations.resize(n);
  pd.resize(n);
  pz.resize(n);
  diff.resize(n);
  origin.resize(n);
  tau.resize(n);
  q.resize(n * n);
  value.resize(n);
  slot.resize(n);
}

void rank_one_eig(const double* delta, const double* z, std::size_t n,
                  RankOneEigWorkspace& ws, Matrix& vectors, Vector& values) {
  ws.reserve(n);
  for (std::size_t t = 0; t < n; ++t) ws.order[t] = t;
  insertion_sort(ws.order.data(), n, [delta](std::size_t a, std::size_t b) {
    return delta[a] < delta[b];
  });
  double rho = 0.0, dmax = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    ws.d[t] = delta[ws.order[t]];
    ws.z[t] = z[ws.order[t]];
    rho += ws.z[t] * ws.z[t];
    dmax = std::max(dmax, std::abs(ws.d[t]));
  }

  // Deflation, in ascending pole order.  `prev` is the last undeflated
  // position, held back until the next pole shows whether it merges.
  const double tol = 8.0 * kEps * std::max(dmax, rho);
  const double znorm = std::sqrt(rho);
  std::size_t m = 0, back = n, nrot = 0, prev = n;
  for (std::size_t t = 0; t < n; ++t) {
    if (std::abs(ws.z[t]) * znorm <= tol) {
      ws.pos[--back] = t;
      continue;
    }
    if (prev != n) {
      const double zp = ws.z[prev], zt = ws.z[t];
      const double r = std::sqrt(zp * zp + zt * zt);
      const double c = zt / r, s = zp / r;
      if (std::abs((ws.d[t] - ws.d[prev]) * c * s) <= tol) {
        // G = [[c, −s], [s, c]] on (prev, t) moves all of their weight
        // onto t; the dropped coupling (d_prev − d_t)cs is below tol.
        const double dp = ws.d[prev], dt = ws.d[t];
        ws.d[prev] = c * c * dp + s * s * dt;
        ws.d[t] = s * s * dp + c * c * dt;
        ws.z[t] = r;
        ws.rotations[nrot++] = {prev, t, c, s};
        ws.pos[--back] = prev;
        prev = t;
        continue;
      }
      ws.pos[m++] = prev;
    }
    prev = t;
  }
  if (prev != n) ws.pos[m++] = prev;

  // Secular roots of the kept m x m problem.
  double kept_rho = 0.0;
  for (std::size_t t = 0; t < m; ++t) {
    ws.pd[t] = ws.d[ws.pos[t]];
    ws.pz[t] = ws.z[ws.pos[t]];
    kept_rho += ws.pz[t] * ws.pz[t];
  }
  if (m == 1) {
    ws.origin[0] = 0;
    ws.tau[0] = kept_rho;
  }
  for (std::size_t i = 0; m >= 2 && i < m; ++i) {
    solve_root(ws.pd.data(), ws.pz.data(), m, kept_rho, i, ws.diff.data(),
               ws.origin[i], ws.tau[i]);
  }

  // Löwner: ẑ_t² = −Π_i (d_t − μ_i) / Π_{j≠t} (d_t − d_j), taken as a
  // product of ratios that interlacing keeps near one; then
  // u_i = ẑ ⊘ (d − μ_i), normalized.
  double* q = ws.q.data();
  for (std::size_t t = 0; t < m; ++t) {
    for (std::size_t i = 0; i < m; ++i) {
      q[t * m + i] = (ws.pd[t] - ws.pd[ws.origin[i]]) - ws.tau[i];
    }
  }
  for (std::size_t t = 0; t < m; ++t) {
    double w = q[t * m + t];
    for (std::size_t j = 0; j < m; ++j) {
      if (j != t) w *= q[t * m + j] / (ws.pd[t] - ws.pd[j]);
    }
    ws.pz[t] = std::copysign(std::sqrt(std::max(0.0, -w)), ws.pz[t]);
  }
  for (std::size_t i = 0; i < m; ++i) {
    double norm2 = 0.0;
    for (std::size_t t = 0; t < m; ++t) {
      const double u = ws.pz[t] / q[t * m + i];
      q[t * m + i] = u;
      norm2 += u * u;
    }
    const double inv = 1.0 / std::sqrt(norm2);
    for (std::size_t t = 0; t < m; ++t) q[t * m + i] *= inv;
  }

  // Slots [0, m) are the roots, [m, n) the deflated poles; order them by
  // descending eigenvalue and write each back in input coordinates.
  for (std::size_t i = 0; i < m; ++i) {
    ws.value[i] = ws.pd[ws.origin[i]] + ws.tau[i];
  }
  for (std::size_t r = m; r < n; ++r) ws.value[r] = ws.d[ws.pos[r]];
  for (std::size_t r = 0; r < n; ++r) ws.slot[r] = r;
  insertion_sort(ws.slot.data(), n, [&ws](std::size_t a, std::size_t b) {
    return ws.value[a] > ws.value[b];
  });
  vectors.resize_no_shrink(n, n);
  values.resize_no_shrink(n);
  std::fill(vectors.data(), vectors.data() + n * n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t s = ws.slot[c];
    values[c] = ws.value[s];
    if (s < m) {
      for (std::size_t t = 0; t < m; ++t) {
        vectors(ws.order[ws.pos[t]], c) = q[t * m + s];
      }
    } else {
      vectors(ws.order[ws.pos[s]], c) = 1.0;
    }
  }
  // Undo the merges, last first: each maps u to Gᵀu on its two rows.
  while (nrot > 0) {
    const RankOneEigWorkspace::Rotation& g = ws.rotations[--nrot];
    double* ri = vectors.row_span(ws.order[g.i]).data();
    double* rj = vectors.row_span(ws.order[g.j]).data();
    for (std::size_t c = 0; c < n; ++c) {
      const double a = ri[c], b = rj[c];
      ri[c] = g.c * a + g.s * b;
      rj[c] = g.c * b - g.s * a;
    }
  }
}

}  // namespace astro::linalg
