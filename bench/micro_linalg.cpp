// E9: linear-algebra kernel micro-benchmarks (google-benchmark).
//
// The shapes mirror the hot paths: the low-rank eigensystem update (basis
// projection plus a small core decomposition) for single tuples and
// micro-batches, the core solvers on their own (secular for b = 1,
// Householder + QL for micro-batch and merge cores), the update's blocked
// row rotation, thin SVD of tall matrices (batch PCA), the Jacobi
// symmetric eigensolve of the reference paths, QR re-orthogonalization
// hygiene, and the projection Eᵀy inside every residual.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "linalg/rank_one_eig.h"
#include "linalg/simd.h"
#include "linalg/svd.h"
#include "linalg/tridiag.h"
#include "pca/eigensystem.h"
#include "pca/incremental_pca.h"
#include "stats/rng.h"

using namespace astro;

namespace {

void BM_SvdLeft_TallSkinny(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  const auto k = std::size_t(state.range(1));
  stats::Rng rng(1);
  const linalg::Matrix a = rng.gaussian_matrix(d, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::svd_left(a));
  }
  state.SetLabel(std::to_string(d) + "x" + std::to_string(k));
}
BENCHMARK(BM_SvdLeft_TallSkinny)
    ->Args({250, 6})
    ->Args({250, 11})
    ->Args({500, 11})
    ->Args({1000, 11})
    ->Args({2000, 11})
    ->Args({2000, 21});

void BM_LowRankUpdate(benchmark::State& state) {
  // One eigensystem update at (d, k, b): b fresh columns blended into a
  // rank-k basis.  Restaging the fresh rows each iteration (the kernel
  // overwrites them with their residual directions) is part of the cost,
  // as it is for the engines.
  const auto d = std::size_t(state.range(0));
  const auto k = std::size_t(state.range(1));
  const auto b = std::size_t(state.range(2));
  stats::Rng rng(5);
  linalg::Matrix basis = rng.gaussian_matrix(d, k);
  linalg::orthonormalize_columns(basis);
  const linalg::Matrix vectors = basis.transpose();  // one eigenvector a row
  linalg::Vector lambda(k);
  for (std::size_t c = 0; c < k; ++c) lambda[c] = 2.0 / double(c + 1);
  const linalg::Matrix fresh = rng.gaussian_matrix(b, d);
  pca::UpdateWorkspace ws;
  ws.ensure(d, k + b);
  linalg::Matrix e_out;
  linalg::Vector l_out;
  for (auto _ : state) {
    std::copy(fresh.data(), fresh.data() + b * d, ws.a.data());
    pca::low_rank_update_batch(vectors, lambda, 0.99, b, k, ws, e_out, l_out);
    benchmark::DoNotOptimize(e_out.data());
    benchmark::DoNotOptimize(l_out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(std::to_string(d) + "x" + std::to_string(k) + "+" +
                 std::to_string(b));
}
BENCHMARK(BM_LowRankUpdate)
    ->Args({250, 10, 1})
    ->Args({250, 10, 8})
    ->Args({64, 7, 8})
    ->Args({2000, 10, 1});

void BM_CoreSolve(benchmark::State& state) {
  // The n x n core K = [[diag(√(αλ)), C], [0, T]] of one update with b
  // fresh columns, λ decaying as 2/(c+1) and the fresh columns carrying
  // weight 1 − α, decomposed by the solver the update kernel picks for it:
  // the secular equation on diag(δ) + z zᵀ for b = 1, Householder + QL on
  // K Kᵀ for b > 1.  The QL row times the eigensolve alone; forming K Kᵀ
  // and the Rayleigh quotients are in BM_LowRankUpdate's b > 1 rows.
  const auto n = std::size_t(state.range(0));
  const auto b = std::size_t(state.range(1));
  const std::size_t k = n - b;
  const double alpha = 1.0 - 1.0 / 1000.0;
  stats::Rng rng(9);
  linalg::Matrix core(n, n);
  for (std::size_t c = 0; c < k; ++c) {
    core(c, c) = std::sqrt(alpha * 2.0 / double(c + 1));
  }
  for (std::size_t c = k; c < n; ++c) {
    for (std::size_t r = 0; r <= c; ++r) {
      core(r, c) = std::sqrt(1.0 - alpha) * rng.gaussian();
    }
  }
  std::vector<double> delta(n, 0.0), z(n);
  for (std::size_t c = 0; c < k; ++c) delta[c] = core(c, c) * core(c, c);
  for (std::size_t r = 0; r < n; ++r) z[r] = core(r, n - 1);
  const linalg::Matrix gram = core * core.transpose();
  linalg::RankOneEigWorkspace eig_ws;
  linalg::TridiagWorkspace ql_ws;
  linalg::Matrix u;
  linalg::Vector values;
  for (auto _ : state) {
    if (b == 1) {
      linalg::rank_one_eig(delta.data(), z.data(), n, eig_ws, u, values);
    } else {
      linalg::eig_sym_tridiag(gram, ql_ws, u, values);
    }
    benchmark::DoNotOptimize(u.data());
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(b == 1 ? "secular" : "ql");
}
// b = 1 at p + 1 = 8, 11, 21; micro-batches of 8 at k = 7 (tcp_d64) and
// k = 10 (d = 250); a two-engine merge of rank-10 systems with its two
// mean-correction columns (10 + 10 + 2).
BENCHMARK(BM_CoreSolve)
    ->Args({8, 1})
    ->Args({11, 1})
    ->Args({21, 1})
    ->Args({15, 8})
    ->Args({18, 8})
    ->Args({22, 12});

void BM_SvdFull(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  stats::Rng rng(2);
  const linalg::Matrix a = rng.gaussian_matrix(d, d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::svd(a));
  }
}
BENCHMARK(BM_SvdFull)->Arg(16)->Arg(32)->Arg(64);

void BM_EigSym(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  stats::Rng rng(3);
  const linalg::Matrix g = rng.gaussian_matrix(n + 2, n);
  const linalg::Matrix a = g.gram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eig_sym(a));
  }
}
BENCHMARK(BM_EigSym)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Qr(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  const auto k = std::size_t(state.range(1));
  stats::Rng rng(4);
  const linalg::Matrix a = rng.gaussian_matrix(d, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::qr(a));
  }
}
BENCHMARK(BM_Qr)->Args({250, 11})->Args({1000, 11})->Args({2000, 21});

void BM_RotateRows(benchmark::State& state) {
  // The update's closing rotation E_new = [E Q] U_K[:, :p] at (d, p, n):
  // p outputs from n = p + 1 input rows (one tuple), written in place over
  // E as the engines do.
  const auto d = std::size_t(state.range(0));
  const auto p = std::size_t(state.range(1));
  const auto n = std::size_t(state.range(2));
  stats::Rng rng(7);
  linalg::Matrix e = rng.gaussian_matrix(p, d);
  const linalg::Matrix q = rng.gaussian_matrix(n - p, d);
  const linalg::Matrix u = rng.gaussian_matrix(n, n);
  std::vector<double> stage(p * linalg::simd::kRotateStageWidth);
  const linalg::simd::Kernels& kn = linalg::simd::active();
  for (auto _ : state) {
    kn.rotate_rows(e.data(), p, q.data(), n - p, u.data(), n, d, e.data(), p,
                   stage.data());
    benchmark::DoNotOptimize(e.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(linalg::simd::mode_name(kn.mode));
}
BENCHMARK(BM_RotateRows)->Args({250, 10, 11});

void BM_Project(benchmark::State& state) {
  // Eᵀy as the engines' residuals and serve queries take it: one SIMD dot
  // per eigenvector row.
  const auto d = std::size_t(state.range(0));
  const auto k = std::size_t(state.range(1));
  stats::Rng rng(5);
  linalg::Matrix basis = rng.gaussian_matrix(d, k);
  linalg::orthonormalize_columns(basis);
  const pca::EigenSystem system(linalg::Vector(d), basis, linalg::Vector(k),
                                1.0, stats::RobustRunningSums(1.0), 1);
  const linalg::Vector y = rng.gaussian_vector(d);
  linalg::Vector c(k);
  for (auto _ : state) {
    system.coefficients_into(y, k, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Project)->Args({250, 10})->Args({2000, 10});

void BM_MatVec(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  stats::Rng rng(6);
  const linalg::Matrix a = rng.gaussian_matrix(d, d);
  const linalg::Vector x = rng.gaussian_vector(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * x);
  }
}
BENCHMARK(BM_MatVec)->Arg(100)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
