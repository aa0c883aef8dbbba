// E9: linear-algebra kernel micro-benchmarks (google-benchmark).
//
// The shapes mirror the hot paths: the low-rank eigensystem update (basis
// projection plus a small core SVD) for single tuples and micro-batches,
// thin SVD of tall matrices (merges, init batch), symmetric eigensolve for
// the merge/baseline paths, QR re-orthogonalization hygiene, and the
// mat-vec kernels inside residual computation.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
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
  linalg::Vector lambda(k);
  for (std::size_t c = 0; c < k; ++c) lambda[c] = 2.0 / double(c + 1);
  const linalg::Matrix fresh = rng.gaussian_matrix(b, d);
  pca::UpdateWorkspace ws;
  ws.ensure(d, k + b);
  linalg::Matrix e_out;
  linalg::Vector l_out;
  for (auto _ : state) {
    ws.a.resize_no_shrink(k + b, d);
    std::copy(fresh.data(), fresh.data() + b * d, ws.a.row_span(k).data());
    pca::low_rank_update_batch(basis, lambda, 0.99, b, k, ws, e_out, l_out);
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

void BM_TransposeTimes(benchmark::State& state) {
  const auto d = std::size_t(state.range(0));
  const auto k = std::size_t(state.range(1));
  stats::Rng rng(5);
  const linalg::Matrix e = rng.gaussian_matrix(d, k);
  const linalg::Vector y = rng.gaussian_vector(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.transpose_times(y));
  }
}
BENCHMARK(BM_TransposeTimes)->Args({250, 10})->Args({2000, 10});

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
