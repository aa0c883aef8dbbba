// The update kernel's workspace contract at batch = 1: a recycled
// workspace gives the same bits as a freshly allocated one, the aliased
// outputs the engines use (e_out == vectors, lambda_out == eigenvalues)
// equal the non-aliased ones, stale outputs are fully rewritten, and
// ensure() never shrinks.

#include "pca/update_workspace.h"

#include <gtest/gtest.h>

#include "linalg/qr.h"
#include "pca/incremental_pca.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::pca {
namespace {

using astro::stats::Rng;
using linalg::Matrix;
using testing::stage_fresh_row;
using linalg::Vector;

struct Inputs {
  Matrix vectors;  // k x d eigenvector rows
  Vector eigenvalues;
  Vector y;
};

Inputs make_setup(std::uint64_t seed, std::size_t d, std::size_t k) {
  Rng rng(seed);
  Inputs s;
  Matrix basis = rng.gaussian_matrix(d, k);
  linalg::orthonormalize_columns(basis);
  s.vectors = basis.transpose();
  s.eigenvalues = Vector(k);
  for (std::size_t c = 0; c < k; ++c) s.eigenvalues[c] = double(k - c) * 0.7;
  s.y = rng.gaussian_vector(d);
  return s;
}

/// The kernel at batch = 1 with a workspace allocated for this call alone.
void update_fresh(const Inputs& s, double gamma, double weight, std::size_t p,
                  Matrix& e_out, Vector& l_out) {
  UpdateWorkspace ws;
  stage_fresh_row(ws, s.y, weight);
  low_rank_update_batch(s.vectors, s.eigenvalues, gamma, 1, p, ws, e_out,
                        l_out);
}

TEST(LowRankUpdateWorkspace, InPlaceMatchesAllocatingBitForBit) {
  // One workspace recycled across shapes (as the engines do) against a
  // freshly allocated one per call.
  UpdateWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t d = 12 + std::size_t(seed) * 3;
    const std::size_t k = 2 + std::size_t(seed) % 4;
    const Inputs s = make_setup(seed, d, k);

    Matrix e_ref;
    Vector l_ref;
    update_fresh(s, 0.9, 0.1, k, e_ref, l_ref);

    Matrix e_new;
    Vector l_new;
    stage_fresh_row(ws, s.y, 0.1);
    low_rank_update_batch(s.vectors, s.eigenvalues, 0.9, 1, k, ws, e_new,
                          l_new);
    EXPECT_EQ(e_new, e_ref) << "seed " << seed;
    EXPECT_EQ(l_new, l_ref) << "seed " << seed;
  }
}

TEST(LowRankUpdateWorkspace, AliasedOutputsMatchNonAliased) {
  // The engine hot path passes its own eigenvectors/eigenvalues as both
  // input and output; the rotation loads every input of a column block
  // before it stores that block, so this must equal the non-aliased result
  // exactly.
  const Inputs s = make_setup(42, 30, 5);
  Matrix e_ref;
  Vector l_ref;
  update_fresh(s, 0.95, 0.05, 5, e_ref, l_ref);

  UpdateWorkspace ws;
  Matrix vectors = s.vectors;
  Vector lambda = s.eigenvalues;
  stage_fresh_row(ws, s.y, 0.05);
  low_rank_update_batch(vectors, lambda, 0.95, 1, 5, ws, vectors, lambda);
  EXPECT_EQ(vectors, e_ref);
  EXPECT_EQ(lambda, l_ref);
}

TEST(LowRankUpdateWorkspace, RankLargerThanColumnsZeroFillsTail) {
  // p > k+1: trailing eigenpairs must come out exactly zero even when the
  // preallocated outputs hold stale values from a previous call.
  const Inputs s = make_setup(7, 20, 2);
  UpdateWorkspace ws;
  Matrix e_out(6, 20);
  Vector l_out(6);
  e_out.fill(123.0);
  l_out.fill(456.0);
  stage_fresh_row(ws, s.y, 0.1);
  low_rank_update_batch(s.vectors, s.eigenvalues, 0.9, 1, 6, ws, e_out,
                        l_out);

  Matrix e_ref;
  Vector l_ref;
  update_fresh(s, 0.9, 0.1, 6, e_ref, l_ref);
  EXPECT_EQ(e_out, e_ref);
  EXPECT_EQ(l_out, l_ref);
  for (std::size_t c = 3; c < 6; ++c) {
    EXPECT_EQ(l_out[c], 0.0);
    for (std::size_t r = 0; r < 20; ++r) EXPECT_EQ(e_out(c, r), 0.0);
  }
}

TEST(LowRankUpdateWorkspace, EnsureIsIdempotent) {
  UpdateWorkspace ws;
  ws.ensure(100, 11);
  const double* a_before = ws.a.data();
  const double* y_before = ws.y.data();
  ws.ensure(100, 11);
  ws.ensure(50, 6);  // smaller: must not shrink or reallocate
  EXPECT_EQ(ws.a.data(), a_before);
  EXPECT_EQ(ws.y.data(), y_before);
}

}  // namespace
}  // namespace astro::pca
