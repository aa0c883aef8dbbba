#include "io/checkpoint.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "pca/robust_pca.h"
#include "pca/subspace.h"
#include "stats/rng.h"
#include "tests/pca/test_data.h"

namespace astro::io {
namespace {

using pca::testing::draw;
using pca::testing::make_model;
using stats::Rng;

pca::EigenSystem sample_system() {
  Rng rng(501);
  const auto model = make_model(rng, 12, 3);
  pca::RobustPcaConfig cfg;
  cfg.dim = 12;
  cfg.rank = 3;
  cfg.alpha = 1.0 - 1.0 / 300.0;
  pca::RobustIncrementalPca pca(cfg);
  for (int i = 0; i < 500; ++i) pca.observe(draw(model, rng));
  return pca.eigensystem();
}

TEST(Checkpoint, RoundTripsEverything) {
  const pca::EigenSystem original = sample_system();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_eigensystem(buf, original, 0.9);

  double alpha = 0.0;
  const pca::EigenSystem loaded = load_eigensystem(buf, &alpha);
  EXPECT_EQ(alpha, 0.9);
  EXPECT_EQ(loaded.dim(), original.dim());
  EXPECT_EQ(loaded.rank(), original.rank());
  EXPECT_EQ(loaded.observations(), original.observations());
  EXPECT_DOUBLE_EQ(loaded.sigma2(), original.sigma2());
  EXPECT_DOUBLE_EQ(loaded.sums().u(), original.sums().u());
  EXPECT_DOUBLE_EQ(loaded.sums().v(), original.sums().v());
  EXPECT_DOUBLE_EQ(loaded.sums().q(), original.sums().q());
  EXPECT_TRUE(approx_equal(loaded.mean(), original.mean(), 0.0));
  EXPECT_TRUE(approx_equal(loaded.eigenvalues(), original.eigenvalues(), 0.0));
  EXPECT_TRUE(approx_equal(loaded.basis(), original.basis(), 0.0));
}

// The ASPC byte layout, pinned: header, dim, rank, observations, alpha,
// σ², the running sums u v q, the mean, the eigenvalues, then the basis
// row-major d x p (entry (r, c) is pixel r of eigenvector c), every field
// little-endian.  A fixed 3 x 2 system with exactly representable values;
// the basis entries are all distinct, so writing it in any other order
// changes the bytes.
TEST(Checkpoint, ByteLayoutGolden) {
  stats::RobustRunningSums sums(0.5);
  sums.restore(10.0, 9.0, 2.5);
  const pca::EigenSystem system(
      linalg::Vector{1.0, -2.0, 0.5},
      linalg::Matrix{{0.5, -0.25}, {1.5, 2.0}, {-3.0, 0.125}},
      linalg::Vector{4.0, 1.0}, 0.75, sums, 42);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_eigensystem(buf, system, 0.5);

  const std::string bytes = buf.str();
  std::string hex;
  constexpr char kDigits[] = "0123456789abcdef";
  for (unsigned char b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xF];
  }
  const std::string golden =
      "0100000043505341030000000000000002000000000000002a00000000000000"
      "000000000000e03f000000000000e83f00000000000024400000000000002240"
      "0000000000000440000000000000f03f00000000000000c0000000000000e03f"
      "0000000000001040000000000000f03f000000000000e03f000000000000d0bf"
      "000000000000f83f000000000000004000000000000008c0000000000000c03f";
  EXPECT_EQ(hex, golden);

  const pca::EigenSystem loaded = load_eigensystem(buf);
  EXPECT_EQ(loaded.basis(), system.basis());
}

TEST(Checkpoint, BadMagicRejected) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  buf.write("XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX", 32);
  EXPECT_THROW((void)load_eigensystem(buf), std::runtime_error);
}

TEST(Checkpoint, TruncatedRejected) {
  const pca::EigenSystem original = sample_system();
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_eigensystem(buf, original, 1.0);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW((void)load_eigensystem(cut), std::runtime_error);
}

TEST(Checkpoint, EmptyStreamRejected) {
  std::stringstream buf;
  EXPECT_THROW((void)load_eigensystem(buf), std::runtime_error);
}

TEST(Checkpoint, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/astro_ckpt_test.bin";
  const pca::EigenSystem original = sample_system();
  save_eigensystem_file(path, original, 0.99);
  double alpha = 0.0;
  const pca::EigenSystem loaded = load_eigensystem_file(path, &alpha);
  EXPECT_EQ(alpha, 0.99);
  EXPECT_TRUE(approx_equal(loaded.basis(), original.basis(), 0.0));
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW((void)load_eigensystem_file("/nonexistent/ckpt.bin"),
               std::runtime_error);
}

TEST(Checkpoint, ResumedEngineContinuesConverging) {
  // Save mid-stream, load into a fresh engine, keep feeding: the resumed
  // engine must behave as if never interrupted.
  Rng rng(503);
  const auto model = make_model(rng, 12, 3, 3.0, 0.02);
  pca::RobustPcaConfig cfg;
  cfg.dim = 12;
  cfg.rank = 3;
  cfg.alpha = 1.0 - 1.0 / 500.0;

  pca::RobustIncrementalPca first(cfg);
  for (int i = 0; i < 400; ++i) first.observe(draw(model, rng));

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_eigensystem(buf, first.eigensystem(), cfg.alpha);

  pca::RobustIncrementalPca resumed(cfg);
  resumed.set_eigensystem(load_eigensystem(buf));
  for (int i = 0; i < 2000; ++i) resumed.observe(draw(model, rng));
  EXPECT_GT(pca::subspace_affinity(resumed.eigensystem().basis(), model.basis),
            0.99);
  EXPECT_EQ(resumed.eigensystem().observations(), 2400u);
}

}  // namespace
}  // namespace astro::io
