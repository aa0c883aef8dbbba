#pragma once

// Sliding-window PCA (paper §II-B): the alternative to exponential
// forgetting for "maintaining the eigensystem over varying temporal
// extents ... time-based windows ... exploiting sharing strategies for
// sliding window scenarios".
//
// The window of the last W observations is partitioned into B buckets of
// W/B observations each.  Every bucket runs its own robust engine over its
// slice only; the window estimate is the *merge* (eq. 15) of the closed
// buckets plus the live one — the same combination machinery the parallel
// engines use, reused as the sliding-window sharing strategy.  Expiry is
// exact at bucket granularity: when a new bucket opens, the oldest is
// dropped, so no stale observation influences the estimate for longer than
// W + W/B tuples (compare exponential forgetting, whose tail never ends).

#include <deque>
#include <memory>
#include <optional>

#include "pca/merge.h"
#include "pca/robust_pca.h"

namespace astro::pca {

struct WindowedPcaConfig {
  std::size_t dim = 0;
  std::size_t rank = 5;
  std::size_t window = 4096;  ///< observations covered (W)
  std::size_t buckets = 8;    ///< expiry granularity (B >= 2)
  /// Extra components each bucket keeps beyond `rank`, so merging loses
  /// less to per-bucket truncation.
  std::size_t bucket_extra_rank = 2;
  std::string rho = "bisquare";
  /// Breakdown parameter per bucket.  The default 0.5 maximizes breakdown;
  /// note the M-scale it produces is a *robust* scale whose pairing with
  /// eq. (7) inflates eigenvalues by a constant factor (~2 for bisquare) on
  /// clean high-dof data.  Set <= 0 to select the χ²-dof-consistent value
  /// (stats::chi2_consistent_delta) instead: approximately unbiased
  /// eigenvalues, at the price of a reduced breakdown point
  /// min(δ, 1−δ).  Choose by whether the stream is contaminated or the
  /// absolute eigenvalue scale matters more.
  double delta = 0.5;
};

class SlidingWindowPca {
 public:
  explicit SlidingWindowPca(const WindowedPcaConfig& config);

  /// Consume one observation (an empty mask means complete).
  ObservationReport observe(const linalg::Vector& x,
                            const PixelMask& mask = {});

  /// Consume a micro-batch, splitting it at bucket boundaries: a batch
  /// never spans a roll, so every sub-batch lands in exactly the bucket it
  /// would have reached tuple by tuple and expiry stays exact at bucket
  /// granularity.  One report per tuple, as with observe().
  void observe_batch(const linalg::Vector* const* xs, std::size_t n,
                     ObservationReport* reports);

  /// The current window estimate: merge of all live buckets, truncated to
  /// `rank`.  Nullopt until the first bucket has initialized.
  [[nodiscard]] std::optional<EigenSystem> eigensystem() const;

  /// Observations currently represented in the window (<= W + bucket size).
  [[nodiscard]] std::uint64_t coverage() const noexcept { return coverage_; }
  [[nodiscard]] std::size_t live_buckets() const noexcept {
    return closed_.size() + 1;
  }
  [[nodiscard]] const WindowedPcaConfig& config() const noexcept {
    return config_;
  }

 private:
  void roll_if_full();
  [[nodiscard]] std::unique_ptr<RobustIncrementalPca> make_engine() const;

  WindowedPcaConfig config_;
  std::size_t bucket_size_ = 0;
  std::unique_ptr<RobustIncrementalPca> live_;
  std::size_t live_count_ = 0;
  std::deque<EigenSystem> closed_;  // oldest first
  /// Tuples fed to each closed bucket, parallel to closed_.  Eviction
  /// retires exactly what arrival added — coverage_ is Σ closed_counts_ +
  /// live_count_ by construction, so it can neither drift nor underflow
  /// (an engine's observations() is NOT that number: a bucket that never
  /// initializes reports zero, and merge installs re-baseline it).
  std::deque<std::uint64_t> closed_counts_;
  std::uint64_t coverage_ = 0;
};

}  // namespace astro::pca
