#include "pca/windowed.h"

#include <stdexcept>
#include <vector>

#include "stats/mscale.h"

namespace astro::pca {

SlidingWindowPca::SlidingWindowPca(const WindowedPcaConfig& config)
    : config_(config) {
  if (config.dim == 0) {
    throw std::invalid_argument("SlidingWindowPca: dim must be > 0");
  }
  if (config.buckets < 2) {
    throw std::invalid_argument("SlidingWindowPca: need >= 2 buckets");
  }
  if (config.window < config.buckets) {
    throw std::invalid_argument("SlidingWindowPca: window < buckets");
  }
  const std::size_t full = config.rank + config.bucket_extra_rank;
  if (config.rank == 0 || full > config.dim) {
    throw std::invalid_argument("SlidingWindowPca: bad rank");
  }
  bucket_size_ = config.window / config.buckets;
  // Each bucket must be able to initialize its engine.
  if (bucket_size_ < 2 * full + 2) {
    throw std::invalid_argument(
        "SlidingWindowPca: window/buckets too small to initialize a robust "
        "engine (need >= 2*(rank+extra)+2 per bucket)");
  }
  live_ = make_engine();
}

std::unique_ptr<RobustIncrementalPca> SlidingWindowPca::make_engine() const {
  RobustPcaConfig cfg;
  cfg.dim = config_.dim;
  cfg.rank = config_.rank;
  cfg.extra_rank = config_.bucket_extra_rank;
  cfg.alpha = 1.0;  // each bucket covers its slice exactly, no forgetting
  cfg.rho = config_.rho;
  if (config_.delta > 0.0) {
    cfg.delta = config_.delta;
  } else {
    const std::size_t full = config_.rank + config_.bucket_extra_rank;
    cfg.delta = stats::chi2_consistent_delta(*stats::make_rho(config_.rho),
                                             config_.dim - full);
  }
  return std::make_unique<RobustIncrementalPca>(cfg);
}

void SlidingWindowPca::roll_if_full() {
  if (live_count_ < bucket_size_) return;
  if (live_->initialized()) {
    closed_.push_back(live_->eigensystem());
    closed_counts_.push_back(live_count_);
  } else {
    // A bucket that never initialized (e.g. its entire slice was buffered
    // gappy/degenerate data) is dropped, and the tuples fed to it leave
    // the window with it.  Failing to retire them here made coverage_
    // drift upward without bound — the arrival side counted them but the
    // eviction side (which subtracts per-closed-bucket counts) never saw
    // them.
    coverage_ -= live_count_;
  }
  // Recycle the retiring bucket's update workspace into the fresh engine:
  // every bucket shares one dim/rank shape, so the roll costs no workspace
  // reallocation and the new bucket's first post-init update is already
  // allocation-free.  The workspace is pure scratch — no window state leaks
  // across buckets.
  auto fresh = make_engine();
  fresh->adopt_workspace(live_->take_workspace());
  live_ = std::move(fresh);
  live_count_ = 0;
  while (closed_.size() >= config_.buckets) {
    // Retire exactly the tuples this bucket's arrival added.  The old code
    // subtracted the evicted eigensystem's observations(), a number the
    // robust engine's init replay and merge re-baselining can decouple
    // from tuples fed — over many rolls coverage_ drifted and could even
    // underflow.  The self-tracked count cannot disagree with arrival.
    coverage_ -= closed_counts_.front();
    closed_counts_.pop_front();
    closed_.pop_front();
  }
}

ObservationReport SlidingWindowPca::observe(const linalg::Vector& x,
                                            const PixelMask& mask) {
  roll_if_full();
  ++live_count_;
  ++coverage_;
  return live_->observe(x, mask);
}

void SlidingWindowPca::observe_batch(const linalg::Vector* const* xs,
                                     std::size_t n,
                                     ObservationReport* reports) {
  std::size_t off = 0;
  while (off < n) {
    roll_if_full();
    // Never let a sub-batch straddle a roll: each chunk fills at most the
    // live bucket's remaining capacity, so bucket membership — and
    // therefore window expiry — is identical to the tuple-by-tuple path.
    const std::size_t room = bucket_size_ - live_count_;
    const std::size_t m = std::min(n - off, room);
    live_->observe_batch(xs + off, m, reports + off);
    live_count_ += m;
    coverage_ += m;
    off += m;
  }
}

std::optional<EigenSystem> SlidingWindowPca::eigensystem() const {
  std::vector<EigenSystem> parts(closed_.begin(), closed_.end());
  if (live_->initialized()) parts.push_back(live_->eigensystem());
  if (parts.empty()) return std::nullopt;
  MergeOptions opts;
  opts.rank_out = config_.rank;
  if (parts.size() == 1) return truncate(parts.front(), config_.rank);
  return merge(parts, opts);
}

}  // namespace astro::pca
