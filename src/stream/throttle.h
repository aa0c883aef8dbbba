#pragma once

// The Throttle operator (paper §III-B): rate-limits a stream.
//
// In the paper it paces the synchronization control tuples ("the
// synchronization throttle rate was set to 0.5 seconds"); it works on any
// tuple type.  Pacing is a token bucket with burst capacity 1: each
// emission is due one period after the previous one actually went out, so
// consecutive emissions are never closer than 1/rate.  (The earlier
// absolute schedule — tuple i due at start + i/rate — banked credit during
// an upstream stall and then burst at full speed until it caught up with
// the wall-clock schedule; re-anchoring to the last emission forfeits
// credit an idle gap would otherwise accrue.)

#include <chrono>
#include <utility>

#include "stream/operator.h"

namespace astro::stream {

template <typename T>
class ThrottleOperator final : public Operator {
 public:
  ThrottleOperator(std::string name, ChannelPtr<T> in, ChannelPtr<T> out,
                   double rate_per_sec)
      : Operator(std::move(name)),
        in_(std::move(in)),
        out_(std::move(out)),
        rate_(rate_per_sec) {}

 protected:
  void run() override {
    using Clock = std::chrono::steady_clock;
    const auto period =
        rate_ > 0.0 ? std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(1.0 / rate_))
                    : Clock::duration::zero();
    // One token, available immediately; waiting until next_due IS the
    // refill.  A due time in the past (input was idle longer than a
    // period) returns at once — the stale credit is forfeited rather than
    // banked, so a post-stall catch-up burst cannot happen.  The wait ends
    // early on request_stop(), so a slow rate never delays shutdown.
    auto next_due = Clock::now();

    T item;
    std::uint64_t t_prev = OperatorMetrics::now_ns();
    while (!stop_requested() && in_->pop(item)) {
      const std::uint64_t t_popped = OperatorMetrics::now_ns();
      metrics_.record_pop_wait_ns(t_popped - t_prev);
      metrics_.record_in();
      if (rate_ > 0.0 && !wait_until_or_stop(next_due)) break;
      // The pacing sleep is deliberate delay, not blocking: only the push
      // itself counts toward push_wait.
      const std::uint64_t t_push = OperatorMetrics::now_ns();
      if (!out_->push(std::move(item))) break;
      t_prev = OperatorMetrics::now_ns();
      metrics_.record_push_wait_ns(t_prev - t_push);
      // Re-anchor to the emission that actually happened (not the schedule
      // slot): even when the push itself blocked on a full queue, the next
      // tuple is spaced a full period behind it.
      if (rate_ > 0.0) next_due = Clock::now() + period;
      metrics_.record_out();
    }
    out_->close();
    set_stop_reason(stop_requested() ? StopReason::kRequested
                                     : StopReason::kUpstreamClosed);
  }

 private:
  ChannelPtr<T> in_;
  ChannelPtr<T> out_;
  double rate_;
};

}  // namespace astro::stream
