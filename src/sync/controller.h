#pragma once

// The synchronization controller (paper §III-B): "generates the sequence of
// output tuples with sender and receiver number", paced by a Throttle
// operator downstream, routed to the sender engine's control port.
//
//   SyncController --> Throttle<ControlTuple> --> ControlRouter --> engines
//
// The controller emits rounds forever (until stopped or its output closes);
// the throttle sets the wall-clock sync rate — "adjusting the Throttle
// operator timing helps finding the balance between the overall cluster
// performance and eigensystems consistency."

#include <functional>
#include <memory>
#include <vector>

#include "stream/operator.h"
#include "sync/strategy.h"

namespace astro::sync {

class SyncController final : public stream::Operator {
 public:
  /// Liveness probe: true when the engine can take part in a merge round.
  using LivenessProbe = std::function<bool(std::size_t engine)>;
  /// Restart-generation probe: advances each time the engine is restarted.
  using GenerationProbe = std::function<std::uint64_t(std::size_t engine)>;
  /// Health probe: true when the engine's eigensystem passed its last
  /// numerical self-check (PcaEngineOperator::healthy()).  A diverged
  /// engine is excluded from merge pairs — in either role — until it
  /// recovers, so its poisoned state can never reach a healthy peer.
  using HealthProbe = std::function<bool(std::size_t engine)>;

  SyncController(std::string name, std::unique_ptr<SyncStrategy> strategy,
                 std::size_t engines,
                 stream::ChannelPtr<stream::ControlTuple> out,
                 std::uint64_t max_rounds = 0);

  /// Enables degraded-mode operation (call before start()).  With probes
  /// installed, commands naming a dead sender or receiver are dropped from
  /// the round — the survivors keep syncing among themselves — and when an
  /// engine's generation advances (it was restarted and is alive again) the
  /// controller injects a bidirectional re-merge with its lowest-index live
  /// peer, folding the recovered eigensystem back into the cluster.
  void set_liveness(LivenessProbe alive, GenerationProbe generation);

  /// Enables the health dimension of the merge gate (call before start()).
  /// Orthogonal to liveness: a quarantined engine is typically both
  /// unhealthy and (briefly) dead, and the health filter runs first so the
  /// exclusion is attributed to the more specific reason.
  void set_health(HealthProbe healthy);

  [[nodiscard]] const SyncStrategy& strategy() const noexcept {
    return *strategy_;
  }

  /// Sync rounds whose commands were all handed downstream (readable live
  /// from a sampler thread).
  [[nodiscard]] std::uint64_t rounds() const noexcept {
    return rounds_.load(std::memory_order_relaxed);
  }
  /// Commands suppressed because an endpoint was dead.
  [[nodiscard]] std::uint64_t skipped_dead() const noexcept {
    return skipped_dead_.load(std::memory_order_relaxed);
  }
  /// Extra re-merge commands injected for rejoining engines.
  [[nodiscard]] std::uint64_t rejoin_syncs() const noexcept {
    return rejoin_syncs_.load(std::memory_order_relaxed);
  }
  /// Commands suppressed because an endpoint was quarantined (unhealthy).
  [[nodiscard]] std::uint64_t skipped_unhealthy() const noexcept {
    return skipped_unhealthy_.load(std::memory_order_relaxed);
  }

 protected:
  void run() override;

 private:
  std::unique_ptr<SyncStrategy> strategy_;
  std::size_t engines_;
  stream::ChannelPtr<stream::ControlTuple> out_;
  std::uint64_t max_rounds_;  // 0 = unbounded
  LivenessProbe alive_;            // empty = every engine always live
  GenerationProbe generation_;
  HealthProbe health_;             // empty = every engine always healthy
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> skipped_dead_{0};
  std::atomic<std::uint64_t> rejoin_syncs_{0};
  std::atomic<std::uint64_t> skipped_unhealthy_{0};
};

/// Delivers each throttled control tuple to its *sender* engine's control
/// port; the sender publishes state and forwards to the receiver.
class ControlRouter final : public stream::Operator {
 public:
  ControlRouter(std::string name, stream::ChannelPtr<stream::ControlTuple> in,
                std::vector<stream::ChannelPtr<stream::ControlTuple>> engines);

 protected:
  void run() override;

 private:
  stream::ChannelPtr<stream::ControlTuple> in_;
  std::vector<stream::ChannelPtr<stream::ControlTuple>> engines_;
};

}  // namespace astro::sync
