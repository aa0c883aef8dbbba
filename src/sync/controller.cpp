#include "sync/controller.h"

#include <stdexcept>

namespace astro::sync {

using stream::ControlTuple;

SyncController::SyncController(std::string name,
                               std::unique_ptr<SyncStrategy> strategy,
                               std::size_t engines,
                               stream::ChannelPtr<ControlTuple> out,
                               std::uint64_t max_rounds)
    : Operator(std::move(name)),
      strategy_(std::move(strategy)),
      engines_(engines),
      out_(std::move(out)),
      max_rounds_(max_rounds) {
  if (!strategy_) throw std::invalid_argument("SyncController: null strategy");
  if (engines_ == 0) {
    throw std::invalid_argument("SyncController: needs >= 1 engine");
  }
}

void SyncController::set_liveness(LivenessProbe alive,
                                  GenerationProbe generation) {
  alive_ = std::move(alive);
  generation_ = std::move(generation);
}

void SyncController::set_health(HealthProbe healthy) {
  health_ = std::move(healthy);
}

void SyncController::run() {
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> seen_generation(engines_, 0);
  while (!stop_requested() && (max_rounds_ == 0 || epoch < max_rounds_)) {
    std::vector<ControlTuple> cmds = strategy_->round(epoch, engines_);
    // "Done" keys off the *strategy's* output: a degraded round where every
    // command named a dead engine must not terminate the controller — the
    // engine may come back.
    const bool strategy_done = cmds.empty();
    // Health gate first: a quarantined engine is usually also dead for a
    // few polls, and "excluded because diverged" is the more specific
    // reason.  Filtering here keeps a poisoned eigensystem out of every
    // merge pair, in either role, until recovery flips the probe back.
    if (health_) {
      std::erase_if(cmds, [&](const ControlTuple& cmd) {
        const bool quarantined =
            !health_(std::size_t(cmd.sender)) ||
            (cmd.receiver >= 0 && !health_(std::size_t(cmd.receiver)));
        if (quarantined) {
          skipped_unhealthy_.fetch_add(1, std::memory_order_relaxed);
        }
        return quarantined;
      });
    }
    if (alive_) {
      std::erase_if(cmds, [&](const ControlTuple& cmd) {
        const bool dead = !alive_(std::size_t(cmd.sender)) ||
                          (cmd.receiver >= 0 &&
                           !alive_(std::size_t(cmd.receiver)));
        if (dead) skipped_dead_.fetch_add(1, std::memory_order_relaxed);
        return dead;
      });
      // Rejoin: a restarted engine resumes from its checkpoint, which
      // predates any merges it missed.  Pull a live peer's state into it
      // and push its recovered state back out, so one round restores
      // bidirectional consistency instead of waiting for the strategy's
      // pattern to cycle around.
      if (generation_) {
        for (std::size_t i = 0; i < engines_; ++i) {
          const std::uint64_t gen = generation_(i);
          if (gen == seen_generation[i]) continue;
          if (!alive_(i)) continue;  // still down; catch it next round
          if (health_ && !health_(i)) continue;  // not clean yet
          seen_generation[i] = gen;
          for (std::size_t peer = 0; peer < engines_; ++peer) {
            if (peer == i || !alive_(peer)) continue;
            if (health_ && !health_(peer)) continue;
            ControlTuple pull;
            pull.epoch = epoch;
            pull.sender = int(peer);
            pull.receiver = int(i);
            ControlTuple push_back = pull;
            push_back.sender = int(i);
            push_back.receiver = int(peer);
            cmds.push_back(pull);
            cmds.push_back(push_back);
            rejoin_syncs_.fetch_add(2, std::memory_order_relaxed);
            break;  // lowest-index live peer is enough
          }
        }
      }
    }
    ++epoch;
    bool closed = false;
    for (const ControlTuple& cmd : cmds) {
      const std::uint64_t t_push = stream::OperatorMetrics::now_ns();
      if (!out_->push(cmd)) {
        closed = true;
        break;
      }
      metrics_.record_push_wait_ns(stream::OperatorMetrics::now_ns() - t_push);
      metrics_.record_out();
    }
    if (closed) break;
    // Counted once handed off: the depth-1 channel to the throttle blocks
    // the push until the previous round left, so this is rounds effected
    // (plus at most the one in flight), not rounds queued.
    rounds_.fetch_add(1, std::memory_order_relaxed);
    if (strategy_done) break;  // strategy produced nothing (n < 2): done
  }
  out_->close();
  set_stop_reason(stop_requested() ? stream::StopReason::kRequested
                                   : stream::StopReason::kUpstreamClosed);
}

ControlRouter::ControlRouter(
    std::string name, stream::ChannelPtr<ControlTuple> in,
    std::vector<stream::ChannelPtr<ControlTuple>> engines)
    : Operator(std::move(name)), in_(std::move(in)), engines_(std::move(engines)) {
  if (engines_.empty()) {
    throw std::invalid_argument("ControlRouter: no engine ports");
  }
}

void ControlRouter::run() {
  ControlTuple cmd;
  std::uint64_t t_prev = stream::OperatorMetrics::now_ns();
  while (!stop_requested() && in_->pop(cmd)) {
    const std::uint64_t t_popped = stream::OperatorMetrics::now_ns();
    metrics_.record_pop_wait_ns(t_popped - t_prev);
    metrics_.record_in();
    if (cmd.sender < 0 || std::size_t(cmd.sender) >= engines_.size()) {
      metrics_.record_dropped();
      t_prev = t_popped;
      continue;
    }
    if (!engines_[std::size_t(cmd.sender)]->push(cmd)) {
      metrics_.record_dropped();
      t_prev = stream::OperatorMetrics::now_ns();
      continue;
    }
    t_prev = stream::OperatorMetrics::now_ns();
    metrics_.record_push_wait_ns(t_prev - t_popped);
    metrics_.record_out();
  }
  for (auto& port : engines_) port->close();
  set_stop_reason(stop_requested() ? stream::StopReason::kRequested
                                   : stream::StopReason::kUpstreamClosed);
}

}  // namespace astro::sync
