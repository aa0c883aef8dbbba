#pragma once

// Same-host shared-memory medium of the session transport (DESIGN.md
// "Transport", "Shared-memory leg"): ShmTupleSink and ShmTupleServer carry
// the session contract of stream/session.h over a ShmRing instead of a
// socket.  This medium adds what a ring needs:
//
//   * Every slot carries a CRC32C-protected v2 frame (io/frame.h).  A slot
//     damaged in the segment is quarantined and *skipped* — unlike TCP
//     there is no second copy to retransmit (the ring slot IS the sender's
//     copy), so quarantine-and-advance is the honest semantics.
//   * The ring is the retransmit window: the producer can only overwrite
//     a slot once the consumer's tail passed it, and the tail is gated by
//     the session's ack ceiling, so a kill -9'd consumer restart
//     re-attaches and replays exactly the unconsumed suffix — the resume
//     point filters the replayed prefix as counted duplicates.
//   * Peer death is detected via pid liveness + heartbeat staleness
//     (shm_ring.h PeerWatch).  A consumer that stays dead past
//     restart_timeout flips the sink to the degraded counted-lossy mode;
//     it re-heals when a new consumer generation attaches.
//   * End of stream is the header's bye flag (the shm analog of kBye):
//     set after the last commit, so a draining consumer exits exactly at
//     head.
//
// The steady path allocates nothing: frames are encoded straight into the
// ring slot (io::encode_tuple_into) and decoded into an arena-leased
// recycled tuple, so the pipeline's zero-alloc tuple lifecycle survives
// the process hop — the property BENCH_transport.json's shm rows gate.
//
// Determinism: layer a ShmFaultInjector (stream/shm_fault.h) under the
// endpoints to replay slot corruption, consumer stalls, and producer
// death mid-commit at exact transport seqs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "stream/session.h"
#include "stream/shm_fault.h"
#include "stream/shm_ring.h"

namespace astro::stream {

/// Knobs shared by both shm endpoints (the segment geometry must agree).
struct ShmTransportOptions {
  /// Ring capacity in slots — the retransmit window and the transport's
  /// backpressure bound.
  std::size_t ring_capacity = 1024;
  /// Largest frame a slot holds; tuples that encode bigger are counted
  /// lossy (a geometry misconfiguration, never silent truncation).
  std::size_t max_frame_bytes = 4096;
  /// Consumer: how long to poll for the producer's segment to appear.
  std::chrono::milliseconds attach_timeout{5000};
  /// Heartbeat staleness threshold: a registered peer whose beat froze
  /// longer than this (or whose pid vanished) is dead.
  std::chrono::milliseconds peer_timeout{1000};
  /// Producer: grace period for a dead/absent consumer to (re)attach
  /// before the sink degrades to counted-lossy.
  std::chrono::milliseconds restart_timeout{3000};
  /// Flush / final-drain bound: max wait without tail (resp. watermark)
  /// progress before giving up with counted loss.
  std::chrono::milliseconds ack_timeout{2000};
  /// Optional deterministic fault shim (tests / chaos drills).
  std::shared_ptr<ShmFaultInjector> fault;
};

/// Live producer-side counters (readable while the sink runs).
struct ShmSinkCounters : SessionSinkCounters {
  std::uint64_t frames_committed = 0;
  std::uint64_t oversize_dropped = 0;  ///< tuples too big for a slot
  std::uint64_t blocked_waits = 0;  ///< full-ring wait episodes
  std::uint64_t wraps = 0;          ///< ring laps (slot-0 reuses)
  std::uint64_t ring_depth = 0;     ///< head - tail, sampled
  std::uint64_t consumer_generations = 0;  ///< attach incarnations observed
};

/// Live consumer-side counters.
struct ShmServerCounters : SessionServerCounters {
  std::uint64_t quarantined = 0;     ///< slots skipped past (all reject kinds)
  std::uint64_t producer_deaths = 0;
};

/// Egress operator: creates the segment (producer side owns the name),
/// encodes every input tuple straight into a ring slot, and flushes —
/// waits for the consumer's durable tail to reach head — before marking
/// bye and exiting.
class ShmTupleSink final : public SessionSink {
 public:
  /// Creates `segment` (unlinking a stale one) with the options' geometry.
  /// Throws std::runtime_error when the segment cannot be created.
  ShmTupleSink(std::string name, std::string segment, ChannelPtr<DataTuple> in,
               ShmTransportOptions options = {});
  ~ShmTupleSink() override;

  [[nodiscard]] const std::string& segment_name() const noexcept {
    return segment_->name();
  }

  [[nodiscard]] ShmSinkCounters counters() const noexcept;

 protected:
  void run() override;
  void medium_extras(SessionExtras& out) const override;

 private:
  [[nodiscard]] bool wait_for_room(ShmRingProducer& prod, PeerWatch& watch);
  void flush(ShmRingProducer& prod, PeerWatch& watch);
  void sample_gauges(const ShmRingProducer& prod);

  std::unique_ptr<ShmRingSegment> segment_;
  ShmTransportOptions options_;

  std::atomic<std::uint64_t> frames_committed_{0};
  std::atomic<std::uint64_t> oversize_dropped_{0};
  std::atomic<std::uint64_t> blocked_waits_{0};
  std::atomic<std::uint64_t> wraps_{0};
  std::atomic<std::uint64_t> ring_depth_{0};
  std::atomic<std::uint64_t> consumer_generations_{0};
};

/// Source operator: attaches to the producer's segment (polling until it
/// appears), consumes frames from the ring, and pushes decoded tuples
/// downstream exactly once.  Exits on bye (after the durable tail caught
/// up) or on producer death.  The resume point is read at attach.
class ShmTupleServer final : public SessionServer {
 public:
  ShmTupleServer(std::string name, std::string segment,
                 ChannelPtr<DataTuple> out, ShmTransportOptions options = {});
  ~ShmTupleServer() override;

  [[nodiscard]] ShmServerCounters counters() const noexcept;

 protected:
  void run() override;
  void medium_extras(SessionExtras& out) const override;

 private:
  [[nodiscard]] bool attach();
  /// Consumes one committed slot; false = the output closed under us.
  bool consume_slot(ShmRingConsumer& cons, std::uint64_t resume);
  void final_drain(ShmRingConsumer& cons);

  std::string segment_name_;
  std::unique_ptr<ShmRingSegment> segment_;
  ShmTransportOptions options_;

  std::atomic<std::uint64_t> producer_deaths_{0};
};

}  // namespace astro::stream
