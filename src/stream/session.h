#pragma once

// The session contract both tuple transports carry (DESIGN.md "Transport",
// "Session contract"): SessionSink and SessionServer are the operator
// bases under the TCP medium (stream/net.h) and the shared-memory medium
// (stream/shm_net.h).  They own what must mean the same on both:
//
//   * sender conservation — every accepted tuple ends acked or
//     lossy_dropped, closed exactly at flush, and a flush that ends healthy
//     clears `degraded`;
//   * the receiver counters and the dead-letter husks;
//   * the poison-frame rule — a CRC-valid frame whose payload does not
//     decode is what the sender encoded, so no retransmit can heal it: it
//     is counted once, husked once, and skipped;
//   * durable gating — the receiver confirms no further than its applied
//     watermark plus the frames it quarantined.
//
// Frame boundaries, ordering, confirmation and liveness stay in the media.
// The per-frame paths are non-virtual.

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "stream/dead_letter.h"
#include "stream/operator.h"
#include "stream/tuple_arena.h"

namespace astro::stream {

/// Registry extras (MetricsRegistry::Extras' result type).
using SessionExtras = std::vector<std::pair<std::string, double>>;

/// Sender-side counters every medium reports (readable while running).
struct SessionSinkCounters {
  std::uint64_t accepted = 0;       ///< tuples taken from the input
  std::uint64_t acked = 0;          ///< tuples the receiver confirmed
  std::uint64_t lossy_dropped = 0;  ///< counted drops (degraded / give-up)
  bool degraded = false;
};

/// Receiver-side counters every medium reports.
struct SessionServerCounters {
  std::uint64_t delivered = 0;        ///< unique tuples pushed downstream
  std::uint64_t duplicates = 0;       ///< seqs already applied (replay)
  std::uint64_t crc_rejects = 0;      ///< frames failing CRC32C
  std::uint64_t payload_rejects = 0;  ///< CRC-valid but undecodable bodies
  std::uint64_t protocol_errors = 0;  ///< undecodable headers / framing
  std::uint64_t sessions = 0;         ///< sessions opened
  std::uint64_t resumes = 0;          ///< sessions resuming past seq 0
  std::uint64_t byes = 0;             ///< clean end-of-stream markers
  std::uint64_t dead_letters = 0;     ///< husks forwarded to the DLQ
  std::uint64_t dead_letter_overflow = 0;
};

/// Egress half of a session: pops the input channel and keeps the sender
/// ledger.  The medium's run() frames and ships each accepted tuple.
class SessionSink : public Operator {
 public:
  /// Closes the producer-side slab recycle loop: once a tuple is framed
  /// (or counted dropped) its payload goes back to `arena`.  Call before
  /// start().  Null = payloads are plain heap vectors.
  void set_arena(TupleArena* arena) noexcept { arena_ = arena; }

  /// Registry extras: the shared session keys, then the medium's own.
  [[nodiscard]] SessionExtras extras() const;

 protected:
  SessionSink(std::string name, ChannelPtr<DataTuple> in)
      : Operator(std::move(name)), in_(std::move(in)) {}

  enum class Pop { kTuple, kIdle, kDrained };
  /// One input pop bounded at 50 ms.  A popped tuple is counted accepted;
  /// kDrained = the input is closed and empty.
  Pop pop_input(DataTuple& t);
  /// Counted lossy drop of an accepted tuple.
  void drop_lossy(DataTuple& t);
  /// Returns a framed tuple's payload to the arena (no-op without one).
  void release(DataTuple& t) noexcept {
    if (arena_ != nullptr) arena_->release(t);
  }
  /// Flush epilogue: counts the `unconfirmed` frames lossy, closes
  /// conservation (acked = accepted − lossy_dropped), clears `degraded`
  /// when the flush ended `healthy`, and records why the sink stopped
  /// (`peer_seen` = a receiver ever took part in the session).
  void close_session(std::uint64_t unconfirmed, bool healthy, bool peer_seen);

  void fill(SessionSinkCounters& c) const noexcept;
  virtual void medium_extras(SessionExtras& out) const = 0;

  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> lossy_dropped_{0};
  std::atomic<bool> degraded_{false};

 private:
  ChannelPtr<DataTuple> in_;
  TupleArena* arena_ = nullptr;
  std::atomic<std::uint64_t> accepted_{0};
};

/// Ingress half of a session: verifies, decodes and pushes tuple frames and
/// keeps the receiver ledger.  The medium's run() finds frame boundaries,
/// orders seqs and confirms progress to the sender.
class SessionServer : public Operator {
 public:
  /// Forwards rejected frames to a dead-letter channel as husks with reason
  /// kCorruptFrame (non-blocking; overflow is counted).  Call before start().
  void set_dead_letters(ChannelPtr<DeadLetter> dlq) { dlq_ = std::move(dlq); }

  /// Durable session resume: returns the highest transport seq the
  /// application already applied durably (e.g. recovered from a write-ahead
  /// log after a process restart).  Frames at or below it are counted
  /// duplicates, never re-delivered.  Unset = 0.  Call before start().
  void set_resume_point(std::function<std::uint64_t()> fn) {
    resume_point_ = std::move(fn);
  }

  /// Ack gating: the receiver never confirms past this watermark (plus the
  /// frames it quarantined, which have no durable application), so the
  /// sender only reclaims what the application durably applied.  Unset =
  /// everything pushed downstream counts as applied.  Call before start().
  void set_applied_watermark(std::function<std::uint64_t()> fn) {
    applied_watermark_ = std::move(fn);
  }

  /// Wires the zero-alloc decode path: each delivered tuple's payload is
  /// leased from `arena`.  Call before start().  Null = heap payloads.
  void set_arena(TupleArena* arena) noexcept { arena_ = arena; }

  /// Registry extras: the shared session keys, then the medium's own.
  [[nodiscard]] SessionExtras extras() const;

 protected:
  SessionServer(std::string name, ChannelPtr<DataTuple> out)
      : Operator(std::move(name)), out_(std::move(out)) {}

  /// Reads the application's resume point and restarts the quarantine
  /// credit (the watermark already covers everything before it).
  [[nodiscard]] std::uint64_t read_resume_point();
  /// Highest seq the sender may treat as confirmed once the receiver has
  /// consumed through `position`.
  [[nodiscard]] std::uint64_t ack_ceiling(std::uint64_t position) const;

  /// CRC check; a failure is counted in `crc_rejects`.  What happens to
  /// the frame is the medium's call: TCP heals it by retransmit, the ring
  /// has no second copy and quarantines it.
  bool verify_crc(std::span<const std::uint8_t> header,
                  std::span<const std::uint8_t> payload);

  /// The tuple-frame path after CRC and seq checks: decode into the staging
  /// tuple and push it downstream.  A payload that does not decode is
  /// quarantined; either way the caller advances past `seq`.  False = the
  /// output closed.
  bool deliver(std::span<const std::uint8_t> payload, std::uint64_t seq);

  /// Forwards a husk for the frame claiming `seq` and counts it dropped.
  void dead_letter(std::uint64_t seq);
  /// dead_letter() for a frame the session skips for good: credited to the
  /// ack ceiling.
  void quarantine(std::uint64_t seq);

  /// Returns the staging payload to the arena and closes the output.
  void close_output();

  void fill(SessionServerCounters& c) const noexcept;
  virtual void medium_extras(SessionExtras& out) const = 0;

  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> resumes_{0};
  std::atomic<std::uint64_t> byes_{0};

 private:
  ChannelPtr<DataTuple> out_;
  ChannelPtr<DeadLetter> dlq_;
  std::function<std::uint64_t()> resume_point_;
  std::function<std::uint64_t()> applied_watermark_;
  TupleArena* arena_ = nullptr;
  DataTuple staging_;  // recycled decode target
  std::uint64_t quarantined_since_resume_ = 0;

  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> crc_rejects_{0};
  std::atomic<std::uint64_t> payload_rejects_{0};
  std::atomic<std::uint64_t> dead_letters_{0};
  std::atomic<std::uint64_t> dead_letter_overflow_{0};
};

}  // namespace astro::stream
