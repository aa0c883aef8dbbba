#include "stream/session.h"

#include <algorithm>
#include <chrono>

#include "io/frame.h"

namespace astro::stream {

// ---------------------------------------------------------------------------
// SessionSink
// ---------------------------------------------------------------------------

SessionSink::Pop SessionSink::pop_input(DataTuple& t) {
  if (in_->pop_for(t, std::chrono::milliseconds(50))) {
    metrics_.record_in(t.wire_bytes());
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return Pop::kTuple;
  }
  return in_->closed() && in_->size() == 0 ? Pop::kDrained : Pop::kIdle;
}

void SessionSink::drop_lossy(DataTuple& t) {
  // Counted lossy-link drop (BoundedQueue fault-hook semantics): the
  // producer flows on, the loss is visible in the accounting.
  metrics_.record_dropped();
  lossy_dropped_.fetch_add(1, std::memory_order_relaxed);
  release(t);
}

void SessionSink::close_session(std::uint64_t unconfirmed, bool healthy,
                                bool peer_seen) {
  for (std::uint64_t i = 0; i < unconfirmed; ++i) metrics_.record_dropped();
  lossy_dropped_.fetch_add(unconfirmed, std::memory_order_relaxed);
  // Conservation closes exactly: whatever the receiver never confirmed is
  // counted lossy, so accepted == acked + lossy_dropped.
  acked_.store(accepted_.load(std::memory_order_relaxed) -
                   lossy_dropped_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  // A live peer confirmed every committed frame: whatever degraded the
  // link mid-stream is over, whichever medium noticed it.
  if (healthy) degraded_.store(false, std::memory_order_relaxed);
  if (stop_requested()) {
    set_stop_reason(StopReason::kRequested);
  } else if (!peer_seen) {
    // A sink whose receiver never showed up ended in error, not by request:
    // callers and the supervisor can tell a dead endpoint from a clean
    // shutdown.
    set_stop_reason(StopReason::kError);
  } else {
    set_stop_reason(StopReason::kUpstreamClosed);
  }
}

void SessionSink::fill(SessionSinkCounters& c) const noexcept {
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.acked = acked_.load(std::memory_order_relaxed);
  c.lossy_dropped = lossy_dropped_.load(std::memory_order_relaxed);
  c.degraded = degraded_.load(std::memory_order_relaxed);
}

SessionExtras SessionSink::extras() const {
  SessionSinkCounters c;
  fill(c);
  SessionExtras out{{"accepted", double(c.accepted)},
                    {"acked", double(c.acked)},
                    {"lossy_dropped", double(c.lossy_dropped)},
                    {"degraded", c.degraded ? 1.0 : 0.0}};
  medium_extras(out);
  return out;
}

// ---------------------------------------------------------------------------
// SessionServer
// ---------------------------------------------------------------------------

std::uint64_t SessionServer::read_resume_point() {
  quarantined_since_resume_ = 0;
  return resume_point_ ? resume_point_() : 0;
}

std::uint64_t SessionServer::ack_ceiling(std::uint64_t position) const {
  if (!applied_watermark_) return position;
  // Quarantined frames never reach the application, so they are credited
  // on top of its watermark — duplicates are NOT (they sit at or below the
  // resume point, which the watermark already covers; crediting them
  // would let confirmations outrun durability).
  return std::min(position, applied_watermark_() + quarantined_since_resume_);
}

bool SessionServer::verify_crc(std::span<const std::uint8_t> header,
                               std::span<const std::uint8_t> payload) {
  if (io::verify_frame_crc(header, payload)) return true;
  crc_rejects_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool SessionServer::deliver(std::span<const std::uint8_t> payload,
                            std::uint64_t seq) {
  if (arena_ != nullptr) arena_->acquire(staging_);
  if (!io::decode_tuple_payload_into(payload, staging_)) {
    // The CRC verified, so these are exactly the bytes the sender encoded:
    // a retransmit would carry the same poison.  Quarantine and move on.
    payload_rejects_.fetch_add(1, std::memory_order_relaxed);
    quarantine(seq);
    return true;
  }
  const std::size_t bytes = staging_.wire_bytes();
  if (!out_->push(std::move(staging_))) return false;
  delivered_.fetch_add(1, std::memory_order_relaxed);
  metrics_.record_out(bytes);
  return true;
}

void SessionServer::dead_letter(std::uint64_t seq) {
  metrics_.record_dropped();
  if (!dlq_) return;
  // The frame failed validation, so nothing in it can be trusted except
  // its claimed position: forward a husk carrying that seq so the gap is
  // observable downstream.  Non-blocking — a full DLQ must not stall the
  // receive loop.
  DeadLetter dl;
  dl.tuple.seq = seq;
  dl.reason = spectra::RejectReason::kCorruptFrame;
  if (dlq_->try_push(dl)) {
    dead_letters_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dead_letter_overflow_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SessionServer::quarantine(std::uint64_t seq) {
  ++quarantined_since_resume_;
  dead_letter(seq);
}

void SessionServer::close_output() {
  if (arena_ != nullptr) arena_->release(staging_);
  out_->close();  // downstream drains what was delivered, then exits
}

void SessionServer::fill(SessionServerCounters& c) const noexcept {
  c.delivered = delivered_.load(std::memory_order_relaxed);
  c.duplicates = duplicates_.load(std::memory_order_relaxed);
  c.crc_rejects = crc_rejects_.load(std::memory_order_relaxed);
  c.payload_rejects = payload_rejects_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.sessions = sessions_.load(std::memory_order_relaxed);
  c.resumes = resumes_.load(std::memory_order_relaxed);
  c.byes = byes_.load(std::memory_order_relaxed);
  c.dead_letters = dead_letters_.load(std::memory_order_relaxed);
  c.dead_letter_overflow =
      dead_letter_overflow_.load(std::memory_order_relaxed);
}

SessionExtras SessionServer::extras() const {
  SessionServerCounters c;
  fill(c);
  SessionExtras out{{"delivered", double(c.delivered)},
                    {"duplicates", double(c.duplicates)},
                    {"crc_rejects", double(c.crc_rejects)},
                    {"payload_rejects", double(c.payload_rejects)},
                    {"protocol_errors", double(c.protocol_errors)},
                    {"sessions", double(c.sessions)},
                    {"resumes", double(c.resumes)},
                    {"byes", double(c.byes)},
                    {"dead_letters", double(c.dead_letters)},
                    {"dead_letter_overflow", double(c.dead_letter_overflow)}};
  medium_extras(out);
  return out;
}

}  // namespace astro::stream
