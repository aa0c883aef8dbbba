#include "stream/shm_net.h"

#include <algorithm>
#include <thread>

#include "io/frame.h"

namespace astro::stream {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

constexpr milliseconds kAttachPoll{1};

/// Idle/backpressure backoff: spin a little for the common
/// consumer-is-right-behind-us case, then yield to the scheduler in
/// growing slices so a genuinely idle ring costs nothing.
void backoff(unsigned& spins) {
  ++spins;
  if (spins < 64) {
    // busy-spin: the peer is typically nanoseconds away
  } else if (spins < 256) {
    std::this_thread::yield();
  } else if (spins < 512) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ShmTupleSink
// ---------------------------------------------------------------------------

ShmTupleSink::ShmTupleSink(std::string name, std::string segment,
                           ChannelPtr<DataTuple> in,
                           ShmTransportOptions options)
    : SessionSink(std::move(name), std::move(in)), options_(options) {
  segment_ = ShmRingSegment::create(
      segment, options_.ring_capacity,
      kShmSlotPrefixBytes + options_.max_frame_bytes);
}

ShmTupleSink::~ShmTupleSink() { join(); }

void ShmTupleSink::sample_gauges(const ShmRingProducer& prod) {
  ring_depth_.store(prod.depth(), std::memory_order_relaxed);
  acked_.store(prod.tail(), std::memory_order_relaxed);
  consumer_generations_.store(prod.consumer().generation,
                              std::memory_order_relaxed);
}

bool ShmTupleSink::wait_for_room(ShmRingProducer& prod, PeerWatch& watch) {
  // One wait episode: the ring is full and we park until the consumer's
  // durable tail frees a slot.  A consumer that is dead (or was never
  // there) continuously past restart_timeout is not coming back inside
  // this episode — degrade to counted-lossy rather than wedge the
  // pipeline.
  blocked_waits_.fetch_add(1, std::memory_order_relaxed);
  Clock::time_point dead_since{};
  unsigned spins = 0;
  while (prod.full()) {
    if (stop_requested()) return false;
    prod.beat();
    sample_gauges(prod);
    const PeerWatch::State st =
        watch.observe(prod.consumer(), options_.peer_timeout);
    if (st == PeerWatch::State::kAlive) {
      dead_since = {};
    } else {
      const auto now = Clock::now();
      if (dead_since == Clock::time_point{}) {
        dead_since = now;
      } else if (now - dead_since > options_.restart_timeout) {
        degraded_.store(true, std::memory_order_relaxed);
        return false;
      }
    }
    backoff(spins);
  }
  return true;
}

void ShmTupleSink::flush(ShmRingProducer& prod, PeerWatch& watch) {
  // Everything is committed; bye tells the consumer no further seq will
  // come, then we wait for its durable tail to reach head.  Bounded: no
  // tail progress for ack_timeout (with a restart grace while the
  // consumer is dead) counts the unconfirmed suffix as lossy.
  prod.set_bye();
  std::uint64_t progress_mark = prod.tail();
  auto last_progress = Clock::now();
  Clock::time_point dead_since{};
  unsigned spins = 0;
  while (prod.tail() < prod.head() && !stop_requested()) {
    prod.beat();
    sample_gauges(prod);
    const std::uint64_t t = prod.tail();
    const auto now = Clock::now();
    if (t > progress_mark) {
      progress_mark = t;
      last_progress = now;
    }
    const PeerWatch::State st =
        watch.observe(prod.consumer(), options_.peer_timeout);
    if (st == PeerWatch::State::kAlive) {
      dead_since = {};
      if (now - last_progress > options_.ack_timeout) break;
    } else {
      if (dead_since == Clock::time_point{}) dead_since = now;
      if (now - dead_since > options_.restart_timeout) break;
      // A restarting consumer resumes at tail; keep the grace window open.
      last_progress = now;
    }
    backoff(spins);
  }
}

void ShmTupleSink::run() {
  ShmRingProducer prod(*segment_);
  PeerWatch watch;
  bool ever_attached = false;
  DataTuple t;
  bool have = false;

  while (!stop_requested()) {
    prod.beat();
    sample_gauges(prod);
    if (!ever_attached && prod.consumer().pid != 0) ever_attached = true;
    if (!have) {
      const Pop p = pop_input(t);
      if (p == Pop::kDrained) break;  // input exhausted: flush below
      if (p == Pop::kIdle) continue;  // idle: keep beating
      have = true;
    }
    if (degraded_.load(std::memory_order_relaxed)) {
      // Heal when a (new) consumer is alive and made room; until then the
      // producer flows on and every drop is counted.
      if (watch.observe(prod.consumer(), options_.peer_timeout) ==
              PeerWatch::State::kAlive &&
          !prod.full()) {
        degraded_.store(false, std::memory_order_relaxed);
      } else {
        drop_lossy(t);
        have = false;
        continue;
      }
    }
    if (prod.full()) {
      if (!wait_for_room(prod, watch)) continue;  // stopped or degraded
    }
    const std::uint64_t seq = prod.next_seq();
    const std::span<std::uint8_t> slot = prod.stage(seq);
    const std::size_t n = io::encode_tuple_into(slot, t, seq);
    have = false;
    if (n == 0) {
      // Geometry misconfiguration (tuple bigger than a slot): counted,
      // never silently truncated.
      oversize_dropped_.fetch_add(1, std::memory_order_relaxed);
      drop_lossy(t);
      continue;
    }
    release(t);  // the frame is the tuple now
    if (options_.fault) {
      const auto plan = options_.fault->plan_commit(seq, n);
      for (const auto& [off, mask] : plan.flips) slot[off] ^= mask;
      if (plan.die) {
        // Simulated crash mid-commit: the slot is written but head never
        // advances — no flush, no bye, no further heartbeats.  The
        // consumer's peer-death detection must fire.
        set_stop_reason(StopReason::kError);
        return;
      }
    }
    if (prod.commit(seq, n)) wraps_.fetch_add(1, std::memory_order_relaxed);
    frames_committed_.fetch_add(1, std::memory_order_relaxed);
    metrics_.record_out(n);
  }
  if (have) drop_lossy(t);  // stopped while waiting for ring room

  flush(prod, watch);
  sample_gauges(prod);
  const bool healthy =
      prod.tail() == prod.head() &&
      watch.observe(prod.consumer(), options_.peer_timeout) ==
          PeerWatch::State::kAlive;
  close_session(prod.head() - prod.tail(), healthy,
                ever_attached || prod.consumer().pid != 0);
}

ShmSinkCounters ShmTupleSink::counters() const noexcept {
  ShmSinkCounters c;
  fill(c);
  c.frames_committed = frames_committed_.load(std::memory_order_relaxed);
  c.oversize_dropped = oversize_dropped_.load(std::memory_order_relaxed);
  c.blocked_waits = blocked_waits_.load(std::memory_order_relaxed);
  c.wraps = wraps_.load(std::memory_order_relaxed);
  c.ring_depth = ring_depth_.load(std::memory_order_relaxed);
  c.consumer_generations =
      consumer_generations_.load(std::memory_order_relaxed);
  return c;
}

void ShmTupleSink::medium_extras(SessionExtras& out) const {
  const ShmSinkCounters c = counters();
  out.insert(out.end(),
             {{"frames_committed", double(c.frames_committed)},
              {"oversize_dropped", double(c.oversize_dropped)},
              {"ring_depth", double(c.ring_depth)},
              {"blocked_waits", double(c.blocked_waits)},
              {"wraps", double(c.wraps)},
              {"consumer_generations", double(c.consumer_generations)}});
}

// ---------------------------------------------------------------------------
// ShmTupleServer
// ---------------------------------------------------------------------------

ShmTupleServer::ShmTupleServer(std::string name, std::string segment,
                               ChannelPtr<DataTuple> out,
                               ShmTransportOptions options)
    : SessionServer(std::move(name), std::move(out)),
      segment_name_(std::move(segment)),
      options_(options) {}

ShmTupleServer::~ShmTupleServer() { join(); }

bool ShmTupleServer::attach() {
  const auto deadline = Clock::now() + options_.attach_timeout;
  const std::size_t slot_bytes =
      kShmSlotPrefixBytes + options_.max_frame_bytes;
  while (!stop_requested() && Clock::now() < deadline) {
    segment_ = ShmRingSegment::try_attach(segment_name_, options_.ring_capacity,
                                          slot_bytes);
    if (segment_) return true;
    std::this_thread::sleep_for(kAttachPoll);
  }
  return false;
}

bool ShmTupleServer::consume_slot(
    ShmRingConsumer& cons, std::uint64_t resume) {
  const std::uint64_t position = cons.cursor() + 1;
  if (options_.fault) {
    auto delay = options_.fault->plan_consume(position);
    while (delay.count() > 0 && !stop_requested()) {
      const auto slice = std::min(delay, milliseconds(10));
      std::this_thread::sleep_for(slice);
      cons.beat();
      delay -= slice;
    }
  }
  // Every reject kind is quarantined (the slot is the only copy) and every
  // consumed slot advances the cursor.
  const std::span<const std::uint8_t> frame = cons.peek();
  const auto header =
      frame.empty() ? std::nullopt
                    : io::decode_frame_header(frame.first(io::kFrameHeaderBytes));
  if (!frame.empty()) metrics_.record_in(frame.size());
  if (!header || header->payload_bytes != frame.size() - io::kFrameHeaderBytes ||
      header->type != io::FrameType::kTuple) {
    // A length prefix outside any valid frame size, or an undecodable or
    // non-tuple frame in a data ring: positional quarantine.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    quarantine(position);
  } else if (!verify_crc(frame.first(io::kFrameHeaderBytes),
                         frame.subspan(io::kFrameHeaderBytes))) {
    quarantine(header->seq);
  } else if (header->seq <= resume) {
    // Restart replay of an already durably applied tuple: filtered, never
    // re-delivered.
    duplicates_.fetch_add(1, std::memory_order_relaxed);
  } else if (!deliver(frame.subspan(io::kFrameHeaderBytes), header->seq)) {
    return false;  // pipeline shutting down
  }
  cons.advance();
  return true;
}

void ShmTupleServer::final_drain(ShmRingConsumer& cons) {
  // Clean end of stream: hold the session open until the application's
  // durable watermark confirms everything consumed, so the producer's
  // flush sees tail == head.  Bounded by watermark progress.
  std::uint64_t progress_mark = cons.tail();
  auto last_progress = Clock::now();
  while (!stop_requested() && cons.tail() < cons.cursor()) {
    cons.publish_tail(ack_ceiling(cons.cursor()));
    cons.beat();
    const std::uint64_t t = cons.tail();
    const auto now = Clock::now();
    if (t > progress_mark) {
      progress_mark = t;
      last_progress = now;
    } else if (now - last_progress > options_.ack_timeout) {
      break;  // the application stopped applying; producer counts the rest
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
}

void ShmTupleServer::run() {
  if (!attach()) {
    close_output();
    set_stop_reason(stop_requested() ? StopReason::kRequested
                                     : StopReason::kError);
    return;
  }
  ShmRingConsumer cons(*segment_);
  sessions_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t resume = read_resume_point();
  if (resume > 0) resumes_.fetch_add(1, std::memory_order_relaxed);

  PeerWatch watch;
  unsigned spins = 0;
  bool clean_bye = false;
  bool downstream_closed = false;

  while (!stop_requested()) {
    cons.beat();
    if (!cons.empty()) {
      spins = 0;
      if (!consume_slot(cons, resume)) {
        downstream_closed = true;
        break;
      }
      cons.publish_tail(ack_ceiling(cons.cursor()));
      continue;
    }
    if (cons.bye()) {
      // Producer committed its last frame and will never commit another.
      final_drain(cons);
      byes_.store(1, std::memory_order_relaxed);
      clean_bye = true;
      break;
    }
    if (watch.observe(cons.producer(), options_.peer_timeout) ==
        PeerWatch::State::kDead) {
      producer_deaths_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    // Idle: keep draining the watermark.
    cons.publish_tail(ack_ceiling(cons.cursor()));
    backoff(spins);
  }
  close_output();

  if (stop_requested() || downstream_closed) {
    set_stop_reason(StopReason::kRequested);
  } else {
    // Not a clean bye: the producer died.
    set_stop_reason(clean_bye ? StopReason::kUpstreamClosed
                              : StopReason::kError);
  }
}

ShmServerCounters ShmTupleServer::counters() const noexcept {
  ShmServerCounters c;
  fill(c);
  c.quarantined = c.crc_rejects + c.payload_rejects + c.protocol_errors;
  c.producer_deaths = producer_deaths_.load(std::memory_order_relaxed);
  return c;
}

void ShmTupleServer::medium_extras(SessionExtras& out) const {
  const ShmServerCounters c = counters();
  out.emplace_back("quarantined", double(c.quarantined));
  out.emplace_back("producer_deaths", double(c.producer_deaths));
}

}  // namespace astro::stream
