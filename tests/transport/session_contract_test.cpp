// The session contract both transport media share (stream/session.h), run
// over each medium with the same input and the same assertions.
//
// Poison frame: a tuple that encodes to a frame whose CRC verifies but
// whose payload cannot decode (a 1-bit mask on a 64-pixel tuple: too few
// mask bytes).  Its bytes are exactly what the sender encoded, so no
// retransmit can heal it: the receiver counts it once as a payload reject,
// forwards one husk, and moves past it — the tuples behind it flow on.

#include <unistd.h>

#include <chrono>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "stream/graph.h"
#include "stream/net.h"
#include "stream/shm_net.h"
#include "stream/sink.h"

namespace astro::stream {
namespace {

using std::chrono::milliseconds;

enum class Medium { kTcp, kShm };

void PrintTo(Medium m, std::ostream* os) {
  *os << (m == Medium::kTcp ? "tcp" : "shm");
}

struct SessionRun {
  SessionSinkCounters sink;
  SessionServerCounters server;
  std::size_t delivered_downstream = 0;
  std::size_t husks = 0;
};

/// Streams `n` d=`dim` tuples over `medium`; tuple `poison` carries a
/// malformed mask.
SessionRun run_session(Medium medium, std::size_t n, std::size_t dim,
                       std::size_t poison) {
  auto in = make_channel<DataTuple>(n + 1);
  auto out = make_channel<DataTuple>(n + 1);
  auto dlq = make_channel<DeadLetter>(n + 1);
  for (std::uint64_t i = 0; i < n; ++i) {
    DataTuple t;
    t.seq = i;
    t.timestamp_us = std::int64_t(i);
    t.values = linalg::Vector(dim, double(i));
    if (i == poison) t.mask = {true};
    EXPECT_TRUE(in->push(std::move(t)));
  }
  in->close();

  FlowGraph graph;
  SessionSink* sink = nullptr;
  SessionServer* server = nullptr;
  if (medium == Medium::kTcp) {
    TcpServerOptions sopts;
    sopts.exit_on_bye = true;
    auto* tcp_server = graph.add<TcpTupleServer>("downlink", 0, out, 0, sopts);
    // Short deadlines: a session stalled on the poison frame gives up fast.
    TcpTransportOptions opts;
    opts.connect_attempts = 3;
    opts.ack_timeout = milliseconds(150);
    opts.backoff_initial = milliseconds(5);
    opts.backoff_max = milliseconds(20);
    server = tcp_server;
    sink = graph.add<TcpTupleSink>("uplink", tcp_server->port(), in, opts);
  } else {
    ShmTransportOptions opts;
    opts.ring_capacity = 16;
    opts.max_frame_bytes = 1024;
    const std::string seg =
        "astro-contract-" + std::to_string(::getpid());
    sink = graph.add<ShmTupleSink>("uplink", seg, in, opts);
    server = graph.add<ShmTupleServer>("downlink", seg, out, opts);
  }
  server->set_dead_letters(dlq);
  auto* collector = graph.add<CollectorSink<DataTuple>>("collect", out);
  graph.start();
  // The sink's flush ends the session (confirmed or given up); a server
  // whose sender gave up never sees a bye, so stop it like the pipeline.
  sink->join();
  server->request_stop();
  graph.wait();

  SessionRun r;
  if (medium == Medium::kTcp) {
    r.sink = static_cast<TcpTupleSink*>(sink)->counters();
    r.server = static_cast<TcpTupleServer*>(server)->counters();
  } else {
    r.sink = static_cast<ShmTupleSink*>(sink)->counters();
    r.server = static_cast<ShmTupleServer*>(server)->counters();
  }
  r.delivered_downstream = collector->count();
  r.husks = dlq->size();
  return r;
}

class SessionContract : public ::testing::TestWithParam<Medium> {};

TEST_P(SessionContract, PoisonFrameIsQuarantinedOnceAndSkipped) {
  const SessionRun r = run_session(GetParam(), /*n=*/50, /*dim=*/64,
                                   /*poison=*/10);
  EXPECT_EQ(r.server.delivered, 49u);
  EXPECT_EQ(r.delivered_downstream, 49u);
  EXPECT_EQ(r.server.payload_rejects, 1u);
  EXPECT_EQ(r.server.dead_letters, 1u);
  EXPECT_EQ(r.husks, 1u);
  EXPECT_EQ(r.sink.accepted, 50u);
  EXPECT_EQ(r.sink.lossy_dropped, 0u);
  EXPECT_EQ(r.sink.accepted, r.sink.acked + r.sink.lossy_dropped);
  EXPECT_FALSE(r.sink.degraded);
}

INSTANTIATE_TEST_SUITE_P(BothMedia, SessionContract,
                         ::testing::Values(Medium::kTcp, Medium::kShm),
                         [](const ::testing::TestParamInfo<Medium>& info) {
                           return info.param == Medium::kTcp ? "Tcp" : "Shm";
                         });

}  // namespace
}  // namespace astro::stream
