#include "stream/split.h"

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "stream/graph.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace astro::stream {
namespace {

std::vector<linalg::Vector> tiny_data(std::size_t n, std::size_t d = 4) {
  std::vector<linalg::Vector> out;
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector v(d);
    v[0] = double(i);
    out.push_back(v);
  }
  return out;
}

struct SplitHarness {
  FlowGraph graph;
  SplitOperator* split = nullptr;
  std::vector<CollectorSink<DataTuple>*> sinks;

  // `capacity` sizes every output channel.  A full output makes the split
  // reroute to the least-loaded queue by design, so the strategy tests size
  // them to hold the whole stream: a descheduled sink must not turn a
  // balance check into a measurement of the scheduler.
  SplitHarness(std::size_t n_tuples, std::size_t n_outputs,
               SplitStrategy strategy, std::size_t workers = 1,
               std::size_t capacity = 64) {
    auto in = make_channel<DataTuple>(64);
    std::vector<ChannelPtr<DataTuple>> outs;
    for (std::size_t i = 0; i < n_outputs; ++i) {
      outs.push_back(make_channel<DataTuple>(capacity));
    }
    graph.add<ReplaySource>("source", tiny_data(n_tuples), in);
    split = graph.add<SplitOperator>("split", in, outs, strategy, workers);
    for (std::size_t i = 0; i < n_outputs; ++i) {
      sinks.push_back(graph.add<CollectorSink<DataTuple>>(
          "sink" + std::to_string(i), outs[i]));
    }
  }

  void run() {
    graph.start();
    graph.wait();
  }

  [[nodiscard]] std::size_t total_received() const {
    std::size_t total = 0;
    for (const auto* s : sinks) total += s->count();
    return total;
  }
};

// One consumer that drains every output in turn, so the queues empty at a
// single pace: a descheduled consumer stalls every target alike instead of
// starving one, and per-target counts measure the split's tie-breaking
// rather than the scheduler.
class SharedDrain final : public Operator {
 public:
  SharedDrain(std::string name, std::vector<ChannelPtr<DataTuple>> ins)
      : Operator(std::move(name)), ins_(std::move(ins)), counts_(ins_.size()) {}

  /// Tuples taken from output `i`; read after the graph has finished.
  [[nodiscard]] std::size_t count(std::size_t i) const { return counts_[i]; }

 protected:
  void run() override {
    DataTuple t;
    bool open = true;
    while (open) {
      open = false;
      bool popped = false;
      for (std::size_t i = 0; i < ins_.size(); ++i) {
        if (ins_[i]->pop_for(t, std::chrono::microseconds(0))) {
          ++counts_[i];
          popped = true;
        }
        open = open || !ins_[i]->closed() || ins_[i]->size() > 0;
      }
      if (!popped) std::this_thread::yield();
    }
  }

 private:
  std::vector<ChannelPtr<DataTuple>> ins_;
  std::vector<std::size_t> counts_;
};

TEST(Split, NoOutputsThrows) {
  auto in = make_channel<DataTuple>(4);
  EXPECT_THROW(
      SplitOperator("s", in, std::vector<ChannelPtr<DataTuple>>{}),
      std::invalid_argument);
}

TEST(Split, AllTuplesDeliveredExactlyOnce) {
  SplitHarness h(500, 4, SplitStrategy::kRandom);
  h.run();
  EXPECT_EQ(h.total_received(), 500u);

  // Every seq 0..499 appears exactly once across the sinks.
  std::vector<int> seen(500, 0);
  for (const auto* s : h.sinks) {
    for (const auto& t : s->snapshot()) seen[std::size_t(t.seq)]++;
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Split, RoundRobinIsBalanced) {
  SplitHarness h(400, 4, SplitStrategy::kRoundRobin, 1, 400);
  h.run();
  for (const auto* s : h.sinks) EXPECT_EQ(s->count(), 100u);
}

TEST(Split, RandomIsApproximatelyBalanced) {
  SplitHarness h(4000, 4, SplitStrategy::kRandom, 1, 4000);
  h.run();
  for (const auto* s : h.sinks) {
    EXPECT_GT(s->count(), 800u);
    EXPECT_LT(s->count(), 1200u);
  }
}

TEST(Split, LeastLoadedDeliversEverything) {
  SplitHarness h(1000, 3, SplitStrategy::kLeastLoaded);
  h.run();
  EXPECT_EQ(h.total_received(), 1000u);
}

TEST(Split, LeastLoadedRotatesTieBreaks) {
  // Regression: with consumers keeping every queue near-empty, the
  // least-loaded scan almost always sees a tie — and the old scan started
  // at index 0 every time, funnelling essentially the whole stream to
  // target 0.  The rotating start offset must spread ties across targets.
  // One shared consumer keeps the queues level; with a consumer per target,
  // a descheduled one starves its target whatever the tie-break does.
  FlowGraph graph;
  auto in = make_channel<DataTuple>(64);
  std::vector<ChannelPtr<DataTuple>> outs;
  for (std::size_t i = 0; i < 3; ++i) outs.push_back(make_channel<DataTuple>(64));
  graph.add<ReplaySource>("source", tiny_data(900), in);
  auto* split = graph.add<SplitOperator>("split", in, outs,
                                         SplitStrategy::kLeastLoaded);
  auto* drain = graph.add<SharedDrain>("drain", outs);
  graph.start();
  graph.wait();
  EXPECT_EQ(drain->count(0) + drain->count(1) + drain->count(2), 900u);
  const auto counts = split->per_target_counts();
  ASSERT_EQ(counts.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    // Strictly-least-loaded still biases under racing drains, so only pin
    // what the bug broke: no target may starve (old code left targets 1 and
    // 2 with a handful of reroutes) and the counts must reconcile.
    EXPECT_GT(counts[i], 150u) << "target " << i << " starved";
    EXPECT_EQ(counts[i], drain->count(i));
  }
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull), 900ull);
}

TEST(Split, MultiWorkerDeliversEverything) {
  SplitHarness h(3000, 4, SplitStrategy::kRandom, /*workers=*/3);
  h.run();
  EXPECT_EQ(h.total_received(), 3000u);
  EXPECT_EQ(h.split->metrics().tuples_out(), 3000u);
}

TEST(Split, PerTargetCountsMatchSinks) {
  SplitHarness h(600, 3, SplitStrategy::kRoundRobin);
  h.run();
  const auto counts = h.split->per_target_counts();
  ASSERT_EQ(counts.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(counts[i], h.sinks[i]->count());
  }
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull), 600ull);
}

TEST(Split, MetricsCountBytes) {
  SplitHarness h(10, 2, SplitStrategy::kRoundRobin);
  h.run();
  // 4 doubles + 16-byte header per tuple.
  EXPECT_EQ(h.split->metrics().bytes_in(), 10u * (16 + 4 * 8));
}

}  // namespace
}  // namespace astro::stream
