#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"
#include "util/bytes.hpp"

namespace bs = bento::sim;
namespace bu = bento::util;
using bu::Duration;
using bu::Time;

TEST(Simulator, OrdersEventsByTime) {
  bs::Simulator sim(1);
  std::vector<int> order;
  sim.at(Time::from_seconds(2), [&] { order.push_back(2); });
  sim.at(Time::from_seconds(1), [&] { order.push_back(1); });
  sim.at(Time::from_seconds(3), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().seconds(), 3.0);
}

TEST(Simulator, FifoTieBreakAtSameTime) {
  bs::Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(Time::from_seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
  bs::Simulator sim(1);
  int fired = 0;
  sim.after(Duration::seconds(1), [&] {
    sim.after(Duration::seconds(1), [&] { fired = 1; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().seconds(), 2.0);
}

TEST(Simulator, PastEventsClampToNow) {
  bs::Simulator sim(1);
  sim.after(Duration::seconds(5), [] {});
  sim.run();
  bool fired = false;
  sim.at(Time::from_seconds(1), [&] { fired = true; });  // in the past
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().seconds(), 5.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  bs::Simulator sim(1);
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.at(Time::from_seconds(i), [&] { ++count; });
  }
  sim.run_until(Time::from_seconds(5.5));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().seconds(), 5.5);
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunWithLimit) {
  bs::Simulator sim(1);
  int count = 0;
  for (int i = 0; i < 100; ++i) sim.after(Duration::millis(i), [&] { ++count; });
  sim.run(10);
  EXPECT_EQ(count, 10);
}

// ---- Event-queue determinism & callback storage ----

namespace {
// Replays a seed-driven workload exercising every scheduling shape the
// event queue supports: same-timestamp ties, past-scheduled events, nested
// scheduling, rng-driven delays, and captures spanning inline storage, the
// slab pool, and the oversized fallback. Returns a fingerprint of the
// exact execution order.
struct RunTrace {
  std::uint64_t events = 0;
  std::int64_t final_clock_us = 0;
  std::uint64_t order_hash = 0;
  bool operator==(const RunTrace&) const = default;
};

RunTrace run_determinism_workload(std::uint64_t seed) {
  bs::Simulator sim(seed);
  RunTrace t;
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  // A burst of same-timestamp ties (FIFO order must hold).
  for (int i = 0; i < 32; ++i) {
    sim.at(Time::from_micros(5000), [&, i] {
             mix(static_cast<std::uint64_t>(i));
             mix(static_cast<std::uint64_t>(sim.now().micros()));
           });
  }
  // Rng-driven delays with nested re-scheduling and occasional past events.
  for (int i = 0; i < 200; ++i) {
    const auto delay =
        Duration::micros(static_cast<std::int64_t>(sim.rng().uniform(0, 20000)));
    sim.after(delay, [&, i] {
      mix(0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i));
      mix(static_cast<std::uint64_t>(sim.now().micros()));
      if (i % 3 == 0) {
        // Past timestamp: clamps to now, keeps FIFO order among clamped.
        sim.at(Time::from_micros(0), [&] { mix(0xabcdULL); });
      }
      if (i % 5 == 0) {
        // Oversized capture: exercises the slab pool / heap fallback.
        std::array<std::uint64_t, 32> big{};
        big[0] = static_cast<std::uint64_t>(i);
        sim.after(Duration::micros(100), [&, big] { mix(big[0]); });
      }
    });
  }
  sim.run();
  t.events = sim.events_executed();
  t.final_clock_us = sim.now().micros();
  t.order_hash = h;
  return t;
}
}  // namespace

TEST(Simulator, IdenticalSeedsReplayIdenticalEventSequences) {
  const RunTrace a = run_determinism_workload(42);
  const RunTrace b = run_determinism_workload(42);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_clock_us, b.final_clock_us);
  EXPECT_EQ(a.order_hash, b.order_hash);
  EXPECT_GT(a.events, 200u);  // the workload actually ran

  // And a different seed genuinely changes the schedule (the hash is not
  // insensitive to ordering).
  const RunTrace c = run_determinism_workload(43);
  EXPECT_NE(a.order_hash, c.order_hash);
}

TEST(Simulator, LargeCapturesExecuteCorrectly) {
  bs::Simulator sim(1);
  // Inline (small), pooled-slab (mid), and oversized (plain heap) captures.
  int small_sum = 0;
  std::array<int, 20> mid{};
  std::array<int, 100> big{};
  mid.fill(2);
  big.fill(3);
  int got_mid = 0;
  int got_big = 0;
  sim.after(Duration::micros(1), [&small_sum] { small_sum = 1; });
  sim.after(Duration::micros(2), [&got_mid, mid] {
    for (int v : mid) got_mid += v;
  });
  sim.after(Duration::micros(3), [&got_big, big] {
    for (int v : big) got_big += v;
  });
  sim.run();
  EXPECT_EQ(small_sum, 1);
  EXPECT_EQ(got_mid, 40);
  EXPECT_EQ(got_big, 300);
}

TEST(Simulator, SlabPoolRecyclesAcrossManyEvents) {
  bs::Simulator sim(1);
  // Thousands of slab-sized captures; with pooling this stays warm and
  // correct. (The allocation count itself is asserted in bench/datapath.)
  std::uint64_t sum = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      std::array<std::uint64_t, 16> payload{};
      payload[15] = static_cast<std::uint64_t>(round * 20 + i);
      sim.after(Duration::micros(round * 10 + i), [&sum, payload] { sum += payload[15]; });
    }
  }
  sim.run();
  EXPECT_EQ(sum, 999ull * 1000 / 2);
}

namespace {
class Recorder : public bs::MessageHandler {
 public:
  explicit Recorder(bs::Simulator& sim) : sim_(sim) {}
  void on_message(bs::NodeId from, bu::Bytes data) override {
    arrivals.push_back({sim_.now(), from, std::move(data)});
  }
  struct Arrival {
    Time when;
    bs::NodeId from;
    bu::Bytes data;
  };
  std::vector<Arrival> arrivals;

 private:
  bs::Simulator& sim_;
};
}  // namespace

TEST(Network, DeliversMessageWithLatencyAndSerialization) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx(sim);
  // 1 MB/s links so serialization delay is visible.
  auto a = net.add_node({"a", 1e6, 1e6});
  auto b = net.add_node({"b", 1e6, 1e6}, &rx);
  net.set_latency(a, b, Duration::millis(50));

  net.send(a, b, bu::Bytes(10000, 0x42));
  sim.run();

  ASSERT_EQ(rx.arrivals.size(), 1u);
  EXPECT_EQ(rx.arrivals[0].from, a);
  EXPECT_EQ(rx.arrivals[0].data.size(), 10000u);
  // ~10ms uplink + 50ms latency + ~10ms downlink.
  const double t = rx.arrivals[0].when.seconds();
  EXPECT_NEAR(t, 0.070, 0.002);
  EXPECT_EQ(net.stats(b).bytes_received, 10000u);
  EXPECT_EQ(net.stats(a).messages_sent, 1u);
}

TEST(Network, IdleDelayMatchesObservedDelay) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx(sim);
  auto a = net.add_node({"a", 2e6, 2e6});
  auto b = net.add_node({"b", 5e6, 5e6}, &rx);
  net.set_latency(a, b, Duration::millis(30));
  net.send(a, b, bu::Bytes(5000, 1));
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 1u);
  EXPECT_NEAR(rx.arrivals[0].when.seconds(),
              net.idle_delay(a, b, 5000).to_seconds(), 1e-6);
}

TEST(Network, MessagesOnSameFlowStayOrdered) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx(sim);
  auto a = net.add_node({"a", 1e6, 1e6});
  auto b = net.add_node({"b", 1e6, 1e6}, &rx);
  for (std::uint8_t i = 0; i < 50; ++i) net.send(a, b, bu::Bytes{i});
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(rx.arrivals[i].data[0], i);
}

TEST(Network, UplinkSharedFairlyBetweenTwoReceivers) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx1(sim), rx2(sim);
  auto server = net.add_node({"server", 1e6, 1e6});
  auto c1 = net.add_node({"c1", 1e7, 1e7}, &rx1);
  auto c2 = net.add_node({"c2", 1e7, 1e7}, &rx2);
  net.set_latency(server, c1, Duration::millis(10));
  net.set_latency(server, c2, Duration::millis(10));

  // 100 x 10KB to each client: 2 MB total through a 1 MB/s uplink.
  for (int i = 0; i < 100; ++i) {
    net.send(server, c1, bu::Bytes(10000, 1));
    net.send(server, c2, bu::Bytes(10000, 2));
  }
  sim.run();
  ASSERT_EQ(rx1.arrivals.size(), 100u);
  ASSERT_EQ(rx2.arrivals.size(), 100u);
  // Both finish at ~2s (fair share), not one at 1s and the other at 2s.
  const double t1 = rx1.arrivals.back().when.seconds();
  const double t2 = rx2.arrivals.back().when.seconds();
  EXPECT_NEAR(t1, t2, 0.05);
  EXPECT_GT(t1, 1.9);
  // And interleaved mid-flight: client 1's 50th arrival near t/2.
  EXPECT_NEAR(rx1.arrivals[49].when.seconds(), t1 / 2, 0.1);
}

TEST(Network, FairShareRecoversWhenFlowEnds) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx1(sim), rx2(sim);
  auto server = net.add_node({"server", 1e6, 1e6});
  auto c1 = net.add_node({"c1", 1e7, 1e7}, &rx1);
  auto c2 = net.add_node({"c2", 1e7, 1e7}, &rx2);
  // c1 gets 1MB, c2 gets 2MB. After c1's flow drains (~2s), c2 should
  // speed up and finish around 3s, not 4s.
  for (int i = 0; i < 100; ++i) net.send(server, c1, bu::Bytes(10000, 1));
  for (int i = 0; i < 200; ++i) net.send(server, c2, bu::Bytes(10000, 2));
  sim.run();
  EXPECT_NEAR(rx1.arrivals.back().when.seconds(), 2.0, 0.15);
  EXPECT_NEAR(rx2.arrivals.back().when.seconds(), 3.0, 0.15);
}

TEST(Network, UnknownNodeThrows) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  auto a = net.add_node({"a", 1e6, 1e6});
  EXPECT_THROW(net.send(a, 99, bu::Bytes{1}), std::out_of_range);
  EXPECT_THROW(net.stats(99), std::out_of_range);
  EXPECT_THROW(net.add_node({"bad", 0.0, 1.0}), std::invalid_argument);
}

TEST(Network, DefaultLatencyApplies) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  net.set_default_latency(Duration::millis(123));
  auto a = net.add_node({"a", 1e9, 1e9});
  auto b = net.add_node({"b", 1e9, 1e9});
  EXPECT_EQ(net.latency(a, b).to_millis(), 123);
}

// The dense latency table follows explicit pairs, default changes made
// before or after them, and nodes added later.
TEST(Network, LatencyTableTracksSetsDefaultsAndNewNodes) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  auto a = net.add_node({"a", 1e9, 1e9});
  auto b = net.add_node({"b", 1e9, 1e9});
  net.set_latency(b, a, Duration::micros(700));
  EXPECT_EQ(net.latency(a, b).count_micros(), 700);
  EXPECT_EQ(net.latency(b, a).count_micros(), 700);
  EXPECT_EQ(net.latency(a, a).count_micros(), 40'000);
  net.set_default_latency(Duration::micros(900));
  auto c = net.add_node({"c", 1e9, 1e9});
  EXPECT_EQ(net.latency(a, b).count_micros(), 700);  // explicit survives
  EXPECT_EQ(net.latency(c, a).count_micros(), 900);
  EXPECT_EQ(net.latency(b, c).count_micros(), 900);
  net.set_latency(c, c, Duration::micros(5));
  EXPECT_EQ(net.latency(c, c).count_micros(), 5);
  net.set_default_latency(Duration::micros(1000));
  EXPECT_EQ(net.latency(c, c).count_micros(), 5);
  EXPECT_EQ(net.latency(a, c).count_micros(), 1000);
}

// ---- Key-only event queue ----

namespace {
// The pre-key-queue representation: whole events sifted through a binary
// heap under the same (when, origin, seq) order.
struct FullEvent {
  Time when;
  std::uint64_t seq;
  std::uint32_t origin;
  Time queued_at;
  bento::obs::SpanContext ctx;
  bs::EventFn fn;
  bool before(const FullEvent& o) const {
    if (when != o.when) return when < o.when;
    if (origin != o.origin) return origin < o.origin;
    return seq < o.seq;
  }
};
struct FullAfter {
  bool operator()(const FullEvent& a, const FullEvent& b) const { return b.before(a); }
};
}  // namespace

// Random interleavings of pushes and pops, many equal timestamps, origins
// standing in for cross-region posts (the exclusive rank included), and
// pushes made between a pop and its release, as a running handler does:
// the key queue and a reference heap of full events pop the same events
// in the same order, and every popped body is the one pushed with its key.
TEST(EventQueue, PopsInReferenceHeapOrder) {
  bs::SlabPool pool;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    bu::Rng rng(seed);
    bs::EventQueue queue;
    std::vector<FullEvent> ref;
    std::uint64_t next_seq[4] = {0, 0, 0, 0};
    constexpr std::uint32_t kOrigins[4] = {0, 1, 2, bs::Simulator::kNoRegion};
    std::uint64_t next_id = 0;
    std::uint64_t ran = 0;  // id of the last body invoked
    auto push_both = [&](Time now) {
      const std::size_t o = static_cast<std::size_t>(rng.uniform(0, 3));
      const Time when = now + Duration::micros(static_cast<std::int64_t>(rng.uniform(0, 4)));
      const std::uint64_t seq = next_seq[o]++;
      const std::uint64_t id = next_id++;
      const bento::obs::SpanContext ctx{static_cast<std::uint32_t>(id), 1};
      queue.push(when, seq, kOrigins[o], now, ctx, bs::EventFn(pool, [&ran, id] { ran = id; }));
      ref.push_back(FullEvent{when, seq, kOrigins[o], now, ctx,
                              bs::EventFn(pool, [&ran, id] { ran = id; })});
      std::push_heap(ref.begin(), ref.end(), FullAfter{});
    };
    Time now = Time::from_micros(0);
    for (int i = 0; i < 64; ++i) push_both(now);
    std::uint64_t popped = 0;
    while (!ref.empty()) {
      ASSERT_EQ(queue.size(), ref.size());
      std::pop_heap(ref.begin(), ref.end(), FullAfter{});
      FullEvent want = std::move(ref.back());
      ref.pop_back();
      const bs::EventQueue::Key k = queue.pop();
      ASSERT_EQ(k.when, want.when);
      ASSERT_EQ(k.origin, want.origin);
      ASSERT_EQ(k.seq, want.seq);
      bs::EventQueue::Body& body = queue.body(k.slot);
      body.fn();
      const std::uint64_t got_id = ran;
      want.fn();
      ASSERT_EQ(got_id, ran);
      EXPECT_EQ(body.ctx.trace_id, want.ctx.trace_id);
      now = k.when;
      // A "handler" scheduling while its own body is still leased.
      for (std::uint64_t n = rng.uniform(0, 2); n > 0 && next_id < 2000; --n) push_both(now);
      queue.release(k.slot);
      ++popped;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(popped, next_id);
  }
}

// Cross-region posts at equal timestamps, from handlers in every region of
// a windowed multi-region run: each region dispatches its events in
// (when, origin region, per-origin posting order).
TEST(Simulator, CrossRegionPostsDispatchInKeyOrder) {
  for (const unsigned shards : {1u, 2u}) {
    bs::Simulator sim(5, shards);
    const std::uint32_t r1 = sim.add_region();
    const std::uint32_t r2 = sim.add_region();
    sim.set_lookahead(Duration::micros(100));
    struct Seen {
      std::int64_t when;
      std::uint32_t origin;
      std::uint64_t order;
    };
    std::vector<Seen> seen[3];
    std::uint64_t posted[3] = {0, 0, 0};
    const std::uint32_t regions[3] = {0, r1, r2};
    for (std::uint32_t src = 0; src < 3; ++src) {
      sim.post(regions[src], Time::from_micros(10), [&, src] {
        for (int k = 0; k < 12; ++k) {
          const std::uint32_t dst = regions[(src + static_cast<std::uint32_t>(k)) % 3];
          const auto when = Time::from_micros(500 + 100 * (k % 3));
          const std::uint64_t order = posted[src]++;
          sim.post(dst, when, [&, dst, src, order, when] {
            seen[dst].push_back(Seen{when.micros(), src, order});
          });
        }
      });
    }
    sim.run();
    for (std::uint32_t r = 0; r < 3; ++r) {
      ASSERT_EQ(seen[r].size(), 12u) << "region " << r;
      for (std::size_t i = 1; i < seen[r].size(); ++i) {
        const Seen& a = seen[r][i - 1];
        const Seen& b = seen[r][i];
        const bool ordered = a.when != b.when ? a.when < b.when
                             : a.origin != b.origin ? a.origin < b.origin
                                                    : a.order < b.order;
        EXPECT_TRUE(ordered) << "shards " << shards << " region " << r << " at " << i;
      }
    }
  }
}

TEST(Transport, SmallTransferIsRttBound) {
  // 5 KB at 10 MB/s: transfer time negligible, so halving RTT halves delay.
  auto d1 = bs::tcp_fetch_delay(5000, Duration::millis(100), 10e6);
  auto d2 = bs::tcp_fetch_delay(5000, Duration::millis(50), 10e6);
  EXPECT_NEAR(d1.to_seconds() / d2.to_seconds(), 2.0, 0.05);
}

TEST(Transport, LargeTransferIsBandwidthBound) {
  auto d = bs::tcp_fetch_delay(100'000'000, Duration::millis(50), 10e6);
  EXPECT_NEAR(d.to_seconds(), 10.0, 1.0);
}

TEST(Transport, SlowStartRounds) {
  bs::TcpModelParams p;
  EXPECT_EQ(bs::slow_start_rounds(1000, p), 0);
  EXPECT_EQ(bs::slow_start_rounds(p.init_cwnd_bytes, p), 0);
  EXPECT_EQ(bs::slow_start_rounds(p.init_cwnd_bytes + 1, p), 1);
  EXPECT_GT(bs::slow_start_rounds(1'000'000, p), 3);
  EXPECT_LT(bs::slow_start_rounds(1'000'000'000ULL, p), 41);
}

TEST(Transport, AblationDisablesSlowStart) {
  bs::TcpModelParams with{};
  bs::TcpModelParams without{};
  without.model_slow_start = false;
  auto dw = bs::tcp_fetch_delay(1'000'000, Duration::millis(100), 10e6, with);
  auto dwo = bs::tcp_fetch_delay(1'000'000, Duration::millis(100), 10e6, without);
  EXPECT_GT(dw.to_seconds(), dwo.to_seconds());
}

// Property sweep: delay is monotone in size and RTT.
class TransportSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TransportSweep, MonotoneInSizeAndRtt) {
  const std::size_t size = GetParam();
  auto base = bs::tcp_fetch_delay(size, Duration::millis(80), 5e6);
  auto bigger = bs::tcp_fetch_delay(size * 2 + 1, Duration::millis(80), 5e6);
  auto slower = bs::tcp_fetch_delay(size, Duration::millis(160), 5e6);
  EXPECT_GE(bigger.count_micros(), base.count_micros());
  EXPECT_GT(slower.count_micros(), base.count_micros());
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransportSweep,
                         ::testing::Values(100, 1000, 14600, 100000, 5000000));
