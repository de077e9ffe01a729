// Critical-path attribution suite (DESIGN.md §14). Three layers:
//
//  1. Synthetic CritInput units pin the sweep semantics exactly: deepest
//     active span wins, link time splits into chaos/transit/queue against
//     the budget notes, waits after a shard.barrier become mailbox waits,
//     and every blame vector sums to the request's measured duration.
//  2. An end-to-end 4-region forwarding harness (client -> three relays in
//     three other regions -> client, root span per session) proves the
//     acceptance contract: critpath text and JSON byte-identical at shard
//     counts {1, 2, 4}, and per-request total_us equal to the harness's own
//     measured round-trip, joined on the root's kNoteRef.
//  3. The same harness under a chaos Throttle plan: the injected slowdown
//     must surface as the dominant blame segment ("chaos_dwell", majority
//     share), which is the tool's whole reason to exist.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bentotrace/critpath.hpp"
#include "bentotrace/reader.hpp"
#include "chaos/chaos.hpp"
#include "obs/critpath.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/simclock.hpp"

namespace bc = bento::chaos;
namespace bo = bento::obs;
namespace bs = bento::sim;
namespace bt = bento::tools;
namespace bu = bento::util;

using bu::Duration;
using bu::Time;

namespace {

bo::CritSpan span(std::uint32_t id, std::uint32_t parent, bo::Stage stage,
                  std::int64_t begin, std::int64_t end) {
  bo::CritSpan s;
  s.id = id;
  s.parent = parent;
  s.stage = stage;
  s.begin_us = begin;
  s.end_us = end;
  return s;
}

std::int64_t seg_us(const bo::RequestBlame& req, bo::Stage stage,
                    bo::SegKind kind) {
  std::int64_t total = 0;
  for (const bo::BlameSeg& s : req.segs) {
    if (s.stage == stage && s.kind == kind) total += s.us;
  }
  return total;
}

std::int64_t sum_segs(const bo::RequestBlame& req) {
  std::int64_t total = 0;
  for (const bo::BlameSeg& s : req.segs) total += s.us;
  return total;
}

}  // namespace

TEST(CritPath, SegmentNamesAreStable) {
  EXPECT_EQ(bo::segment_name(bo::Stage::NetLink, bo::SegKind::LinkQueue),
            "net_link_queue");
  EXPECT_EQ(bo::segment_name(bo::Stage::NetLink, bo::SegKind::LinkTransit),
            "net_link_transit");
  EXPECT_EQ(bo::segment_name(bo::Stage::ClientInvoke, bo::SegKind::Exec),
            "client_invoke");
  EXPECT_EQ(bo::segment_name(bo::Stage::ClientInvoke, bo::SegKind::Wait),
            "client_invoke_wait");
  EXPECT_EQ(
      bo::segment_name(bo::Stage::RelayForward, bo::SegKind::MailboxWait),
      "relay_forward_mailbox_wait");
  // Chaos dwell is stage-free: throttled serialization on any link is the
  // same phenomenon.
  EXPECT_EQ(bo::segment_name(bo::Stage::NetLink, bo::SegKind::ChaosDwell),
            "chaos_dwell");
}

TEST(CritPath, BlameSumsToRootDurationWithLinkSplit) {
  // root [0,100] -> link1 [0,40] (idle 30); zero-length relay.forward at 40
  // whose child link2 [40,90] (idle 45) outlives it; tail [90,100] is the
  // root waiting on the final delivery.
  bo::CritInput in;
  in.spans.push_back(span(1, 0, bo::Stage::ClientInvoke, 0, 100));
  in.spans.back().ref = 7;
  in.spans.push_back(span(2, 1, bo::Stage::NetLink, 0, 40));
  in.spans.back().idle_us = 30;
  in.spans.push_back(span(3, 1, bo::Stage::RelayForward, 40, 40));
  in.spans.push_back(span(4, 3, bo::Stage::NetLink, 40, 90));
  in.spans.back().idle_us = 45;

  const bo::CritReport report = bo::compute_critical_paths(in);
  ASSERT_EQ(report.requests.size(), 1u);
  EXPECT_EQ(report.incomplete, 0u);
  const bo::RequestBlame& req = report.requests[0];
  EXPECT_EQ(req.root_id, 1u);
  EXPECT_EQ(req.ref, 7u);
  EXPECT_EQ(req.total_us, 100);
  EXPECT_EQ(sum_segs(req), req.total_us) << "100% attribution is the contract";
  // Links: transit = idle budget, queue = the contention remainder.
  EXPECT_EQ(seg_us(req, bo::Stage::NetLink, bo::SegKind::LinkTransit), 75);
  EXPECT_EQ(seg_us(req, bo::Stage::NetLink, bo::SegKind::LinkQueue), 15);
  // The tail is root wait (its first child began at t=0, long before 90).
  EXPECT_EQ(seg_us(req, bo::Stage::ClientInvoke, bo::SegKind::Wait), 10);
  // Zero-length relay.forward cannot win any interval.
  EXPECT_EQ(seg_us(req, bo::Stage::RelayForward, bo::SegKind::Exec), 0);
  // Vector is sorted by (stage, kind, region).
  for (std::size_t i = 1; i < req.segs.size(); ++i) {
    const auto key = [](const bo::BlameSeg& s) {
      return std::tuple(s.stage, s.kind, s.region);
    };
    EXPECT_LT(key(req.segs[i - 1]), key(req.segs[i]));
  }
}

TEST(CritPath, BarrierTurnsWaitIntoMailboxWait) {
  // root [0,100], child link [0,40]; a shard.barrier closes at 95, so the
  // root's wait [40,100] splits into plain wait [40,95) and mailbox wait
  // [95,100) — the request resumed via a cross-shard window.
  bo::CritInput in;
  in.spans.push_back(span(1, 0, bo::Stage::ClientInvoke, 0, 100));
  in.spans.push_back(span(2, 1, bo::Stage::NetLink, 0, 40));
  in.spans.back().idle_us = 40;
  in.barriers_us = {95};

  const bo::CritReport report = bo::compute_critical_paths(in);
  ASSERT_EQ(report.requests.size(), 1u);
  const bo::RequestBlame& req = report.requests[0];
  EXPECT_EQ(sum_segs(req), 100);
  EXPECT_EQ(seg_us(req, bo::Stage::ClientInvoke, bo::SegKind::Wait), 55);
  EXPECT_EQ(seg_us(req, bo::Stage::ClientInvoke, bo::SegKind::MailboxWait), 5);
}

TEST(CritPath, ChaosDwellComesOffTheTopOfLinkTime) {
  // Link attributed 40 µs with idle budget 30 and chaos dwell 15: chaos is
  // taken first (15), transit gets what the budget still fits (25), queue 0.
  bo::CritInput in;
  in.spans.push_back(span(1, 0, bo::Stage::ClientInvoke, 0, 40));
  in.spans.push_back(span(2, 1, bo::Stage::NetLink, 0, 40));
  in.spans.back().idle_us = 30;
  in.spans.back().chaos_us = 15;

  const bo::CritReport report = bo::compute_critical_paths(in);
  ASSERT_EQ(report.requests.size(), 1u);
  const bo::RequestBlame& req = report.requests[0];
  EXPECT_EQ(seg_us(req, bo::Stage::NetLink, bo::SegKind::ChaosDwell), 15);
  EXPECT_EQ(seg_us(req, bo::Stage::NetLink, bo::SegKind::LinkTransit), 25);
  EXPECT_EQ(seg_us(req, bo::Stage::NetLink, bo::SegKind::LinkQueue), 0);
  EXPECT_EQ(sum_segs(req), 40);

  // Dwell larger than the attributed interval clamps: never blame more
  // microseconds than the path actually spent.
  bo::CritInput clamp;
  clamp.spans.push_back(span(1, 0, bo::Stage::ClientInvoke, 0, 10));
  clamp.spans.push_back(span(2, 1, bo::Stage::NetLink, 0, 10));
  clamp.spans.back().idle_us = 30;
  clamp.spans.back().chaos_us = 50;
  const bo::CritReport clamped = bo::compute_critical_paths(clamp);
  ASSERT_EQ(clamped.requests.size(), 1u);
  EXPECT_EQ(seg_us(clamped.requests[0], bo::Stage::NetLink,
                   bo::SegKind::ChaosDwell),
            10);
  EXPECT_EQ(sum_segs(clamped.requests[0]), 10);
}

TEST(CritPath, IncompleteRootsAreCountedNotAttributed) {
  bo::CritInput in;
  in.spans.push_back(span(1, 0, bo::Stage::ClientInvoke, 0, -1));  // no end
  in.spans.push_back(span(2, 0, bo::Stage::ClientInvoke, -1, 50));  // no begin
  in.spans.push_back(span(3, 0, bo::Stage::ClientInvoke, 10, 30));
  const bo::CritReport report = bo::compute_critical_paths(in);
  EXPECT_EQ(report.incomplete, 2u);
  ASSERT_EQ(report.requests.size(), 1u);
  EXPECT_EQ(report.requests[0].root_id, 3u);
  EXPECT_EQ(report.requests[0].total_us, 20);
}

TEST(CritPath, SloSeriesCarryOneSamplePerRequest) {
  // Two requests; only the first has queue time. The series must still give
  // both requests a sample (0 for the second) so percentiles are per-request.
  bo::CritInput in;
  in.spans.push_back(span(1, 0, bo::Stage::ClientInvoke, 0, 100));
  in.spans.push_back(span(2, 1, bo::Stage::NetLink, 0, 100));
  in.spans.back().idle_us = 60;
  in.spans.push_back(span(5, 0, bo::Stage::ClientInvoke, 200, 250));
  in.spans.push_back(span(6, 5, bo::Stage::NetLink, 200, 250));
  in.spans.back().idle_us = 50;

  const bo::CritReport report = bo::compute_critical_paths(in);
  bo::SloInput input;
  bo::add_critpath_series(report, input);
  ASSERT_EQ(input.series.at("critpath.total_us").size(), 2u);
  EXPECT_EQ(input.series.at("critpath.total_us")[0], 100);
  EXPECT_EQ(input.series.at("critpath.total_us")[1], 50);
  ASSERT_EQ(input.series.at("critpath.net_link_queue_us").size(), 2u);
  EXPECT_EQ(input.series.at("critpath.net_link_queue_us")[0], 40);
  EXPECT_EQ(input.series.at("critpath.net_link_queue_us")[1], 0);
  ASSERT_EQ(input.series.at("critpath.net_link_transit_us").size(), 2u);
  EXPECT_EQ(input.series.at("critpath.net_link_transit_us")[0], 60);
  EXPECT_EQ(input.series.at("critpath.net_link_transit_us")[1], 50);
}

TEST(CritPath, DiffFlagsRegressionsAboveThresholdAndFloor) {
  const auto profile_with = [](std::int64_t mean, std::int64_t tail) {
    bo::BlameProfile p;
    p.requests = 10;
    bo::BlameProfile::Row row;
    row.seg = "net_link_queue";
    row.region = -1;
    row.requests = 10;
    row.mean_us = mean;
    row.body_mean_us = mean;
    row.tail_mean_us = tail;
    row.total_us = mean * 10;
    p.rows.push_back(row);
    return p;
  };
  // +100 µs on a 1000 µs mean = +10%: not *more than* 10%, so ok.
  const bo::BlameDiff at_edge = bo::diff_blame(profile_with(1000, 1000),
                                               profile_with(1100, 1100), 10, 50);
  EXPECT_FALSE(at_edge.regressed());
  // +200 µs = +20%: regressed, on the overall mean.
  const bo::BlameDiff over = bo::diff_blame(profile_with(1000, 1000),
                                            profile_with(1200, 1000), 10, 50);
  EXPECT_TRUE(over.regressed());
  // Tail-only regression is still a regression.
  const bo::BlameDiff tail = bo::diff_blame(profile_with(1000, 1000),
                                            profile_with(1000, 1500), 10, 50);
  EXPECT_TRUE(tail.regressed());
  // Large relative growth under the absolute floor stays quiet (noise gate).
  const bo::BlameDiff tiny = bo::diff_blame(profile_with(10, 10),
                                            profile_with(40, 40), 10, 50);
  EXPECT_FALSE(tiny.regressed());
  // Output shape: verdict string flips with the result.
  EXPECT_NE(over.to_json().find("\"verdict\":\"fail\""), std::string::npos);
  EXPECT_NE(at_edge.to_json().find("\"verdict\":\"pass\""), std::string::npos);
  EXPECT_NE(over.to_string().find("REGRESSED"), std::string::npos);
}

namespace {

// ---------------------------------------------------------------------------
// End-to-end harness: a client in region 0 sends a cell around a fixed
// 4-region loop (guard r1, middle r2, exit r3, back to the client). Each
// session opens a root ClientInvoke span whose id rides in the cell (bytes
// [1..4]); relays wrap their forward in a RelayForward span; the client ends
// the root at delivery — root duration == the measured round-trip, exactly.

constexpr std::size_t kCellBytes = 600;

std::uint32_t get_u32(const bu::Bytes& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) |
         static_cast<std::uint32_t>(b[at + 1]) << 8 |
         static_cast<std::uint32_t>(b[at + 2]) << 16 |
         static_cast<std::uint32_t>(b[at + 3]) << 24;
}

void put_u32(bu::Bytes& b, std::size_t at, std::uint32_t v) {
  b[at] = static_cast<std::uint8_t>(v);
  b[at + 1] = static_cast<std::uint8_t>(v >> 8);
  b[at + 2] = static_cast<std::uint8_t>(v >> 16);
  b[at + 3] = static_cast<std::uint8_t>(v >> 24);
}

/// Forwards every cell to `next` inside a RelayForward span.
class LoopRelay : public bs::MessageHandler {
 public:
  bs::Network* net = nullptr;
  bs::NodeId self = bs::kInvalidNode;
  bs::NodeId next = bs::kInvalidNode;

  void on_message(bs::NodeId, bu::Bytes data) override {
    bo::SpanScope span(bo::Stage::RelayForward, self);
    net->send(self, next, std::move(data));
  }
};

/// Terminus: ends the root span and records the measured round-trip.
class LoopClient : public bs::MessageHandler {
 public:
  // session ref (kNoteRef value) -> measured end-to-end sim µs.
  std::map<std::uint32_t, std::int64_t> measured;
  std::map<std::uint32_t, std::int64_t> sent_at;

  void on_message(bs::NodeId, bu::Bytes data) override {
    const std::uint32_t root = get_u32(data, 1);
    const std::uint32_t ref = get_u32(data, 5);
    measured[ref] = bu::sim_now_micros() - sent_at[ref];
    bo::end_span(root, bo::Stage::ClientInvoke);
  }
};

struct LoopCapture {
  std::string jsonl;
  std::string critpath_text;
  std::string critpath_json;
  bo::CritReport report;
  std::map<std::uint32_t, std::int64_t> measured;  // ref -> sim µs
};

/// One fixed-seed run of `sessions` loop round-trips, launched in bursts of
/// `burst` sharing a start instant, bursts `spacing_us` apart; optional
/// chaos plan. Bursts create link-queue contention; a burst of 1 with wide
/// spacing keeps the loop uncontended so fault dwell stands alone.
LoopCapture run_loop(std::uint64_t seed, unsigned shards, int sessions,
                     int burst, std::int64_t spacing_us,
                     const bc::ChaosPlan* plan) {
  LoopCapture cap;
  bo::recorder().enable(std::size_t{1} << 16);
  {
    bs::Simulator sim(seed, shards);
    for (int r = 1; r < 4; ++r) sim.add_region();
    bs::Network net(sim);

    LoopClient client;
    const bs::NodeId client_id =
        net.add_node(bs::NodeSpec{.name = "client"}, &client);
    std::vector<std::unique_ptr<LoopRelay>> relays;
    std::vector<bs::NodeId> ids{client_id};
    for (int r = 1; r < 4; ++r) {
      auto h = std::make_unique<LoopRelay>();
      const bs::NodeId id = net.add_node(bs::NodeSpec{.name = "relay"}, h.get());
      net.set_region(id, static_cast<std::uint32_t>(r));
      h->net = &net;
      h->self = id;
      ids.push_back(id);
      relays.push_back(std::move(h));
    }
    for (std::size_t i = 0; i < relays.size(); ++i) {
      relays[i]->next = ids[(i + 2) % ids.size()];
    }
    // Tight explicit latencies keep transit small so a chaos throttle can
    // dominate the blame profile in the fault test.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      net.set_latency(ids[i], ids[(i + 1) % ids.size()], Duration::millis(1));
    }

    bc::ChaosEngine chaos(sim, net);
    if (plan != nullptr) chaos.install(*plan);

    for (int s = 0; s < sessions; ++s) {
      const Time at = Time::from_micros(10'000 + (s / burst) * spacing_us);
      const std::uint32_t ref = static_cast<std::uint32_t>(s) + 1;
      sim.post(0, at, [&net, &client, ids, ref] {
        bo::SpanScope root(bo::SpanScope::kRoot, bo::Stage::ClientInvoke, ref);
        bu::Bytes cell(kCellBytes, 0);
        put_u32(cell, 1, root.id());
        put_u32(cell, 5, ref);
        client.sent_at[ref] = bu::sim_now_micros();
        net.send(ids[0], ids[1], std::move(cell));
        root.detach();
      });
    }
    sim.run();
    cap.measured = client.measured;

    std::ostringstream os;
    bo::recorder().export_jsonl(os);
    cap.jsonl = os.str();
  }
  bo::recorder().disable();

  std::istringstream in(cap.jsonl);
  const std::vector<bo::RawEvent> events = bo::read_jsonl(in);
  cap.report = bo::compute_critical_paths(bt::crit_input_from_events(events));
  const bo::BlameProfile profile = bo::aggregate_blame(cap.report);
  cap.critpath_text = profile.to_string();
  cap.critpath_json = profile.to_json();
  return cap;
}

}  // namespace

TEST(CritPathE2E, ByteIdenticalAcrossShardCountsAndSumsToMeasuredLatency) {
  const LoopCapture one = run_loop(41, 1, 12, 3, 30'000, nullptr);
  const LoopCapture two = run_loop(41, 2, 12, 3, 30'000, nullptr);
  const LoopCapture four = run_loop(41, 4, 12, 3, 30'000, nullptr);

  ASSERT_EQ(one.report.requests.size(), 12u);
  EXPECT_EQ(one.report.incomplete, 0u);
  ASSERT_FALSE(one.critpath_text.empty());

  // The acceptance contract: the whole analysis — and the trace under it —
  // is a pure function of (seed, topology, region split), never of the
  // shard count.
  EXPECT_EQ(one.jsonl, two.jsonl);
  EXPECT_EQ(one.jsonl, four.jsonl);
  EXPECT_EQ(one.critpath_text, two.critpath_text);
  EXPECT_EQ(one.critpath_text, four.critpath_text);
  EXPECT_EQ(one.critpath_json, two.critpath_json);
  EXPECT_EQ(one.critpath_json, four.critpath_json);

  // Every request's blame sums to its root duration, and that duration is
  // the round-trip the harness measured itself (joined on kNoteRef).
  ASSERT_EQ(one.measured.size(), 12u);
  for (const bo::RequestBlame& req : one.report.requests) {
    EXPECT_EQ(sum_segs(req), req.total_us);
    ASSERT_TRUE(one.measured.count(req.ref)) << "ref " << req.ref;
    EXPECT_EQ(req.total_us, one.measured.at(req.ref)) << "ref " << req.ref;
  }

  // Sanity on the content: cross-region transit exists, and the burst
  // pattern produced at least some queue contention.
  const bo::BlameProfile profile = bo::aggregate_blame(one.report);
  std::int64_t transit = 0;
  std::int64_t queue = 0;
  for (const auto& row : profile.rows) {
    if (row.region != -1) continue;
    if (row.seg == "net_link_transit") transit = row.total_us;
    if (row.seg == "net_link_queue") queue = row.total_us;
  }
  EXPECT_GT(transit, 0);
  EXPECT_GT(queue, 0);
}

TEST(CritPathE2E, ProfileJsonRoundTripsAndDiffsCleanAgainstItself) {
  const LoopCapture cap = run_loop(41, 2, 12, 3, 30'000, nullptr);
  bo::BlameProfile parsed;
  ASSERT_TRUE(bo::BlameProfile::from_json(cap.critpath_json, parsed));
  EXPECT_EQ(parsed.to_json(), cap.critpath_json);

  // A profile diffed against itself must be all-quiet...
  const bo::BlameDiff self_diff =
      bo::diff_blame(parsed, parsed, /*threshold_pct=*/10, /*floor_us=*/50);
  EXPECT_FALSE(self_diff.regressed());

  // ...and load_blame_profile accepts both input shapes for a diff side.
  bo::BlameProfile from_trace;
  std::string err;
  ASSERT_TRUE(bt::load_blame_profile(cap.jsonl, from_trace, &err)) << err;
  ASSERT_TRUE(bt::load_blame_profile(cap.critpath_json, parsed, &err)) << err;
  EXPECT_EQ(from_trace.to_json(), parsed.to_json());
  EXPECT_FALSE(bt::load_blame_profile("not json at all", parsed, &err));
}

TEST(CritPathE2E, InjectedThrottleDominatesTheBlameProfile) {
  // Throttle the middle relay's access link to 0.1% of spec from the start:
  // every session's serialization there inflates from ~50 µs to ~50 ms,
  // all of it stamped as chaos dwell. The explainer must point straight at
  // it — dominant segment, majority share.
  bc::ChaosPlan plan;
  plan.seed = 7;
  bc::Throttle throttle;
  throttle.node = 2;  // middle relay (add order: client=0, r1=1, r2=2, r3=3)
  throttle.scale = 0.001;
  throttle.start = Time::from_micros(1);
  plan.throttles.push_back(throttle);

  // Sessions run one at a time, 150 ms apart — wider than the throttled
  // serialization — so the dwell itself, not queueing behind it, carries
  // the blame and the attribution is unambiguous.
  const LoopCapture cap = run_loop(43, 2, 9, 1, 150'000, &plan);
  ASSERT_GE(cap.report.requests.size(), 1u);
  for (const bo::RequestBlame& req : cap.report.requests) {
    EXPECT_EQ(sum_segs(req), req.total_us);
  }

  const bo::BlameProfile profile = bo::aggregate_blame(cap.report);
  EXPECT_EQ(profile.top_segment(), "chaos_dwell");
  std::int64_t dwell = 0;
  for (const auto& row : profile.rows) {
    if (row.region == -1 && row.seg == "chaos_dwell") dwell = row.total_us;
  }
  EXPECT_GT(dwell * 2, profile.sum_us) << "throttle must own >50% of blame";

  // Same seed without the plan: `bentotrace diff` semantics catch the
  // regression (chaos_dwell appears, means explode past 10% + 50 µs).
  const LoopCapture clean = run_loop(43, 2, 9, 1, 150'000, nullptr);
  const bo::BlameDiff diff =
      bo::diff_blame(bo::aggregate_blame(clean.report), profile, 10, 50);
  EXPECT_TRUE(diff.regressed());
}
