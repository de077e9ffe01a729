// Shard-observatory suite (DESIGN.md §13): the profiler's deterministic
// half must be a pure function of (seed, topology, region split) — its
// ShardProfile JSON, stats section, and registry-backed shard.* metrics
// byte-identical at shard counts {1, 2, 4}, including snapshots taken
// *mid-run* from an exclusive event (the snapshot_stats path) — and taking
// one must not perturb the final tallies. Plus units for the SLO spec
// grammar / engine and the bentotrace-side ShardProfile parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bentotrace/shards.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"

namespace bo = bento::obs;
namespace bs = bento::sim;
namespace bt = bento::tools;
namespace bu = bento::util;

using bu::Duration;
using bu::Time;

namespace {

/// Decrements the hop budget in byte 0 and echoes back until it hits zero.
class EchoHandler : public bs::MessageHandler {
 public:
  bs::Network* net = nullptr;
  bs::NodeId self = bs::kInvalidNode;

  void on_message(bs::NodeId from, bu::Bytes data) override {
    if (data.empty() || data[0] == 0) return;
    data[0] -= 1;
    net->send(self, from, std::move(data));
  }
};

struct RunCapture {
  std::string profile_json;   // final ShardProfileSnapshot::to_json()
  std::string section;        // final to_section()
  std::string registry_json;  // final Registry snapshot (shard.* mirrors)
  std::string midrun_json;    // snapshot taken from an exclusive event
  std::string midrun_section;
  std::uint64_t windows = 0;
};

/// 4-region / 8-node echo mesh; every node talks intra- and cross-region.
/// An exclusive event at 300 ms reads the profiler the way snapshot_stats
/// does, mid-run, to prove the merged view is stable at a barrier.
RunCapture run_profiled(std::uint64_t seed, unsigned shards) {
  bo::shard_profiler().reset();
  bo::registry().reset();

  bs::Simulator sim(seed, shards);
  for (int r = 1; r < 4; ++r) sim.add_region();
  bs::Network net(sim);
  std::vector<std::unique_ptr<EchoHandler>> handlers;
  std::vector<bs::NodeId> ids;
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 2; ++i) {
      auto h = std::make_unique<EchoHandler>();
      const bs::NodeId id = net.add_node(bs::NodeSpec{.name = "node"}, h.get());
      net.set_region(id, static_cast<std::uint32_t>(r));
      h->net = &net;
      h->self = id;
      ids.push_back(id);
      handlers.push_back(std::move(h));
    }
  }
  for (int r = 0; r < 4; ++r) {
    net.set_latency(ids[r * 2], ids[r * 2 + 1], Duration::millis(2));
  }

  RunCapture cap;
  sim.at_exclusive(Time::from_micros(300'000), [&cap] {
    const bo::ShardProfileSnapshot s = bo::shard_profiler().snapshot();
    cap.midrun_json = s.to_json();
    cap.midrun_section = s.to_section();
  });
  const Time start = Time::from_micros(10'000);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto region = static_cast<std::uint32_t>(i / 2);
    const bs::NodeId src = ids[i];
    const bs::NodeId intra = ids[i ^ 1];
    const bs::NodeId cross = ids[(i + 2) % ids.size()];
    sim.post(region, start, [&net, src, intra, cross] {
      net.send(src, intra, bu::Bytes{6});
      net.send(src, cross, bu::Bytes{4});
    });
  }
  sim.run();

  const bo::ShardProfileSnapshot s = bo::shard_profiler().snapshot();
  cap.profile_json = s.to_json();
  cap.section = s.to_section();
  cap.registry_json = bo::registry().snapshot().to_json();
  cap.windows = s.windows;
  return cap;
}

}  // namespace

TEST(ShardProfile, ByteIdenticalAcrossShardCountsInclMidRun) {
  const RunCapture one = run_profiled(17, 1);
  const RunCapture two = run_profiled(17, 2);
  const RunCapture four = run_profiled(17, 4);
  ASSERT_GT(one.windows, 0u) << "multi-region run must go windowed";
  ASSERT_FALSE(one.midrun_json.empty()) << "exclusive event did not fire";
  EXPECT_EQ(one.profile_json, two.profile_json);
  EXPECT_EQ(one.profile_json, four.profile_json);
  EXPECT_EQ(one.section, two.section);
  EXPECT_EQ(one.section, four.section);
  EXPECT_EQ(one.registry_json, two.registry_json);
  EXPECT_EQ(one.registry_json, four.registry_json);
  EXPECT_EQ(one.midrun_json, two.midrun_json);
  EXPECT_EQ(one.midrun_json, four.midrun_json);
  EXPECT_EQ(one.midrun_section, two.midrun_section);
  EXPECT_EQ(one.midrun_section, four.midrun_section);
  // The mid-run read sees a strict prefix of the run: fewer windows than the
  // final snapshot, not a copy of it.
  EXPECT_NE(one.midrun_json, one.profile_json);
}

TEST(ShardProfile, RepeatedRunsAndSeedsBehave) {
  const RunCapture a = run_profiled(17, 2);
  const RunCapture b = run_profiled(17, 2);
  EXPECT_EQ(a.profile_json, b.profile_json) << "same seed must reproduce";
  EXPECT_EQ(a.registry_json, b.registry_json);
}

TEST(ShardProfile, JsonRoundTripsThroughParser) {
  const RunCapture cap = run_profiled(29, 2);
  // Deterministic half only.
  bo::ShardProfileSnapshot parsed;
  ASSERT_TRUE(bo::ShardProfileSnapshot::from_json(cap.profile_json, parsed));
  EXPECT_EQ(parsed.to_json(), cap.profile_json);
  EXPECT_EQ(parsed.run_wall_ns, 0u);
  EXPECT_TRUE(parsed.workers.empty());
  // With the wall section: the wall fields must survive too.
  const bo::ShardProfileSnapshot live = bo::shard_profiler().snapshot();
  const std::string wall_json = live.to_json(/*include_wall=*/true);
  bo::ShardProfileSnapshot wall;
  ASSERT_TRUE(bo::ShardProfileSnapshot::from_json(wall_json, wall));
  EXPECT_EQ(wall.windows, live.windows);
  EXPECT_EQ(wall.run_wall_ns, live.run_wall_ns);
  EXPECT_EQ(wall.barrier_wall_ns, live.barrier_wall_ns);
  EXPECT_EQ(wall.workers.size(), live.workers.size());

  bo::ShardProfileSnapshot junk;
  EXPECT_FALSE(bo::ShardProfileSnapshot::from_json("{\"not_a_profile\":1}", junk));
  EXPECT_FALSE(bo::ShardProfileSnapshot::from_json("", junk));
}

TEST(Slo, SpecGrammarParses) {
  bo::SloSpec s;
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:p99<=250000", s));
  EXPECT_EQ(s.metric, "ttfb_us");
  EXPECT_EQ(s.agg, bo::SloSpec::Agg::Percentile);
  EXPECT_DOUBLE_EQ(s.pct, 99.0);
  EXPECT_EQ(s.op, bo::SloSpec::Op::Le);
  EXPECT_DOUBLE_EQ(s.target, 250000.0);
  EXPECT_EQ(s.name(), "ttfb_us:p99");

  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:p99.9<=400000", s));
  EXPECT_DOUBLE_EQ(s.pct, 99.9);
  EXPECT_EQ(s.name(), "ttfb_us:p99.9");

  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:count>=100000", s));
  EXPECT_EQ(s.agg, bo::SloSpec::Agg::Count);
  EXPECT_EQ(s.op, bo::SloSpec::Op::Ge);

  ASSERT_TRUE(bo::parse_slo_spec("region_imbalance<=1.5", s));
  EXPECT_EQ(s.agg, bo::SloSpec::Agg::Scalar);
  EXPECT_EQ(s.name(), "region_imbalance");

  std::string err;
  EXPECT_FALSE(bo::parse_slo_spec("no_operator", s, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(bo::parse_slo_spec("x:p200<=1", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:bogus<=1", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x<=", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("<=5", s, &err));
}

TEST(Slo, PercentileIsNearestRank) {
  std::vector<std::int64_t> v{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(bo::slo_percentile(v, 50), 50);
  EXPECT_EQ(bo::slo_percentile(v, 99), 100);
  EXPECT_EQ(bo::slo_percentile(v, 10), 10);
  EXPECT_EQ(bo::slo_percentile({}, 99), 0);
}

TEST(Slo, PercentileSortedMatchesSortingCopy) {
  std::vector<std::int64_t> shuffled{70, 10, 100, 40, 90, 20, 60, 30, 80, 50, 50};
  std::vector<std::int64_t> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  for (const double pct : {0.0, 0.001, 10.0, 50.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(bo::percentile_sorted(sorted, pct), bo::slo_percentile(shuffled, pct)) << pct;
  }
  EXPECT_EQ(bo::percentile_sorted({}, 50), 0);
}

TEST(Slo, PercentileEdgeCases) {
  // Empty series is defined as 0 (the engine separately fails the spec as
  // missing — the helper itself must not trap).
  EXPECT_EQ(bo::slo_percentile({}, 50), 0);
  // Single sample: every percentile is that sample.
  EXPECT_EQ(bo::slo_percentile({42}, 0.001), 42);
  EXPECT_EQ(bo::slo_percentile({42}, 50), 42);
  EXPECT_EQ(bo::slo_percentile({42}, 99.9), 42);
  EXPECT_EQ(bo::slo_percentile({42}, 100), 42);
  // Degenerate pct clamps to the extremes instead of indexing out of range.
  std::vector<std::int64_t> v{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(bo::slo_percentile(v, 0), 10);
  EXPECT_EQ(bo::slo_percentile(v, 100), 100);
  // Fractional percentiles on small N: ceil(99.9% of 10) = 10th sample.
  EXPECT_EQ(bo::slo_percentile(v, 99.9), 100);
  // ...and on N=1000 the nearest rank is the 999th sample, not the max.
  std::vector<std::int64_t> big(1000);
  for (int i = 0; i < 1000; ++i) big[static_cast<std::size_t>(i)] = i + 1;
  EXPECT_EQ(bo::slo_percentile(big, 99.9), 999);
  EXPECT_EQ(bo::slo_percentile(big, 99), 990);
  // The input need not be sorted (the helper sorts a copy).
  EXPECT_EQ(bo::slo_percentile({30, 10, 20}, 50), 20);
}

TEST(Slo, SpecGrammarRejectsGarbage) {
  bo::SloSpec s;
  std::string err;
  // Percentiles live in (0, 100]: p0 is meaningless under nearest-rank,
  // p100 is the max.
  EXPECT_FALSE(bo::parse_slo_spec("x:p0<=1", s, &err));
  EXPECT_NE(err.find("percentile"), std::string::npos);
  ASSERT_TRUE(bo::parse_slo_spec("x:p100<=1", s));
  EXPECT_DOUBLE_EQ(s.pct, 100.0);
  EXPECT_EQ(s.name(), "x:p100");
  // Mangled operators and non-numeric pieces all fail, never crash.
  EXPECT_FALSE(bo::parse_slo_spec("", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:p99<>5", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:p99<=5trailing", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:pabc<=5", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:p<=5", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec(":p99<=5", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:<=5", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:p99<=", s, &err));
  // Whitespace is not stripped: a padded metric is a different (and almost
  // certainly missing) metric, and a padded target is not a number.
  ASSERT_TRUE(bo::parse_slo_spec(" x :p99<=5", s));
  EXPECT_EQ(s.metric, " x ");
  EXPECT_FALSE(bo::parse_slo_spec("x:p99<= 5 ", s, &err));
}

TEST(Slo, NonFiniteTargetsAndPercentilesAreRejected) {
  // strtod takes inf and nan, which no JSON verdict could print.
  bo::SloSpec s;
  std::string err;
  for (const char* spec : {"x<=inf", "x>=-inf", "x:p99<=nan", "x:max<=INFINITY",
                           "x:pnan<=1", "x:pinf<=1"}) {
    EXPECT_FALSE(bo::parse_slo_spec(spec, s, &err)) << spec;
  }
  EXPECT_NE(err.find("percentile"), std::string::npos) << err;
  EXPECT_FALSE(bo::parse_slo_spec("x<=inf", s, &err));
  EXPECT_NE(err.find("finite"), std::string::npos) << err;
}

TEST(Slo, ReportJsonRoundTripsHostileNamesThroughTheCodec) {
  const std::string metric = "we\"ird\\na\nme\x01";
  bo::SloSpec spec;
  ASSERT_TRUE(bo::parse_slo_spec(metric + "<=2.5", spec));
  bo::SloInput input;
  input.set_scalar(metric, 1.25);
  const bo::SloReport report = bo::evaluate_slos("scen\"ario\n", {spec}, input);
  const std::string json = report.to_json();
  ASSERT_TRUE(bento::util::json::valid(json)) << json;

  bento::util::json::Reader r(json);
  std::string scenario, verdict, name, op;
  double target = 0;
  double actual = 0;
  bool pass = false;
  const auto objective = [&] {
    return r.fields({"name", "op", "target", "actual", "pass"}, name, op, target, actual,
                    pass);
  };
  ASSERT_TRUE(r.fields({"scenario", "verdict", "objectives"}, scenario, verdict,
                       [&] { return r.array(objective); }) &&
              r.finish());
  EXPECT_EQ(scenario, report.scenario);
  EXPECT_EQ(name, spec.name());
  EXPECT_EQ(name, metric);
  EXPECT_EQ(verdict, "pass");
  EXPECT_EQ(op, "<=");
  EXPECT_DOUBLE_EQ(target, 2.5);
  EXPECT_DOUBLE_EQ(actual, 1.25);
  EXPECT_TRUE(pass);
}

TEST(Slo, MissingMetricFailsTheRun) {
  bo::SloInput input;
  input.add_sample("ttfb_us", 100);
  bo::SloSpec ok;
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:max<=200", ok));
  bo::SloSpec missing;
  ASSERT_TRUE(bo::parse_slo_spec("ghost_us:p50<=1", missing));
  const bo::SloReport report = bo::evaluate_slos("t", {ok, missing}, input);
  EXPECT_FALSE(report.pass());
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_TRUE(report.results[1].missing);
  EXPECT_FALSE(report.results[1].ok);
}

TEST(Slo, ReportJsonIsByteStable) {
  bo::SloInput input;
  for (int i = 1; i <= 100; ++i) input.add_sample("ttfb_us", i * 10);
  input.set_scalar("windows", 55);
  std::vector<bo::SloSpec> specs(3);
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:p99<=990", specs[0]));
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:count>=100", specs[1]));
  ASSERT_TRUE(bo::parse_slo_spec("windows>=50", specs[2]));
  const std::string a = bo::evaluate_slos("s", specs, input).to_json();
  const std::string b = bo::evaluate_slos("s", specs, input).to_json();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"verdict\":\"pass\""), std::string::npos);
  specs.resize(1);
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:p99<=10", specs[0]));
  const std::string f = bo::evaluate_slos("s", specs, input).to_json();
  EXPECT_NE(f.find("\"verdict\":\"fail\""), std::string::npos);
}

TEST(Slo, TraceEventsFeedTheEngine) {
  // Synthetic trace: 4 TTFB samples, two shard windows, one barrier.
  std::vector<bo::RawEvent> events;
  for (std::int64_t us : {100, 200, 300, 400}) {
    events.push_back(bo::RawEvent{.ts = us, .ev = "stream.ttfb", .a = 1,
                                  .b = static_cast<std::uint64_t>(us), .ok = 1});
  }
  events.push_back(bo::RawEvent{.ts = 1, .ev = "shard.window", .a = 0, .b = 30, .ok = 1});
  events.push_back(bo::RawEvent{.ts = 1, .ev = "shard.window", .a = 1, .b = 10, .ok = 1});
  events.push_back(bo::RawEvent{.ts = 1, .ev = "shard.barrier", .a = 2, .b = 40'000, .ok = 1});
  std::vector<bo::SloSpec> specs(3);
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:count>=4", specs[0]));
  ASSERT_TRUE(bo::parse_slo_spec("windows>=1", specs[1]));
  ASSERT_TRUE(bo::parse_slo_spec("region_imbalance<=1.5", specs[2]));
  const bo::SloReport report = bt::evaluate_trace_slos(events, specs);
  EXPECT_TRUE(report.pass()) << report.to_string();
  // max=30 over mean=20 -> 1.5 exactly.
  EXPECT_DOUBLE_EQ(report.results[2].actual, 1.5);
}
