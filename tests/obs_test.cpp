// Observability layer: metrics registry semantics (bucket edges, interning,
// reset, disabled no-op), flight-recorder ring behaviour (wraparound keeps
// the newest window, exports are time-ordered), logger satellites
// (parse_log_level, log_enabled, sim-time stamping hook) and the
// determinism regression: a fixed-seed e2e scenario traced twice exports
// byte-identical JSONL.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "tor/testbed.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/simclock.hpp"

namespace bo = bento::obs;
namespace bt = bento::tor;
namespace bu = bento::util;
namespace bs = bento::sim;

namespace {

// Deterministic fake clock for ring tests: advances by explicit assignment.
std::int64_t g_fake_now_us = 0;
std::int64_t fake_clock(const void*) { return g_fake_now_us; }

struct FakeClockScope {
  FakeClockScope() { bu::install_sim_clock(&fake_clock, &g_fake_now_us); }
  ~FakeClockScope() { bu::uninstall_sim_clock(&g_fake_now_us); }
};

}  // namespace

TEST(Metrics, HistogramBucketEdges) {
  const std::int64_t bounds[] = {10, 20, 30};
  bo::Histogram h = bo::registry().histogram("test.edges", bounds);
  // Underflow, interior, exact edges, overflow. An exact edge value
  // bounds[i] belongs to bucket i+1 (buckets are lower-inclusive).
  h.record(-5);    // bucket 0: (-inf, 10)
  h.record(9);     // bucket 0
  h.record(10);    // bucket 1: [10, 20)
  h.record(19);    // bucket 1
  h.record(20);    // bucket 2: [20, 30)
  h.record(29);    // bucket 2
  h.record(30);    // bucket 3: [30, +inf)
  h.record(1000);  // bucket 3

  const bo::HistogramCell* cell = h.cell();
  ASSERT_NE(cell, nullptr);
  ASSERT_EQ(cell->buckets.size(), 4u);
  EXPECT_EQ(cell->buckets[0], 2u);
  EXPECT_EQ(cell->buckets[1], 2u);
  EXPECT_EQ(cell->buckets[2], 2u);
  EXPECT_EQ(cell->buckets[3], 2u);
  EXPECT_EQ(cell->count, 8u);
  EXPECT_EQ(cell->min, -5);
  EXPECT_EQ(cell->max, 1000);
  EXPECT_EQ(cell->sum, -5 + 9 + 10 + 19 + 20 + 29 + 30 + 1000);
}

// record() starts its bound scan at a per-bit-width index; bucket counts
// must equal a plain linear scan for any ladder (dense, sparse, negative
// bounds) at every edge and edge +/- 1, and at the int64 extremes.
TEST(Metrics, HistogramIndexedBucketsMatchLinearScan) {
  auto linear_bucket = [](const std::vector<std::int64_t>& bounds, std::int64_t v) {
    std::size_t i = 0;
    while (i < bounds.size() && v >= bounds[i]) ++i;
    return i;
  };
  const std::vector<std::vector<std::int64_t>> ladders = {
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1'024, 4'096, 16'384, 65'536},
      {100, 250, 500, 1'000, 2'500, 5'000, 10'000, 25'000, 50'000, 100'000},
      {-50, -3, 0, 1, 2, 3, 5, 6, 7, 8, 9, 1'000'000'000'000},
  };
  bu::Rng rng(12);
  for (std::size_t li = 0; li < ladders.size(); ++li) {
    const std::vector<std::int64_t>& bounds = ladders[li];
    bo::Histogram h = bo::registry().histogram("test.indexed" + std::to_string(li), bounds);
    std::vector<std::int64_t> values = {0};
    for (const std::int64_t b : bounds) {
      for (const std::int64_t d : {-1, 0, 1}) values.push_back(b + d);
    }
    // Magnitudes below 2^52 keep the histogram's running sum in range.
    for (int i = 0; i < 2000; ++i) {
      const auto mag = static_cast<std::int64_t>(rng.next_u64() >> rng.uniform(12, 63));
      values.push_back(i % 4 == 0 ? -mag : mag);
    }
    std::vector<std::uint64_t> want(bounds.size() + 1, 0);
    for (const std::int64_t v : values) {
      h.record(v);
      want[linear_bucket(bounds, v)] += 1;
    }
    EXPECT_EQ(h.cell()->buckets, want) << "ladder " << li;
  }
  // Extremes, one value per histogram so no running sum overflows.
  const std::vector<std::int64_t> wide = {std::numeric_limits<std::int64_t>::min() + 1, -1, 7,
                                          std::int64_t{1} << 62,
                                          std::numeric_limits<std::int64_t>::max()};
  const std::int64_t extremes[] = {std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::min() + 1,
                                   -2,
                                   (std::int64_t{1} << 62) - 1,
                                   std::int64_t{1} << 62,
                                   std::numeric_limits<std::int64_t>::max() - 1,
                                   std::numeric_limits<std::int64_t>::max()};
  for (std::size_t i = 0; i < std::size(extremes); ++i) {
    bo::Histogram h = bo::registry().histogram("test.indexed_wide" + std::to_string(i), wide);
    h.record(extremes[i]);
    std::vector<std::uint64_t> want(wide.size() + 1, 0);
    want[linear_bucket(wide, extremes[i])] = 1;
    EXPECT_EQ(h.cell()->buckets, want) << extremes[i];
  }
}

TEST(Metrics, HistogramBoundsValidated) {
  EXPECT_THROW(bo::registry().histogram("test.bad_empty", std::span<const std::int64_t>{}),
               std::invalid_argument);
  const std::int64_t unsorted[] = {10, 10, 20};
  EXPECT_THROW(bo::registry().histogram("test.bad_unsorted", unsorted),
               std::invalid_argument);
}

TEST(Metrics, InterningReturnsSameCell) {
  bo::Counter a = bo::registry().counter("test.interned");
  bo::Counter b = bo::registry().counter("test.interned");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
  // Re-registering a histogram keeps the original bounds.
  const std::int64_t first[] = {5};
  const std::int64_t second[] = {1, 2, 3};
  bo::Histogram h1 = bo::registry().histogram("test.sticky_bounds", first);
  bo::Histogram h2 = bo::registry().histogram("test.sticky_bounds", second);
  ASSERT_NE(h2.cell(), nullptr);
  EXPECT_EQ(h2.cell()->bounds.size(), 1u);
  EXPECT_EQ(h1.cell(), h2.cell());
}

TEST(Metrics, DisabledIsNoOp) {
  bo::Counter c = bo::registry().counter("test.disabled");
  bo::Gauge g = bo::registry().gauge("test.disabled_gauge");
  bo::set_metrics_enabled(false);
  c.inc(100);
  g.set(42);
  bo::set_metrics_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  c.inc(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, ResetZeroesInPlaceAndKeepsHandles) {
  bo::Counter c = bo::registry().counter("test.reset");
  const std::int64_t bounds[] = {10};
  bo::Histogram h = bo::registry().histogram("test.reset_hist", bounds);
  c.inc(5);
  h.record(3);
  bo::registry().reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc(2);  // handle survives the reset
  EXPECT_EQ(c.value(), 2u);
}

TEST(Metrics, GaugeHighWater) {
  bo::Gauge g = bo::registry().gauge("test.high_water");
  g.set(3);
  g.set(9);
  g.set(4);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(g.high_water(), 9);
}

TEST(Metrics, SnapshotDumpContainsRegisteredNames) {
  bo::registry().counter("test.snapshot_counter").inc();
  const bo::Snapshot snap = bo::registry().snapshot();
  const std::string text = snap.to_string();
  EXPECT_NE(text.find("test.snapshot_counter"), std::string::npos);
}

TEST(Trace, RingWraparoundKeepsNewest) {
  FakeClockScope clock;
  bo::Recorder rec;
  rec.enable(8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    g_fake_now_us = 100 * i;
    rec.record(bo::Ev::CellSend, i, i * 2);
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first export of the newest window: a = 12..19.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12u + i);
    EXPECT_EQ(events[i].ts_us, 100 * (12 + static_cast<std::int64_t>(i)));
  }
}

TEST(Trace, ExportsAreTimeOrderedAfterWrap) {
  FakeClockScope clock;
  bo::Recorder rec;
  rec.enable(4);
  for (std::uint32_t i = 0; i < 11; ++i) {
    g_fake_now_us = 7 * i;
    rec.record(bo::Ev::SimDispatch, i);
  }
  std::ostringstream os;
  rec.export_jsonl(os);
  const std::string jsonl = os.str();
  // Timestamps in export order must be monotone non-decreasing.
  std::int64_t last = -1;
  std::size_t lines = 0;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) {
    ++lines;
    const auto pos = line.find("\"ts\":");
    ASSERT_NE(pos, std::string::npos) << line;
    const std::int64_t ts = std::stoll(line.substr(pos + 5));
    EXPECT_GE(ts, last);
    last = ts;
  }
  EXPECT_EQ(lines, 4u);
}

TEST(Trace, MaskFiltersKinds) {
  FakeClockScope clock;
  bo::Recorder rec;
  rec.enable(16);
  rec.set_mask(bo::Recorder::mask_all() & ~bo::Recorder::mask_of(bo::Ev::SimDispatch));
  rec.record(bo::Ev::SimDispatch, 1);
  rec.record(bo::Ev::CellSend, 2);
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.events()[0].kind, bo::Ev::CellSend);
}

TEST(Trace, DisabledRecorderIsNoOp) {
  bo::Recorder rec;
  rec.record(bo::Ev::CellSend, 1);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(Trace, ChromeExportIsWellFormed) {
  FakeClockScope clock;
  g_fake_now_us = 1234;
  bo::Recorder rec;
  rec.enable(16);
  rec.record(bo::Ev::CircBuilt, 7, 3);
  rec.record(bo::Ev::FnInvoke, 1, 42);
  std::ostringstream os;
  rec.export_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"circuit.built\""), std::string::npos);
  EXPECT_NE(json.find("\"fn.invoke\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1234"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

namespace {

// Span tests drive the process-global recorder (span events always go
// there); this scope arms it and guarantees cleanup.
struct SpanRecorderScope {
  explicit SpanRecorderScope(std::size_t capacity = 256) {
    bo::recorder().enable(capacity);
    bo::reset_spans();
  }
  ~SpanRecorderScope() {
    bo::recorder().disable();
    bo::reset_spans();
  }
};

std::vector<bo::TraceEvent> span_events() {
  std::vector<bo::TraceEvent> out;
  for (const bo::TraceEvent& e : bo::recorder().events()) {
    if (e.kind == bo::Ev::SpanBegin || e.kind == bo::Ev::SpanEnd ||
        e.kind == bo::Ev::SpanNote) {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace

TEST(Span, RootAndChildRecordBeginEndWithParentLink) {
  FakeClockScope clock;
  SpanRecorderScope rec;
  g_fake_now_us = 10;
  {
    bo::SpanScope root(bo::SpanScope::kRoot, bo::Stage::ClientInvoke);
    g_fake_now_us = 20;
    {
      bo::SpanScope child(bo::Stage::RelayForward, /*ref=*/7);
      g_fake_now_us = 30;
    }
    g_fake_now_us = 40;
  }
  const auto events = span_events();
  // root begin, child begin, child ref note, child end, root end.
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].kind, bo::Ev::SpanBegin);
  EXPECT_EQ(events[0].a, 1u);  // first span id after reset
  EXPECT_EQ(events[0].b >> 32, 0u);  // no parent
  EXPECT_EQ(events[0].b & 0xffffffffu,
            static_cast<std::uint64_t>(bo::Stage::ClientInvoke));
  EXPECT_EQ(events[1].kind, bo::Ev::SpanBegin);
  EXPECT_EQ(events[1].a, 2u);
  EXPECT_EQ(events[1].b >> 32, 1u);  // parented to the root
  EXPECT_EQ(events[1].b & 0xffffffffu,
            static_cast<std::uint64_t>(bo::Stage::RelayForward));
  EXPECT_EQ(events[2].kind, bo::Ev::SpanNote);
  EXPECT_EQ(events[2].b >> 32, bo::kNoteRef);
  EXPECT_EQ(events[2].b & 0xffffffffu, 7u);
  EXPECT_EQ(events[3].kind, bo::Ev::SpanEnd);
  EXPECT_EQ(events[3].a, 2u);
  EXPECT_EQ(events[3].ts_us, 30);
  EXPECT_EQ(events[4].kind, bo::Ev::SpanEnd);
  EXPECT_EQ(events[4].a, 1u);
  EXPECT_EQ(events[4].ts_us, 40);
}

TEST(Span, ChildScopeInertWithoutActiveParent) {
  FakeClockScope clock;
  SpanRecorderScope rec;
  {
    bo::SpanScope orphan(bo::Stage::RelayForward);  // no active request
  }
  EXPECT_TRUE(span_events().empty());
  EXPECT_FALSE(bo::current_span().active());
}

TEST(Span, RootScopeInertWhenRecorderDisabled) {
  bo::recorder().disable();
  bo::reset_spans();
  {
    bo::SpanScope root(bo::SpanScope::kRoot, bo::Stage::ClientConnect);
  }
  EXPECT_FALSE(bo::current_span().active());
}

TEST(Span, DetachDefersEndToExplicitCall) {
  FakeClockScope clock;
  SpanRecorderScope rec;
  std::uint32_t id = 0;
  g_fake_now_us = 5;
  {
    bo::SpanScope root(bo::SpanScope::kRoot, bo::Stage::ClientUpload);
    id = root.detach();
  }
  ASSERT_NE(id, 0u);
  auto events = span_events();
  ASSERT_EQ(events.size(), 1u);  // begin only: the scope exit did not end it
  EXPECT_EQ(events[0].kind, bo::Ev::SpanBegin);
  // The async completion lands later and closes the span as a failure.
  g_fake_now_us = 55;
  bo::end_span(id, bo::Stage::ClientUpload, /*ok=*/false);
  events = span_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, bo::Ev::SpanEnd);
  EXPECT_EQ(events[1].a, id);
  EXPECT_EQ(events[1].ts_us, 55);
  EXPECT_EQ(events[1].flags & 1, 0u);  // ok=false
  // span.end carries the stage redundantly for wraparound attribution.
  EXPECT_EQ(events[1].b & 0xffffffffu,
            static_cast<std::uint64_t>(bo::Stage::ClientUpload));
}

TEST(Span, IdsRestartEachRecorderGeneration) {
  FakeClockScope clock;
  std::uint32_t first_run = 0;
  std::uint32_t second_run = 0;
  {
    SpanRecorderScope rec;
    bo::SpanScope a(bo::SpanScope::kRoot, bo::Stage::ClientInvoke);
    bo::SpanScope b(bo::Stage::RelayForward);
    first_run = a.detach();
  }
  {
    SpanRecorderScope rec;  // re-enable bumps the recorder generation
    bo::SpanScope a(bo::SpanScope::kRoot, bo::Stage::ClientInvoke);
    second_run = a.detach();
  }
  bo::recorder().disable();
  EXPECT_EQ(first_run, 1u);
  EXPECT_EQ(second_run, 1u);  // same ids for the same call sequence
}

TEST(Span, EndSurvivesRingWraparoundWithStageAttribution) {
  FakeClockScope clock;
  SpanRecorderScope rec(4);  // tiny ring: begins will be overwritten
  bo::SpanScope root(bo::SpanScope::kRoot, bo::Stage::ClientInvoke);
  const std::uint32_t id = root.detach();
  for (std::uint32_t i = 0; i < 64; ++i) {
    bo::trace(bo::Ev::CellSend, i, 0);  // flood: evicts the SpanBegin
  }
  g_fake_now_us = 99;
  bo::end_span(id, bo::Stage::ClientInvoke, /*ok=*/true);
  const auto events = bo::recorder().events();
  ASSERT_FALSE(events.empty());
  const bo::TraceEvent& last = events.back();
  EXPECT_EQ(last.kind, bo::Ev::SpanEnd);
  EXPECT_EQ(last.a, id);
  // Even with the begin gone, the end still names its stage.
  EXPECT_EQ(last.b & 0xffffffffu,
            static_cast<std::uint64_t>(bo::Stage::ClientInvoke));
  bool begin_survived = false;
  for (const auto& e : events) {
    if (e.kind == bo::Ev::SpanBegin) begin_survived = true;
  }
  EXPECT_FALSE(begin_survived);
}

TEST(Span, NamesCompleteForEveryStageAndEvKind) {
  EXPECT_TRUE(bo::stage_names_complete());
  EXPECT_TRUE(bo::ev_names_complete());
}

TEST(Log, ParseLogLevel) {
  using bu::LogLevel;
  EXPECT_EQ(bu::parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(bu::parse_log_level("DEBUG"), LogLevel::Debug);
  EXPECT_EQ(bu::parse_log_level("Info"), LogLevel::Info);
  EXPECT_EQ(bu::parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(bu::parse_log_level("warning"), LogLevel::Warn);
  EXPECT_EQ(bu::parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(bu::parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(bu::parse_log_level("3"), LogLevel::Warn);
  EXPECT_EQ(bu::parse_log_level(nullptr), std::nullopt);
  EXPECT_EQ(bu::parse_log_level(""), std::nullopt);
  EXPECT_EQ(bu::parse_log_level("bogus"), std::nullopt);
  EXPECT_EQ(bu::parse_log_level("7"), std::nullopt);
}

TEST(Log, EnabledPredicateTracksThreshold) {
  const bu::LogLevel saved = bu::log_level();
  bu::set_log_level(bu::LogLevel::Info);
  if (bu::log_level() == bu::LogLevel::Info) {  // env override may pin it
    EXPECT_TRUE(bu::log_enabled(bu::LogLevel::Warn));
    EXPECT_TRUE(bu::log_enabled(bu::LogLevel::Info));
    EXPECT_FALSE(bu::log_enabled(bu::LogLevel::Debug));
  }
  bu::set_log_level(saved);
}

TEST(SimClock, SimulatorInstallsAndRemovesClock) {
  {
    bs::Simulator sim;
    ASSERT_TRUE(bu::sim_clock_installed());
    EXPECT_EQ(bu::sim_now_micros(), 0);
    sim.after(bu::Duration::millis(5), [] {});
    sim.run();
    EXPECT_EQ(bu::sim_now_micros(), 5000);
  }
  EXPECT_FALSE(bu::sim_clock_installed());
  EXPECT_EQ(bu::sim_now_micros(), -1);
}

namespace {

bt::Endpoint web_endpoint() { return {bt::parse_addr("93.184.216.34"), 80}; }

// One fixed-seed fetch scenario with tracing on; returns the JSONL export.
std::string traced_fetch_jsonl() {
  bo::recorder().enable(std::size_t{1} << 14);
  std::string out;
  {
    bt::Testbed bed;  // fixed default seed
    bed.add_web_server(web_endpoint().addr,
                       [](const std::string&) -> std::optional<bu::Bytes> {
                         return bu::Bytes(40'000, 'x');
                       });
    bed.finalize();
    auto client = bed.make_client("alice");
    bool done = false;
    bt::PathConstraints constraints;
    constraints.exit_to = web_endpoint();
    client->build_circuit(constraints, [&](bt::CircuitOrigin* circ) {
      ASSERT_NE(circ, nullptr);
      bt::Stream::Callbacks cbs;
      cbs.on_end = [&done] { done = true; };
      bt::Stream* stream = circ->open_stream(web_endpoint(), std::move(cbs));
      stream->set_on_connected([stream] { stream->send(bu::to_bytes("GET /\n")); });
    });
    bed.run();
    EXPECT_TRUE(done);
    std::ostringstream os;
    bo::recorder().export_jsonl(os);
    out = os.str();
  }
  bo::recorder().disable();
  return out;
}

}  // namespace

TEST(Determinism, TracedRunsExportByteIdenticalJsonl) {
  const std::string first = traced_fetch_jsonl();
  const std::string second = traced_fetch_jsonl();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Sanity: the trace actually saw the tor layer, not just sim dispatches.
  EXPECT_NE(first.find("\"ev\":\"circuit.built\""), std::string::npos);
  EXPECT_NE(first.find("\"ev\":\"stream.ttfb\""), std::string::npos);
}

TEST(World, SnapshotStatsHasScopedSections) {
  bento::core::BentoWorldOptions options;
  options.testbed.guards = 2;
  options.testbed.middles = 2;
  options.testbed.exits = 2;
  bento::core::BentoWorld world(options);
  world.start();
  world.run_for(bu::Duration::seconds(1));
  const bo::Snapshot snap = world.snapshot_stats();
  const std::string text = snap.to_string();
  EXPECT_NE(text.find("bento servers"), std::string::npos);
  EXPECT_NE(text.find("network nodes"), std::string::npos);
  EXPECT_NE(text.find("sim.events"), std::string::npos);
}
