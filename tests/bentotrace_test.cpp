// bentotrace reader + end-to-end span pipeline tests: JSONL parsing, forest
// reconstruction (orphans, wraparound stubs), byte-identical span trees for
// fixed-seed runs, per-stage coverage of a full conclave deployment (client,
// relay hops, conclave dispatch, attestation), Stem-firewall mediation spans
// via the LoadBalancer native, and orphan reporting when a circuit dies
// mid-request.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "bentotrace/reader.hpp"
#include "core/world.hpp"
#include "functions/loadbalancer.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bo = bento::obs;
namespace bt = bento::tools;
namespace bu = bento::util;

TEST(BentotraceReader, ParsesExporterLines) {
  auto ev = bo::parse_jsonl_line(
      R"({"ts":1234,"ev":"span.begin","a":7,"b":12884901890,"ok":1})");
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->ts, 1234);
  EXPECT_EQ(ev->ev, "span.begin");
  EXPECT_EQ(ev->a, 7u);
  EXPECT_EQ(ev->b, 12884901890ull);
  EXPECT_TRUE(ev->ok);

  auto failed = bo::parse_jsonl_line(
      R"({"ts":-1,"ev":"span.end","a":1,"b":4,"ok":0})");
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->ts, -1);
  EXPECT_FALSE(failed->ok);

  EXPECT_FALSE(bo::parse_jsonl_line("").has_value());
  EXPECT_FALSE(bo::parse_jsonl_line("not json").has_value());
  EXPECT_FALSE(bo::parse_jsonl_line(R"({"ts":1,"ev":"x","a":2})").has_value());
  EXPECT_FALSE(
      bo::parse_jsonl_line(R"({"ts":1,"ev":"x","a":2,"b":3,"ok":1} trailing)")
          .has_value());
}

namespace {

bo::RawEvent raw(std::int64_t ts, const char* ev, std::uint32_t a,
                 std::uint64_t b, bool ok = true) {
  bo::RawEvent e;
  e.ts = ts;
  e.ev = ev;
  e.a = a;
  e.b = b;
  e.ok = ok;
  return e;
}

std::uint64_t begin_b(std::uint32_t parent, bo::Stage stage) {
  return (static_cast<std::uint64_t>(parent) << 32) |
         static_cast<std::uint64_t>(stage);
}

}  // namespace

TEST(BentotraceReader, BuildsForestWithParentLinks) {
  std::vector<bo::RawEvent> events = {
      raw(0, "span.begin", 1, begin_b(0, bo::Stage::ClientInvoke)),
      raw(5, "span.begin", 2, begin_b(1, bo::Stage::NetLink)),
      raw(5, "span.note", 2,
          (static_cast<std::uint64_t>(bo::kNoteWireBytes) << 32) | 581),
      raw(45, "span.end", 2, static_cast<std::uint64_t>(bo::Stage::NetLink)),
      raw(90, "span.end", 1,
          static_cast<std::uint64_t>(bo::Stage::ClientInvoke)),
  };
  const bt::TraceForest forest = bt::build_forest(events);
  ASSERT_EQ(forest.spans.size(), 2u);
  ASSERT_EQ(forest.roots.size(), 1u);
  EXPECT_TRUE(forest.orphan_ends.empty());
  EXPECT_TRUE(forest.unfinished.empty());
  const bt::SpanNode& root = forest.spans.at(1);
  EXPECT_EQ(root.stage, bo::Stage::ClientInvoke);
  EXPECT_EQ(root.duration_us(), 90);
  ASSERT_EQ(root.children.size(), 1u);
  const bt::SpanNode& link = forest.spans.at(2);
  EXPECT_EQ(link.parent, 1u);
  EXPECT_EQ(link.wire_bytes, 581u);
  EXPECT_EQ(link.duration_us(), 40);
}

TEST(BentotraceReader, OrphanEndAndUnfinishedSpanAreReported) {
  std::vector<bo::RawEvent> events = {
      // End whose begin was overwritten by ring wraparound: stage comes
      // from the end event itself.
      raw(100, "span.end", 9, static_cast<std::uint64_t>(bo::Stage::NetLink)),
      // Begin that never ends (request still in flight at export).
      raw(200, "span.begin", 10, begin_b(0, bo::Stage::ClientInvoke)),
      // Child whose parent is entirely lost: promoted to a root.
      raw(300, "span.begin", 11, begin_b(4, bo::Stage::RelayForward)),
      raw(310, "span.end", 11,
          static_cast<std::uint64_t>(bo::Stage::RelayForward)),
  };
  const bt::TraceForest forest = bt::build_forest(events);
  ASSERT_EQ(forest.orphan_ends.size(), 1u);
  EXPECT_EQ(forest.spans.at(9).stage, bo::Stage::NetLink);
  EXPECT_FALSE(forest.spans.at(9).complete());
  ASSERT_EQ(forest.unfinished.size(), 1u);
  EXPECT_EQ(forest.unfinished[0], 10u);
  // Lost-parent child is a root, and nothing crashes formatting any of it.
  EXPECT_EQ(forest.roots.size(), 3u);
  std::ostringstream os;
  bt::format_tree(forest, os);
  EXPECT_NE(os.str().find("orphan ends"), std::string::npos);
  EXPECT_NE(os.str().find("unfinished spans"), std::string::npos);
  std::ostringstream summary;
  bt::format_stage_summary(forest, summary);
  EXPECT_NE(summary.str().find("relay.forward"), std::string::npos);
}

namespace {

constexpr char kEchoSource[] = R"(
state = {"n": 0}

def on_message(msg):
    state["n"] += 1
    api.send("echo " + str(state["n"]))
)";

struct ScenarioResult {
  std::string jsonl;
  std::string tree;
  bt::TraceForest forest;
};

// Fixed-seed conclave deployment: connect, SGX spawn, upload, two invokes,
// shutdown. Returns the JSONL export plus the reconstructed forest.
ScenarioResult run_conclave_scenario() {
  ScenarioResult result;
  bo::recorder().enable(std::size_t{1} << 16);
  {
    bc::BentoWorldOptions options;
    options.testbed.guards = 2;
    options.testbed.middles = 2;
    options.testbed.exits = 2;
    bc::BentoWorld world(options);
    world.start();

    auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
    auto client = world.make_client("alice");
    std::shared_ptr<bc::BentoConnection> conn;
    client.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
      conn = std::move(c);
    });
    world.run();
    EXPECT_NE(conn, nullptr);
    if (conn != nullptr) {
      bool ready = false;
      conn->spawn(bc::kImagePythonOpSgx,
                  [&](bool ok, std::string) { ready = ok; });
      world.run();
      EXPECT_TRUE(ready);

      bc::FunctionManifest manifest;
      manifest.name = "echo";
      manifest.image = bc::kImagePythonOpSgx;
      manifest.resources.memory_bytes = 8 << 20;
      manifest.resources.cpu_instructions = 1'000'000;
      manifest.resources.disk_bytes = 1 << 20;
      manifest.resources.network_bytes = 1 << 20;
      std::optional<bc::TokenPair> tokens;
      conn->upload(manifest, kEchoSource, "", {},
                   [&](std::optional<bc::TokenPair> t, std::string) {
                     tokens = std::move(t);
                   });
      world.run();
      EXPECT_TRUE(tokens.has_value());
      if (tokens.has_value()) {
        for (int i = 0; i < 2; ++i) {
          conn->invoke(tokens->invocation.bytes(), bu::to_bytes("ping"));
          world.run();
        }
        bool closed = false;
        conn->shutdown(tokens->shutdown.bytes(), [&](bool ok) { closed = ok; });
        world.run();
        EXPECT_TRUE(closed);
      }
    }
    std::ostringstream os;
    bo::recorder().export_jsonl(os);
    result.jsonl = os.str();
  }
  bo::recorder().disable();

  std::istringstream in(result.jsonl);
  result.forest = bt::build_forest(bo::read_jsonl(in));
  std::ostringstream tree;
  bt::format_tree(result.forest, tree);
  result.tree = tree.str();
  return result;
}

std::set<std::string> stages_seen(const bt::TraceForest& forest) {
  std::set<std::string> seen;
  for (const auto& [id, node] : forest.spans) {
    seen.insert(bo::stage_name(node.stage));
  }
  return seen;
}

}  // namespace

TEST(BentotraceE2E, SpanTreesByteIdenticalAcrossFixedSeedRuns) {
  const ScenarioResult first = run_conclave_scenario();
  const ScenarioResult second = run_conclave_scenario();
  ASSERT_FALSE(first.tree.empty());
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.tree, second.tree);
}

TEST(BentotraceE2E, BreakdownCoversEveryPipelineStage) {
  const ScenarioResult result = run_conclave_scenario();
  const std::set<std::string> seen = stages_seen(result.forest);
  // Client-side request origins.
  EXPECT_TRUE(seen.count("client.connect"));
  EXPECT_TRUE(seen.count("client.spawn"));
  EXPECT_TRUE(seen.count("client.upload"));
  EXPECT_TRUE(seen.count("client.invoke"));
  EXPECT_TRUE(seen.count("client.shutdown"));
  // Transit: every hop shows up as link + relay spans.
  EXPECT_TRUE(seen.count("net.link"));
  EXPECT_TRUE(seen.count("relay.forward"));
  // Box side: message handling, conclave dispatch, sandboxed execution,
  // spawn-time attestation.
  EXPECT_TRUE(seen.count("server.handle"));
  EXPECT_TRUE(seen.count("fn.dispatch"));
  EXPECT_TRUE(seen.count("fn.execute"));
  EXPECT_TRUE(seen.count("attest"));

  // The conclave ecall transition has its modeled cost attributed: every
  // complete fn.dispatch span lasts exactly the ecall overhead (60 us).
  std::size_t dispatches = 0;
  for (const auto& [id, node] : result.forest.spans) {
    if (node.stage != bo::Stage::FnDispatch || !node.complete()) continue;
    ++dispatches;
    EXPECT_EQ(node.duration_us(), 60);
  }
  EXPECT_GT(dispatches, 0u);

  // Stage summary renders every seen stage.
  std::ostringstream os;
  bt::format_stage_summary(result.forest, os);
  for (const std::string& name : seen) {
    EXPECT_NE(os.str().find(name), std::string::npos) << name;
  }
}

TEST(BentotraceE2E, StemMediationSpansAppearForHiddenServiceFunctions) {
  // The hidden-service machinery emits far more cell/sim events than the
  // ring holds; keep only span kinds so the request tree survives the flood
  // (the production pattern for tracing on a busy relay).
  bo::recorder().enable(std::size_t{1} << 16);
  bo::recorder().set_mask(bo::Recorder::mask_of(bo::Ev::SpanBegin) |
                          bo::Recorder::mask_of(bo::Ev::SpanEnd) |
                          bo::Recorder::mask_of(bo::Ev::SpanNote));
  std::string jsonl;
  {
    bc::BentoWorldOptions options;
    options.testbed.guards = 3;
    options.testbed.middles = 6;
    options.testbed.exits = 2;
    options.testbed.relay_bandwidth = 4e6;
    bc::BentoWorld world(options);
    bf::register_loadbalancer(world.natives());
    world.start();

    auto client = world.make_client("operator");
    auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
    ASSERT_GE(boxes.size(), 4u);

    std::shared_ptr<bc::BentoConnection> conn;
    client.bento->connect(boxes[1], [&](std::shared_ptr<bc::BentoConnection> c) {
      conn = std::move(c);
    });
    world.run();
    ASSERT_NE(conn, nullptr);
    bool ready = false;
    conn->spawn(bf::loadbalancer_manifest().image,
                [&](bool ok, std::string) { ready = ok; });
    world.run();
    ASSERT_TRUE(ready);

    bf::LoadBalancerConfig config;
    config.intro_points = 2;
    config.content_bytes = 10'000;
    config.replica_boxes = {boxes[2], boxes[3]};
    std::optional<bc::TokenPair> tokens;
    conn->upload(bf::loadbalancer_manifest(), "", "loadbalancer",
                 config.serialize(),
                 [&](std::optional<bc::TokenPair> t, std::string) {
                   tokens = std::move(t);
                 });
    world.run();
    ASSERT_TRUE(tokens.has_value());

    std::ostringstream os;
    bo::recorder().export_jsonl(os);
    jsonl = os.str();
  }
  bo::recorder().disable();
  bo::recorder().set_mask(bo::Recorder::mask_all());

  std::istringstream in(jsonl);
  const bt::TraceForest forest = bt::build_forest(bo::read_jsonl(in));
  std::size_t mediations = 0;
  for (const auto& [id, node] : forest.spans) {
    if (node.stage != bo::Stage::StemMediate) continue;
    ++mediations;
    // Mediation always happens on behalf of a traced request, never as a
    // root of its own.
    EXPECT_NE(node.parent, 0u);
  }
  EXPECT_GT(mediations, 0u);
}

TEST(BentotraceE2E, MidRequestTeardownLeavesReportedOrphanSpan) {
  bo::recorder().enable(std::size_t{1} << 16);
  std::string jsonl;
  {
    bc::BentoWorldOptions options;
    options.testbed.guards = 2;
    options.testbed.middles = 2;
    options.testbed.exits = 2;
    bc::BentoWorld world(options);
    world.start();

    auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
    auto client = world.make_client("alice");
    std::shared_ptr<bc::BentoConnection> conn;
    client.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
      conn = std::move(c);
    });
    world.run();
    ASSERT_NE(conn, nullptr);
    bool ready = false;
    conn->spawn(bc::kImagePythonOpSgx,
                [&](bool ok, std::string) { ready = ok; });
    world.run();
    ASSERT_TRUE(ready);
    bc::FunctionManifest manifest;
    manifest.name = "echo";
    manifest.image = bc::kImagePythonOpSgx;
    manifest.resources.memory_bytes = 8 << 20;
    manifest.resources.cpu_instructions = 1'000'000;
    manifest.resources.disk_bytes = 1 << 20;
    manifest.resources.network_bytes = 1 << 20;
    std::optional<bc::TokenPair> tokens;
    conn->upload(manifest, kEchoSource, "", {},
                 [&](std::optional<bc::TokenPair> t, std::string) {
                   tokens = std::move(t);
                 });
    world.run();
    ASSERT_TRUE(tokens.has_value());

    // Fire an invoke but kill the connection before the response can make
    // it back: the request's span must surface as an orphan, not vanish.
    conn->invoke(tokens->invocation.bytes(), bu::to_bytes("doomed"));
    world.run_for(bu::Duration::millis(10));
    conn->close();
    world.run();

    std::ostringstream os;
    bo::recorder().export_jsonl(os);
    jsonl = os.str();
  }
  bo::recorder().disable();

  std::istringstream in(jsonl);
  const bt::TraceForest forest = bt::build_forest(bo::read_jsonl(in));
  bool orphaned_invoke = false;
  for (const auto& [id, node] : forest.spans) {
    if (node.stage != bo::Stage::ClientInvoke) continue;
    // Either the teardown path closed it as a failure, or it never got an
    // end and is reported unfinished; both are visible orphans.
    if (!node.complete() || !node.ok) orphaned_invoke = true;
  }
  EXPECT_TRUE(orphaned_invoke);
  std::ostringstream tree;
  bt::format_tree(forest, tree);  // must not crash on the orphan
  EXPECT_FALSE(tree.str().empty());
}
