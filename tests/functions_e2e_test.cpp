// End-to-end tests of the paper's functions running on the full stack:
// Browser (§7), Dropbox (§9.2), Cover (§9.1), Shard (§9.3),
// LoadBalancer (§8), PolicyQuery (§5.5) and the PoW gate (§9.4).
#include <gtest/gtest.h>

#include "core/world.hpp"
#include "functions/library.hpp"
#include "functions/loadbalancer.hpp"
#include "functions/pow.hpp"
#include "functions/shard.hpp"
#include "tor/hs.hpp"
#include "util/rng.hpp"
#include "util/zlite.hpp"

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bt = bento::tor;
namespace bu = bento::util;

namespace {
struct Deployed {
  std::shared_ptr<bc::BentoConnection> conn;
  std::optional<bc::TokenPair> tokens;
  std::string error;
  std::vector<bu::Bytes> outputs;
};

Deployed deploy_function(bc::BentoWorld& world, bc::BentoWorld::Client& client,
                         const std::string& box, const bc::FunctionManifest& manifest,
                         const std::string& source, const std::string& native = "",
                         bu::Bytes args = {}) {
  Deployed d;
  client.bento->connect(box, [&](std::shared_ptr<bc::BentoConnection> conn) {
    d.conn = std::move(conn);
  });
  world.run();
  if (d.conn == nullptr) {
    d.error = "connect failed";
    return d;
  }
  d.conn->set_output_handler([&d](bu::Bytes out) { d.outputs.push_back(std::move(out)); });
  bool ok = false;
  d.conn->spawn(manifest.image, [&](bool s, std::string err) {
    ok = s;
    if (!s) d.error = err;
  });
  world.run();
  if (!ok) return d;
  d.conn->upload(manifest, source, native, args,
                 [&](std::optional<bc::TokenPair> tokens, std::string err) {
                   d.tokens = std::move(tokens);
                   if (!err.empty()) d.error = err;
                 });
  world.run();
  return d;
}

std::string exit_box_of(bc::BentoWorld& world) {
  for (const auto& relay : world.bed().consensus().relays) {
    if (relay.flags.exit) return relay.fingerprint();
  }
  return "";
}
}  // namespace

TEST(FunctionsE2E, BrowserFetchesCompressesAndPads) {
  bc::BentoWorld world;
  world.start();
  const std::string page(50'000, 'w');  // highly compressible
  world.bed().add_web_server(bt::parse_addr("93.184.216.34"),
                             [&page](const std::string&) {
                               return bu::to_bytes(page);
                             });
  auto client = world.make_client("alice");
  auto d = deploy_function(world, client, exit_box_of(world),
                           bf::browser_manifest(), bf::browser_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  EXPECT_TRUE(d.conn->attested());  // Browser runs in the SGX image

  // Padding 4096: response must be exactly a multiple of 4096.
  d.conn->invoke(d.tokens->invocation.bytes(),
                 bu::to_bytes("http://93.184.216.34/index.html 4096"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 1u);
  EXPECT_EQ(d.outputs[0].size() % 4096, 0u);
  EXPECT_EQ(d.outputs[0].size(), 4096u);  // 50 KB of 'w' compresses < 4 KiB

  // The compressed page is recoverable from the front of the padded blob.
  bu::Bytes unpadded = bu::zlite::decompress(
      bu::ByteView(d.outputs[0].data(), d.outputs[0].size()));
  // decompress tolerates trailing bytes? No — so decompress the exact
  // prefix by re-compressing the expected page for reference:
  EXPECT_EQ(bu::to_string(unpadded), page);
}

// A page that compresses to more than `padding` bytes is padded up to the
// next multiple of it, not by (len + padding) % padding bytes.
TEST(FunctionsE2E, BrowserPadsPagesLargerThanPaddingToAMultiple) {
  bc::BentoWorld world;
  world.start();
  bu::Rng rng(9);
  const bu::Bytes page = rng.bytes(10'000);  // random bytes barely compress
  world.bed().add_web_server(bt::parse_addr("93.184.216.34"),
                             [&page](const std::string&) { return page; });
  auto client = world.make_client("alice");
  auto d = deploy_function(world, client, exit_box_of(world),
                           bf::browser_manifest(), bf::browser_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  d.conn->invoke(d.tokens->invocation.bytes(),
                 bu::to_bytes("http://93.184.216.34/big.html 4096"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 1u);
  EXPECT_GT(bu::zlite::compress(page).size(), 4096u);
  EXPECT_EQ(d.outputs[0].size() % 4096, 0u);
  EXPECT_EQ(d.outputs[0].size(), 12288u);  // ~10 KB compressed: three 4 KiB units
}

TEST(FunctionsE2E, BrowserZeroPaddingReturnsCompressedOnly) {
  bc::BentoWorld world;
  world.start();
  world.bed().add_web_server(bt::parse_addr("93.184.216.34"),
                             [](const std::string&) {
                               return bu::to_bytes(std::string(10'000, 'z'));
                             });
  auto client = world.make_client("alice");
  auto d = deploy_function(world, client, exit_box_of(world),
                           bf::browser_manifest(), bf::browser_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  d.conn->invoke(d.tokens->invocation.bytes(),
                 bu::to_bytes("http://93.184.216.34/x 0"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 1u);
  EXPECT_LT(d.outputs[0].size(), 1000u);  // compressed, unpadded
  EXPECT_EQ(bu::to_string(bu::zlite::decompress(d.outputs[0])),
            std::string(10'000, 'z'));
}

TEST(FunctionsE2E, BrowserReportsFetchFailure) {
  bc::BentoWorld world;
  world.start();  // no web server registered
  auto client = world.make_client("alice");
  auto d = deploy_function(world, client, exit_box_of(world),
                           bf::browser_manifest(), bf::browser_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  d.conn->invoke(d.tokens->invocation.bytes(),
                 bu::to_bytes("http://93.184.216.34/x 0"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(d.outputs[0]), "ERR fetch failed");
}

TEST(FunctionsE2E, DropboxPutGetDelete) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  auto d = deploy_function(world, client, boxes[1], bf::dropbox_manifest(),
                           bf::dropbox_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;

  bu::Bytes put = bu::to_bytes("PUT:");
  bu::Rng rng(1);
  const bu::Bytes payload = rng.bytes(10'000);
  bu::append(put, payload);
  d.conn->invoke(d.tokens->invocation.bytes(), put);
  world.run();
  ASSERT_EQ(d.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(d.outputs[0]), "OK");

  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 2u);
  EXPECT_EQ(d.outputs[1], payload);

  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("DEL:"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 3u);
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 4u);
  EXPECT_EQ(bu::to_string(d.outputs[3]), "MISSING");
}

TEST(FunctionsE2E, DropboxSharedTokenAcrossUsers) {
  // Paper §9.2: the invocation token is the capability to the dropbox.
  bc::BentoWorld world;
  world.start();
  auto alice = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  auto d = deploy_function(world, alice, boxes[0], bf::dropbox_manifest(),
                           bf::dropbox_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;

  bu::Bytes put = bu::to_bytes("PUT:dead drop message");
  d.conn->invoke(d.tokens->invocation.bytes(), put);
  world.run();

  // Bob retrieves with the shared token while Alice is offline.
  auto bob = world.make_client("bob");
  std::vector<bu::Bytes> bob_outputs;
  bob.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> conn) {
    ASSERT_NE(conn, nullptr);
    conn->set_output_handler([&](bu::Bytes out) { bob_outputs.push_back(std::move(out)); });
    conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  });
  world.run();
  ASSERT_EQ(bob_outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(bob_outputs[0]), "dead drop message");
}

TEST(FunctionsE2E, DropboxExpiry) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  // Install with a 30-second expiry (armed at each PUT).
  auto d = deploy_function(world, client, boxes[0], bf::dropbox_manifest(),
                           bf::dropbox_source(), "", bu::to_bytes("30.0"));
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  // PUT then GET land well inside the 30 s window; the expiry timer fires
  // later in the same run.
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("PUT:ephemeral"));
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  ASSERT_GE(d.outputs.size(), 2u);
  EXPECT_EQ(bu::to_string(d.outputs[1]), "ephemeral");

  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  EXPECT_EQ(bu::to_string(d.outputs.back()), "MISSING");
}

TEST(FunctionsE2E, CoverGeneratesConstantRateTraffic) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  auto d = deploy_function(world, client, boxes[0], bf::cover_manifest(),
                           bf::cover_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;

  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("start 0.5"));
  world.run_for(bu::Duration::seconds(10));
  // ~20 junk payloads at 2/sec.
  EXPECT_GE(d.outputs.size(), 18u);
  EXPECT_LE(d.outputs.size(), 22u);
  for (const auto& out : d.outputs) EXPECT_EQ(out.size(), 490u);

  const std::size_t at_stop = d.outputs.size();
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("stop"));
  world.run_for(bu::Duration::seconds(5));
  // At most the in-flight tick plus the "stopped" ack.
  EXPECT_LE(d.outputs.size(), at_stop + 2);
}

TEST(FunctionsE2E, PolicyQueryReturnsPolicy) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  const std::string policy_text = world.server(0).policy().to_string();
  auto d = deploy_function(world, client, world.server(0).fingerprint(),
                           bf::policy_query_manifest(), bf::policy_query_source(),
                           "", bu::to_bytes(policy_text));
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("?"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(d.outputs[0]), policy_text);
  EXPECT_NE(policy_text.find("python-op-sgx"), std::string::npos);
}

TEST(FunctionsE2E, ShardStoreAndFetchAnyK) {
  bc::BentoWorldOptions options;
  options.testbed.guards = 3;
  options.testbed.middles = 5;
  options.testbed.exits = 3;
  bc::BentoWorld world(options);
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_GE(boxes.size(), 5u);

  bu::Rng rng(11);
  const bu::Bytes file = rng.bytes(30'000);

  bf::ShardClient shard_client(*client.bento, 3, 5);
  std::vector<bf::ShardClient::Placement> placements;
  bool store_ok = false;
  shard_client.store(file, {boxes[0], boxes[1], boxes[2], boxes[3], boxes[4]},
                     [&](bool ok, std::vector<bf::ShardClient::Placement> p) {
                       store_ok = ok;
                       placements = std::move(p);
                     });
  world.run();
  ASSERT_TRUE(store_ok);
  ASSERT_EQ(placements.size(), 5u);

  // Fetch from only 3 of the 5 dropboxes (the last three).
  std::vector<bf::ShardClient::Placement> subset(placements.begin() + 2,
                                                 placements.end());
  std::optional<bu::Bytes> fetched;
  shard_client.fetch(subset, [&](std::optional<bu::Bytes> out) { fetched = std::move(out); });
  world.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, file);
}

TEST(FunctionsE2E, PowGateAdmitsOnlyStampedRequests) {
  bc::BentoWorld world;
  world.natives();  // ensure registry exists before start
  bf::register_pow_gate(world.natives());
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  const int difficulty = 12;
  auto d = deploy_function(world, client, boxes[0], bf::pow_gate_manifest(), "",
                           "pow-gate", bu::Bytes{difficulty});
  ASSERT_TRUE(d.tokens.has_value()) << d.error;

  // Unstamped request denied.
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("0:hello"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(d.outputs[0]), "DENY");

  // Client grinds a stamp, request admitted.
  auto nonce = bf::pow_solve(bu::to_bytes(bf::PowGateFunction::kContext), difficulty);
  ASSERT_TRUE(nonce.has_value());
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(*nonce));
  d.conn->invoke(d.tokens->invocation.bytes(),
                 bu::to_bytes(std::string(buf) + ":hello"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 2u);
  EXPECT_EQ(bu::to_string(d.outputs[1]), "ADMIT:hello");
}

TEST(FunctionsE2E, LoadBalancerServesAndScales) {
  bc::BentoWorldOptions options;
  options.testbed.guards = 3;
  options.testbed.middles = 6;
  options.testbed.exits = 2;
  options.testbed.relay_bandwidth = 4e6;
  bc::BentoWorld world(options);
  bf::register_loadbalancer(world.natives());
  world.start();

  auto operator_client = world.make_client("operator");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_GE(boxes.size(), 6u);

  bf::LoadBalancerConfig config;
  config.intro_points = 2;
  config.max_clients_per_replica = 1;  // aggressive scaling for the test
  config.content_bytes = 200'000;
  config.replica_boxes = {boxes[2], boxes[3]};
  config.idle_shutdown_seconds = 0;

  auto d = deploy_function(world, operator_client, boxes[1],
                           bf::loadbalancer_manifest(), "", "loadbalancer",
                           config.serialize());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  world.run();

  // Learn the onion address.
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("onion"));
  world.run();
  ASSERT_FALSE(d.outputs.empty());
  const std::string onion = bu::to_string(d.outputs.back());
  ASSERT_FALSE(onion.empty());

  // Three clients download concurrently; with max 1 client per replica the
  // LB must spin up both candidate replicas.
  struct Download {
    std::unique_ptr<bento::tor::OnionProxy> proxy;
    std::unique_ptr<bento::tor::HsClient> hs;
    std::size_t received = 0;
    bool done = false;
  };
  std::vector<std::unique_ptr<Download>> downloads;
  for (int i = 0; i < 3; ++i) {
    auto dl = std::make_unique<Download>();
    dl->proxy = world.bed().make_client("dl" + std::to_string(i), 4e6);
    dl->hs = std::make_unique<bento::tor::HsClient>(*dl->proxy, world.bed().directory());
    Download* raw = dl.get();
    world.sim().after(bu::Duration::seconds(1 + i), [raw, onion, &world] {
      raw->hs->connect(onion, [raw](bento::tor::CircuitOrigin* circ) {
        if (circ == nullptr) return;
        bento::tor::Stream::Callbacks cbs;
        cbs.on_data = [raw](bu::ByteView data) { raw->received += data.size(); };
        cbs.on_end = [raw] { raw->done = true; };
        bento::tor::Stream* stream = circ->open_stream({0, 80}, std::move(cbs));
        stream->set_on_connected([stream] { stream->send(bu::to_bytes("GET\n")); });
      });
    });
    downloads.push_back(std::move(dl));
  }
  world.run();

  for (const auto& dl : downloads) {
    EXPECT_TRUE(dl->done);
    EXPECT_EQ(dl->received, 200'000u);
  }

  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("status"));
  world.run();
  const std::string status = bu::to_string(d.outputs.back());
  // peak replicas: local + both candidates = 3.
  EXPECT_NE(status.find("peak:3"), std::string::npos) << status;
  EXPECT_NE(status.find("introductions:3"), std::string::npos) << status;
}
