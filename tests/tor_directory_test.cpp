// Directory, consensus, and path selection.
#include <gtest/gtest.h>

#include <set>

#include "tor/directory.hpp"
#include "tor/pathselect.hpp"
#include "util/rng.hpp"

namespace bt = bento::tor;
namespace bc = bento::crypto;
namespace bu = bento::util;

namespace {
struct RelayFixture {
  bc::SigningKey identity;
  bc::DhKeyPair onion;
  bt::RelayDescriptor desc;
};

RelayFixture make_relay(bu::Rng& rng, const std::string& nick, bt::Addr addr,
                        double bw, bool guard, bool exit) {
  RelayFixture f{bc::SigningKey::generate(rng), bc::DhKeyPair::generate(rng), {}};
  f.desc.nickname = nick;
  f.desc.identity_key = f.identity.public_key();
  f.desc.onion_key = f.onion.public_value;
  f.desc.addr = addr;
  f.desc.node = 0;
  f.desc.bandwidth = bw;
  f.desc.flags.guard = guard;
  f.desc.flags.exit = exit;
  f.desc.flags.fast = true;
  f.desc.exit_policy =
      exit ? bt::ExitPolicy::accept_all() : bt::ExitPolicy::reject_all();
  f.desc.sign(f.identity);
  return f;
}
}  // namespace

TEST(Directory, DescriptorSignAndVerify) {
  bu::Rng rng(1);
  auto f = make_relay(rng, "r1", bt::parse_addr("10.1.0.1"), 1e6, true, false);
  EXPECT_TRUE(f.desc.verify());
  f.desc.bandwidth = 9e9;  // tamper
  EXPECT_FALSE(f.desc.verify());
}

TEST(Directory, DescriptorSerializeRoundTrip) {
  bu::Rng rng(2);
  auto f = make_relay(rng, "roundtrip", bt::parse_addr("10.2.0.1"), 5e6, false, true);
  f.desc.bento_policy = bu::to_bytes("policy-bytes");
  f.desc.sign(f.identity);
  auto back = bt::RelayDescriptor::deserialize(f.desc.serialize());
  EXPECT_EQ(back.nickname, "roundtrip");
  EXPECT_EQ(back.addr, f.desc.addr);
  EXPECT_EQ(back.bandwidth, 5e6);
  EXPECT_TRUE(back.flags.exit);
  EXPECT_FALSE(back.flags.guard);
  EXPECT_EQ(bu::to_string(back.bento_policy), "policy-bytes");
  EXPECT_TRUE(back.verify());
  EXPECT_EQ(back.fingerprint(), f.desc.fingerprint());
}

TEST(Directory, SignWithWrongKeyThrows) {
  bu::Rng rng(3);
  auto f = make_relay(rng, "r", 1, 1e6, true, false);
  auto other = bc::SigningKey::generate(rng);
  EXPECT_THROW(f.desc.sign(other), std::invalid_argument);
}

TEST(Directory, AuthorityRejectsBadDescriptor) {
  bu::Rng rng(4);
  bt::DirectoryAuthority dir(rng);
  auto f = make_relay(rng, "r", 1, 1e6, true, false);
  f.desc.nickname = "tampered";  // invalidates signature
  EXPECT_THROW(dir.upload(f.desc), std::invalid_argument);
  EXPECT_EQ(dir.relay_count(), 0u);
}

TEST(Directory, ConsensusVerifies) {
  bu::Rng rng(5);
  bt::DirectoryAuthority dir(rng);
  for (int i = 0; i < 5; ++i) {
    auto f = make_relay(rng, "r" + std::to_string(i),
                        bt::parse_addr("10." + std::to_string(i) + ".0.1"), 1e6,
                        i < 2, i >= 3);
    dir.upload(f.desc);
  }
  auto consensus = dir.make_consensus(bu::Time::from_seconds(100));
  EXPECT_EQ(consensus.relays.size(), 5u);
  EXPECT_TRUE(consensus.verify(dir.authority_key()));

  // Wrong authority key rejected.
  bu::Rng rng2(6);
  bt::DirectoryAuthority dir2(rng2);
  EXPECT_FALSE(consensus.verify(dir2.authority_key()));

  // Tampered relay entry rejected.
  consensus.relays[0].bandwidth *= 2;
  EXPECT_FALSE(consensus.verify(dir.authority_key()));
}

TEST(Directory, ReuploadReplacesDescriptor) {
  bu::Rng rng(7);
  bt::DirectoryAuthority dir(rng);
  auto f = make_relay(rng, "r", 1, 1e6, true, false);
  dir.upload(f.desc);
  f.desc.bandwidth = 2e6;
  f.desc.sign(f.identity);
  dir.upload(f.desc);
  EXPECT_EQ(dir.relay_count(), 1u);
  auto c = dir.make_consensus(bu::Time::from_seconds(0));
  EXPECT_EQ(c.relays[0].bandwidth, 2e6);
}

// find() reads fingerprints hashed by make_consensus; a relay list edited
// after that must still be searched by what each relay's key hashes to.
TEST(Directory, FindFollowsEditedRelayList) {
  bu::Rng rng(9);
  bt::DirectoryAuthority dir(rng);
  for (int i = 0; i < 4; ++i) {
    dir.upload(make_relay(rng, "r" + std::to_string(i), static_cast<bt::Addr>(i + 1), 1e6,
                          true, false)
                   .desc);
  }
  auto c = dir.make_consensus(bu::Time::from_seconds(0));
  for (const auto& rel : c.relays) EXPECT_EQ(c.find(rel.fingerprint()), &rel);
  EXPECT_EQ(c.find("0000000000000000"), nullptr);

  std::swap(c.relays[0], c.relays[3]);
  c.relays.erase(c.relays.begin() + 1);
  c.relays[1].identity_key = bc::SigningKey::generate(rng).public_key();
  c.relays.push_back(make_relay(rng, "late", 9, 1e6, false, false).desc);
  for (const auto& rel : c.relays) EXPECT_EQ(c.find(rel.fingerprint()), &rel);
  const bt::Consensus copy = c;
  EXPECT_EQ(copy.find(c.relays[0].fingerprint()), &copy.relays[0]);
}

TEST(Directory, HsDescriptorPublishFetch) {
  bu::Rng rng(8);
  bt::DirectoryAuthority dir(rng);
  auto service = bc::SigningKey::generate(rng);
  auto ntor = bc::DhKeyPair::generate(rng);
  bt::HsDescriptor d;
  d.onion_id = bc::key_fingerprint(service.public_key());
  d.service_pub = service.public_key();
  d.service_ntor_pub = ntor.public_value;
  d.intro_points = {"fp-a", "fp-b"};
  d.sign(service);

  dir.publish_hs(d);
  auto got = dir.fetch_hs(d.onion_id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->intro_points, d.intro_points);
  EXPECT_TRUE(got->verify());
  EXPECT_FALSE(dir.fetch_hs("nonexistent").has_value());
}

TEST(Directory, HsDescriptorWrongOnionIdRejected) {
  bu::Rng rng(9);
  bt::DirectoryAuthority dir(rng);
  auto service = bc::SigningKey::generate(rng);
  bt::HsDescriptor d;
  d.onion_id = "not-the-fingerprint";
  d.service_pub = service.public_key();
  d.service_ntor_pub = 3;
  d.sign(service);
  EXPECT_FALSE(d.verify());
  EXPECT_THROW(dir.publish_hs(d), std::invalid_argument);
}

namespace {
bt::Consensus build_test_consensus(bu::Rng& rng, bt::DirectoryAuthority& dir,
                                   int guards, int middles, int exits) {
  int block = 1;
  auto add = [&](const std::string& prefix, int n, bool g, bool e, double bw) {
    for (int i = 0; i < n; ++i) {
      auto f = make_relay(rng, prefix + std::to_string(i),
                          bt::parse_addr("10." + std::to_string(block++) + ".0.1"),
                          bw, g, e);
      dir.upload(f.desc);
    }
  };
  add("guard", guards, true, false, 2e6);
  add("middle", middles, false, false, 1e6);
  add("exit", exits, false, true, 3e6);
  return dir.make_consensus(bu::Time::from_seconds(0));
}
}  // namespace

TEST(PathSelect, ThreeHopRolesRespecred) {
  bu::Rng rng(10);
  bt::DirectoryAuthority dir(rng);
  auto consensus = build_test_consensus(rng, dir, 3, 4, 3);
  bt::PathSelector sel(consensus);

  for (int i = 0; i < 50; ++i) {
    bt::PathConstraints c;
    c.exit_to = bt::Endpoint{bt::parse_addr("93.1.1.1"), 443};
    auto path = sel.choose(c, rng);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_TRUE(path[0].flags.guard);
    EXPECT_TRUE(path[2].flags.exit);
    EXPECT_TRUE(path[2].exit_policy.allows(*c.exit_to));
    // Distinct relays and /16s.
    std::set<std::string> fps = {path[0].fingerprint(), path[1].fingerprint(),
                                 path[2].fingerprint()};
    EXPECT_EQ(fps.size(), 3u);
    std::set<std::uint32_t> nets = {bt::slash16(path[0].addr),
                                    bt::slash16(path[1].addr),
                                    bt::slash16(path[2].addr)};
    EXPECT_EQ(nets.size(), 3u);
  }
}

TEST(PathSelect, BandwidthWeighting) {
  bu::Rng rng(11);
  bt::DirectoryAuthority dir(rng);
  // Two exits with 9:1 bandwidth ratio.
  auto heavy = make_relay(rng, "heavy", bt::parse_addr("10.100.0.1"), 9e6, false, true);
  auto light = make_relay(rng, "light", bt::parse_addr("10.101.0.1"), 1e6, false, true);
  dir.upload(heavy.desc);
  dir.upload(light.desc);
  build_test_consensus(rng, dir, 3, 3, 0);
  auto consensus = dir.make_consensus(bu::Time::from_seconds(0));
  bt::PathSelector sel(consensus);

  int heavy_count = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    bt::PathConstraints c;
    c.exit_to = bt::Endpoint{1, 80};
    auto path = sel.choose(c, rng);
    if (path[2].nickname == "heavy") ++heavy_count;
  }
  EXPECT_NEAR(static_cast<double>(heavy_count) / trials, 0.9, 0.04);
}

TEST(PathSelect, PinnedLastHop) {
  bu::Rng rng(12);
  bt::DirectoryAuthority dir(rng);
  auto consensus = build_test_consensus(rng, dir, 3, 4, 3);
  bt::PathSelector sel(consensus);
  const std::string target = consensus.relays[4].fingerprint();
  bt::PathConstraints c;
  c.last_hop = target;
  auto path = sel.choose(c, rng);
  EXPECT_EQ(path.back().fingerprint(), target);
  EXPECT_NE(path[0].fingerprint(), target);
  EXPECT_NE(path[1].fingerprint(), target);
}

TEST(PathSelect, ExclusionsHonored) {
  bu::Rng rng(13);
  bt::DirectoryAuthority dir(rng);
  auto consensus = build_test_consensus(rng, dir, 3, 4, 3);
  bt::PathSelector sel(consensus);
  std::vector<std::string> excluded;
  for (const auto& r : consensus.relays) {
    if (r.nickname.starts_with("exit") && r.nickname != "exit0") {
      excluded.push_back(r.fingerprint());
    }
  }
  for (int i = 0; i < 20; ++i) {
    bt::PathConstraints c;
    c.exit_to = bt::Endpoint{1, 80};
    c.excluded = excluded;
    auto path = sel.choose(c, rng);
    EXPECT_EQ(path[2].nickname, "exit0");
  }
}

TEST(PathSelect, UnsatisfiableThrows) {
  bu::Rng rng(14);
  bt::DirectoryAuthority dir(rng);
  auto consensus = build_test_consensus(rng, dir, 1, 1, 1);
  bt::PathSelector sel(consensus);
  bt::PathConstraints c;
  c.exit_to = bt::Endpoint{1, 80};
  std::vector<std::string> all;
  for (const auto& r : consensus.relays) all.push_back(r.fingerprint());
  c.excluded = all;
  EXPECT_THROW(sel.choose(c, rng), std::runtime_error);

  bt::PathConstraints pinned;
  pinned.last_hop = "does-not-exist";
  EXPECT_THROW(sel.choose(pinned, rng), std::runtime_error);
}

TEST(PathSelect, InternalCircuitNeedsNoExitFlag) {
  bu::Rng rng(15);
  bt::DirectoryAuthority dir(rng);
  auto consensus = build_test_consensus(rng, dir, 3, 4, 0);  // no exits at all
  bt::PathSelector sel(consensus);
  bt::PathConstraints c;  // internal
  auto path = sel.choose(c, rng);
  EXPECT_EQ(path.size(), 3u);
}
