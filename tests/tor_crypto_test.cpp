// Onion-layer crypto and the ntor handshake.
#include <gtest/gtest.h>

#include "crypto/dh.hpp"
#include "crypto/sign.hpp"
#include "tor/ntor.hpp"
#include "tor/relaycrypto.hpp"
#include "util/rng.hpp"

namespace bt = bento::tor;
namespace bc = bento::crypto;
namespace bu = bento::util;

namespace {
bt::LayerKeys test_keys(std::uint64_t seed) {
  bu::Rng rng(seed);
  return bt::LayerKeys::derive(rng.bytes(32), "test-layer");
}

std::array<std::uint8_t, bt::kCellPayloadLen> make_payload(
    bt::RelayCommand cmd, std::uint16_t stream, const std::string& data) {
  bt::RelayCell rc;
  rc.relay_cmd = cmd;
  rc.stream_id = stream;
  rc.data = bu::to_bytes(data);
  return rc.pack();
}
}  // namespace

TEST(LayerKeys, DistinctComponents) {
  auto k = test_keys(1);
  EXPECT_NE(k.kf, k.kb);
  EXPECT_NE(bu::Bytes(k.df.begin(), k.df.end()), bu::Bytes(k.db.begin(), k.db.end()));
}

TEST(LayerCrypto, SealCheckForwardSingleHop) {
  auto keys = test_keys(2);
  bt::LayerCrypto origin(keys), relay(keys);

  auto payload = make_payload(bt::RelayCommand::Data, 1, "payload one");
  origin.seal_forward(payload);
  origin.crypt_forward(payload);

  relay.crypt_forward(payload);
  EXPECT_TRUE(relay.check_forward(payload));
  bt::RelayCell rc = bt::RelayCell::unpack(payload);
  EXPECT_EQ(bu::to_string(rc.data), "payload one");
}

TEST(LayerCrypto, RunningDigestCoversSequence) {
  auto keys = test_keys(3);
  bt::LayerCrypto origin(keys), relay(keys);
  for (int i = 0; i < 20; ++i) {
    auto payload = make_payload(bt::RelayCommand::Data, 5, "cell " + std::to_string(i));
    origin.seal_forward(payload);
    origin.crypt_forward(payload);
    relay.crypt_forward(payload);
    ASSERT_TRUE(relay.check_forward(payload)) << i;
  }
}

TEST(LayerCrypto, TamperedCellNotRecognized) {
  auto keys = test_keys(4);
  bt::LayerCrypto origin(keys), relay(keys);
  auto payload = make_payload(bt::RelayCommand::Data, 1, "x");
  origin.seal_forward(payload);
  origin.crypt_forward(payload);
  payload[100] ^= 1;
  relay.crypt_forward(payload);
  EXPECT_FALSE(relay.check_forward(payload));
}

TEST(LayerCrypto, FailedCheckDoesNotDesyncState) {
  auto keys = test_keys(5);
  bt::LayerCrypto origin(keys), relay(keys);

  // A cell destined for a later hop looks random here: check must fail and
  // must not advance the digest state.
  auto not_ours = make_payload(bt::RelayCommand::Data, 9, "later hop");
  bu::Rng rng(6);
  bu::Bytes noise = rng.bytes(bt::kCellPayloadLen);
  std::copy(noise.begin(), noise.end(), not_ours.begin());
  EXPECT_FALSE(relay.check_forward(not_ours));

  auto ours = make_payload(bt::RelayCommand::Data, 1, "ours");
  origin.seal_forward(ours);
  origin.crypt_forward(ours);
  relay.crypt_forward(ours);
  EXPECT_TRUE(relay.check_forward(ours));
}

// Regression for the middle-relay forwarding path: a cell that passes the
// cheap recognized==0 pre-check but fails the digest comparison (so the
// full hash runs) must leave the payload — including the digest field —
// and the relay's running digest state bit-identical, or every later cell
// on the circuit would be mis-rejected.
TEST(LayerCrypto, FailedCheckLeavesPayloadAndStateBitIdentical) {
  auto keys = test_keys(8);
  bt::LayerCrypto origin(keys);
  bt::LayerCrypto relay(keys);    // takes the failed check
  bt::LayerCrypto control(keys);  // never sees the bad cell

  // Warm all three with one legitimate exchange so running state is nontrivial.
  auto warm = make_payload(bt::RelayCommand::Data, 1, "warmup");
  origin.seal_forward(warm);
  origin.crypt_forward(warm);
  auto warm_control = warm;
  relay.crypt_forward(warm);
  ASSERT_TRUE(relay.check_forward(warm));
  control.crypt_forward(warm_control);
  ASSERT_TRUE(control.check_forward(warm_control));

  // Crafted miss: recognized field zero (pre-check passes), digest wrong.
  auto bad = make_payload(bt::RelayCommand::Data, 2, "not for this hop");
  bad[5] = 0xde;  // digest field: arbitrary wrong value
  bad[6] = 0xad;
  bad[7] = 0xbe;
  bad[8] = 0xef;
  const auto before = bad;
  EXPECT_FALSE(relay.check_forward(bad));
  EXPECT_EQ(bad, before);  // payload (and its digest field) untouched

  // Running state identical to the control that never saw the bad cell:
  // the next legitimate cell must be accepted by both, producing identical
  // bytes at every step.
  auto next = make_payload(bt::RelayCommand::Data, 1, "after the miss");
  origin.seal_forward(next);
  origin.crypt_forward(next);
  auto next_control = next;
  relay.crypt_forward(next);
  control.crypt_forward(next_control);
  EXPECT_EQ(next, next_control);
  EXPECT_TRUE(relay.check_forward(next));
  EXPECT_TRUE(control.check_forward(next_control));
  EXPECT_EQ(next, next_control);
}

TEST(LayerCrypto, BackwardDirectionIndependent) {
  auto keys = test_keys(7);
  bt::LayerCrypto origin(keys), relay(keys);

  // Backward: relay seals, origin checks.
  auto payload = make_payload(bt::RelayCommand::Data, 2, "reply");
  relay.seal_backward(payload);
  relay.crypt_backward(payload);
  origin.crypt_backward(payload);
  EXPECT_TRUE(origin.check_backward(payload));
  EXPECT_EQ(bu::to_string(bt::RelayCell::unpack(payload).data), "reply");
}

TEST(LayerCrypto, ThreeHopOnionPeelsInOrder) {
  auto k1 = test_keys(10), k2 = test_keys(11), k3 = test_keys(12);
  bt::LayerCrypto o1(k1), o2(k2), o3(k3);   // origin's view of each hop
  bt::LayerCrypto r1(k1), r2(k2), r3(k3);   // each relay's view

  // Origin sends to hop 3: seal at hop 3, encrypt 3,2,1.
  auto payload = make_payload(bt::RelayCommand::Begin, 1, "addr");
  o3.seal_forward(payload);
  o3.crypt_forward(payload);
  o2.crypt_forward(payload);
  o1.crypt_forward(payload);

  r1.crypt_forward(payload);
  EXPECT_FALSE(r1.check_forward(payload));
  r2.crypt_forward(payload);
  EXPECT_FALSE(r2.check_forward(payload));
  r3.crypt_forward(payload);
  EXPECT_TRUE(r3.check_forward(payload));
  EXPECT_EQ(bt::RelayCell::unpack(payload).relay_cmd, bt::RelayCommand::Begin);
}

TEST(LayerCrypto, ThreeHopBackwardAccretesLayers) {
  auto k1 = test_keys(20), k2 = test_keys(21), k3 = test_keys(22);
  bt::LayerCrypto o1(k1), o2(k2), o3(k3);
  bt::LayerCrypto r1(k1), r2(k2), r3(k3);

  auto payload = make_payload(bt::RelayCommand::Data, 1, "from exit");
  r3.seal_backward(payload);
  r3.crypt_backward(payload);
  r2.crypt_backward(payload);
  r1.crypt_backward(payload);

  o1.crypt_backward(payload);
  EXPECT_FALSE(o1.check_backward(payload));
  o2.crypt_backward(payload);
  EXPECT_FALSE(o2.check_backward(payload));
  o3.crypt_backward(payload);
  EXPECT_TRUE(o3.check_backward(payload));
  EXPECT_EQ(bu::to_string(bt::RelayCell::unpack(payload).data), "from exit");
}

TEST(Ntor, HandshakeAgreesOnKeys) {
  bu::Rng rng(30);
  auto onion = bc::DhKeyPair::generate(rng);
  auto identity = bc::SigningKey::generate(rng);

  bt::NtorClientState state;
  bu::Bytes skin =
      bt::ntor_client_create(state, onion.public_value, identity.public_key(), rng);
  EXPECT_EQ(skin.size(), bt::kNtorOnionSkinLen);

  auto reply = bt::ntor_server_respond(onion, identity.public_key(), skin, rng);
  EXPECT_EQ(reply.created_payload.size(), bt::kNtorReplyLen);

  auto client_keys = bt::ntor_client_finish(state, reply.created_payload);
  ASSERT_TRUE(client_keys.has_value());
  EXPECT_EQ(client_keys->kf, reply.keys.kf);
  EXPECT_EQ(client_keys->kb, reply.keys.kb);
  EXPECT_EQ(client_keys->df, reply.keys.df);
}

TEST(Ntor, WrongOnionKeyFailsAuth) {
  bu::Rng rng(31);
  auto onion = bc::DhKeyPair::generate(rng);
  auto impostor = bc::DhKeyPair::generate(rng);
  auto identity = bc::SigningKey::generate(rng);

  bt::NtorClientState state;
  bu::Bytes skin =
      bt::ntor_client_create(state, onion.public_value, identity.public_key(), rng);
  // The impostor answers without knowing the real onion secret.
  auto reply = bt::ntor_server_respond(impostor, identity.public_key(), skin, rng);
  EXPECT_FALSE(bt::ntor_client_finish(state, reply.created_payload).has_value());
}

TEST(Ntor, WrongIdentityFailsAuth) {
  bu::Rng rng(32);
  auto onion = bc::DhKeyPair::generate(rng);
  auto identity = bc::SigningKey::generate(rng);
  auto other_identity = bc::SigningKey::generate(rng);

  bt::NtorClientState state;
  bu::Bytes skin =
      bt::ntor_client_create(state, onion.public_value, identity.public_key(), rng);
  auto reply = bt::ntor_server_respond(onion, other_identity.public_key(), skin, rng);
  EXPECT_FALSE(bt::ntor_client_finish(state, reply.created_payload).has_value());
}

TEST(Ntor, TamperedReplyFails) {
  bu::Rng rng(33);
  auto onion = bc::DhKeyPair::generate(rng);
  auto identity = bc::SigningKey::generate(rng);
  bt::NtorClientState state;
  bu::Bytes skin =
      bt::ntor_client_create(state, onion.public_value, identity.public_key(), rng);
  auto reply = bt::ntor_server_respond(onion, identity.public_key(), skin, rng);
  reply.created_payload[20] ^= 1;
  EXPECT_FALSE(bt::ntor_client_finish(state, reply.created_payload).has_value());
}

TEST(Ntor, MalformedSkinThrows) {
  bu::Rng rng(34);
  auto onion = bc::DhKeyPair::generate(rng);
  auto identity = bc::SigningKey::generate(rng);
  EXPECT_THROW(bt::ntor_server_respond(onion, identity.public_key(), bu::Bytes(5), rng),
               std::invalid_argument);
}

TEST(Ntor, WrongLengthReplyRejected) {
  bu::Rng rng(35);
  auto onion = bc::DhKeyPair::generate(rng);
  auto identity = bc::SigningKey::generate(rng);
  bt::NtorClientState state;
  bt::ntor_client_create(state, onion.public_value, identity.public_key(), rng);
  EXPECT_FALSE(bt::ntor_client_finish(state, bu::Bytes(10)).has_value());
}

// Pins one seeded handshake byte for byte: the onion skin X, the CREATED
// payload Y || auth and all four layer keys on both sides. Any change to
// the DH, HMAC or HKDF code must leave these exactly as they are.
TEST(Ntor, GoldenHandshakeBytes) {
  bu::Rng rng(1601);
  const auto onion = bc::DhKeyPair::generate(rng);
  const auto identity = bc::SigningKey::generate(rng);

  bt::NtorClientState state;
  const bu::Bytes skin =
      bt::ntor_client_create(state, onion.public_value, identity.public_key(), rng);
  const auto reply = bt::ntor_server_respond(onion, identity.public_key(), skin, rng);
  const auto client = bt::ntor_client_finish(state, reply.created_payload);
  ASSERT_TRUE(client.has_value());

  EXPECT_EQ(bu::to_hex(skin), "28ee6f62083b9751083ef44e38f747d0");
  EXPECT_EQ(bu::to_hex(reply.created_payload),
            "1d88f18f867c31f4722f4ef75c8f4f2d"  // Y
            "7c9b2a4755c8cd15c5234dcd8d36504c6ffe8e50398ade5b50849d8a17a1d3f7");
  const auto hex = [](const auto& k) { return bu::to_hex(bu::ByteView(k.data(), k.size())); };
  for (const bt::LayerKeys* k : {&reply.keys, &*client}) {
    EXPECT_EQ(hex(k->kf), "a979a027eda1eb581bfcbb5bad3633c84db034bf6ec5af8780133eb3dd697d61");
    EXPECT_EQ(hex(k->kb), "eaed7994131b03016197527570baa7bf994d884dd210a9e5c2b04177fe249393");
    EXPECT_EQ(hex(k->df), "d1cd674c0e6caf485f20dd27427e2c097db03e1ee6a55e2ab745948d46a7844a");
    EXPECT_EQ(hex(k->db), "9a7f1cf92e6332e7ddf89f620187894686831c892b5c770dd9178e8e2851b4ae");
  }
}
