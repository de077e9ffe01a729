#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sign.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bc = bento::crypto;
namespace bu = bento::util;

namespace {
std::string hex_digest(const bc::Digest& d) {
  return bu::to_hex(bu::ByteView(d.data(), d.size()));
}
}  // namespace

// ---- SHA-256: NIST / well-known vectors ----

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_digest(bc::sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_digest(bc::sha256(bu::to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_digest(bc::sha256(bu::to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  bc::Sha256 h;
  bu::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_digest(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  bu::Rng rng(3);
  bu::Bytes data = rng.bytes(10000);
  // Feed in awkward chunk sizes crossing block boundaries.
  bc::Sha256 h;
  std::size_t off = 0;
  std::size_t sizes[] = {1, 63, 64, 65, 127, 128, 500};
  std::size_t i = 0;
  while (off < data.size()) {
    std::size_t n = std::min(sizes[i++ % 7], data.size() - off);
    h.update(bu::ByteView(data.data() + off, n));
    off += n;
  }
  EXPECT_EQ(h.finish(), bc::sha256(data));
}

TEST(Sha256, LengthBoundaryCases) {
  // Lengths around the 55/56/64 padding boundaries must not crash and must
  // be distinct.
  std::set<std::string> seen;
  for (std::size_t n : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    bu::Bytes b(n, 0x41);
    seen.insert(hex_digest(bc::sha256(b)));
  }
  EXPECT_EQ(seen.size(), 10u);
}

// ---- HMAC-SHA256: RFC 4231 vectors ----

TEST(Hmac, Rfc4231Case1) {
  bu::Bytes key(20, 0x0b);
  EXPECT_EQ(hex_digest(bc::hmac_sha256(key, bu::to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex_digest(bc::hmac_sha256(bu::to_bytes("Jefe"),
                                       bu::to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  bu::Bytes key(20, 0xaa);
  bu::Bytes msg(50, 0xdd);
  EXPECT_EQ(hex_digest(bc::hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashed) {
  bu::Bytes key(131, 0xaa);
  EXPECT_EQ(hex_digest(bc::hmac_sha256(
                key, bu::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case4) {
  bu::Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(hex_digest(bc::hmac_sha256(key, bu::Bytes(50, 0xcd))),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// Cases 6 and 7 use a 131-byte key, longer than the 64-byte block; one
// keyed HmacKey also serves both messages, as the HKDF expand loop reuses it.
TEST(Hmac, Rfc4231Case6) {
  const bu::Bytes key(131, 0xaa);
  const bu::Bytes msg = bu::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  const char* expect = "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
  EXPECT_EQ(hex_digest(bc::hmac_sha256(key, msg)), expect);
  EXPECT_EQ(hex_digest(bc::HmacKey(key).mac(msg)), expect);
}

TEST(Hmac, Rfc4231Case7) {
  const bu::Bytes key(131, 0xaa);
  const bu::Bytes msg = bu::to_bytes(
      "This is a test using a larger than block-size key and a larger than block-size "
      "data. The key needs to be hashed before being used by the HMAC algorithm.");
  const char* expect = "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2";
  EXPECT_EQ(hex_digest(bc::hmac_sha256(key, msg)), expect);
  const bc::HmacKey keyed(key);
  EXPECT_EQ(hex_digest(keyed.mac(
                bu::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  EXPECT_EQ(hex_digest(keyed.mac(msg)), expect);
}

// ---- HKDF: RFC 5869 test case 1 ----

TEST(Hkdf, Rfc5869Case1) {
  bu::Bytes ikm(22, 0x0b);
  bu::Bytes salt = bu::from_hex("000102030405060708090a0b0c");
  bu::Bytes info = bu::from_hex("f0f1f2f3f4f5f6f7f8f9");
  bc::Digest prk = bc::hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_digest(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  bu::Bytes okm = bc::hkdf_expand(prk, info, 42);
  EXPECT_EQ(bu::to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case2) {
  bu::Bytes ikm(80), salt(80), info(80);
  for (std::size_t i = 0; i < 80; ++i) {
    ikm[i] = static_cast<std::uint8_t>(i);
    salt[i] = static_cast<std::uint8_t>(0x60 + i);
    info[i] = static_cast<std::uint8_t>(0xb0 + i);
  }
  const bc::Digest prk = bc::hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_digest(prk),
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244");
  EXPECT_EQ(bu::to_hex(bc::hkdf_expand(prk, info, 82)),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

// Empty salt and empty info: the shape of every ntor and relay-layer
// derivation.
TEST(Hkdf, Rfc5869Case3) {
  const bu::Bytes ikm(22, 0x0b);
  const bc::Digest prk = bc::hkdf_extract({}, ikm);
  EXPECT_EQ(hex_digest(prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04");
  const char* okm =
      "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
      "9d201395faa4b61a96c8";
  EXPECT_EQ(bu::to_hex(bc::hkdf_expand(prk, {}, 42)), okm);
  EXPECT_EQ(bu::to_hex(bc::hkdf(ikm, {}, "", 42)), okm);
}

TEST(Hkdf, DistinctLabelsGiveDistinctKeys) {
  bu::Bytes ikm = bu::to_bytes("input key material");
  auto a = bc::hkdf(ikm, {}, "label-a", 32);
  auto b = bc::hkdf(ikm, {}, "label-b", 32);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.size(), 32u);
}

// ---- ChaCha20: RFC 8439 §2.4.2 ----

TEST(ChaCha20, Rfc8439Vector) {
  bc::ChaChaKey key{};
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  bc::ChaChaNonce nonce{};  // RFC 8439 §2.4.2: 00..00 4a 00 00 00 00
  nonce[7] = 0x4a;
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  bu::Bytes ct = bc::chacha20_xor(key, nonce, 1, bu::to_bytes(plaintext));
  EXPECT_EQ(bu::to_hex(bu::ByteView(ct.data(), 16)), "6e2e359a2568f98041ba0728dd0d6981");
  EXPECT_EQ(bu::to_hex(bu::ByteView(ct.data() + 112, 2)), "874d");
  // Round-trip.
  bu::Bytes pt = bc::chacha20_xor(key, nonce, 1, ct);
  EXPECT_EQ(bu::to_string(pt), plaintext);
}

TEST(ChaCha20, StreamingMatchesOneShot) {
  bc::ChaChaKey key{};
  key[0] = 7;
  bc::ChaChaNonce nonce{};
  bu::Rng rng(4);
  bu::Bytes data = rng.bytes(1000);

  bu::Bytes oneshot = bc::chacha20_xor(key, nonce, 0, data);

  bc::ChaCha20 c(key, nonce, 0);
  bu::Bytes streamed;
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t n = std::min<std::size_t>(77, data.size() - off);
    bu::Bytes chunk(data.begin() + static_cast<std::ptrdiff_t>(off),
                    data.begin() + static_cast<std::ptrdiff_t>(off + n));
    c.process(chunk);
    bu::append(streamed, chunk);
    off += n;
  }
  EXPECT_EQ(streamed, oneshot);
}

TEST(ChaCha20, PipePairDecrypts) {
  bc::ChaChaKey key{};
  key[31] = 1;
  bc::ChaChaNonce nonce{};
  bc::ChaCha20 enc(key, nonce), dec(key, nonce);
  for (int i = 0; i < 20; ++i) {
    bu::Bytes msg = bu::to_bytes("cell payload " + std::to_string(i));
    bu::Bytes ct = enc.transform(msg);
    EXPECT_NE(ct, msg);
    EXPECT_EQ(dec.transform(ct), msg);
  }
}

// RFC 8439 §2.3.2: key 00..1f, nonce 00 00 00 09 00 00 00 4a 00 00 00 00,
// counter 1 — the serialized keystream block. XOR-ing zeros recovers the
// raw keystream, so this checks the kernel (not just a round trip).
TEST(ChaCha20, Rfc8439KeystreamBlock) {
  bc::ChaChaKey key{};
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  bc::ChaChaNonce nonce{};
  nonce[3] = 0x09;
  nonce[7] = 0x4a;
  bu::Bytes zeros(64, 0);
  bc::chacha20_xor_inplace(key, nonce, 1, zeros);
  EXPECT_EQ(bu::to_hex(zeros),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 A.1 test vector #1: all-zero key and nonce, counter 0.
TEST(ChaCha20, Rfc8439ZeroKeyKeystream) {
  bu::Bytes zeros(64, 0);
  bc::chacha20_xor_inplace(bc::ChaChaKey{}, bc::ChaChaNonce{}, 0, zeros);
  EXPECT_EQ(bu::to_hex(zeros),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
}

// RFC 8439 §2.4.2: the full 114-byte sunscreen ciphertext, not just a
// prefix — catches any lane-ordering bug in the multi-block kernel.
TEST(ChaCha20, Rfc8439FullCiphertext) {
  bc::ChaChaKey key{};
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  bc::ChaChaNonce nonce{};
  nonce[7] = 0x4a;
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  bu::Bytes ct = bu::to_bytes(plaintext);
  bc::chacha20_xor_inplace(key, nonce, 1, ct);
  EXPECT_EQ(bu::to_hex(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

// The kernel generates keystream several blocks at a time; consuming it in
// odd-sized pieces that straddle both the 64-byte block boundary and the
// multi-block refill boundary must match one-shot output exactly.
TEST(ChaCha20, SplitsAcrossBlockAndRefillBoundaries) {
  bc::ChaChaKey key{};
  key[5] = 0xab;
  bc::ChaChaNonce nonce{};
  bu::Rng rng(99);
  bu::Bytes data = rng.bytes(3000);

  bu::Bytes oneshot = bc::chacha20_xor(key, nonce, 0, data);

  const std::size_t splits[] = {1, 63, 64, 65, 1, 127, 509, 511, 512, 513, 3, 256};
  bc::ChaCha20 c(key, nonce, 0);
  bu::Bytes pieced = data;
  std::size_t off = 0;
  std::size_t si = 0;
  while (off < pieced.size()) {
    const std::size_t n = std::min(splits[si++ % 12], pieced.size() - off);
    c.process(std::span<std::uint8_t>(pieced.data() + off, n));
    off += n;
  }
  EXPECT_EQ(pieced, oneshot);
}

TEST(ChaCha20, InPlaceMatchesTransform) {
  bc::ChaChaKey key{};
  key[0] = 1;
  bc::ChaChaNonce nonce{};
  bu::Rng rng(7);
  bu::Bytes data = rng.bytes(509);
  bc::ChaCha20 a(key, nonce), b(key, nonce);
  bu::Bytes copy = data;
  a.process(copy);
  EXPECT_EQ(copy, b.transform(data));
}

// ---- SHA-256: peek_digest ----

TEST(Sha256, PeekDigestMatchesFinish) {
  bu::Rng rng(21);
  // Cover padding both with and without an extra compression block.
  for (std::size_t len : {0u, 1u, 54u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 509u}) {
    bu::Bytes data = rng.bytes(len);
    bc::Sha256 h;
    h.update(data);
    EXPECT_EQ(h.peek_digest(), bc::sha256(data)) << len;
  }
}

TEST(Sha256, PeekDigestDoesNotDisturbState) {
  bc::Sha256 h;
  h.update(bu::to_bytes("abc"));
  const bc::Digest first = h.peek_digest();
  EXPECT_EQ(h.peek_digest(), first);  // idempotent
  h.update(bu::to_bytes("def"));
  EXPECT_EQ(h.peek_digest(), bc::sha256(bu::to_bytes("abcdef")));
}

// ---- AEAD ----

TEST(Aead, SealOpenRoundTrip) {
  bu::Rng rng(10);
  auto key = bc::AeadKey::from_bytes(rng.bytes(bc::kAeadKeyLen));
  auto nonce = bc::nonce_from_counter(1);
  bu::Bytes aad = bu::to_bytes("header");
  bu::Bytes pt = bu::to_bytes("attack at dawn");
  bu::Bytes sealed = bc::aead_seal(key, nonce, aad, pt);
  EXPECT_EQ(sealed.size(), pt.size() + bc::kAeadTagLen);
  auto opened = bc::aead_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(Aead, TamperedCiphertextFails) {
  bu::Rng rng(11);
  auto key = bc::AeadKey::from_bytes(rng.bytes(bc::kAeadKeyLen));
  auto nonce = bc::nonce_from_counter(2);
  bu::Bytes sealed = bc::aead_seal(key, nonce, {}, bu::to_bytes("data"));
  sealed[0] ^= 1;
  EXPECT_FALSE(bc::aead_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, TamperedTagFails) {
  bu::Rng rng(12);
  auto key = bc::AeadKey::from_bytes(rng.bytes(bc::kAeadKeyLen));
  auto nonce = bc::nonce_from_counter(3);
  bu::Bytes sealed = bc::aead_seal(key, nonce, {}, bu::to_bytes("data"));
  sealed.back() ^= 1;
  EXPECT_FALSE(bc::aead_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, WrongAadFails) {
  bu::Rng rng(13);
  auto key = bc::AeadKey::from_bytes(rng.bytes(bc::kAeadKeyLen));
  auto nonce = bc::nonce_from_counter(4);
  bu::Bytes sealed = bc::aead_seal(key, nonce, bu::to_bytes("aad1"), bu::to_bytes("data"));
  EXPECT_FALSE(bc::aead_open(key, nonce, bu::to_bytes("aad2"), sealed).has_value());
}

TEST(Aead, WrongNonceFails) {
  bu::Rng rng(14);
  auto key = bc::AeadKey::from_bytes(rng.bytes(bc::kAeadKeyLen));
  bu::Bytes sealed = bc::aead_seal(key, bc::nonce_from_counter(5), {}, bu::to_bytes("data"));
  EXPECT_FALSE(bc::aead_open(key, bc::nonce_from_counter(6), {}, sealed).has_value());
}

TEST(Aead, TooShortInputFails) {
  bu::Rng rng(15);
  auto key = bc::AeadKey::from_bytes(rng.bytes(bc::kAeadKeyLen));
  bu::Bytes tiny(bc::kAeadTagLen - 1, 0);
  EXPECT_FALSE(bc::aead_open(key, bc::nonce_from_counter(0), {}, tiny).has_value());
}

TEST(Aead, EmptyPlaintextWorks) {
  bu::Rng rng(16);
  auto key = bc::AeadKey::from_bytes(rng.bytes(bc::kAeadKeyLen));
  auto nonce = bc::nonce_from_counter(7);
  bu::Bytes sealed = bc::aead_seal(key, nonce, bu::to_bytes("x"), {});
  auto opened = bc::aead_open(key, nonce, bu::to_bytes("x"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(Aead, KeyFromBytesRejectsWrongSize) {
  EXPECT_THROW(bc::AeadKey::from_bytes(bu::Bytes(10)), std::invalid_argument);
}

// ---- DH ----

TEST(Dh, SharedSecretAgrees) {
  bu::Rng rng(20);
  auto a = bc::DhKeyPair::generate(rng);
  auto b = bc::DhKeyPair::generate(rng);
  EXPECT_EQ(bc::dh_shared(a, b.public_value), bc::dh_shared(b, a.public_value));
}

TEST(Dh, DistinctPairsDistinctSecrets) {
  bu::Rng rng(21);
  auto a = bc::DhKeyPair::generate(rng);
  auto b = bc::DhKeyPair::generate(rng);
  auto c = bc::DhKeyPair::generate(rng);
  EXPECT_NE(bc::dh_shared(a, b.public_value), bc::dh_shared(a, c.public_value));
}

TEST(Dh, RejectsDegeneratePublic) {
  bu::Rng rng(22);
  auto a = bc::DhKeyPair::generate(rng);
  EXPECT_THROW(bc::dh_shared(a, 0), std::invalid_argument);
  EXPECT_THROW(bc::dh_shared(a, 1), std::invalid_argument);
  EXPECT_THROW(bc::dh_shared(a, bc::group_prime()), std::invalid_argument);
}

TEST(Dh, GpBytesRoundTrip) {
  bu::Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    bc::Gp v = (static_cast<bc::Gp>(rng.next_u64()) << 64 | rng.next_u64()) %
               bc::group_prime();
    EXPECT_EQ(bc::gp_from_bytes(bc::gp_to_bytes(v)), v);
  }
  EXPECT_THROW(bc::gp_from_bytes(bu::Bytes(5)), std::invalid_argument);
}

TEST(Dh, ModmulMatchesSmallCases) {
  EXPECT_EQ(bc::modmul(7, 9, 11), (7 * 9) % 11);
  EXPECT_EQ(bc::modpow(3, 4, 100), 81u);
  EXPECT_EQ(bc::modpow(2, 10, 1000), 24u);
  // Fermat: a^(p-1) = 1 mod p for prime p.
  const bc::Gp p = bc::group_prime();
  EXPECT_EQ(bc::modpow(12345, p - 1, p), 1u);
}

// ---- Schnorr signatures ----

TEST(Sign, ValidSignatureVerifies) {
  bu::Rng rng(30);
  auto key = bc::SigningKey::generate(rng);
  bu::Bytes msg = bu::to_bytes("consensus document v1");
  auto sig = key.sign(msg);
  EXPECT_TRUE(bc::verify(key.public_key(), msg, sig));
}

TEST(Sign, WrongMessageFails) {
  bu::Rng rng(31);
  auto key = bc::SigningKey::generate(rng);
  auto sig = key.sign(bu::to_bytes("message A"));
  EXPECT_FALSE(bc::verify(key.public_key(), bu::to_bytes("message B"), sig));
}

TEST(Sign, WrongKeyFails) {
  bu::Rng rng(32);
  auto key1 = bc::SigningKey::generate(rng);
  auto key2 = bc::SigningKey::generate(rng);
  bu::Bytes msg = bu::to_bytes("msg");
  EXPECT_FALSE(bc::verify(key2.public_key(), msg, key1.sign(msg)));
}

TEST(Sign, TamperedSignatureFails) {
  bu::Rng rng(33);
  auto key = bc::SigningKey::generate(rng);
  bu::Bytes msg = bu::to_bytes("msg");
  auto sig = key.sign(msg);
  auto bad = sig;
  bad.s ^= 1;
  EXPECT_FALSE(bc::verify(key.public_key(), msg, bad));
  bad = sig;
  bad.r ^= 1;
  EXPECT_FALSE(bc::verify(key.public_key(), msg, bad));
}

TEST(Sign, SignatureSerializationRoundTrip) {
  bu::Rng rng(34);
  auto key = bc::SigningKey::generate(rng);
  auto sig = key.sign(bu::to_bytes("hello"));
  auto round = bc::Signature::from_bytes(sig.to_bytes());
  EXPECT_EQ(round.r, sig.r);
  EXPECT_EQ(round.s, sig.s);
  EXPECT_TRUE(bc::verify(key.public_key(), bu::to_bytes("hello"), round));
}

TEST(Sign, DeterministicNonce) {
  bu::Rng rng(35);
  auto key = bc::SigningKey::generate(rng);
  auto s1 = key.sign(bu::to_bytes("m"));
  auto s2 = key.sign(bu::to_bytes("m"));
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(Sign, FingerprintStableAndShort) {
  bu::Rng rng(36);
  auto key = bc::SigningKey::generate(rng);
  auto fp = bc::key_fingerprint(key.public_key());
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp, bc::key_fingerprint(key.public_key()));
}

// Property sweep: sign/verify across many keys and messages.
class SignSweep : public ::testing::TestWithParam<int> {};

TEST_P(SignSweep, RoundTrip) {
  bu::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  auto key = bc::SigningKey::generate(rng);
  bu::Bytes msg = rng.bytes(static_cast<std::size_t>(GetParam()) * 13 + 1);
  auto sig = key.sign(msg);
  EXPECT_TRUE(bc::verify(key.public_key(), msg, sig));
  msg[0] ^= 0xff;
  EXPECT_FALSE(bc::verify(key.public_key(), msg, sig));
}

INSTANTIATE_TEST_SUITE_P(Keys, SignSweep, ::testing::Range(0, 10));

// ---- Poly1305 / ChaCha20-Poly1305: RFC 8439 vectors ----

#include "crypto/poly1305.hpp"

TEST(Poly1305, Rfc8439MacVector) {
  // RFC 8439 §2.5.2.
  bc::Poly1305Key key{};
  auto key_bytes = bu::from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  auto tag = bc::poly1305(key, bu::to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(bu::to_hex(bu::ByteView(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, Rfc8439AeadVector) {
  // RFC 8439 §2.8.2.
  bc::ChaChaKey key{};
  auto key_bytes = bu::from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  bc::ChaChaNonce nonce{};
  auto nonce_bytes = bu::from_hex("070000004041424344454647");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const bu::Bytes aad = bu::from_hex("50515253c0c1c2c3c4c5c6c7");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";

  bu::Bytes sealed = bc::chapoly_seal(key, nonce, aad, bu::to_bytes(plaintext));
  ASSERT_EQ(sealed.size(), plaintext.size() + 16);
  EXPECT_EQ(bu::to_hex(bu::ByteView(sealed.data(), 16)),
            "d31a8d34648e60db7b86afbc53ef7ec2");
  EXPECT_EQ(bu::to_hex(bu::ByteView(sealed.data() + sealed.size() - 16, 16)),
            "1ae10b594f09e26a7e902ecbd0600691");

  auto opened = bc::chapoly_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(bu::to_string(*opened), plaintext);
}

TEST(Poly1305, ChapolyRejectsTampering) {
  bu::Rng rng(40);
  bc::ChaChaKey key{};
  auto kb = rng.bytes(32);
  std::copy(kb.begin(), kb.end(), key.begin());
  auto nonce = bc::nonce_from_counter(9);
  bu::Bytes sealed = bc::chapoly_seal(key, nonce, bu::to_bytes("aad"),
                                      bu::to_bytes("secret"));
  auto bad = sealed;
  bad[0] ^= 1;
  EXPECT_FALSE(bc::chapoly_open(key, nonce, bu::to_bytes("aad"), bad).has_value());
  bad = sealed;
  bad.back() ^= 1;
  EXPECT_FALSE(bc::chapoly_open(key, nonce, bu::to_bytes("aad"), bad).has_value());
  EXPECT_FALSE(bc::chapoly_open(key, nonce, bu::to_bytes("axd"), sealed).has_value());
  EXPECT_FALSE(bc::chapoly_open(key, bc::nonce_from_counter(8), bu::to_bytes("aad"),
                                sealed)
                   .has_value());
  EXPECT_FALSE(bc::chapoly_open(key, nonce, bu::to_bytes("aad"), bu::Bytes(10))
                   .has_value());
}

TEST(Poly1305, EmptyAndBlockBoundaryMessages) {
  bu::Rng rng(41);
  bc::Poly1305Key key{};
  auto kb = rng.bytes(32);
  std::copy(kb.begin(), kb.end(), key.begin());
  std::set<std::string> tags;
  for (std::size_t n : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 100u}) {
    auto tag = bc::poly1305(key, bu::Bytes(n, 0x61));
    tags.insert(bu::to_hex(bu::ByteView(tag.data(), tag.size())));
  }
  EXPECT_EQ(tags.size(), 9u);  // all distinct
}

// ---- SHA-256 kernels, run directly (below the Sha256 dispatch) ----

namespace {
constexpr std::array<std::uint32_t, 8> kSha256Iv = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                                    0x1f83d9ab, 0x5be0cd19};

// FIPS 180-4 padding around one kernel, bypassing Sha256 entirely.
bc::Digest kernel_digest(bc::detail::Sha256Kernel kernel, bu::ByteView msg) {
  bu::Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  std::array<std::uint32_t, 8> state = kSha256Iv;
  kernel(state, padded.data(), padded.size() / 64);
  bc::Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      out[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
    }
  }
  return out;
}

void expect_fips180_vectors(bc::detail::Sha256Kernel kernel) {
  EXPECT_EQ(hex_digest(kernel_digest(kernel, {})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_digest(kernel_digest(kernel, bu::to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_digest(kernel_digest(
                kernel, bu::to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex_digest(kernel_digest(kernel, bu::Bytes(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Random lengths 0..4 KiB, fed to Sha256 in 1-4 pieces split at random
// points; the streaming digest, its peek_digest, the one-shot sha256 and
// `kernel` run directly must all agree.
void expect_kernel_matches_streaming(bc::detail::Sha256Kernel kernel, std::uint64_t seed) {
  bu::Rng rng(seed);
  for (int iter = 0; iter < 400; ++iter) {
    const bu::Bytes data = rng.bytes(static_cast<std::size_t>(rng.uniform(0, 4096)));
    std::vector<std::size_t> cuts = {0, data.size()};
    for (std::uint64_t k = rng.uniform(0, 3); k > 0; --k) {
      cuts.push_back(static_cast<std::size_t>(rng.uniform(0, data.size())));
    }
    std::sort(cuts.begin(), cuts.end());
    bc::Sha256 h;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      h.update(bu::ByteView(data.data() + cuts[i], cuts[i + 1] - cuts[i]));
    }
    const bc::Digest peeked = h.peek_digest();
    const bc::Digest streamed = h.finish();
    const bc::Digest direct = kernel_digest(kernel, data);
    EXPECT_EQ(peeked, streamed) << "len " << data.size();
    EXPECT_EQ(streamed, bc::sha256(data)) << "len " << data.size();
    EXPECT_EQ(direct, streamed) << "len " << data.size();
  }
}
}  // namespace

TEST(Sha256Kernel, ScalarFips180Vectors) {
  expect_fips180_vectors(bc::detail::sha256_compress_scalar);
}

TEST(Sha256Kernel, ShaNiFips180Vectors) {
  const bc::detail::Sha256Kernel shani = bc::detail::sha256_shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "host CPU has no SHA extensions; SHA-NI kernel not run";
  expect_fips180_vectors(shani);
}

TEST(Sha256Kernel, ScalarMatchesStreamingOverRandomSplits) {
  expect_kernel_matches_streaming(bc::detail::sha256_compress_scalar, 1301);
}

TEST(Sha256Kernel, ShaNiMatchesScalarAndStreaming) {
  const bc::detail::Sha256Kernel shani = bc::detail::sha256_shani_kernel();
  if (shani == nullptr) GTEST_SKIP() << "host CPU has no SHA extensions; SHA-NI kernel not run";
  expect_kernel_matches_streaming(shani, 1302);
  // Multi-block calls from arbitrary chaining states, not only the IV.
  bu::Rng rng(1303);
  for (int iter = 0; iter < 200; ++iter) {
    std::array<std::uint32_t, 8> scalar_state{};
    for (auto& w : scalar_state) w = static_cast<std::uint32_t>(rng.next_u64());
    std::array<std::uint32_t, 8> shani_state = scalar_state;
    const std::size_t nblocks = static_cast<std::size_t>(rng.uniform(1, 64));
    const bu::Bytes blocks = rng.bytes(64 * nblocks);
    bc::detail::sha256_compress_scalar(scalar_state, blocks.data(), nblocks);
    shani(shani_state, blocks.data(), nblocks);
    EXPECT_EQ(shani_state, scalar_state) << "nblocks " << nblocks;
  }
}

// ---- DH: the Mersenne-fold modmul against double-and-add ----

namespace {
// The pre-fold modmul, kept here as the reference for mod = p.
bc::Gp ref_modmul(bc::Gp a, bc::Gp b, bc::Gp mod) {
  a %= mod;
  b %= mod;
  bc::Gp result = 0;
  while (b > 0) {
    if (b & 1) {
      result += a;
      if (result >= mod) result -= mod;
    }
    a <<= 1;
    if (a >= mod) a -= mod;
    b >>= 1;
  }
  return result;
}

bc::Gp random_gp(bu::Rng& rng) {
  return static_cast<bc::Gp>(rng.next_u64()) << 64 | rng.next_u64();
}

// Plain right-to-left square-and-multiply over ref_modmul: the reference
// for both modpow paths (the fixed-base table for 3, the window otherwise).
bc::Gp ref_modpow(bc::Gp base, bc::Gp exp, bc::Gp mod) {
  bc::Gp result = 1 % mod;
  base %= mod;
  while (exp > 0) {
    if (exp & 1) result = ref_modmul(result, base, mod);
    base = ref_modmul(base, base, mod);
    exp >>= 1;
  }
  return result;
}
}  // namespace

TEST(Dh, ModmulFoldMatchesDoubleAndAddOnEdgeValues) {
  const bc::Gp p = bc::group_prime();
  const bc::Gp one = 1;
  const std::vector<bc::Gp> edges = {
      0, 1, 2, one << 63, (one << 64) - 1, one << 64, one << 126, p - 2, p - 1,
      // Inputs at or above p: modmul reduces its arguments first.
      p, p + 1, ~static_cast<bc::Gp>(0)};
  for (bc::Gp a : edges) {
    for (bc::Gp b : edges) {
      const bc::Gp got = bc::modmul(a, b, p);
      EXPECT_TRUE(got == ref_modmul(a, b, p))
          << bu::to_hex(bc::gp_to_bytes(a)) << " * " << bu::to_hex(bc::gp_to_bytes(b));
      EXPECT_LT(got, p);
    }
  }
}

TEST(Dh, ModmulFoldMatchesDoubleAndAddOnRandomPairs) {
  const bc::Gp p = bc::group_prime();
  bu::Rng rng(1401);
  int mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    // Alternate full 128-bit inputs with already-reduced ones.
    bc::Gp a = random_gp(rng);
    bc::Gp b = random_gp(rng);
    if (i & 1) {
      a %= p;
      b %= p;
    }
    if (bc::modmul(a, b, p) != ref_modmul(a, b, p)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Dh, ModpowMatchesSquareAndMultiplyReference) {
  const bc::Gp p = bc::group_prime();
  const bc::Gp all_ones = ~static_cast<bc::Gp>(0);
  bu::Rng rng(1601);
  // Each list ends in a random value; 16 and 1 << 120 have zero nibbles.
  const std::vector<bc::Gp> exps = {0,     1,     2,        15, 16, static_cast<bc::Gp>(1) << 120,
                                    p - 2, p - 1, all_ones, random_gp(rng)};
  const std::vector<bc::Gp> bases = {0, 1, 2, 3, p - 1, p, p + 3, random_gp(rng)};
  for (bc::Gp e : exps) {
    for (bc::Gp b : bases) {
      EXPECT_TRUE(bc::modpow(b, e, p) == ref_modpow(b, e, p))
          << bu::to_hex(bc::gp_to_bytes(b)) << " ^ " << bu::to_hex(bc::gp_to_bytes(e));
    }
  }
  int mismatches = 0;
  for (int i = 0; i < 200; ++i) {
    const bc::Gp e = random_gp(rng) >> (i % 8);  // some exponents below 2^127
    if (bc::modpow(3, e, p) != ref_modpow(3, e, p)) ++mismatches;
    const bc::Gp b = random_gp(rng);
    if (bc::modpow(b, e, p) != ref_modpow(b, e, p)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Dh, GoldenKeysAndSharedSecrets) {
  // Computed with the double-and-add modmul: the ntor, conclave and IAS
  // bytes built on these values must not change with the kernel.
  struct Golden {
    std::uint64_t seed;
    const char* a_public;
    const char* b_public;
    const char* shared;
  };
  const Golden goldens[] = {
      {1, "46a4542941b88f83eed9e4b99dc9b331", "3fb05595035ae8d0d4dc89f1a61cae4a",
       "519d742fd3f5f695c8d16535ed05cf4c"},
      {7, "001e0a63a7c83b469ff340bd0d60b210", "261caff050b373ede9010c7580838d68",
       "2fd8070241b85249835dccb388889ccb"},
      {42, "0aa888262e9e83b223c1cf3dfca4bf01", "2738fe7ade1190d446861076a18ce3f2",
       "0c41e89c9d3a9cdb2d624cbad50010f5"},
  };
  for (const Golden& g : goldens) {
    bu::Rng rng(g.seed);
    const auto a = bc::DhKeyPair::generate(rng);
    const auto b = bc::DhKeyPair::generate(rng);
    EXPECT_EQ(bu::to_hex(bc::gp_to_bytes(a.public_value)), g.a_public) << g.seed;
    EXPECT_EQ(bu::to_hex(bc::gp_to_bytes(b.public_value)), g.b_public) << g.seed;
    EXPECT_EQ(bu::to_hex(bc::dh_shared(a, b.public_value)), g.shared) << g.seed;
    EXPECT_EQ(bc::dh_shared(b, a.public_value), bc::dh_shared(a, b.public_value)) << g.seed;
  }
}

// ---- ChaCha20 kernels, run directly (below the ChaCha20 dispatch) ----

namespace {
std::array<std::uint32_t, 16> chacha_state(const bc::ChaChaKey& key,
                                           const bc::ChaChaNonce& nonce,
                                           std::uint32_t counter) {
  auto le32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
  };
  std::array<std::uint32_t, 16> s = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (std::size_t i = 0; i < 8; ++i) s[4 + i] = le32(key.data() + 4 * i);
  s[12] = counter;
  for (std::size_t i = 0; i < 3; ++i) s[13 + i] = le32(nonce.data() + 4 * i);
  return s;
}

// `n` keystream bytes from the portable kernel, 512 bytes per call; the
// block counter wraps mod 2^32 exactly as the cipher's does.
bu::Bytes portable_keystream(std::array<std::uint32_t, 16> s, std::size_t n) {
  bu::Bytes out((n + 511) / 512 * 512);
  for (std::size_t off = 0; off < out.size(); off += 512) {
    bc::detail::chacha20_kernel_portable(s.data(), nullptr, out.data() + off);
    s[12] += 8;
  }
  out.resize(n);
  return out;
}

void expect_rfc8439_chacha_vectors(bc::detail::ChaChaKernel kernel) {
  bc::ChaChaKey key{};
  for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  // §2.4.2: the sunscreen plaintext from counter 1, XORed by the kernel.
  bc::ChaChaNonce nonce{};
  nonce[7] = 0x4a;
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  std::array<std::uint8_t, 512> buf{};
  std::copy(plaintext.begin(), plaintext.end(), buf.begin());
  auto st = chacha_state(key, nonce, 1);
  kernel(st.data(), buf.data(), buf.data());
  EXPECT_EQ(bu::to_hex(bu::ByteView(buf.data(), plaintext.size())),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
  // §2.3.2: the bare keystream block (null input).
  nonce[3] = 0x09;
  st = chacha_state(key, nonce, 1);
  kernel(st.data(), nullptr, buf.data());
  EXPECT_EQ(bu::to_hex(bu::ByteView(buf.data(), 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  // A.1 #1: zero key and nonce, counter 0.
  st = chacha_state(bc::ChaChaKey{}, bc::ChaChaNonce{}, 0);
  kernel(st.data(), nullptr, buf.data());
  EXPECT_EQ(bu::to_hex(bu::ByteView(buf.data(), 64)),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
}

// Random full states (counters near the 2^32 wrap included), with and
// without input, in place and out of place, against the portable body.
void expect_kernel_matches_portable(bc::detail::ChaChaKernel kernel, std::uint64_t seed) {
  bu::Rng rng(seed);
  for (int iter = 0; iter < 300; ++iter) {
    std::array<std::uint32_t, 16> st{};
    for (auto& w : st) w = static_cast<std::uint32_t>(rng.next_u64());
    if (iter % 3 == 0) st[12] = 0xffffffffu - static_cast<std::uint32_t>(rng.uniform(0, 8));
    const bu::Bytes in = rng.bytes(512);
    const bool with_input = iter % 2 == 0;
    const std::uint8_t* src = with_input ? in.data() : nullptr;
    std::array<std::uint8_t, 512> want{};
    bc::detail::chacha20_kernel_portable(st.data(), src, want.data());
    std::array<std::uint8_t, 512> got{};
    kernel(st.data(), src, got.data());
    EXPECT_EQ(got, want) << "iter " << iter << " counter " << st[12];
    if (with_input) {
      bu::Bytes inplace = in;
      kernel(st.data(), inplace.data(), inplace.data());
      EXPECT_TRUE(std::equal(inplace.begin(), inplace.end(), want.begin())) << "iter " << iter;
    }
  }
}
}  // namespace

TEST(ChaCha20Kernel, PortableRfc8439Vectors) {
  expect_rfc8439_chacha_vectors(bc::detail::chacha20_kernel_portable);
}

TEST(ChaCha20Kernel, Avx2Rfc8439VectorsAndMatchesPortable) {
  const bc::detail::ChaChaKernel k = bc::detail::chacha20_avx2_kernel();
  if (k == nullptr) GTEST_SKIP() << "host CPU has no AVX2; AVX2 ChaCha20 kernel not run";
  expect_rfc8439_chacha_vectors(k);
  expect_kernel_matches_portable(k, 2001);
}

TEST(ChaCha20Kernel, Avx512Rfc8439VectorsAndMatchesPortable) {
  const bc::detail::ChaChaKernel k = bc::detail::chacha20_avx512_kernel();
  if (k == nullptr) {
    GTEST_SKIP() << "host CPU has no AVX-512F/VL; AVX-512 ChaCha20 kernel not run";
  }
  expect_rfc8439_chacha_vectors(k);
  expect_kernel_matches_portable(k, 2002);
}

// The cipher (whichever kernel this host picked, the direct whole-run XOR
// included) over 1-4 process() calls split at random points, with counters
// that wrap past 2^32 mid-message, against the portable keystream.
TEST(ChaCha20Kernel, ProcessSplitsMatchPortableAcrossCounterWrap) {
  bu::Rng rng(2003);
  for (int iter = 0; iter < 300; ++iter) {
    bc::ChaChaKey key{};
    bc::ChaChaNonce nonce{};
    const bu::Bytes kb = rng.bytes(32 + 12);
    std::copy(kb.begin(), kb.begin() + 32, key.begin());
    std::copy(kb.begin() + 32, kb.end(), nonce.begin());
    const auto counter = iter % 2 == 0
                             ? 0xffffffffu - static_cast<std::uint32_t>(rng.uniform(0, 40))
                             : static_cast<std::uint32_t>(rng.next_u64());
    const bu::Bytes data = rng.bytes(static_cast<std::size_t>(rng.uniform(0, 4096)));
    std::vector<std::size_t> cuts = {0, data.size()};
    for (std::uint64_t k = rng.uniform(0, 3); k > 0; --k) {
      cuts.push_back(static_cast<std::size_t>(rng.uniform(0, data.size())));
    }
    std::sort(cuts.begin(), cuts.end());
    bc::ChaCha20 cipher(key, nonce, counter);
    bu::Bytes got = data;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      cipher.process(std::span<std::uint8_t>(got.data() + cuts[i], cuts[i + 1] - cuts[i]));
    }
    bu::Bytes want = portable_keystream(chacha_state(key, nonce, counter), data.size());
    for (std::size_t i = 0; i < want.size(); ++i) want[i] ^= data[i];
    EXPECT_EQ(got, want) << "iter " << iter << " len " << data.size();
  }
}

TEST(ChaCha20, SkipAdvancesTheKeystream) {
  bc::ChaChaKey key{};
  key[5] = 9;
  const bc::ChaChaNonce nonce{};
  const bu::Bytes stream = portable_keystream(chacha_state(key, nonce, 0), 2048);
  for (const std::size_t skip : {0u, 1u, 32u, 63u, 448u, 512u, 700u, 1024u}) {
    bc::ChaCha20 c(key, nonce, 0);
    std::array<std::uint8_t, 32> head{};
    c.process(head);
    c.skip(skip);
    bu::Bytes tail(600, 0);
    c.process(tail);
    EXPECT_TRUE(std::equal(head.begin(), head.end(), stream.begin())) << skip;
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                           stream.begin() + static_cast<std::ptrdiff_t>(32 + skip)))
        << skip;
  }
}

// ---- Poly1305: incremental MAC and final-reduction edge cases ----

// RFC 8439 A.3 vectors #5-#9: accumulators that end at or above
// p = 2^130 - 5, and an s addition that overflows 2^128.
TEST(Poly1305, Rfc8439FinalReductionVectors) {
  struct Vec {
    const char* key;  // r || s
    const char* msg;
    const char* tag;
  };
  const Vec vecs[] = {
      {"0200000000000000000000000000000000000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff", "03000000000000000000000000000000"},
      {"02000000000000000000000000000000ffffffffffffffffffffffffffffffff",
       "02000000000000000000000000000000", "03000000000000000000000000000000"},
      {"0100000000000000000000000000000000000000000000000000000000000000",
       "fffffffffffffffffffffffffffffffff0ffffffffffffffffffffffffffffff"
       "11000000000000000000000000000000",
       "05000000000000000000000000000000"},
      {"0100000000000000000000000000000000000000000000000000000000000000",
       "fffffffffffffffffffffffffffffffffbfefefefefefefefefefefefefefefe"
       "01010101010101010101010101010101",
       "00000000000000000000000000000000"},
      {"0200000000000000000000000000000000000000000000000000000000000000",
       "fdffffffffffffffffffffffffffffff", "faffffffffffffffffffffffffffffff"},
  };
  for (const Vec& v : vecs) {
    const bu::Bytes kb = bu::from_hex(v.key);
    bc::Poly1305Key key{};
    std::copy(kb.begin(), kb.end(), key.begin());
    const bc::Poly1305Tag tag = bc::poly1305(key, bu::from_hex(v.msg));
    EXPECT_EQ(bu::to_hex(bu::ByteView(tag.data(), tag.size())), v.tag) << v.msg;
  }
}

TEST(Poly1305, IncrementalMatchesOneShotOverRandomSplits) {
  bu::Rng rng(2101);
  for (int iter = 0; iter < 400; ++iter) {
    bc::Poly1305Key key{};
    const bu::Bytes kb = rng.bytes(32);
    std::copy(kb.begin(), kb.end(), key.begin());
    // All-ones messages push every limb to its maximum.
    bu::Bytes msg = rng.bytes(static_cast<std::size_t>(rng.uniform(0, 1100)));
    if (iter % 5 == 0) std::fill(msg.begin(), msg.end(), 0xff);
    std::vector<std::size_t> cuts = {0, msg.size()};
    for (std::uint64_t k = rng.uniform(0, 6); k > 0; --k) {
      cuts.push_back(static_cast<std::size_t>(rng.uniform(0, msg.size())));
    }
    std::sort(cuts.begin(), cuts.end());
    bc::Poly1305 mac(key);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      mac.update(bu::ByteView(msg.data() + cuts[i], cuts[i + 1] - cuts[i]));
    }
    EXPECT_EQ(mac.finish(), bc::poly1305(key, msg)) << "iter " << iter;
  }
}

TEST(Poly1305, Pad16MatchesExplicitZeroPadding) {
  bu::Rng rng(2102);
  for (std::size_t n = 0; n < 40; ++n) {
    bc::Poly1305Key key{};
    const bu::Bytes kb = rng.bytes(32);
    std::copy(kb.begin(), kb.end(), key.begin());
    const bu::Bytes a = rng.bytes(n);
    bc::Poly1305 mac(key);
    mac.update(a);
    mac.pad16();
    mac.update(bu::to_bytes("tail"));
    bu::Bytes padded = a;
    while (padded.size() % 16 != 0) padded.push_back(0);
    bu::append(padded, bu::to_bytes("tail"));
    EXPECT_EQ(mac.finish(), bc::poly1305(key, padded)) << n;
  }
}

// The streamed AEAD tag (one cipher: key from block 0, payload from block 1)
// against the MAC input assembled byte by byte as RFC 8439 §2.8 lays it out.
TEST(Poly1305, SealInplaceMatchesAssembledMacInput) {
  bu::Rng rng(2103);
  for (int iter = 0; iter < 100; ++iter) {
    bc::ChaChaKey key{};
    const bu::Bytes kb = rng.bytes(32);
    std::copy(kb.begin(), kb.end(), key.begin());
    const bc::ChaChaNonce nonce = bc::nonce_from_counter(rng.next_u64());
    const bu::Bytes aad = rng.bytes(static_cast<std::size_t>(rng.uniform(0, 40)));
    const bu::Bytes pt = rng.bytes(static_cast<std::size_t>(rng.uniform(0, 2000)));
    bu::Bytes ct = pt;
    const bc::Poly1305Tag tag = bc::chapoly_seal_inplace(key, nonce, aad, ct);
    EXPECT_EQ(ct, bc::chacha20_xor(key, nonce, 1, pt));
    bc::Poly1305Key otk{};
    bc::chacha20_xor_inplace(key, nonce, 0, otk);
    bu::Bytes mac_data = aad;
    while (mac_data.size() % 16 != 0) mac_data.push_back(0);
    bu::append(mac_data, ct);
    while (mac_data.size() % 16 != 0) mac_data.push_back(0);
    for (const std::uint64_t len : {aad.size(), ct.size()}) {
      for (int i = 0; i < 8; ++i) mac_data.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    }
    EXPECT_EQ(tag, bc::poly1305(otk, mac_data)) << "iter " << iter;
  }
}
