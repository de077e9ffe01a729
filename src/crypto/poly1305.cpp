#include "crypto/poly1305.hpp"

#include <bit>
#include <cstring>

#include "util/annotations.hpp"

namespace bento::crypto {

namespace {
using u128 = unsigned __int128;

constexpr std::uint64_t kMask44 = 0xfffffffffffULL;
constexpr std::uint64_t kMask42 = 0x3ffffffffffULL;
constexpr std::uint64_t kHibit = 1ULL << 40;  // 2^128 in the top limb

BENTO_HOT std::uint64_t le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
}  // namespace

Poly1305::Poly1305(const Poly1305Key& key) {
  // r is clamped as RFC 8439 §2.5 requires, then split 44/44/42.
  const std::uint64_t t0 = le64(key.data());
  const std::uint64_t t1 = le64(key.data() + 8);
  r_[0] = t0 & 0xffc0fffffffULL;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffULL;
  r_[2] = (t1 >> 24) & 0x00ffffffc0fULL;
  pad_[0] = le64(key.data() + 16);
  pad_[1] = le64(key.data() + 24);
}

// h = (h + m) * r mod 2^130 - 5 for each 16-byte block; `hibit` is the 2^128
// marker every full block carries (the final partial block carries its own
// 0x01 byte instead).
BENTO_HOT void Poly1305::blocks(const std::uint8_t* m, std::size_t nblocks,
                                std::uint64_t hibit) {
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // Limb products past 2^130 land at 2^132 (a 44-bit and an 88-bit limb
  // offset), which folds to 4 * 5 mod 2^130 - 5.
  const std::uint64_t s1 = r1 * (5 << 2);
  const std::uint64_t s2 = r2 * (5 << 2);
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (; nblocks > 0; --nblocks, m += 16) {
    const std::uint64_t t0 = le64(m);
    const std::uint64_t t1 = le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    const u128 d0 = static_cast<u128>(h0) * r0 + static_cast<u128>(h1) * s2 +
                    static_cast<u128>(h2) * s1;
    u128 d1 = static_cast<u128>(h0) * r1 + static_cast<u128>(h1) * r0 +
              static_cast<u128>(h2) * s2;
    u128 d2 = static_cast<u128>(h0) * r2 + static_cast<u128>(h1) * r1 +
              static_cast<u128>(h2) * r0;

    std::uint64_t c = static_cast<std::uint64_t>(d0 >> 44);
    h0 = static_cast<std::uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<std::uint64_t>(d1 >> 44);
    h1 = static_cast<std::uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<std::uint64_t>(d2 >> 42);
    h2 = static_cast<std::uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

BENTO_HOT void Poly1305::update(util::ByteView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;  // an empty view may carry a null pointer
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, 16 - buffered_);
    std::memcpy(buf_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < 16) return;
    blocks(buf_.data(), 1, kHibit);
    buffered_ = 0;
  }
  blocks(p, n / 16, kHibit);
  p += n - n % 16;
  n %= 16;
  if (n > 0) {
    std::memcpy(buf_.data(), p, n);
    buffered_ = n;
  }
}

BENTO_HOT void Poly1305::pad16() {
  if (buffered_ == 0) return;
  std::memset(buf_.data() + buffered_, 0, 16 - buffered_);
  blocks(buf_.data(), 1, kHibit);
  buffered_ = 0;
}

BENTO_HOT Poly1305Tag Poly1305::finish() {
  if (buffered_ > 0) {
    buf_[buffered_] = 1;  // 2^(8*n) marker
    std::memset(buf_.data() + buffered_ + 1, 0, 15 - buffered_);
    blocks(buf_.data(), 1, 0);
    buffered_ = 0;
  }
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];

  // Fully carry h.
  std::uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // g = h + -p = h - (2^130 - 5); take g when it did not borrow (h >= p).
  std::uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  std::uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  std::uint64_t g2 = h2 + c - (1ULL << 42);
  const std::uint64_t take_g = (g2 >> 63) - 1;  // all-ones if h >= p
  h0 = (h0 & ~take_g) | (g0 & take_g);
  h1 = (h1 & ~take_g) | (g1 & take_g);
  h2 = (h2 & ~take_g) | (g2 & take_g);

  // h = (h + s) mod 2^128.
  const std::uint64_t s0 = pad_[0], s1 = pad_[1];
  h0 += s0 & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((s0 >> 44) | (s1 << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += ((s1 >> 24) & kMask42) + c;
  h2 &= kMask42;

  Poly1305Tag tag{};
  store_le64(tag.data(), h0 | (h1 << 44));
  store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

Poly1305Tag poly1305(const Poly1305Key& key, util::ByteView message) {
  Poly1305 mac(key);
  mac.update(message);
  return mac.finish();
}

namespace {
// The RFC 8439 §2.8 MAC input: aad || pad16 || ciphertext || pad16 ||
// le64(aad length) || le64(ciphertext length), streamed, never assembled.
Poly1305Tag chapoly_mac(const Poly1305Key& otk, util::ByteView aad,
                        util::ByteView ciphertext) {
  Poly1305 mac(otk);
  mac.update(aad);
  mac.pad16();
  mac.update(ciphertext);
  mac.pad16();
  std::uint8_t lengths[16];
  store_le64(lengths, aad.size());
  store_le64(lengths + 8, ciphertext.size());
  mac.update(util::ByteView(lengths, sizeof lengths));
  return mac.finish();
}

// One cipher per record: the one-time key is the first 32 bytes of block 0,
// the rest of block 0 is skipped, and the payload keystream starts at
// block 1 — the same bytes as separate counter-0 and counter-1 ciphers,
// from a single kernel call.
Poly1305Key one_time_key(ChaCha20& cipher) {
  Poly1305Key otk{};
  cipher.process(otk);
  cipher.skip(64 - otk.size());
  return otk;
}
}  // namespace

BENTO_HOT Poly1305Tag chapoly_seal_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                                           util::ByteView aad,
                                           std::span<std::uint8_t> data) {
  ChaCha20 cipher(key, nonce, 0);
  const Poly1305Key otk = one_time_key(cipher);
  cipher.process(data);
  return chapoly_mac(otk, aad, util::ByteView(data.data(), data.size()));
}

util::Bytes chapoly_seal(const ChaChaKey& key, const ChaChaNonce& nonce,
                         util::ByteView aad, util::ByteView plaintext) {
  util::Bytes out;
  out.reserve(plaintext.size() + 16);
  out.assign(plaintext.begin(), plaintext.end());
  const Poly1305Tag tag = chapoly_seal_inplace(key, nonce, aad, out);
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::optional<util::Bytes> chapoly_open(const ChaChaKey& key,
                                        const ChaChaNonce& nonce,
                                        util::ByteView aad, util::ByteView sealed) {
  if (sealed.size() < 16) return std::nullopt;
  util::ByteView ciphertext = sealed.first(sealed.size() - 16);
  ChaCha20 cipher(key, nonce, 0);
  const Poly1305Tag expect = chapoly_mac(one_time_key(cipher), aad, ciphertext);
  if (!util::ct_equal(sealed.last(16),
                      util::ByteView(expect.data(), expect.size()))) {
    return std::nullopt;
  }
  util::Bytes plaintext(ciphertext.begin(), ciphertext.end());
  cipher.process(plaintext);
  return plaintext;
}

}  // namespace bento::crypto
