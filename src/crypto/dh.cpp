#include "crypto/dh.hpp"

#include <stdexcept>

namespace bento::crypto {

namespace {

constexpr Gp kP = (static_cast<Gp>(1) << 127) - 1;

// x mod p for any 128-bit x: 2^127 = 1 (mod p), so fold the top bit onto
// the low 127 bits; the sum is at most p + 1, so one subtraction finishes.
Gp fold_p(Gp x) {
  x = (x & kP) + (x >> 127);
  return x >= kP ? x - kP : x;
}

// a * b mod p for a, b < p. The 254-bit product is built from four
// 64x64->128 multiplies as hi:lo, then folded: hi:lo = H * 2^127 + L with
// H, L < 2^127, so the product is H + L (mod p) and H + L fits in 128 bits.
Gp mulmod_p(Gp a, Gp b) {
  const auto a0 = static_cast<std::uint64_t>(a), a1 = static_cast<std::uint64_t>(a >> 64);
  const auto b0 = static_cast<std::uint64_t>(b), b1 = static_cast<std::uint64_t>(b >> 64);
  // a1, b1 < 2^63, so the two cross terms sum to less than 2^128.
  const Gp mid = static_cast<Gp>(a0) * b1 + static_cast<Gp>(a1) * b0;
  const Gp lo = static_cast<Gp>(a0) * b0 + (mid << 64);
  const Gp carry = lo < (mid << 64) ? 1 : 0;
  const Gp hi = static_cast<Gp>(a1) * b1 + (mid >> 64) + carry;
  return fold_p(((hi << 1) | (lo >> 127)) + (lo & kP));
}

}  // namespace

Gp group_prime() { return kP; }

Gp modmul(Gp a, Gp b, Gp mod) {
  if (mod == kP) return mulmod_p(fold_p(a), fold_p(b));
  // Any other modulus (the Schnorr order p - 1): double-and-add, which
  // never overflows 128 bits for mod < 2^127.
  a %= mod;
  b %= mod;
  Gp result = 0;
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

Gp modpow(Gp base, Gp exp, Gp mod) {
  Gp result = 1 % mod;
  base %= mod;
  while (exp > 0) {
    if (exp & 1) result = modmul(result, base, mod);
    base = modmul(base, base, mod);
    exp >>= 1;
  }
  return result;
}

util::Bytes gp_to_bytes(Gp v) {
  util::Bytes out(kGpBytes);
  for (int i = kGpBytes - 1; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
  return out;
}

Gp gp_from_bytes(util::ByteView b) {
  if (b.size() != kGpBytes) throw std::invalid_argument("gp_from_bytes: need 16 bytes");
  Gp v = 0;
  for (std::uint8_t byte : b) v = (v << 8) | byte;
  return v;
}

DhKeyPair DhKeyPair::generate(util::Rng& rng) {
  const Gp p = group_prime();
  DhKeyPair kp;
  // Secret in [2, p-2].
  Gp s = (static_cast<Gp>(rng.next_u64()) << 64) | rng.next_u64();
  kp.secret = 2 + s % (p - 3);
  kp.public_value = modpow(3, kp.secret, p);
  return kp;
}

util::Bytes DhKeyPair::to_bytes() const {
  util::Bytes out = gp_to_bytes(secret);
  util::append(out, gp_to_bytes(public_value));
  return out;
}

DhKeyPair DhKeyPair::from_bytes(util::ByteView b) {
  if (b.size() != 2 * kGpBytes) {
    throw std::invalid_argument("DhKeyPair::from_bytes: size");
  }
  DhKeyPair kp;
  kp.secret = gp_from_bytes(b.first(kGpBytes));
  kp.public_value = gp_from_bytes(b.subspan(kGpBytes));
  return kp;
}

util::Bytes dh_shared(const DhKeyPair& mine, Gp their_public) {
  const Gp p = group_prime();
  if (their_public <= 1 || their_public >= p) {
    throw std::invalid_argument("dh_shared: public value out of range");
  }
  return gp_to_bytes(modpow(their_public, mine.secret, p));
}

}  // namespace bento::crypto
