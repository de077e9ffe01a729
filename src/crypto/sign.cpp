#include "crypto/sign.hpp"

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "util/serialize.hpp"

namespace bento::crypto {

namespace {
// Hash-to-exponent: e = H(r || pk || m) reduced mod (p-1).
Gp challenge(Gp r, Gp pk, util::ByteView message) {
  util::Writer w;
  w.raw(gp_to_bytes(r));
  w.raw(gp_to_bytes(pk));
  w.blob(message);
  const Digest d = sha256(w.data());
  Gp e = 0;
  for (int i = 0; i < 16; ++i) e = (e << 8) | d[static_cast<std::size_t>(i)];
  return e % (group_prime() - 1);
}
}  // namespace

util::Bytes Signature::to_bytes() const {
  util::Bytes out = gp_to_bytes(r);
  util::append(out, gp_to_bytes(s));
  return out;
}

Signature Signature::from_bytes(util::ByteView b) {
  if (b.size() != 2 * kGpBytes) throw std::invalid_argument("Signature::from_bytes: size");
  Signature sig;
  sig.r = gp_from_bytes(b.first(kGpBytes));
  sig.s = gp_from_bytes(b.subspan(kGpBytes));
  return sig;
}

SigningKey SigningKey::generate(util::Rng& rng) {
  SigningKey k;
  k.key_ = DhKeyPair::generate(rng);
  return k;
}

Signature SigningKey::sign(util::ByteView message) const {
  const Gp p = group_prime();
  const Gp order = p - 1;
  // Deterministic nonce (RFC 6979 spirit): k = H(secret || m) mod order.
  util::Writer w;
  w.raw(gp_to_bytes(key_.secret));
  w.blob(message);
  static const HmacKey nonce_key(util::as_byte_view("bento-schnorr-nonce"));
  const Digest d = nonce_key.mac(w.data());
  Gp k = 0;
  for (int i = 0; i < 16; ++i) k = (k << 8) | d[static_cast<std::size_t>(i)];
  k = 2 + k % (order - 2);

  Signature sig;
  sig.r = modpow(3, k, p);
  const Gp e = challenge(sig.r, key_.public_value, message);
  // s = k + x*e mod (p-1)
  sig.s = (k + modmul(key_.secret, e, order)) % order;
  return sig;
}

bool verify(Gp public_key, util::ByteView message, const Signature& sig) {
  const Gp p = group_prime();
  if (public_key <= 1 || public_key >= p) return false;
  if (sig.r <= 1 || sig.r >= p || sig.s >= p - 1) return false;
  const Gp e = challenge(sig.r, public_key, message);
  const Gp lhs = modpow(3, sig.s, p);
  const Gp rhs = modmul(sig.r, modpow(public_key, e, p), p);
  return lhs == rhs;
}

std::string key_fingerprint(Gp public_key) {
  const Digest d = sha256(gp_to_bytes(public_key));
  return util::to_hex(util::ByteView(d.data(), kFingerprintLen / 2));
}

}  // namespace bento::crypto
