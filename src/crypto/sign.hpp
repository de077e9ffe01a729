// Schnorr signatures over the simulation DH group (see dh.hpp caveats).
//
// Used wherever the real systems use Ed25519/RSA signatures: relay identity
// keys, directory-authority consensus signing, hidden-service descriptor
// signing, and the simulated Intel Attestation Service report signature.
#pragma once

#include <string>

#include "crypto/dh.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bento::crypto {

struct Signature {
  Gp r = 0;  // commitment g^k
  Gp s = 0;  // response k + x*e mod (p-1)

  util::Bytes to_bytes() const;
  static Signature from_bytes(util::ByteView b);
};

class SigningKey {
 public:
  static SigningKey generate(util::Rng& rng);

  /// Public verification key (group element).
  Gp public_key() const { return key_.public_value; }

  /// Deterministic-nonce Schnorr signature over `message`.
  Signature sign(util::ByteView message) const;

  /// Secret-key export (see DhKeyPair::to_bytes caveat).
  util::Bytes to_bytes() const { return key_.to_bytes(); }
  static SigningKey from_bytes(util::ByteView b) {
    SigningKey k;
    k.key_ = DhKeyPair::from_bytes(b);
    return k;
  }

 private:
  DhKeyPair key_;
};

/// Verifies sig over message under the given public key.
bool verify(Gp public_key, util::ByteView message, const Signature& sig);

/// Length of a key fingerprint: 8 hash bytes in hex.
inline constexpr std::size_t kFingerprintLen = 16;

/// Short printable identifier for a public key (first 8 hash bytes, hex).
std::string key_fingerprint(Gp public_key);

}  // namespace bento::crypto
