// Simulation-grade Diffie-Hellman over the multiplicative group mod the
// Mersenne prime p = 2^127 - 1 (generator 3).
//
// *** NOT PRODUCTION CRYPTO. *** A 127-bit classical group offers nowhere
// near the security of curve25519; it is used here because the repository's
// goal is to reproduce Bento's *protocols* (ntor-style circuit handshakes,
// attested channels, Schnorr-signed consensus documents) with real
// asymmetric-key mechanics, while staying dependency-free. DESIGN.md §6
// records this substitution.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bento::crypto {

/// Group element / exponent, value in [0, p).
using Gp = unsigned __int128;

inline constexpr int kGpBytes = 16;

/// p = 2^127 - 1.
Gp group_prime();

/// Modular multiplication. For mod == group_prime() the 254-bit product is
/// reduced with the Mersenne fold (2^127 = 1 mod p); any other modulus uses
/// double-and-add, safe against 128-bit overflow. Not constant-time.
Gp modmul(Gp a, Gp b, Gp mod);

/// Modular exponentiation. For mod == group_prime(), base 3 (the generator)
/// multiplies one entry of a static fixed-base table per nonzero exponent
/// nibble and any other base uses a 4-bit window; any other modulus uses
/// square-and-multiply. Not constant-time: timing depends on the exponent's
/// nibbles (DESIGN.md §11).
Gp modpow(Gp base, Gp exp, Gp mod);

/// Serializes a group element as 16 big-endian bytes.
util::Bytes gp_to_bytes(Gp v);

/// Parses 16 big-endian bytes. Throws std::invalid_argument on wrong size.
Gp gp_from_bytes(util::ByteView b);

/// A DH keypair: public = g^secret mod p.
struct DhKeyPair {
  Gp secret = 0;
  Gp public_value = 0;

  static DhKeyPair generate(util::Rng& rng);

  /// Secret-key export — used only where the paper itself ships private
  /// keys around (LoadBalancer replicating a hidden service, §8).
  util::Bytes to_bytes() const;
  static DhKeyPair from_bytes(util::ByteView b);
};

/// Computes the 16-byte shared secret g^(ab) from our secret and their public.
util::Bytes dh_shared(const DhKeyPair& mine, Gp their_public);

}  // namespace bento::crypto
