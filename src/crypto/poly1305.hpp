// Poly1305 one-time authenticator and the ChaCha20-Poly1305 AEAD
// (RFC 8439), verified against the RFC test vectors.
//
// This is the repository's standards-faithful AEAD; the attested secure
// channel (tee/conclave.hpp) and the sealed store (store/sealer.hpp) use
// it. The simpler encrypt-then-HMAC AEAD in aead.hpp remains for bulk uses
// (FS-Protect) where a 32-byte MAC is fine.
//
// Poly1305 keeps its accumulator in three radix-2^44 limbs and multiplies
// with 64x64->128 products (poly1305-donna-64 style): nine multiplies per
// 16-byte block. The MAC is incremental, so the AEAD authenticates
// aad || pad || ciphertext || pad || lengths without copying the
// ciphertext, and the one-time key is block 0 of the same cipher that then
// encrypts from block 1.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/chacha20.hpp"
#include "util/bytes.hpp"

namespace bento::crypto {

using Poly1305Key = std::array<std::uint8_t, 32>;  // r || s
using Poly1305Tag = std::array<std::uint8_t, 16>;

/// Incremental Poly1305: update() any number of times with any split of
/// the message, then finish() once. The key must never authenticate two
/// messages.
class Poly1305 {
 public:
  explicit Poly1305(const Poly1305Key& key);

  void update(util::ByteView data);
  /// Absorbs zero bytes up to the next 16-byte boundary of the message so
  /// far (the RFC 8439 AEAD padding), without a zero buffer.
  void pad16();
  Poly1305Tag finish();

 private:
  void blocks(const std::uint8_t* m, std::size_t nblocks, std::uint64_t hibit);

  std::uint64_t r_[3];
  std::uint64_t h_[3] = {0, 0, 0};
  std::uint64_t pad_[2];
  std::array<std::uint8_t, 16> buf_{};
  std::size_t buffered_ = 0;
};

/// One-shot Poly1305 MAC. The key must never authenticate two messages.
Poly1305Tag poly1305(const Poly1305Key& key, util::ByteView message);

/// Encrypts `data` in place with ChaCha20 from block 1 and returns the RFC
/// 8439 AEAD tag over (aad, ciphertext). chapoly_seal is this plus a copy;
/// the store's sealer runs it on bytes already in its output buffer.
Poly1305Tag chapoly_seal_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                                 util::ByteView aad, std::span<std::uint8_t> data);

/// RFC 8439 AEAD_CHACHA20_POLY1305: returns ciphertext || 16-byte tag.
util::Bytes chapoly_seal(const ChaChaKey& key, const ChaChaNonce& nonce,
                         util::ByteView aad, util::ByteView plaintext);

/// Opens a chapoly_seal buffer; nullopt on authentication failure.
std::optional<util::Bytes> chapoly_open(const ChaChaKey& key,
                                        const ChaChaNonce& nonce,
                                        util::ByteView aad, util::ByteView sealed);

}  // namespace bento::crypto
