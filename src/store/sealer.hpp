// Record-level sealing for store frames.
//
// The store seals each frame *body* (not the header — replay must be able
// to walk frame boundaries before it can unseal) with RFC 8439
// ChaCha20-Poly1305 from crypto/. The nonce is the frame sequence number —
// unique per record by construction, never reused because compaction copies
// sealed bodies verbatim instead of re-sealing. The AAD binds the header
// fields (op + path) so a sealed body cannot be replayed under a different
// path.
//
// `Sealer` is an interface so the store itself has no tee/ dependency:
// tee/conclave.cpp derives the key from the platform sealing secret and the
// enclave measurement (same HKDF contract as Enclave::sealing_key) and
// hands the store a ChaPolySealer. Recovery on the wrong platform or with
// the wrong measurement derives a different key, every unseal fails, and
// replay fails closed — the attestation gate of DESIGN.md §15.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "crypto/chacha20.hpp"
#include "util/bytes.hpp"

namespace bento::store {

class Sealer {
 public:
  virtual ~Sealer() = default;

  /// Bytes seal_append adds beyond the plaintext (the tag).
  virtual std::size_t overhead() const = 0;

  /// True when bodies are actually encrypted (drives the Meta frame flag).
  virtual bool sealing() const = 0;

  /// Appends the sealed form of `plaintext` to `out` — exactly
  /// plaintext.size() + overhead() bytes. Must not allocate in steady
  /// state beyond `out`'s own (reserved) growth.
  virtual void seal_append(util::Bytes& out, std::uint64_t seq,
                           util::ByteView aad, util::ByteView plaintext) = 0;

  /// Opens a sealed body; nullopt on authentication failure.
  virtual std::optional<util::Bytes> open(std::uint64_t seq, util::ByteView aad,
                                          util::ByteView sealed) = 0;
};

/// Identity sealer for non-SGX images: frames stay CRC-framed but plaintext.
class NullSealer final : public Sealer {
 public:
  std::size_t overhead() const override { return 0; }
  bool sealing() const override { return false; }
  void seal_append(util::Bytes& out, std::uint64_t seq, util::ByteView aad,
                   util::ByteView plaintext) override;
  std::optional<util::Bytes> open(std::uint64_t seq, util::ByteView aad,
                                  util::ByteView sealed) override;
};

/// ChaCha20-Poly1305 sealer. Output is byte-identical to
/// crypto::chapoly_seal (ciphertext || 16-byte tag) with the nonce derived
/// from `seq`; the append path seals in place in the caller's buffer and
/// streams the MAC, so a steady-state seal performs zero heap allocations.
class ChaPolySealer final : public Sealer {
 public:
  explicit ChaPolySealer(crypto::ChaChaKey key);

  std::size_t overhead() const override { return 16; }
  bool sealing() const override { return true; }
  void seal_append(util::Bytes& out, std::uint64_t seq, util::ByteView aad,
                   util::ByteView plaintext) override;
  std::optional<util::Bytes> open(std::uint64_t seq, util::ByteView aad,
                                  util::ByteView sealed) override;

  static crypto::ChaChaNonce nonce_for(std::uint64_t seq);

 private:
  crypto::ChaChaKey key_;
};

std::unique_ptr<Sealer> make_null_sealer();
std::unique_ptr<Sealer> make_chapoly_sealer(const crypto::ChaChaKey& key);

}  // namespace bento::store
