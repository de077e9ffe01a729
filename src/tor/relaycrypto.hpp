// Onion layer crypto for RELAY cells (tor-spec §5.5, §6.1).
//
// Each hop of a circuit shares LayerKeys with the origin, produced by the
// ntor handshake. Forward cells (origin -> exit) are encrypted by the origin
// once per hop, outermost layer last, and peeled one layer per relay.
// Backward cells accrete one layer per relay and are peeled by the origin.
//
// "Recognition" follows Tor: after removing a layer, a cell is for this hop
// iff the `recognized` field is zero AND the 4-byte digest matches a running
// SHA-256 over every relay payload exchanged with this hop (with the digest
// field zeroed). The running digest also provides in-order integrity: any
// reordering/tampering desynchronizes it permanently.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "tor/cell.hpp"
#include "util/bytes.hpp"

namespace bento::tor {

/// Key material for one hop, derived from the handshake shared secret.
struct LayerKeys {
  crypto::ChaChaKey kf{};  // forward cipher key
  crypto::ChaChaKey kb{};  // backward cipher key
  crypto::Digest df{};     // forward digest seed
  crypto::Digest db{};     // backward digest seed

  /// HKDF(secret, info=label) -> 128 bytes split into kf|kb|df|db.
  static LayerKeys derive(util::ByteView secret, std::string_view label);
  /// The same split of HKDF-Expand(prk, label), for a caller that expands
  /// more than one key from a single extract.
  static LayerKeys expand(const crypto::HmacKey& prk, std::string_view label);
};

/// Stateful per-hop crypto. The origin holds one per hop; the relay holds
/// one. Stream-cipher and digest state advance in lockstep on both sides
/// because every forward cell traverses (and is transformed by) every hop
/// before it, in order.
class LayerCrypto {
 public:
  explicit LayerCrypto(const LayerKeys& keys);

  /// XORs the forward keystream over a payload (encrypt at origin / peel at
  /// the relay — identical operation).
  void crypt_forward(std::array<std::uint8_t, kCellPayloadLen>& payload);
  /// Same for the backward direction.
  void crypt_backward(std::array<std::uint8_t, kCellPayloadLen>& payload);

  /// Origin, sending to this hop: writes the digest field of a payload whose
  /// digest bytes are currently zero, committing the running forward digest.
  void seal_forward(std::array<std::uint8_t, kCellPayloadLen>& payload);
  /// Relay, sending toward the origin: same for the backward digest.
  void seal_backward(std::array<std::uint8_t, kCellPayloadLen>& payload);

  /// Relay side: checks recognition of a just-peeled forward payload.
  /// Commits the running digest on success; leaves state untouched on
  /// failure (the cell belongs to a later hop).
  bool check_forward(std::array<std::uint8_t, kCellPayloadLen>& payload);
  /// Origin side: same for a backward payload.
  bool check_backward(std::array<std::uint8_t, kCellPayloadLen>& payload);

 private:
  static void seal(crypto::Sha256& running,
                   std::array<std::uint8_t, kCellPayloadLen>& payload);
  static bool check(crypto::Sha256& running,
                    std::array<std::uint8_t, kCellPayloadLen>& payload);

  crypto::ChaCha20 fwd_cipher_;
  crypto::ChaCha20 bwd_cipher_;
  crypto::Sha256 fwd_digest_;
  crypto::Sha256 bwd_digest_;
};

}  // namespace bento::tor
