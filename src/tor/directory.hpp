// Directory subsystem: relay descriptors, the signed network consensus, and
// the hidden-service descriptor store (HSDir).
//
// Relays upload self-signed descriptors; the directory authority verifies
// them and periodically emits a consensus signed with its own key, which
// clients verify before using. Bento middlebox-node policies piggyback on
// descriptors exactly as the paper proposes for dissemination (§5.5).
//
// Simplification (documented in DESIGN.md): directory traffic is exchanged
// by direct calls rather than over the simulated wire — it is not part of
// any measured path in the paper's evaluation.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/sign.hpp"
#include "sim/network.hpp"
#include "tor/address.hpp"
#include "tor/exitpolicy.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace bento::tor {

struct RelayFlags {
  bool guard = false;
  bool exit = false;
  bool fast = true;
  bool stable = true;
  bool hsdir = false;
  bool bento = false;  // advertises a Bento server (paper §5)

  std::uint8_t pack() const;
  static RelayFlags unpack(std::uint8_t bits);
};

struct RelayDescriptor {
  std::string nickname;
  crypto::Gp identity_key = 0;  // long-term signing key
  crypto::Gp onion_key = 0;     // ntor handshake key
  Addr addr = 0;
  Port or_port = 9001;
  sim::NodeId node = sim::kInvalidNode;  // simulator routing address
  double bandwidth = 1e6;                // consensus weight, bytes/sec
  RelayFlags flags;
  ExitPolicy exit_policy;
  util::Bytes bento_policy;  // serialized middlebox node policy, may be empty
  crypto::Signature signature;

  /// Canonical bytes covered by the signature.
  util::Bytes signed_body() const;
  util::Bytes serialize() const;
  static RelayDescriptor deserialize(util::ByteView data);

  /// Identity-key fingerprint (hex) — the relay's stable name.
  std::string fingerprint() const;

  /// Signs with the matching identity key.
  void sign(const crypto::SigningKey& identity);
  bool verify() const;
};

/// A relay's identity key with its fingerprint, as hashed when the
/// consensus was made (see Consensus::fingerprints).
struct IndexedFingerprint {
  crypto::Gp identity_key = 0;
  std::array<char, crypto::kFingerprintLen> fingerprint{};
};
using FingerprintIndex = std::vector<IndexedFingerprint>;

struct Consensus {
  util::Time valid_after;
  std::vector<RelayDescriptor> relays;
  crypto::Gp authority_key = 0;
  crypto::Signature signature;
  /// relays[i]'s key and fingerprint for each i, set by make_consensus and
  /// shared by every copy, so that find() compares names instead of hashing
  /// every relay per lookup. Not signed: find() uses entry i only while its
  /// key is still relays[i].identity_key, and hashes the relay otherwise.
  std::shared_ptr<const FingerprintIndex> fingerprints;

  util::Bytes signed_body() const;
  bool verify(crypto::Gp expected_authority) const;

  const RelayDescriptor* find(const std::string& fingerprint) const;
};

/// Hidden-service descriptor (v2-style, paper §2.1).
struct HsDescriptor {
  std::string onion_id;                   // fingerprint of service_pub
  crypto::Gp service_pub = 0;             // service identity (signing) key
  crypto::Gp service_ntor_pub = 0;        // key for the client<->service handshake
  std::vector<std::string> intro_points;  // relay fingerprints
  crypto::Signature signature;

  util::Bytes signed_body() const;
  void sign(const crypto::SigningKey& service_key);
  bool verify() const;
};

/// The directory authority plus HSDir store.
class DirectoryAuthority {
 public:
  explicit DirectoryAuthority(util::Rng& rng);

  crypto::Gp authority_key() const { return key_.public_key(); }

  /// Accepts a relay descriptor; throws std::invalid_argument if the
  /// self-signature is invalid.
  void upload(const RelayDescriptor& descriptor);

  /// Builds and signs a fresh consensus from the uploaded descriptors.
  Consensus make_consensus(util::Time now) const;

  /// HSDir: publish/fetch. Publishing verifies the descriptor signature and
  /// that onion_id matches the service key.
  void publish_hs(const HsDescriptor& descriptor);
  std::optional<HsDescriptor> fetch_hs(const std::string& onion_id) const;

  std::size_t relay_count() const { return descriptors_.size(); }

 private:
  crypto::SigningKey key_;
  std::map<std::string, RelayDescriptor> descriptors_;  // by fingerprint
  std::map<std::string, HsDescriptor> hs_store_;
};

}  // namespace bento::tor
