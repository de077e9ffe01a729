// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//
// HKDF is the key-schedule workhorse: circuit hop keys, conclave channel
// keys, FS-Protect file keys, and sealing keys are all derived through it
// with distinct info labels.
#pragma once

#include <span>
#include <string_view>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace bento::crypto {

/// HMAC-SHA256 under one key. The ipad and opad blocks are hashed once, at
/// construction, into two midstates; each MAC copies them, so it costs the
/// message blocks plus one outer block and no key setup.
class HmacKey {
 public:
  explicit HmacKey(util::ByteView key);

  Digest mac(util::ByteView message) const;
  /// MAC of the concatenation of `parts`, without joining them.
  Digest mac(std::span<const util::ByteView> parts) const;

 private:
  Sha256 inner_;  // after key ^ ipad
  Sha256 outer_;  // after key ^ opad
};

/// HMAC-SHA256(key, message).
Digest hmac_sha256(util::ByteView key, util::ByteView message);

/// HKDF-Extract: PRK = HMAC(salt, ikm). An empty salt uses midstates built
/// once per process.
Digest hkdf_extract(util::ByteView salt, util::ByteView ikm);

/// HKDF-Expand of a keyed PRK into `out` (size <= 255*32), allocation-free.
/// Several expands from one PRK share its keyed midstates.
void hkdf_expand(const HmacKey& prk, util::ByteView info, std::span<std::uint8_t> out);

/// HKDF-Expand to `length` bytes (length <= 255*32).
util::Bytes hkdf_expand(const Digest& prk, util::ByteView info, std::size_t length);

/// Extract-then-expand convenience with a string label.
util::Bytes hkdf(util::ByteView ikm, util::ByteView salt, std::string_view info,
                 std::size_t length);

}  // namespace bento::crypto
