#include "tor/relaycrypto.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "util/annotations.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace bento::tor {

namespace {
// Payload offsets of the relay header fields (see cell.hpp).
constexpr std::size_t kRecognizedOff = 1;
constexpr std::size_t kDigestOff = 5;

// Recognition outcomes on the per-cell hot path. A miss is normal for cells
// addressed to a later hop; a digest mismatch (recognized field zero but
// the running digest disagrees) is the signature of reordering/tampering.
struct RecognitionMetrics {
  obs::Counter hits = obs::registry().counter("tor.recognition.hits");
  obs::Counter misses = obs::registry().counter("tor.recognition.misses");
  obs::Counter digest_mismatches =
      obs::registry().counter("tor.recognition.digest_mismatches");
};
RecognitionMetrics& recognition_metrics() {
  static RecognitionMetrics m;
  return m;
}
}  // namespace

LayerKeys LayerKeys::derive(util::ByteView secret, std::string_view label) {
  const util::Bytes material = crypto::hkdf(secret, {}, label, 128);
  LayerKeys k;
  std::memcpy(k.kf.data(), material.data(), 32);
  std::memcpy(k.kb.data(), material.data() + 32, 32);
  std::memcpy(k.df.data(), material.data() + 64, 32);
  std::memcpy(k.db.data(), material.data() + 96, 32);
  return k;
}

LayerCrypto::LayerCrypto(const LayerKeys& keys)
    : fwd_cipher_(keys.kf, crypto::ChaChaNonce{}),
      bwd_cipher_(keys.kb, crypto::ChaChaNonce{}) {
  fwd_digest_.update(keys.df);
  bwd_digest_.update(keys.db);
}

BENTO_HOT void LayerCrypto::crypt_forward(std::array<std::uint8_t, kCellPayloadLen>& payload) {
  fwd_cipher_.process(payload);
}

BENTO_HOT void LayerCrypto::crypt_backward(std::array<std::uint8_t, kCellPayloadLen>& payload) {
  bwd_cipher_.process(payload);
}

BENTO_HOT void LayerCrypto::seal(crypto::Sha256& running,
                       std::array<std::uint8_t, kCellPayloadLen>& payload) {
  // Digest field must be zero while hashing.
  std::memset(payload.data() + kDigestOff, 0, 4);
  running.update(payload);
  // peek_digest finalizes into locals; no copy of the running state needed.
  const crypto::Digest d = running.peek_digest();
  std::memcpy(payload.data() + kDigestOff, d.data(), 4);
}

BENTO_HOT bool LayerCrypto::check(crypto::Sha256& running,
                        std::array<std::uint8_t, kCellPayloadLen>& payload) {
  RecognitionMetrics& metrics = recognition_metrics();
  // Cheap pre-check: recognized field must be zero.
  if (payload[kRecognizedOff] != 0 || payload[kRecognizedOff + 1] != 0) {
    metrics.misses.inc();
    return false;
  }
  std::uint8_t claimed[4];
  std::memcpy(claimed, payload.data() + kDigestOff, 4);
  std::memset(payload.data() + kDigestOff, 0, 4);

  // One copy only: the running state is advanced in place and the saved
  // copy restores it if the cell turns out not to be ours. Cells that reach
  // this point (recognized field zero) are nearly always ours, so the
  // commit costs no second copy.
  const crypto::Sha256 saved = running;
  running.update(payload);
  const crypto::Digest d = running.peek_digest();
  std::memcpy(payload.data() + kDigestOff, claimed, 4);
  if (std::memcmp(claimed, d.data(), 4) != 0) {
    // Not ours: payload and running state are both restored.
    running = saved;
    metrics.misses.inc();
    metrics.digest_mismatches.inc();
    // Formatting four hex bytes per unmatched cell would dominate the relay
    // loop; the fast predicate keeps it free unless someone turned Trace on.
    if (util::log_enabled(util::LogLevel::Trace)) {
      util::log(util::LogLevel::Trace, "tor.relaycrypto",
                "recognition digest mismatch: claimed ", util::to_hex({claimed, 4}),
                " computed ", util::to_hex({d.data(), 4}));
    }
    return false;
  }
  metrics.hits.inc();
  return true;
}

BENTO_HOT void LayerCrypto::seal_forward(std::array<std::uint8_t, kCellPayloadLen>& payload) {
  seal(fwd_digest_, payload);
}

BENTO_HOT void LayerCrypto::seal_backward(std::array<std::uint8_t, kCellPayloadLen>& payload) {
  seal(bwd_digest_, payload);
}

BENTO_HOT bool LayerCrypto::check_forward(std::array<std::uint8_t, kCellPayloadLen>& payload) {
  return check(fwd_digest_, payload);
}

BENTO_HOT bool LayerCrypto::check_backward(std::array<std::uint8_t, kCellPayloadLen>& payload) {
  return check(bwd_digest_, payload);
}

}  // namespace bento::tor
