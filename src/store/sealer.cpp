#include "store/sealer.hpp"

#include <span>

#include "crypto/poly1305.hpp"
#include "util/annotations.hpp"

namespace bento::store {

void NullSealer::seal_append(util::Bytes& out, std::uint64_t /*seq*/,
                             util::ByteView /*aad*/, util::ByteView plaintext) {
  out.insert(out.end(), plaintext.begin(),
             plaintext.end());  // bentolint: allow(BL102 amortized by segment reserve)
}

std::optional<util::Bytes> NullSealer::open(std::uint64_t /*seq*/,
                                            util::ByteView /*aad*/,
                                            util::ByteView sealed) {
  return util::Bytes(sealed.begin(), sealed.end());
}

ChaPolySealer::ChaPolySealer(crypto::ChaChaKey key) : key_(key) {}

crypto::ChaChaNonce ChaPolySealer::nonce_for(std::uint64_t seq) {
  crypto::ChaChaNonce nonce{};
  for (int i = 0; i < 8; ++i) {
    nonce[4 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return nonce;
}

// Byte-identical to crypto::chapoly_seal (the store test asserts it): the
// plaintext is copied once, into the caller's reserved buffer, and sealed
// there in place.
BENTO_HOT void ChaPolySealer::seal_append(util::Bytes& out, std::uint64_t seq,
                                          util::ByteView aad,
                                          util::ByteView plaintext) {
  const std::size_t base = out.size();
  // bentolint: allow(BL102 amortized by segment reserve)
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  const crypto::Poly1305Tag tag = crypto::chapoly_seal_inplace(
      key_, nonce_for(seq), aad, std::span<std::uint8_t>(out.data() + base, plaintext.size()));
  // bentolint: allow(BL102 amortized by segment reserve)
  out.insert(out.end(), tag.begin(), tag.end());
}

std::optional<util::Bytes> ChaPolySealer::open(std::uint64_t seq,
                                               util::ByteView aad,
                                               util::ByteView sealed) {
  return crypto::chapoly_open(key_, nonce_for(seq), aad, sealed);
}

std::unique_ptr<Sealer> make_null_sealer() { return std::make_unique<NullSealer>(); }

std::unique_ptr<Sealer> make_chapoly_sealer(const crypto::ChaChaKey& key) {
  return std::make_unique<ChaPolySealer>(key);
}

}  // namespace bento::store
