#include "crypto/hmac.hpp"

#include <algorithm>
#include <stdexcept>

namespace bento::crypto {

namespace {
constexpr std::size_t kMaxExpand = 255 * 32;
}  // namespace

HmacKey::HmacKey(util::ByteView key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    const Digest kd = sha256(key);
    std::copy(kd.begin(), kd.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  for (auto& b : block) b ^= 0x36;
  inner_.update(block);
  for (auto& b : block) b ^= 0x36 ^ 0x5c;
  outer_.update(block);
}

Digest HmacKey::mac(util::ByteView message) const {
  return mac(std::span<const util::ByteView>(&message, 1));
}

Digest HmacKey::mac(std::span<const util::ByteView> parts) const {
  Sha256 inner = inner_;
  Sha256 outer = outer_;
  for (const util::ByteView part : parts) inner.update(part);
  outer.update(inner.finish());
  return outer.finish();
}

Digest hmac_sha256(util::ByteView key, util::ByteView message) {
  return HmacKey(key).mac(message);
}

Digest hkdf_extract(util::ByteView salt, util::ByteView ikm) {
  if (!salt.empty()) return HmacKey(salt).mac(ikm);
  // RFC 5869's default salt, HashLen zero bytes, pads to the same block as
  // an empty key.
  static const HmacKey empty_salt{util::ByteView{}};
  return empty_salt.mac(ikm);
}

void hkdf_expand(const HmacKey& prk, util::ByteView info, std::span<std::uint8_t> out) {
  if (out.size() > kMaxExpand) throw std::invalid_argument("hkdf_expand: too long");
  // T(i) = HMAC(PRK, T(i-1) | info | i), with T(0) empty.
  Digest t{};
  std::uint8_t counter = 1;
  for (std::size_t off = 0; off < out.size(); off += t.size(), ++counter) {
    const util::ByteView parts[] = {util::ByteView(t.data(), off == 0 ? 0 : t.size()), info,
                                    util::ByteView(&counter, 1)};
    t = prk.mac(parts);
    std::copy_n(t.begin(), std::min(t.size(), out.size() - off), out.begin() + off);
  }
}

util::Bytes hkdf_expand(const Digest& prk, util::ByteView info, std::size_t length) {
  if (length > kMaxExpand) throw std::invalid_argument("hkdf_expand: too long");
  util::Bytes out(length);
  hkdf_expand(HmacKey(prk), info, out);
  return out;
}

util::Bytes hkdf(util::ByteView ikm, util::ByteView salt, std::string_view info,
                 std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), util::as_byte_view(info), length);
}

}  // namespace bento::crypto
