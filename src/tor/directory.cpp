#include "tor/directory.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/serialize.hpp"

namespace bento::tor {

std::uint8_t RelayFlags::pack() const {
  std::uint8_t bits = 0;
  if (guard) bits |= 1;
  if (exit) bits |= 2;
  if (fast) bits |= 4;
  if (stable) bits |= 8;
  if (hsdir) bits |= 16;
  if (bento) bits |= 32;
  return bits;
}

RelayFlags RelayFlags::unpack(std::uint8_t bits) {
  RelayFlags f;
  f.guard = bits & 1;
  f.exit = bits & 2;
  f.fast = bits & 4;
  f.stable = bits & 8;
  f.hsdir = bits & 16;
  f.bento = bits & 32;
  return f;
}

util::Bytes RelayDescriptor::signed_body() const {
  util::Writer w;
  w.str(nickname);
  w.raw(crypto::gp_to_bytes(identity_key));
  w.raw(crypto::gp_to_bytes(onion_key));
  w.u32(addr);
  w.u16(or_port);
  w.u32(node);
  w.u64(static_cast<std::uint64_t>(bandwidth));
  w.u8(flags.pack());
  w.blob(exit_policy.serialize());
  w.blob(bento_policy);
  return std::move(w).take();
}

util::Bytes RelayDescriptor::serialize() const {
  util::Writer w;
  w.blob(signed_body());
  w.raw(signature.to_bytes());
  return std::move(w).take();
}

RelayDescriptor RelayDescriptor::deserialize(util::ByteView data) {
  util::Reader outer(data);
  const util::Bytes body = outer.blob();
  const util::Bytes sig_bytes = outer.raw(2 * crypto::kGpBytes);
  outer.expect_done();

  util::Reader r(body);
  RelayDescriptor d;
  d.nickname = r.str();
  d.identity_key = crypto::gp_from_bytes(r.raw(crypto::kGpBytes));
  d.onion_key = crypto::gp_from_bytes(r.raw(crypto::kGpBytes));
  d.addr = r.u32();
  d.or_port = r.u16();
  d.node = r.u32();
  d.bandwidth = static_cast<double>(r.u64());
  d.flags = RelayFlags::unpack(r.u8());
  d.exit_policy = ExitPolicy::deserialize(r.blob());
  d.bento_policy = r.blob();
  r.expect_done();
  d.signature = crypto::Signature::from_bytes(sig_bytes);
  return d;
}

std::string RelayDescriptor::fingerprint() const {
  return crypto::key_fingerprint(identity_key);
}

void RelayDescriptor::sign(const crypto::SigningKey& identity) {
  if (identity.public_key() != identity_key) {
    throw std::invalid_argument("RelayDescriptor::sign: key mismatch");
  }
  signature = identity.sign(signed_body());
}

bool RelayDescriptor::verify() const {
  return crypto::verify(identity_key, signed_body(), signature);
}

util::Bytes Consensus::signed_body() const {
  util::Writer w;
  w.u64(static_cast<std::uint64_t>(valid_after.micros()));
  w.u32(static_cast<std::uint32_t>(relays.size()));
  for (const auto& rel : relays) w.blob(rel.serialize());
  return std::move(w).take();
}

bool Consensus::verify(crypto::Gp expected_authority) const {
  if (authority_key != expected_authority) return false;
  if (!crypto::verify(authority_key, signed_body(), signature)) return false;
  for (const auto& rel : relays) {
    if (!rel.verify()) return false;
  }
  return true;
}

const RelayDescriptor* Consensus::find(const std::string& fingerprint) const {
  const std::size_t indexed = fingerprints == nullptr ? 0 : fingerprints->size();
  for (std::size_t i = 0; i < relays.size(); ++i) {
    const RelayDescriptor& rel = relays[i];
    if (i < indexed && (*fingerprints)[i].identity_key == rel.identity_key) {
      const auto& fp = (*fingerprints)[i].fingerprint;
      if (std::string_view(fp.data(), fp.size()) == fingerprint) return &rel;
    } else if (rel.fingerprint() == fingerprint) {
      return &rel;
    }
  }
  return nullptr;
}

util::Bytes HsDescriptor::signed_body() const {
  util::Writer w;
  w.str(onion_id);
  w.raw(crypto::gp_to_bytes(service_pub));
  w.raw(crypto::gp_to_bytes(service_ntor_pub));
  w.u32(static_cast<std::uint32_t>(intro_points.size()));
  for (const auto& ip : intro_points) w.str(ip);
  return std::move(w).take();
}

void HsDescriptor::sign(const crypto::SigningKey& service_key) {
  if (service_key.public_key() != service_pub) {
    throw std::invalid_argument("HsDescriptor::sign: key mismatch");
  }
  signature = service_key.sign(signed_body());
}

bool HsDescriptor::verify() const {
  if (onion_id != crypto::key_fingerprint(service_pub)) return false;
  return crypto::verify(service_pub, signed_body(), signature);
}

DirectoryAuthority::DirectoryAuthority(util::Rng& rng)
    : key_(crypto::SigningKey::generate(rng)) {}

void DirectoryAuthority::upload(const RelayDescriptor& descriptor) {
  if (!descriptor.verify()) {
    throw std::invalid_argument("DirectoryAuthority: bad descriptor signature");
  }
  descriptors_[descriptor.fingerprint()] = descriptor;
}

Consensus DirectoryAuthority::make_consensus(util::Time now) const {
  Consensus c;
  c.valid_after = now;
  auto fingerprints = std::make_shared<FingerprintIndex>();
  c.relays.reserve(descriptors_.size());
  fingerprints->reserve(descriptors_.size());
  for (const auto& [fp, d] : descriptors_) {
    c.relays.push_back(d);
    IndexedFingerprint& entry = fingerprints->emplace_back();
    entry.identity_key = d.identity_key;
    std::copy_n(fp.begin(), entry.fingerprint.size(), entry.fingerprint.begin());
  }
  c.fingerprints = std::move(fingerprints);
  c.authority_key = key_.public_key();
  c.signature = key_.sign(c.signed_body());
  return c;
}

void DirectoryAuthority::publish_hs(const HsDescriptor& descriptor) {
  if (!descriptor.verify()) {
    throw std::invalid_argument("DirectoryAuthority: bad HS descriptor");
  }
  hs_store_[descriptor.onion_id] = descriptor;
}

std::optional<HsDescriptor> DirectoryAuthority::fetch_hs(
    const std::string& onion_id) const {
  auto it = hs_store_.find(onion_id);
  if (it == hs_store_.end()) return std::nullopt;
  return it->second;
}

}  // namespace bento::tor
