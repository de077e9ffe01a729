#include "tor/ntor.hpp"

#include <stdexcept>

#include "crypto/hmac.hpp"

namespace bento::tor {

namespace {
constexpr std::string_view kKeyLabel = "bento-ntor-keys";
constexpr std::string_view kVerifyLabel = "bento-ntor-verify";

struct HandshakeOutput {
  LayerKeys keys;
  crypto::Digest auth;
};

// One HKDF extract per handshake: the hop keys and the verify key both
// expand from PRK = HKDF-Extract({}, EXP(.,y) || EXP(.,b) || ID), which is
// byte-identical to one extract-then-expand per label.
HandshakeOutput derive(util::ByteView ee, util::ByteView es, crypto::Gp x_pub, crypto::Gp y_pub,
                       crypto::Gp onion_pub, crypto::Gp identity) {
  const util::Bytes secret = util::concat({ee, es, crypto::gp_to_bytes(identity)});
  const crypto::HmacKey prk(crypto::hkdf_extract({}, secret));
  crypto::Digest verify_key;
  crypto::hkdf_expand(prk, util::as_byte_view(kVerifyLabel), verify_key);
  const util::Bytes transcript =
      util::concat({crypto::gp_to_bytes(x_pub), crypto::gp_to_bytes(y_pub),
                    crypto::gp_to_bytes(onion_pub), crypto::gp_to_bytes(identity)});
  return {LayerKeys::expand(prk, kKeyLabel), crypto::hmac_sha256(verify_key, transcript)};
}
}  // namespace

util::Bytes ntor_client_create(NtorClientState& state, crypto::Gp relay_onion_pub,
                               crypto::Gp relay_identity, util::Rng& rng) {
  state.ephemeral = crypto::DhKeyPair::generate(rng);
  state.relay_onion_pub = relay_onion_pub;
  state.relay_identity = relay_identity;
  return crypto::gp_to_bytes(state.ephemeral.public_value);
}

NtorServerReply ntor_server_respond(const crypto::DhKeyPair& onion_key,
                                    crypto::Gp identity_pub,
                                    util::ByteView onion_skin, util::Rng& rng) {
  if (onion_skin.size() != kNtorOnionSkinLen) {
    throw std::invalid_argument("ntor: bad onion skin length");
  }
  const crypto::Gp x_pub = crypto::gp_from_bytes(onion_skin);
  const crypto::DhKeyPair eph = crypto::DhKeyPair::generate(rng);

  const util::Bytes ee = crypto::dh_shared(eph, x_pub);        // EXP(X,y)
  const util::Bytes es = crypto::dh_shared(onion_key, x_pub);  // EXP(X,b)
  const HandshakeOutput out =
      derive(ee, es, x_pub, eph.public_value, onion_key.public_value, identity_pub);

  NtorServerReply reply;
  reply.keys = out.keys;
  reply.created_payload = crypto::gp_to_bytes(eph.public_value);
  util::append(reply.created_payload, out.auth);
  return reply;
}

std::optional<LayerKeys> ntor_client_finish(const NtorClientState& state,
                                            util::ByteView created_payload) {
  if (created_payload.size() != kNtorReplyLen) return std::nullopt;
  crypto::Gp y_pub = 0;
  try {
    y_pub = crypto::gp_from_bytes(created_payload.first(crypto::kGpBytes));
    if (y_pub <= 1 || y_pub >= crypto::group_prime()) return std::nullopt;
    const util::Bytes ee = crypto::dh_shared(state.ephemeral, y_pub);
    const util::Bytes es = crypto::dh_shared(state.ephemeral, state.relay_onion_pub);
    const HandshakeOutput out = derive(ee, es, state.ephemeral.public_value, y_pub,
                                       state.relay_onion_pub, state.relay_identity);
    if (!util::ct_equal(created_payload.subspan(crypto::kGpBytes),
                        util::ByteView(out.auth.data(), out.auth.size()))) {
      return std::nullopt;
    }
    return out.keys;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

}  // namespace bento::tor
