// Bento wire protocol, spoken over Tor streams between a Bento client and
// a Bento server (paper §5.2-5.3).
//
// Transport: Tor streams deliver byte chunks (the stream layer re-chunks
// into 498-byte cells), so messages are framed as u32 length + body; the
// StreamFramer reassembles. Message bodies are typed unions serialized
// with the repo's big-endian Writer/Reader.
//
// Handshake messages carry the attested secure-channel material when the
// python-op-sgx image is used; upload bodies then travel sealed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/serialize.hpp"

namespace bento::core {

enum class MsgType : std::uint8_t {
  // Client -> server.
  GetPolicy = 1,
  Spawn = 2,        // image name [+ channel hello for SGX image]
  Upload = 3,       // container id + (sealed) {source, manifest, args}
  Invoke = 4,       // invocation token + payload
  Shutdown = 5,     // shutdown token
  // Server -> client.
  PolicyReply = 16,
  SpawnReply = 17,  // container id [+ channel accept + stapled IAS report]
  UploadReply = 18, // (sealed) token pair
  Output = 19,      // function output payload
  Ok = 20,
  Error = 21,
};

struct Message {
  MsgType type = MsgType::Ok;
  std::uint64_t container_id = 0;
  std::string text;        // image name / error text
  util::Bytes blob;        // main payload (policy, sealed upload, output...)
  util::Bytes blob2;       // secondary (channel hello/accept, IAS report)
  util::Bytes token;       // invocation/shutdown token

  util::Bytes serialize() const;
  static Message deserialize(util::ByteView data);
  /// Exact length of serialize()'s output.
  std::size_t serialized_size() const;
  /// Writes the serialize() bytes into `w`.
  void write_to(util::Writer& w) const;
};

/// Length-prefixed framing over a byte stream.
class StreamFramer {
 public:
  /// Encodes one message as a frame.
  static util::Bytes frame(const Message& msg);

  /// Feeds received bytes; returns every completed message.
  std::vector<Message> feed(util::ByteView data);

 private:
  util::Bytes buffer_;
};

/// Payload of an Upload message (sealed when a secure channel is active).
struct UploadBody {
  util::Bytes manifest;  // FunctionManifest::serialize()
  std::string source;    // BentoScript source ("" for native functions)
  std::string native;    // registered native function name ("" for script)
  util::Bytes args;      // opaque install arguments handed to the function

  util::Bytes serialize() const;
  static UploadBody deserialize(util::ByteView data);
};

/// Payload of an UploadReply (sealed when a secure channel is active).
struct UploadReplyBody {
  util::Bytes invocation_token;
  util::Bytes shutdown_token;

  util::Bytes serialize() const;
  static UploadReplyBody deserialize(util::ByteView data);
};

}  // namespace bento::core
