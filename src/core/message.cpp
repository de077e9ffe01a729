#include "core/message.hpp"

namespace bento::core {

std::size_t Message::serialized_size() const {
  // type, container id, then four u32-length-prefixed fields.
  return 1 + 8 + 4 * 4 + text.size() + blob.size() + blob2.size() + token.size();
}

void Message::write_to(util::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(container_id);
  w.str(text);
  w.blob(blob);
  w.blob(blob2);
  w.blob(token);
}

util::Bytes Message::serialize() const {
  util::Writer w;
  w.reserve(serialized_size());
  write_to(w);
  return std::move(w).take();
}

Message Message::deserialize(util::ByteView data) {
  util::Reader r(data);
  Message m;
  m.type = static_cast<MsgType>(r.u8());
  m.container_id = r.u64();
  m.text = r.str();
  m.blob = r.blob();
  m.blob2 = r.blob();
  m.token = r.blob();
  r.expect_done();
  return m;
}

util::Bytes StreamFramer::frame(const Message& msg) {
  // Length prefix and body in one buffer, allocated once at its exact size.
  const std::size_t len = msg.serialized_size();
  util::Writer w;
  w.reserve(4 + len);
  w.u32(static_cast<std::uint32_t>(len));
  msg.write_to(w);
  return std::move(w).take();
}

std::vector<Message> StreamFramer::feed(util::ByteView data) {
  util::append(buffer_, data);
  std::vector<Message> out;
  std::size_t consumed = 0;
  while (buffer_.size() - consumed >= 4) {
    util::Reader header(util::ByteView(buffer_.data() + consumed, 4));
    const std::uint32_t len = header.u32();
    if (buffer_.size() - consumed - 4 < len) break;
    out.push_back(Message::deserialize(
        util::ByteView(buffer_.data() + consumed + 4, len)));
    consumed += 4 + len;
  }
  if (consumed > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return out;
}

util::Bytes UploadBody::serialize() const {
  util::Writer w;
  w.blob(manifest);
  w.str(source);
  w.str(native);
  w.blob(args);
  return std::move(w).take();
}

UploadBody UploadBody::deserialize(util::ByteView data) {
  util::Reader r(data);
  UploadBody b;
  b.manifest = r.blob();
  b.source = r.str();
  b.native = r.str();
  b.args = r.blob();
  r.expect_done();
  return b;
}

util::Bytes UploadReplyBody::serialize() const {
  util::Writer w;
  w.blob(invocation_token);
  w.blob(shutdown_token);
  return std::move(w).take();
}

UploadReplyBody UploadReplyBody::deserialize(util::ByteView data) {
  util::Reader r(data);
  UploadReplyBody b;
  b.invocation_token = r.blob();
  b.shutdown_token = r.blob();
  r.expect_done();
  return b;
}

}  // namespace bento::core
