// Core unit tests: tokens, policies/manifests, wire protocol, URL parsing.
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/message.hpp"
#include "core/policy.hpp"
#include "core/tokens.hpp"
#include "util/rng.hpp"

namespace bc = bento::core;
namespace bu = bento::util;
namespace sb = bento::sandbox;

TEST(Tokens, GenerateAndMatch) {
  bu::Rng rng(1);
  auto pair = bc::TokenPair::generate(rng);
  EXPECT_EQ(pair.invocation.bytes().size(), bc::kTokenLen);
  EXPECT_TRUE(pair.invocation.matches(pair.invocation));
  EXPECT_FALSE(pair.invocation.matches(pair.shutdown));
  EXPECT_TRUE(pair.shutdown.matches(pair.shutdown.bytes()));
}

TEST(Tokens, EmptyNeverMatches) {
  bc::Token empty;
  EXPECT_FALSE(empty.matches(empty));
  EXPECT_FALSE(empty.matches(bu::Bytes{}));
}

TEST(Tokens, FromBytesValidates) {
  bu::Rng rng(2);
  auto t = bc::Token::from_bytes(rng.bytes(bc::kTokenLen));
  EXPECT_EQ(t.hex().size(), 32u);
  EXPECT_THROW(bc::Token::from_bytes(rng.bytes(5)), std::invalid_argument);
}

TEST(Policy, SerializeRoundTrip) {
  auto p = bc::MiddleboxPolicy::permissive();
  p.max_per_function.memory_bytes = 123456;
  auto back = bc::MiddleboxPolicy::deserialize(p.serialize());
  EXPECT_EQ(back.max_per_function.memory_bytes, 123456u);
  EXPECT_EQ(back.allowed.allowed(), p.allowed.allowed());
  EXPECT_EQ(back.images, p.images);
}

TEST(Policy, PermissiveExcludesDangerousSyscalls) {
  auto p = bc::MiddleboxPolicy::permissive();
  EXPECT_FALSE(p.allowed.allows(sb::Syscall::Fork));
  EXPECT_FALSE(p.allowed.allows(sb::Syscall::Exec));
  EXPECT_TRUE(p.allowed.allows(sb::Syscall::FsWrite));
  EXPECT_TRUE(p.offers_image(bc::kImagePythonOpSgx));
}

TEST(Policy, NoStorageRefusesDisk) {
  auto p = bc::MiddleboxPolicy::no_storage();
  EXPECT_FALSE(p.allowed.allows(sb::Syscall::FsWrite));
  EXPECT_FALSE(p.allowed.allows(sb::Syscall::FsRead));
  EXPECT_EQ(p.max_per_function.disk_bytes, 0u);
}

TEST(Policy, AdmitChecksSyscallsResourcesImage) {
  auto policy = bc::MiddleboxPolicy::permissive();
  bc::FunctionManifest m;
  m.name = "f";
  m.required = {sb::Syscall::FsRead, sb::Syscall::Clock};
  m.resources = policy.max_per_function;
  EXPECT_TRUE(bc::admit(policy, m).admitted);

  auto forky = m;
  forky.required.push_back(sb::Syscall::Fork);
  auto d1 = bc::admit(policy, forky);
  EXPECT_FALSE(d1.admitted);
  EXPECT_NE(d1.reason.find("fork"), std::string::npos);

  auto hog = m;
  hog.resources.memory_bytes = policy.max_per_function.memory_bytes + 1;
  EXPECT_FALSE(bc::admit(policy, hog).admitted);

  auto weird = m;
  weird.image = "windows-3.1";
  EXPECT_FALSE(bc::admit(policy, weird).admitted);
}

TEST(Policy, ManifestSerializeRoundTrip) {
  bc::FunctionManifest m;
  m.name = "browser";
  m.required = {sb::Syscall::NetConnect, sb::Syscall::Random};
  m.image = bc::kImagePythonOpSgx;
  m.resources.disk_bytes = 42;
  auto back = bc::FunctionManifest::deserialize(m.serialize());
  EXPECT_EQ(back.name, "browser");
  EXPECT_EQ(back.required, m.required);
  EXPECT_EQ(back.image, bc::kImagePythonOpSgx);
  EXPECT_EQ(back.resources.disk_bytes, 42u);
  EXPECT_TRUE(back.filter().allows(sb::Syscall::NetConnect));
  EXPECT_FALSE(back.filter().allows(sb::Syscall::FsRead));
}

TEST(Policy, DeserializeRejectsGarbage) {
  EXPECT_THROW(bc::MiddleboxPolicy::deserialize(bu::Bytes(3)), bu::ParseError);
  bu::Bytes bad = bc::MiddleboxPolicy::permissive().serialize();
  bad[3] = 0xff;  // syscall count corrupted
  EXPECT_THROW(bc::MiddleboxPolicy::deserialize(bad), bu::ParseError);
}

TEST(Message, SerializeRoundTrip) {
  bc::Message m;
  m.type = bc::MsgType::Upload;
  m.container_id = 77;
  m.text = "python";
  m.blob = bu::to_bytes("payload");
  m.blob2 = bu::to_bytes("hello");
  m.token = bu::to_bytes("0123456789abcdef");
  auto back = bc::Message::deserialize(m.serialize());
  EXPECT_EQ(back.type, bc::MsgType::Upload);
  EXPECT_EQ(back.container_id, 77u);
  EXPECT_EQ(back.text, "python");
  EXPECT_EQ(back.blob, m.blob);
  EXPECT_EQ(back.blob2, m.blob2);
  EXPECT_EQ(back.token, m.token);
}

TEST(Message, FramerReassemblesSplits) {
  bc::Message m1;
  m1.type = bc::MsgType::Invoke;
  m1.blob = bu::Bytes(1000, 0x11);
  bc::Message m2;
  m2.type = bc::MsgType::Ok;

  bu::Bytes wire = bc::StreamFramer::frame(m1);
  bu::append(wire, bc::StreamFramer::frame(m2));

  bc::StreamFramer framer;
  std::vector<bc::Message> got;
  // Feed in awkward chunks (like 498-byte cells would).
  std::size_t off = 0;
  while (off < wire.size()) {
    const std::size_t n = std::min<std::size_t>(498, wire.size() - off);
    auto msgs = framer.feed(bu::ByteView(wire.data() + off, n));
    for (auto& msg : msgs) got.push_back(std::move(msg));
    off += n;
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, bc::MsgType::Invoke);
  EXPECT_EQ(got[0].blob.size(), 1000u);
  EXPECT_EQ(got[1].type, bc::MsgType::Ok);
}

// A frame is the u32 big-endian body length followed by serialize()'s
// bytes, built in one exactly-sized buffer.
TEST(Message, FrameIsLengthPrefixedSerializationAtExactSize) {
  bc::Message m;
  m.type = bc::MsgType::SpawnReply;
  m.container_id = 0x0102030405060708ULL;
  m.text = "python-op-sgx";
  m.blob = bu::Bytes(300, 0x5a);
  m.blob2 = bu::to_bytes("accept");
  m.token = bu::Bytes(32, 0x01);
  const bu::Bytes body = m.serialize();
  EXPECT_EQ(body.size(), m.serialized_size());
  const bu::Bytes wire = bc::StreamFramer::frame(m);
  ASSERT_EQ(wire.size(), 4 + body.size());
  EXPECT_EQ(wire.capacity(), wire.size());
  EXPECT_EQ(wire[0], static_cast<std::uint8_t>(body.size() >> 24));
  EXPECT_EQ(wire[1], static_cast<std::uint8_t>(body.size() >> 16));
  EXPECT_EQ(wire[2], static_cast<std::uint8_t>(body.size() >> 8));
  EXPECT_EQ(wire[3], static_cast<std::uint8_t>(body.size()));
  EXPECT_TRUE(std::equal(body.begin(), body.end(), wire.begin() + 4));
  EXPECT_EQ(bc::Message::deserialize(body).text, m.text);
}

TEST(Message, FramerHandlesByteAtATime) {
  bc::Message m;
  m.type = bc::MsgType::Output;
  m.blob = bu::to_bytes("tiny");
  bu::Bytes wire = bc::StreamFramer::frame(m);
  bc::StreamFramer framer;
  int count = 0;
  for (std::uint8_t b : wire) {
    auto msgs = framer.feed(bu::ByteView(&b, 1));
    count += static_cast<int>(msgs.size());
  }
  EXPECT_EQ(count, 1);
}

TEST(Message, UploadBodyRoundTrip) {
  bc::UploadBody b;
  b.manifest = bu::to_bytes("m");
  b.source = "def f():\n    pass\n";
  b.native = "loadbalancer";
  b.args = bu::to_bytes("{}");
  auto back = bc::UploadBody::deserialize(b.serialize());
  EXPECT_EQ(back.source, b.source);
  EXPECT_EQ(back.native, "loadbalancer");
  EXPECT_EQ(back.args, b.args);
}

TEST(ParseUrl, Variants) {
  auto u = bc::parse_url("http://93.184.216.34/index.html");
  EXPECT_EQ(u.endpoint.port, 80);
  EXPECT_EQ(u.path, "/index.html");

  auto v = bc::parse_url("http://10.0.0.1:8080");
  EXPECT_EQ(v.endpoint.port, 8080);
  EXPECT_EQ(v.path, "/");

  EXPECT_THROW(bc::parse_url("ftp://1.2.3.4/"), std::invalid_argument);
  EXPECT_THROW(bc::parse_url("http://1.2.3.4:99999/"), std::invalid_argument);
  EXPECT_THROW(bc::parse_url("http://nota.host/"), std::invalid_argument);
}

TEST(NativeRegistry, AddCreateHas) {
  struct Dummy : bc::Function {
    void on_install(bc::HostApi&, bu::ByteView) override {}
    void on_message(bc::HostApi&, bu::ByteView) override {}
  };
  bc::NativeRegistry reg;
  EXPECT_FALSE(reg.has("dummy"));
  reg.add("dummy", [] { return std::make_unique<Dummy>(); });
  EXPECT_TRUE(reg.has("dummy"));
  EXPECT_NE(reg.create("dummy"), nullptr);
  EXPECT_THROW(reg.create("ghost"), std::invalid_argument);
}
