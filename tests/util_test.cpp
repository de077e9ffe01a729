#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/time.hpp"

namespace bu = bento::util;

TEST(Bytes, HexRoundTrip) {
  bu::Bytes b = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x7f};
  EXPECT_EQ(bu::to_hex(b), "deadbeef007f");
  EXPECT_EQ(bu::from_hex("deadbeef007f"), b);
  EXPECT_EQ(bu::from_hex("DEADBEEF007F"), b);
}

TEST(Bytes, HexRejectsBadInput) {
  EXPECT_THROW(bu::from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(bu::from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, EmptyHex) {
  EXPECT_EQ(bu::to_hex({}), "");
  EXPECT_TRUE(bu::from_hex("").empty());
}

TEST(Bytes, Concat) {
  bu::Bytes a = bu::to_bytes("ab");
  bu::Bytes b = bu::to_bytes("cd");
  EXPECT_EQ(bu::to_string(bu::concat({a, b})), "abcd");
}

TEST(Bytes, CtEqual) {
  bu::Bytes a = bu::to_bytes("secret");
  bu::Bytes b = bu::to_bytes("secret");
  bu::Bytes c = bu::to_bytes("secreT");
  EXPECT_TRUE(bu::ct_equal(a, b));
  EXPECT_FALSE(bu::ct_equal(a, c));
  EXPECT_FALSE(bu::ct_equal(a, bu::to_bytes("secre")));
}

TEST(Bytes, XorBytes) {
  bu::Bytes a = {0xff, 0x00, 0x55};
  bu::Bytes b = {0x0f, 0xf0, 0x55};
  bu::Bytes want = {0xf0, 0xf0, 0x00};
  EXPECT_EQ(bu::xor_bytes(a, b), want);
  EXPECT_THROW(bu::xor_bytes(a, bu::Bytes{0x01}), std::invalid_argument);
}

TEST(Rng, Deterministic) {
  bu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  bu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds) {
  bu::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_EQ(r.uniform(5, 5), 5u);
  EXPECT_THROW(r.uniform(6, 5), std::invalid_argument);
}

TEST(Rng, Uniform01InRange) {
  bu::Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = r.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  bu::Rng r(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = r.gaussian(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, WeightedIndex) {
  bu::Rng r(13);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) counts[r.weighted_index(w)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
  EXPECT_THROW(r.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(r.weighted_index({-1.0, 2.0}), std::invalid_argument);
}

TEST(Rng, BytesLengthAndDeterminism) {
  bu::Rng a(99), b(99);
  EXPECT_EQ(a.bytes(33).size(), 33u);
  bu::Rng c(99);
  EXPECT_EQ(b.bytes(10), c.bytes(10));
}

TEST(Rng, ForkIndependent) {
  bu::Rng a(5);
  bu::Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Serialize, IntsRoundTrip) {
  bu::Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0102030405060708ULL);
  bu::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, BigEndianLayout) {
  bu::Writer w;
  w.u16(0x0102);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(Serialize, BlobAndString) {
  bu::Writer w;
  w.blob(bu::to_bytes("hello"));
  w.str("world!");
  bu::Reader r(w.data());
  EXPECT_EQ(bu::to_string(r.blob()), "hello");
  EXPECT_EQ(r.str(), "world!");
  r.expect_done();
}

TEST(Serialize, TruncatedThrows) {
  bu::Writer w;
  w.u32(7);
  bu::Reader r(w.data());
  r.u16();
  EXPECT_THROW(r.u32(), bu::ParseError);
}

TEST(Serialize, TrailingBytesDetected) {
  bu::Writer w;
  w.u8(1);
  w.u8(2);
  bu::Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_done(), bu::ParseError);
}

TEST(Serialize, VarintRoundTrip) {
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                                  0xffffffffULL, UINT64_MAX};
  for (auto v : values) {
    bu::Writer w;
    w.varint(v);
    bu::Reader r(w.data());
    EXPECT_EQ(r.varint(), v) << v;
    EXPECT_TRUE(r.done());
  }
}

TEST(Time, Arithmetic) {
  using bu::Duration;
  using bu::Time;
  Time t = Time::from_seconds(1.5);
  t = t + Duration::millis(500);
  EXPECT_EQ(t.micros(), 2'000'000);
  EXPECT_DOUBLE_EQ((t - Time::from_micros(0)).to_seconds(), 2.0);
  EXPECT_LT(Time::from_seconds(1), Time::from_seconds(2));
  EXPECT_EQ((Duration::seconds(2) * 0.5).count_micros(), 1'000'000);
}

// ---- util/json: the telemetry codec ----

namespace {
/// One object {"s": value} written by the Writer.
std::string json_doc(std::string_view value) {
  std::ostringstream os;
  bu::json::Writer(os).begin_object().field("s", value).end_object();
  return os.str();
}
}  // namespace

TEST(Json, EveryControlCharacterRoundTrips) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\/ plain \x7f caf\xc3\xa9";
  const std::string doc = json_doc(all);
  EXPECT_NE(doc.find(R"(\u0000\u0001)"), std::string::npos) << doc;
  EXPECT_NE(doc.find(R"(\u0008\t\n\u000b\u000c\r)"), std::string::npos) << doc;
  std::string back;
  bu::json::Reader r(doc);
  ASSERT_TRUE(r.fields({"s"}, back) && r.finish()) << doc;
  EXPECT_EQ(back, all);
}

TEST(Json, ReaderDecodesEveryEscape) {
  std::string s;
  bu::json::Reader r(R"({"s":"\"\\\/\b\f\n\r\t\u0041\u00e9\u20ac\ud83d\ude00"})");
  ASSERT_TRUE(r.fields({"s"}, s) && r.finish());
  EXPECT_EQ(s, "\"\\/\b\f\n\r\tA\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  for (const char* bad : {R"(["\x"])", R"(["\u12"])", R"(["\ud83d"])", R"(["\ude00"])",
                          "[\"\x01\"]", "[\"\xc0\xaf\"]", "[\"\xed\xa0\x80\"]", "[\"\xff\"]"}) {
    EXPECT_FALSE(bu::json::valid(bad)) << bad;
  }
}

TEST(Json, IntegerExtremesRoundTrip) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  std::ostringstream os;
  bu::json::Writer(os).begin_object().field("i", kMin).field("u", kMax).end_object();
  const std::string doc = os.str();
  EXPECT_EQ(doc, R"({"i":-9223372036854775808,"u":18446744073709551615})");
  std::int64_t i = 0;
  std::uint64_t u = 0;
  bu::json::Reader r(doc);
  ASSERT_TRUE(r.fields({"i", "u"}, i, u) && r.finish());
  EXPECT_EQ(i, kMin);
  EXPECT_EQ(u, kMax);

  const auto read_u64 = [](std::string_view doc) {
    std::uint64_t v = 0;
    bu::json::Reader rd(doc);
    return rd.fields({"u"}, v) && rd.finish();
  };
  EXPECT_FALSE(read_u64(R"({"u":-1})"));                    // negative, unsigned field
  EXPECT_FALSE(read_u64(R"({"u":18446744073709551616})"));  // one past the top
  EXPECT_FALSE(read_u64(R"({"u":1.5})"));
  EXPECT_FALSE(read_u64(R"({"u":1e3})"));
  EXPECT_FALSE(read_u64(R"({"u":01})"));
  EXPECT_TRUE(read_u64(R"( { "u" : 0 } )"));
  std::uint32_t narrow = 0;
  bu::json::Reader r32(R"({"a":4294967296})");
  EXPECT_FALSE(r32.fields({"a"}, narrow));
}

TEST(Json, TruncatedInputAndTrailingGarbageAreRefused) {
  const std::string doc = R"({"ts":1,"ev":"span.begin","a":7,"b":3,"ok":1})";
  ASSERT_TRUE(bu::json::valid(doc));
  for (std::size_t n = 0; n < doc.size(); ++n) {
    EXPECT_FALSE(bu::json::valid(doc.substr(0, n))) << n;
  }
  for (const char* tail : {"x", "}", ",", " 1", "{}", "\"\""}) {
    EXPECT_FALSE(bu::json::valid(doc + tail)) << tail;
  }
  EXPECT_TRUE(bu::json::valid(doc + " \n\t\r"));
  for (const char* bad : {"", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "[1 2]", "nul", "tru", "-",
                          "1.", ".5", "1e", "+1", "{a:1}", "['a']", "[1]]"}) {
    EXPECT_FALSE(bu::json::valid(bad)) << bad;
  }
  for (const char* good : {"0", "-0.5e+3", "\"\"", "[]", "{}", "[true,false,null]",
                           R"({"a":[{"b":{}}],"c":"d"})"}) {
    EXPECT_TRUE(bu::json::valid(good)) << good;
  }
}

TEST(Json, FieldsWantsEveryScalarMemberAndNoOther) {
  int a = 0;
  int b = 0;
  bu::json::Reader missing(R"({"a":1})");
  EXPECT_FALSE(missing.fields({"a", "b"}, a, b));
  bu::json::Reader extra(R"({"a":1,"b":2,"c":3})");
  EXPECT_FALSE(extra.fields({"a", "b"}, a, b));
  bu::json::Reader reordered(R"({"b":2,"a":1})");
  ASSERT_TRUE(reordered.fields({"a", "b"}, a, b) && reordered.finish());
  EXPECT_EQ(a * 10 + b, 12);
}

TEST(Json, MillionDeepNestingIsRefusedWithoutRecursion) {
  EXPECT_FALSE(bu::json::valid(std::string(1'000'000, '[')));
  EXPECT_FALSE(bu::json::valid(std::string(1'000'000, '[') + std::string(1'000'000, ']')));
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += R"({"k":)";
  EXPECT_FALSE(bu::json::valid(objects));
  const std::string at_limit = std::string(bu::json::kMaxDepth, '[') +
                               std::string(bu::json::kMaxDepth, ']');
  EXPECT_TRUE(bu::json::valid(at_limit));
  EXPECT_FALSE(bu::json::valid("[" + at_limit + "]"));
}

TEST(Json, WriterPlacesCommasAndLineBreaks) {
  std::ostringstream os;
  bu::json::Writer w(os);
  w.begin_object().field("n", 2.5).field("i", 3.0).field("x", 1.0 / 0.0).key("e");
  w.begin_array(/*lines=*/true).begin_array().end_array().value(true).null().end_array();
  w.key("o").begin_object().end_object().end_object();
  EXPECT_EQ(os.str(), "{\"n\":2.500,\"i\":3,\"x\":null,\"e\":[\n[],\ntrue,\nnull\n],\"o\":{}}");
}
