#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace bento::util::json {

namespace {

// Escapes read by name; the writer names the first five and writes every
// other control byte as \u00xx.
constexpr std::string_view kNamedRaw = "\"\\\n\t\r/\b\f";
constexpr std::string_view kNamedEsc = "\"\\ntr/bf";
constexpr std::size_t kWrittenByName = 5;

// Length of the well-formed UTF-8 sequence (RFC 3629) that starts with the
// non-ASCII byte at p; 0 when it is malformed.
std::size_t utf8_len(const char* p, const char* end) {
  const auto at = [&](std::size_t i) {
    return i < static_cast<std::size_t>(end - p) ? static_cast<unsigned char>(p[i]) : 0u;
  };
  const unsigned c = at(0);
  const std::size_t n = c >= 0xf0 ? 4 : c >= 0xe0 ? 3 : 2;
  const unsigned lo = c == 0xe0 ? 0xa0 : c == 0xf0 ? 0x90 : 0x80;  // no overlongs
  const unsigned hi = c == 0xed ? 0x9f : c == 0xf4 ? 0x8f : 0xbf;  // no surrogates
  if (c < 0xc2 || c > 0xf4 || at(1) < lo || at(1) > hi) return 0;
  for (std::size_t i = 2; i < n; ++i) {
    if (at(i) < 0x80 || at(i) > 0xbf) return 0;
  }
  return n;
}

}  // namespace

void write_number(std::ostream& os, double v) {
  if (std::floor(v) == v && std::abs(v) < 9.0e15) {
    os << static_cast<std::int64_t>(v);
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  os << buf;
}

// ---- Writer --------------------------------------------------------------

// Writes the separator the next value needs, then `token` verbatim.
Writer& Writer::raw(std::string_view token) {
  if (keyed_) {
    keyed_ = false;
  } else {
    if (items_) os_ << ',';
    if (depth_ > 0 && (lines_ >> (depth_ - 1) & 1)) os_ << '\n';
    items_ = true;
  }
  os_ << token;
  return *this;
}

Writer& Writer::open(char c, bool lines) {
  if (depth_ == kMaxDepth) throw std::length_error("json::Writer: nesting too deep");
  raw(std::string_view(&c, 1));
  lines_ = (lines_ & ~(std::uint64_t{1} << depth_)) | (std::uint64_t{lines} << depth_);
  ++depth_;
  items_ = false;
  return *this;
}

Writer& Writer::close(char c) {
  if (lines_ >> --depth_ & 1) os_ << '\n';
  os_ << c;
  items_ = true;
  return *this;
}

void Writer::string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  os_ << '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    os_.write(s.data() + run, static_cast<std::streamsize>(i - run)) << '\\';
    run = i + 1;
    const std::size_t named = kNamedRaw.substr(0, kWrittenByName).find(s[i]);
    if (named != std::string_view::npos) {
      os_ << kNamedEsc[named];
    } else {
      os_ << "u00" << kHex[c >> 4] << kHex[c & 0xf];
    }
  }
  os_.write(s.data() + run, static_cast<std::streamsize>(s.size() - run)) << '"';
}

Writer& Writer::key(std::string_view k) {
  raw({});
  string(k);
  os_ << ':';
  keyed_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  raw({});
  string(s);
  return *this;
}

Writer& Writer::value(double v) {
  if (!std::isfinite(v)) return null();  // JSON has no inf or nan
  raw({});
  write_number(os_, v);
  return *this;
}

// ---- Reader --------------------------------------------------------------

bool Reader::open(char c) {
  if (peek() != c || depth_ == kMaxDepth) return fail();
  ++p_;
  objects_ = (objects_ & ~(std::uint64_t{1} << depth_)) | (std::uint64_t{c == '{'} << depth_);
  ++depth_;
  first_ = true;
  return true;
}

bool Reader::literal(std::string_view word) {
  if (peek() != word[0] || std::string_view(p_, end_ - p_).substr(0, word.size()) != word) {
    return false;
  }
  p_ += word.size();
  return true;
}

bool Reader::read(bool& out) {
  out = literal("true");
  return out || literal("false") || fail();
}

bool Reader::number(std::string_view& tok) {
  peek();
  const char* begin = p_;
  const auto eat = [this](char c) {
    const bool hit = p_ != end_ && *p_ == c;
    p_ += hit;
    return hit;
  };
  const auto digits = [this] {
    const char* at = p_;
    while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    return p_ != at;
  };
  eat('-');
  if ((!eat('0') && !digits()) || (eat('.') && !digits())) return fail();
  if (eat('e') || eat('E')) {
    if (!eat('+')) eat('-');
    if (!digits()) return fail();
  }
  tok = std::string_view(begin, static_cast<std::size_t>(p_ - begin));
  return true;
}

bool Reader::escaped_string(std::string_view& out) {
  const char* run = ++p_;  // past the quote string() checked
  scratch_.clear();
  while (p_ != end_) {
    const auto c = static_cast<unsigned char>(*p_);
    if (c == '"') {
      out = scratch_.append(run, p_++);
      return true;
    }
    if (c == '\\') {
      scratch_.append(run, p_);
      if (!unescape()) return fail();
      run = p_;
    } else if (c >= 0x80) {
      const std::size_t n = utf8_len(p_, end_);
      if (n == 0) return fail();
      p_ += n;
    } else if (c >= 0x20) {
      ++p_;
    } else {
      return fail();  // a raw control byte
    }
  }
  return fail();
}

bool Reader::unescape() {
  const char e = end_ - p_ > 1 ? p_[1] : 'x';
  p_ += 2;
  if (const std::size_t i = kNamedEsc.find(e); i != std::string_view::npos) {
    scratch_ += kNamedRaw[i];
    return true;
  }
  const auto hex4 = [this](std::uint32_t& cp) {
    const char* at = p_;
    if (end_ - p_ < 4) return false;
    p_ += 4;
    return std::from_chars(at, p_, cp, 16).ptr == p_;
  };
  std::uint32_t cp = 0;
  std::uint32_t low = 0;
  if (e != 'u' || !hex4(cp) || (cp >= 0xdc00 && cp <= 0xdfff)) return false;
  if (cp >= 0xd800 && cp <= 0xdbff) {  // a high surrogate: the low half must follow
    if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') return false;
    p_ += 2;
    if (!hex4(low) || low < 0xdc00 || low > 0xdfff) return false;
    cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
  }
  const int n = cp < 0x80 ? 1 : cp < 0x800 ? 2 : cp < 0x10000 ? 3 : 4;
  static constexpr unsigned kLead[] = {0, 0, 0xc0, 0xe0, 0xf0};
  scratch_ += static_cast<char>(n == 1 ? cp : kLead[n] | cp >> (6 * (n - 1)));
  for (int i = n - 2; i >= 0; --i) {
    scratch_ += static_cast<char>(0x80 | (cp >> (6 * i) & 0x3f));
  }
  return true;
}

bool Reader::skip() {
  const int base = depth_;
  std::string_view k;
  bool b = false;
  do {
    const char c = peek();
    if (c == '{' || c == '[') {
      open(c);
    } else if (c == '"') {
      string(k);
    } else if (c == 't' || c == 'f') {
      read(b);
    } else if (!literal("null")) {
      number(k);
    }
    // Step to the next value, closing every container that just ended.
    while (depth_ > base && ok()) {
      const bool in_object = objects_ >> (depth_ - 1) & 1;
      if (in_object ? next('}') && name(k) : next(']')) break;
    }
  } while (depth_ > base && ok());
  return ok();
}

bool valid(std::string_view text) {
  Reader r(text);
  return r.skip() && r.finish();
}

}  // namespace bento::util::json
