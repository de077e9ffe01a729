// The one JSON codec behind every telemetry artifact (DESIGN.md §8).
//
// Writer: compact, byte-stable output over a std::ostream. It places the
// commas, escapes strings (", \, \n, \t and \r by name, other control bytes
// as \u00xx) and renders doubles with write_number. A `lines` array puts
// each element on its own line, the Chrome trace_event layout.
//
// Reader: a strict RFC 8259 pull reader with no DOM. Strings come back as
// views into the input where they can; a failure is sticky, so a caller
// reads the members it knows and checks the result once. Nesting deeper
// than kMaxDepth is refused and nothing recurses, so hostile input cannot
// exhaust the stack. The hot paths are inline: bentotrace reads 10^5-line
// traces through them.
#pragma once

#include <charconv>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

namespace bento::util::json {

inline constexpr int kMaxDepth = 64;

/// Integral values print bare, everything else with exactly three fixed
/// decimals, so identical inputs format identically on every host.
void write_number(std::ostream& os, double v);

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  Writer& begin_object() { return open('{', false); }
  Writer& begin_array(bool lines = false) { return open('[', lines); }
  Writer& end_object() { return close('}'); }
  Writer& end_array() { return close(']'); }
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  Writer& value(double v);  // write_number; inf and nan become null
  Writer& null() { return raw("null"); }
  template <typename T>
    requires std::is_integral_v<T>
  Writer& value(T v) {
    char buf[24];
    return raw(std::string_view(buf, std::to_chars(buf, buf + sizeof buf, v).ptr - buf));
  }
  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

 private:
  Writer& open(char c, bool lines);
  Writer& close(char c);
  Writer& raw(std::string_view token);
  void string(std::string_view s);

  std::ostream& os_;
  int depth_ = 0;
  std::uint64_t lines_ = 0;  // bit d: level d puts each element on a line
  bool items_ = false;       // the innermost container has a member
  bool keyed_ = false;       // a key was written; its value takes no comma
};

class Reader {
 public:
  explicit Reader(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool read(std::string& out) {
    std::string_view v;
    return string(v) && (out.assign(v), true);
  }
  bool read(bool& out);
  /// The number must fit `T`; an integral `T` refuses a fraction or an
  /// exponent, an unsigned one a minus sign.
  template <typename T>
    requires std::is_arithmetic_v<T>
  bool read(T& out) {
    if constexpr (std::is_integral_v<T>) {
      // The hot path of every trace line. from_chars takes leading zeros,
      // which JSON refuses, and stops before a fraction or an exponent.
      const bool negative = peek() == '-';
      const char* digits = p_ + negative;
      const auto [ptr, ec] = std::from_chars(p_, end_, out);
      if (ec != std::errc{} || (*digits == '0' && ptr > digits + 1) ||
          (ptr != end_ && (*ptr == '.' || *ptr == 'e' || *ptr == 'E'))) {
        return fail();
      }
      p_ = ptr;
      return true;
    } else {
      std::string_view tok;
      if (!number(tok)) return false;
      const char* end = tok.data() + tok.size();
      const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
      return (ec == std::errc{} && ptr == end) || fail();
    }
  }
  /// Reads any one value.
  bool skip();

  /// Reads an array, calling `element()` for each element.
  template <typename F>
  bool array(F&& element) {
    if (!open('[')) return false;
    while (next(']')) {
      if (!element()) return fail();
    }
    return ok();
  }
  /// Reads an object of the members named in `keys`, in any order (the
  /// order given is tried first), into the `out` at the same index; an
  /// invocable `out` reads a nested value itself and may be absent, while
  /// every other member is required.
  template <typename... T>
  bool fields(const std::string_view (&keys)[sizeof...(T)], T&&... out) {
    constexpr std::size_t kN = sizeof...(T);
    static_assert(kN < 64);
    std::uint64_t required = 0;
    std::size_t i = 0;
    ((required |= std::uint64_t{!std::is_invocable_v<T&>} << i++), ...);
    std::size_t at = kN - 1;
    if (!open('{')) return false;
    while (next('}')) {
      at = key_index(keys, kN, (at + 1) % kN);
      if (!take_at(at, out...)) return fail();
      required &= ~(std::uint64_t{1} << at);
    }
    return ok() && (required == 0 || fail());
  }

  /// True when nothing failed and only whitespace remains.
  bool finish() { return peek() == '\0' && p_ == end_ && ok(); }

 private:
  bool ok() const { return !failed_; }
  bool fail() {
    failed_ = true;
    p_ = end_;  // every later read sees the end of input and fails too
    return false;
  }
  template <typename... T>
  bool take_at(std::size_t at, T&... out) {
    std::size_t i = 0;
    bool good = false;
    ((i++ == at && (good = take(out), true)) || ...);
    return good;
  }
  template <typename T>
  bool take(T& out) {
    if constexpr (std::is_invocable_v<T&>) {
      return out();
    } else {
      return read(out);
    }
  }
  char peek() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' || *p_ == '\r')) ++p_;
    return p_ != end_ ? *p_ : '\0';
  }
  bool open(char c);
  /// Steps to the next member or element; false at the closing bracket.
  bool next(char close) {
    if (depth_ == 0 || (objects_ >> (depth_ - 1) & 1) != (close == '}')) return fail();
    const char c = peek();
    const bool more = c != close;
    if (more && !first_ && c != ',') return fail();
    p_ += !more || !first_;  // the closing bracket or the comma
    depth_ -= !more;
    first_ = false;
    return more;
  }
  /// A member name and its colon.
  bool name(std::string_view& key) {
    if (!string(key) || peek() != ':') return fail();
    ++p_;
    return true;
  }
  /// Reads a member name and returns its index in `keys` (n when absent).
  /// `keys[hint]`, spelled as the writer spells it, is matched in place.
  std::size_t key_index(const std::string_view* keys, std::size_t n, std::size_t hint) {
    const std::string_view k = keys[hint];
    if (static_cast<std::size_t>(end_ - p_) > k.size() + 2 && *p_ == '"' &&
        p_[k.size() + 1] == '"' && p_[k.size() + 2] == ':') {
      std::size_t i = 0;
      while (i < k.size() && p_[1 + i] == k[i]) ++i;  // keys are short: no memcmp call
      if (i == k.size()) {
        p_ += k.size() + 3;
        return hint;
      }
    }
    std::string_view key;
    if (!name(key)) return n;
    std::size_t at = 0;
    while (at < n && keys[at] != key) ++at;
    return at;
  }
  /// Printable ASCII without escapes comes back in place; escaped_string
  /// decodes the rest.
  bool string(std::string_view& out) {
    if (peek() != '"') return fail();
    const char* q = p_ + 1;
    while (q != end_ && static_cast<unsigned char>(*q - 0x20) < 0x60 && *q != '"' &&
           *q != '\\') {
      ++q;
    }
    if (q == end_ || *q != '"') return escaped_string(out);
    out = std::string_view(p_ + 1, static_cast<std::size_t>(q - p_ - 1));
    p_ = q + 1;
    return true;
  }
  bool escaped_string(std::string_view& out);
  bool unescape();
  bool literal(std::string_view word);
  bool number(std::string_view& tok);

  const char* p_;
  const char* end_;
  int depth_ = 0;
  std::uint64_t objects_ = 0;  // bit d: level d is an object
  bool first_ = false;         // the innermost container has no member yet
  bool failed_ = false;
  std::string scratch_;  // strings that needed decoding
};

/// True when `text` is exactly one well-formed JSON value.
bool valid(std::string_view text);

/// `value.to_json(os, args...)` as a string.
template <typename T, typename... A>
std::string to_string(const T& value, const A&... args) {
  std::ostringstream os;
  value.to_json(os, args...);
  return std::move(os).str();
}

}  // namespace bento::util::json
