// Shared text helpers for the bentotrace tables: fixed-width columns and
// fixed-point percent rendering. One copy, so summary and shards can never
// disagree on formatting. JSON is not handled here: every artifact is read
// and written through util/json by the src/obs module that owns its format.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

namespace bento::tools {

/// Right-aligns `s` into a `width`-character column.
inline void rcol(std::ostream& os, const std::string& s, std::size_t width) {
  for (std::size_t pad = s.size(); pad < width; ++pad) os << ' ';
  os << s;
}

inline void rcol(std::ostream& os, std::int64_t v, std::size_t width) {
  rcol(os, std::to_string(v), width);
}

/// One-decimal fixed-point rendering (deterministic round-half-away).
inline void fixed1(std::ostream& os, double v) {
  const auto scaled = static_cast<std::int64_t>(v * 10 + (v < 0 ? -0.5 : 0.5));
  os << scaled / 10 << '.' << (scaled < 0 ? -(scaled % 10) : scaled % 10);
}

inline double pct_of(std::uint64_t part, std::uint64_t whole) {
  return whole == 0
             ? 0.0
             : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace bento::tools
