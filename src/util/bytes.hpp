// Byte-buffer helpers shared by every module.
//
// `Bytes` is the repository-wide owned byte buffer; views are passed as
// `std::span<const std::uint8_t>` per the Core Guidelines (I.13: do not pass
// an array as a single pointer).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bento::util {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Builds a Bytes from a string's raw characters.
Bytes to_bytes(std::string_view s);

/// A string's raw characters as a byte view, without a copy.
inline ByteView as_byte_view(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Interprets a byte buffer as text (no validation; callers own encoding).
std::string to_string(ByteView b);

/// Lower-case hex encoding ("deadbeef").
std::string to_hex(ByteView b);

/// Parses hex produced by to_hex. Throws std::invalid_argument on bad input.
Bytes from_hex(std::string_view hex);

/// Appends `src` to `dst`.
void append(Bytes& dst, ByteView src);

/// Concatenates any number of byte views.
Bytes concat(std::initializer_list<ByteView> parts);

/// Constant-time equality for secrets (length leak is accepted).
bool ct_equal(ByteView a, ByteView b);

/// XOR two equal-length buffers. Throws std::invalid_argument on mismatch.
Bytes xor_bytes(ByteView a, ByteView b);

}  // namespace bento::util
