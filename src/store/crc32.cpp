#include "store/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/annotations.hpp"

namespace bento::store {

namespace {

// Slice-by-4 tables, computed once at static-init time from the reflected
// Castagnoli polynomial. 4 KiB of constant data total.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t;
  Tables() {
    constexpr std::uint32_t kPoly = 0x82f63b78u;  // 0x1EDC6F41 reflected
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xff];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xff];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xff];
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

#if defined(__x86_64__) || defined(__i386__)
// The crc32 instruction is CRC-32C over the reflected polynomial with no
// pre/post inversion: the same running-state contract as the table kernel.
BENTO_HOT __attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t state, const std::uint8_t* data, std::size_t len) {
#if defined(__x86_64__)
  std::uint64_t c = state;
  for (; len >= 8; len -= 8, data += 8) {
    std::uint64_t v;
    std::memcpy(&v, data, 8);
    c = _mm_crc32_u64(c, v);
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
#else
  std::uint32_t c32 = state;
#endif
  for (; len >= 4; len -= 4, data += 4) {
    std::uint32_t v;
    std::memcpy(&v, data, 4);
    c32 = _mm_crc32_u32(c32, v);
  }
  while (len-- > 0) c32 = _mm_crc32_u8(c32, *data++);
  return c32;
}
#endif

detail::Crc32cKernel pick_kernel() {
  if (auto k = detail::crc32c_sse42_kernel()) return k;
  return detail::crc32c_update_table;
}

}  // namespace

namespace detail {

BENTO_HOT std::uint32_t crc32c_update_table(std::uint32_t state, const std::uint8_t* data,
                                            std::size_t len) {
  const Tables& tb = tables();
  std::uint32_t c = state;
  while (len >= 4) {
    c ^= static_cast<std::uint32_t>(data[0]) |
         (static_cast<std::uint32_t>(data[1]) << 8) |
         (static_cast<std::uint32_t>(data[2]) << 16) |
         (static_cast<std::uint32_t>(data[3]) << 24);
    c = tb.t[3][c & 0xff] ^ tb.t[2][(c >> 8) & 0xff] ^ tb.t[1][(c >> 16) & 0xff] ^
        tb.t[0][(c >> 24) & 0xff];
    data += 4;
    len -= 4;
  }
  while (len-- > 0) {
    c = (c >> 8) ^ tb.t[0][(c ^ *data++) & 0xff];
  }
  return c;
}

Crc32cKernel crc32c_sse42_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return nullptr;
}

}  // namespace detail

BENTO_HOT std::uint32_t crc32c_update(std::uint32_t state, const std::uint8_t* data,
                                      std::size_t len) {
  // Picked on first use, so a frame checksummed by a static initializer
  // still finds a kernel.
  static const detail::Crc32cKernel kernel = pick_kernel();
  return kernel(state, data, len);
}

}  // namespace bento::store
