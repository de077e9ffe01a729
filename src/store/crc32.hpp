// CRC-32C (Castagnoli, polynomial 0x1EDC6F41) for store frame integrity.
//
// Every frame in the sealed blob store's segment log carries a CRC over its
// header and body (DESIGN.md §15); replay uses a CRC mismatch as the
// torn-write signal and truncates the log at the first bad frame. CRC-32C
// is the storage-industry choice (iSCSI, ext4, RocksDB) because its error
// detection properties for short records are strictly better than the
// zlib polynomial's.
//
// Two kernels, picked once per process (DESIGN.md §7): the SSE4.2 crc32
// instruction, which computes exactly this polynomial eight bytes at a
// time, on x86 CPUs that have it, and a table-driven slice-by-4 fallback
// everywhere else. Both are allocation-free and give identical values.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace bento::store {

namespace detail {
/// A CRC-32C kernel with crc32c_update's contract. Declared here so tests
/// and benchmarks can run each kernel directly; crc32c_update always uses
/// the one picked once per process.
using Crc32cKernel = std::uint32_t (*)(std::uint32_t state, const std::uint8_t* data,
                                       std::size_t len);
std::uint32_t crc32c_update_table(std::uint32_t state, const std::uint8_t* data,
                                  std::size_t len);
/// The SSE4.2 kernel, or nullptr when the host CPU lacks SSE4.2.
Crc32cKernel crc32c_sse42_kernel();
}  // namespace detail

/// Incremental update: feed successive chunks with the running value.
/// Start from crc32c_init(), finish with crc32c_final().
std::uint32_t crc32c_update(std::uint32_t state, const std::uint8_t* data,
                            std::size_t len);

inline constexpr std::uint32_t crc32c_init() { return 0xffffffffu; }
inline constexpr std::uint32_t crc32c_final(std::uint32_t state) {
  return state ^ 0xffffffffu;
}

/// One-shot convenience over a view.
inline std::uint32_t crc32c(util::ByteView data) {
  return crc32c_final(crc32c_update(crc32c_init(), data.data(), data.size()));
}

}  // namespace bento::store
