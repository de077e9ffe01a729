// ChaCha20 stream cipher (RFC 8439).
//
// Provides the relay-crypto layers for onion encryption and the keystream
// under the AEAD. Verified against the RFC 8439 test vectors.
//
// A keystream kernel generates eight 64-byte blocks (512 B) per call. The
// kernel is picked once per process (DESIGN.md §7): an AVX-512 kernel that
// runs two 4-block streams in zmm row layout, an AVX2 kernel with the eight
// blocks interleaved word-sliced, or the portable body of the same shape.
// Whole 512-byte runs of input are XORed by the kernel straight into the
// caller's bytes; partial runs go through a 512-byte keystream buffer.
// `process` works in place on a caller-owned span: the relay datapath
// crypts a cell payload with zero heap allocations.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace bento::crypto {

using ChaChaKey = std::array<std::uint8_t, 32>;
using ChaChaNonce = std::array<std::uint8_t, 12>;

namespace detail {
/// A keystream kernel: computes the eight blocks starting at the block
/// counter in `state` (words 12..15 of the RFC 8439 state; the counter
/// wraps mod 2^32) and writes them XORed with `in` to `out` (512 bytes
/// each). A null `in` writes the bare keystream. `in` may equal `out`.
/// Declared here so tests and benchmarks can run each kernel directly;
/// ChaCha20 always uses the one picked once per process.
using ChaChaKernel = void (*)(const std::uint32_t* state, const std::uint8_t* in,
                              std::uint8_t* out);
void chacha20_kernel_portable(const std::uint32_t* state, const std::uint8_t* in,
                              std::uint8_t* out);
/// The AVX2 kernel, or nullptr when the host CPU lacks AVX2.
ChaChaKernel chacha20_avx2_kernel();
/// The AVX-512 kernel, or nullptr when the host CPU lacks AVX-512F/VL.
ChaChaKernel chacha20_avx512_kernel();
}  // namespace detail

/// Stateful cipher: repeated calls continue the keystream, so a pair of
/// instances with the same (key, nonce) forms an in-order encrypted pipe —
/// exactly how a circuit hop applies its layer to successive cells.
class ChaCha20 {
 public:
  ChaCha20(const ChaChaKey& key, const ChaChaNonce& nonce, std::uint32_t counter = 0);

  /// XORs the next keystream bytes into `data`, in place (encrypt == decrypt).
  /// Accepts any contiguous mutable byte range, including util::Bytes.
  void process(std::span<std::uint8_t> data);

  /// Advances the keystream by `n` bytes without using them (e.g. past the
  /// rest of the block a Poly1305 one-time key came from).
  void skip(std::size_t n);

  /// Convenience returning a transformed copy.
  util::Bytes transform(util::ByteView data);

 private:
  static constexpr std::size_t kLanes = 8;  // blocks generated per kernel call
  void refill();
  std::array<std::uint32_t, 16> state_;
  alignas(64) std::array<std::uint8_t, 64 * kLanes> block_;
  std::size_t used_ = 64 * kLanes;  // forces refill on first use
};

/// One-shot encryption with an explicit block counter.
util::Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                         std::uint32_t counter, util::ByteView data);

/// One-shot in-place encryption: no copy of `data` is made.
void chacha20_xor_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                          std::uint32_t counter, std::span<std::uint8_t> data);

}  // namespace bento::crypto
