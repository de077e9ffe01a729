#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/annotations.hpp"

namespace bento::crypto {

namespace {
constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__) || defined(__i386__)
// SHA-NI kernel. The state lives in two registers in the order the
// sha256rnds2 instruction wants (ABEF and CDGH); each quad of rounds adds
// four round constants to four message words, runs two rnds2 steps, and
// extends the message schedule with msg1/msg2 four words at a time.
BENTO_HOT __attribute__((target("sha,sse4.1"))) void compress_shani(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks, std::size_t nblocks) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);          // CDAB
  st1 = _mm_shuffle_epi32(st1, 0x1B);          // EFGH
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);  // ABEF
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);       // CDGH

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef = st0;
    const __m128i cdgh = st1;
    __m128i m[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      // m[i % 4] holds message words W[4i .. 4i+3].
      if (i < 4) {
        m[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), bswap);
      }
      const __m128i wk = _mm_add_epi32(
          m[i & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * i])));
      st1 = _mm_sha256rnds2_epu32(st1, st0, wk);
      st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(wk, 0x0E));
      if (i >= 3 && i < 15) {  // finish W[4i+4 .. 4i+7]
        const __m128i w7 = _mm_alignr_epi8(m[i & 3], m[(i - 1) & 3], 4);
        m[(i + 1) & 3] = _mm_sha256msg2_epu32(_mm_add_epi32(m[(i + 1) & 3], w7), m[i & 3]);
      }
      if (i >= 1 && i < 13) {  // start W[4i+12 .. 4i+15]
        m[(i - 1) & 3] = _mm_sha256msg1_epu32(m[(i - 1) & 3], m[i & 3]);
      }
    }
    st0 = _mm_add_epi32(st0, abef);
    st1 = _mm_add_epi32(st1, cdgh);
  }

  tmp = _mm_shuffle_epi32(st0, 0x1B);     // FEBA
  st1 = _mm_shuffle_epi32(st1, 0xB1);     // DCHG
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);  // DCBA
  st1 = _mm_alignr_epi8(st1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), st1);
}
#endif

detail::Sha256Kernel pick_compress() {
  if (auto shani = detail::sha256_shani_kernel()) return shani;
  return detail::sha256_compress_scalar;
}

// Picked on first use rather than at static-initialization time, so a
// digest computed by another translation unit's static initializer still
// finds a kernel.
detail::Sha256Kernel compress_kernel() {
  static const detail::Sha256Kernel kernel = pick_compress();
  return kernel;
}
}  // namespace

namespace detail {

BENTO_HOT void sha256_compress_scalar(std::array<std::uint32_t, 8>& state,
                                      const std::uint8_t* blocks, std::size_t nblocks) {
  for (const std::uint8_t* block = blocks; nblocks > 0; --nblocks, block += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(block[4 * i] << 24) |
             static_cast<std::uint32_t>(block[4 * i + 1] << 16) |
             static_cast<std::uint32_t>(block[4 * i + 2] << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Kernel sha256_shani_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) return compress_shani;
#endif
  return nullptr;
}

}  // namespace detail

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

BENTO_HOT void Sha256::update(util::ByteView data) {
  total_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ == 64) {
      compress_kernel()(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (const std::size_t nblocks = (data.size() - off) / 64; nblocks > 0) {
    compress_kernel()(state_, data.data() + off, nblocks);
    off += 64 * nblocks;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

BENTO_HOT Digest Sha256::peek_digest() const {
  // Pad into a local tail buffer and run the final compression(s) on a local
  // copy of the chaining state: the running state is untouched, so callers
  // can keep absorbing afterwards (and never need to clone the object).
  std::array<std::uint32_t, 8> st = state_;
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t padded = buffered_ + 1 + 8 <= 64 ? 64 : 128;
  const std::uint64_t bit_len = total_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[padded - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_kernel()(st, tail, padded / 64);
  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(st[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(st[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(st[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(st[i]);
  }
  return out;
}

Digest Sha256::finish() { return peek_digest(); }

Digest sha256(util::ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

util::Bytes sha256_bytes(util::ByteView data) {
  Digest d = sha256(data);
  return util::Bytes(d.begin(), d.end());
}

}  // namespace bento::crypto
