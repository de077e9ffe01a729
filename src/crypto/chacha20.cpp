#include "crypto/chacha20.hpp"

#include <cstring>

#include "util/annotations.hpp"

namespace bento::crypto {

namespace {
BENTO_HOT std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

BENTO_HOT void store32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// ---- 8-block keystream kernels ------------------------------------------
//
// Every kernel produces eight blocks (512 B) per call. The portable and AVX2
// kernels keep the eight blocks word-sliced (x[word][block]) so each
// quarter-round statement is one 8-wide SIMD operation. On GCC and Clang
// the body is written with vector extensions (the compiler splits the
// 32-byte vectors into whatever the target ISA offers) and is instantiated
// twice: compiled for AVX2, where the output goes through an in-register
// 8x8 transpose, and for the baseline ISA, where it is stored word by word.
// The AVX-512 kernel instead runs two 4-block streams in row layout, one
// block per 128-bit lane of a zmm register. A kernel is picked once per
// process on cpuid. Elsewhere a plain scalar body keeps the same 8
// interleaved dependency chains for ILP.

#if defined(__GNUC__) || defined(__clang__)
#define BENTO_CHACHA_SIMD 1
#endif

#if BENTO_CHACHA_SIMD

#if defined(__clang__) || __GNUC__ >= 12
#define BENTO_CHACHA_SHUFFLE 1  // __builtin_shufflevector is available
#endif

#if BENTO_CHACHA_SHUFFLE && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
// Byte-granular rotates (16 and 8 bits) become single shuffle instructions
// (vpshufb & co.). The u8/u16 lane indices below assume little-endian lane
// layout; other targets use the shift-or fallback.
#define BENTO_ROT16(v)                                                        \
  __builtin_shufflevector((v), (v), 1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, \
                          12, 15, 14)
#define BENTO_ROT8(v)                                                         \
  __builtin_shufflevector((v), (v), 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, \
                          12, 13, 14, 19, 16, 17, 18, 23, 20, 21, 22, 27, 24, \
                          25, 26, 31, 28, 29, 30)
#endif

#define BENTO_CHACHA_QR(a, b, c, d)   \
  x[a] += x[b];                       \
  x[d] ^= x[a];                       \
  BENTO_CHACHA_ROT16(x[d]);           \
  x[c] += x[d];                       \
  x[b] ^= x[c];                       \
  x[b] = (x[b] << 12) | (x[b] >> 20); \
  x[a] += x[b];                       \
  x[d] ^= x[a];                       \
  BENTO_CHACHA_ROT8(x[d]);            \
  x[c] += x[d];                       \
  x[b] ^= x[c];                       \
  x[b] = (x[b] << 7) | (x[b] >> 25);

#define BENTO_CHACHA_SHIFT_ROT16(v) (v) = ((v) << 16) | ((v) >> 16)
#define BENTO_CHACHA_SHIFT_ROT8(v) (v) = ((v) << 8) | ((v) >> 24)
#ifdef BENTO_ROT16
#define BENTO_CHACHA_SHUFFLE_ROT16(v)                                      \
  {                                                                        \
    using v16 = std::uint16_t __attribute__((vector_size(32)));            \
    v16 h;                                                                 \
    std::memcpy(&h, &(v), 32);                                             \
    h = BENTO_ROT16(h);                                                    \
    std::memcpy(&(v), &h, 32);                                             \
  }
#define BENTO_CHACHA_SHUFFLE_ROT8(v)                                       \
  {                                                                        \
    using v8 = std::uint8_t __attribute__((vector_size(32)));              \
    v8 b8;                                                                 \
    std::memcpy(&b8, &(v), 32);                                            \
    b8 = BENTO_ROT8(b8);                                                   \
    std::memcpy(&(v), &b8, 32);                                            \
  }
#endif

// The portable body shuffles only where one instruction shuffles the whole
// 32-byte vector. Without AVX2, GCC 12 lowers the shuffles to scalar byte
// moves, even with SSSE3's pshufb available, and shift-or rotates run
// several times faster.
#if defined(BENTO_ROT16) && \
    (defined(__AVX2__) || !(defined(__x86_64__) || defined(__i386__)))
#define BENTO_CHACHA_ROT16 BENTO_CHACHA_SHUFFLE_ROT16
#define BENTO_CHACHA_ROT8 BENTO_CHACHA_SHUFFLE_ROT8
#else
#define BENTO_CHACHA_ROT16 BENTO_CHACHA_SHIFT_ROT16
#define BENTO_CHACHA_ROT8 BENTO_CHACHA_SHIFT_ROT8
#endif

// `state` is the 16-word ChaCha state; leaves the eight finished blocks
// word-sliced in x[0..15] (lane l = block l).
#define BENTO_CHACHA_ROUNDS8(state)                                     \
  using vec = std::uint32_t __attribute__((vector_size(32)));           \
  const vec lane_idx = {0, 1, 2, 3, 4, 5, 6, 7};                        \
  vec x[16];                                                            \
  for (int i = 0; i < 16; ++i) x[i] = vec{} + (state)[i];               \
  x[12] += lane_idx; /* per-lane block counters */                      \
  for (int round = 0; round < 10; ++round) {                            \
    BENTO_CHACHA_QR(0, 4, 8, 12)                                        \
    BENTO_CHACHA_QR(1, 5, 9, 13)                                        \
    BENTO_CHACHA_QR(2, 6, 10, 14)                                       \
    BENTO_CHACHA_QR(3, 7, 11, 15)                                       \
    BENTO_CHACHA_QR(0, 5, 10, 15)                                       \
    BENTO_CHACHA_QR(1, 6, 11, 12)                                       \
    BENTO_CHACHA_QR(2, 7, 8, 13)                                        \
    BENTO_CHACHA_QR(3, 4, 9, 14)                                        \
  }                                                                     \
  for (int i = 0; i < 16; ++i) x[i] += vec{} + (state)[i];              \
  x[12] += lane_idx;

// Stores the word-sliced blocks word by word, XORing `in` when non-null.
#define BENTO_CHACHA_WORD_STORE                                                     \
  for (int l = 0; l < 8; ++l) {                                                     \
    for (int i = 0; i < 16; ++i) {                                                  \
      const std::size_t at = 64 * static_cast<std::size_t>(l) + 4 * static_cast<std::size_t>(i); \
      std::uint32_t v = x[i][l];                                                    \
      if (in != nullptr) v ^= load32(in + at);                                      \
      store32(out + at, v);                                                         \
    }                                                                               \
  }

BENTO_HOT void kernel_portable(const std::uint32_t* state, const std::uint8_t* in,
                               std::uint8_t* out) {
  BENTO_CHACHA_ROUNDS8(state)
  BENTO_CHACHA_WORD_STORE
}

// The AVX2 kernel always has vpshufb.
#ifdef BENTO_ROT16
#undef BENTO_CHACHA_ROT16
#undef BENTO_CHACHA_ROT8
#define BENTO_CHACHA_ROT16 BENTO_CHACHA_SHUFFLE_ROT16
#define BENTO_CHACHA_ROT8 BENTO_CHACHA_SHUFFLE_ROT8
#endif

#if defined(__x86_64__) || defined(__i386__)
#if BENTO_CHACHA_SHUFFLE
// Transposes word-sliced rows r[0..7] (r[i][l] = word i of block l) into
// eight 32-byte block halves and stores them at byte `half` of each block.
#define BENTO_CHACHA_SHUF8(a, b, ...) __builtin_shufflevector((a), (b), __VA_ARGS__)
#define BENTO_CHACHA_TRANSPOSE_STORE(r, half)                                  \
  {                                                                            \
    const vec t0 = BENTO_CHACHA_SHUF8(r[0], r[1], 0, 8, 1, 9, 4, 12, 5, 13);   \
    const vec t1 = BENTO_CHACHA_SHUF8(r[0], r[1], 2, 10, 3, 11, 6, 14, 7, 15); \
    const vec t2 = BENTO_CHACHA_SHUF8(r[2], r[3], 0, 8, 1, 9, 4, 12, 5, 13);   \
    const vec t3 = BENTO_CHACHA_SHUF8(r[2], r[3], 2, 10, 3, 11, 6, 14, 7, 15); \
    const vec t4 = BENTO_CHACHA_SHUF8(r[4], r[5], 0, 8, 1, 9, 4, 12, 5, 13);   \
    const vec t5 = BENTO_CHACHA_SHUF8(r[4], r[5], 2, 10, 3, 11, 6, 14, 7, 15); \
    const vec t6 = BENTO_CHACHA_SHUF8(r[6], r[7], 0, 8, 1, 9, 4, 12, 5, 13);   \
    const vec t7 = BENTO_CHACHA_SHUF8(r[6], r[7], 2, 10, 3, 11, 6, 14, 7, 15); \
    const vec u0 = BENTO_CHACHA_SHUF8(t0, t2, 0, 1, 8, 9, 4, 5, 12, 13);       \
    const vec u1 = BENTO_CHACHA_SHUF8(t0, t2, 2, 3, 10, 11, 6, 7, 14, 15);     \
    const vec u2 = BENTO_CHACHA_SHUF8(t1, t3, 0, 1, 8, 9, 4, 5, 12, 13);       \
    const vec u3 = BENTO_CHACHA_SHUF8(t1, t3, 2, 3, 10, 11, 6, 7, 14, 15);     \
    const vec u4 = BENTO_CHACHA_SHUF8(t4, t6, 0, 1, 8, 9, 4, 5, 12, 13);       \
    const vec u5 = BENTO_CHACHA_SHUF8(t4, t6, 2, 3, 10, 11, 6, 7, 14, 15);     \
    const vec u6 = BENTO_CHACHA_SHUF8(t5, t7, 0, 1, 8, 9, 4, 5, 12, 13);       \
    const vec u7 = BENTO_CHACHA_SHUF8(t5, t7, 2, 3, 10, 11, 6, 7, 14, 15);     \
    const vec col[8] = {BENTO_CHACHA_SHUF8(u0, u4, 0, 1, 2, 3, 8, 9, 10, 11),  \
                        BENTO_CHACHA_SHUF8(u1, u5, 0, 1, 2, 3, 8, 9, 10, 11),  \
                        BENTO_CHACHA_SHUF8(u2, u6, 0, 1, 2, 3, 8, 9, 10, 11),  \
                        BENTO_CHACHA_SHUF8(u3, u7, 0, 1, 2, 3, 8, 9, 10, 11),  \
                        BENTO_CHACHA_SHUF8(u0, u4, 4, 5, 6, 7, 12, 13, 14, 15), \
                        BENTO_CHACHA_SHUF8(u1, u5, 4, 5, 6, 7, 12, 13, 14, 15), \
                        BENTO_CHACHA_SHUF8(u2, u6, 4, 5, 6, 7, 12, 13, 14, 15), \
                        BENTO_CHACHA_SHUF8(u3, u7, 4, 5, 6, 7, 12, 13, 14, 15)}; \
    for (int l = 0; l < 8; ++l) {                                              \
      const std::size_t at = 64 * static_cast<std::size_t>(l) + (half);        \
      vec v = col[l];                                                          \
      if (in != nullptr) {                                                     \
        vec k;                                                                 \
        std::memcpy(&k, in + at, 32);                                          \
        v ^= k;                                                                \
      }                                                                        \
      std::memcpy(out + at, &v, 32);                                           \
    }                                                                          \
  }

#endif  // BENTO_CHACHA_SHUFFLE

BENTO_HOT __attribute__((target("avx2"))) void kernel_avx2(const std::uint32_t* state,
                                                           const std::uint8_t* in,
                                                           std::uint8_t* out) {
  BENTO_CHACHA_ROUNDS8(state)
#if BENTO_CHACHA_SHUFFLE
  BENTO_CHACHA_TRANSPOSE_STORE(x, 0)
  BENTO_CHACHA_TRANSPOSE_STORE((x + 8), 32)
#else
  BENTO_CHACHA_WORD_STORE
#endif
}

#if BENTO_CHACHA_SHUFFLE
#undef BENTO_CHACHA_TRANSPOSE_STORE
#undef BENTO_CHACHA_SHUF8

// Row layout: one block per 128-bit lane, so a zmm register holds the same
// row of four blocks and a quarter round works on whole rows. Rows b, c and
// d are rotated within their lanes between the column and diagonal rounds.
#define BENTO_CHACHA_ROW_QR(a, b, c, d) \
  a += b;                               \
  d ^= a;                               \
  d = (d << 16) | (d >> 16);            \
  c += d;                               \
  b ^= c;                               \
  b = (b << 12) | (b >> 20);            \
  a += b;                               \
  d ^= a;                               \
  d = (d << 8) | (d >> 24);             \
  c += d;                               \
  b ^= c;                               \
  b = (b << 7) | (b >> 25);
#define BENTO_CHACHA_LANE_ROT(v, i0, i1, i2, i3)                                  \
  __builtin_shufflevector((v), (v), i0, i1, i2, i3, (i0) + 4, (i1) + 4, (i2) + 4, \
                          (i3) + 4, (i0) + 8, (i1) + 8, (i2) + 8, (i3) + 8,       \
                          (i0) + 12, (i1) + 12, (i2) + 12, (i3) + 12)
// Stores rows (a, b, c, d) of four blocks as blocks 0..3 at `base`: a 4x4
// transpose of 128-bit lanes.
#define BENTO_CHACHA_ROW_STORE(a, b, c, d, base)                                    \
  {                                                                                 \
    const v16 p = __builtin_shufflevector(a, b, 0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, \
                                          19, 20, 21, 22, 23);                      \
    const v16 q = __builtin_shufflevector(c, d, 0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, \
                                          19, 20, 21, 22, 23);                      \
    const v16 r = __builtin_shufflevector(a, b, 8, 9, 10, 11, 12, 13, 14, 15, 24,   \
                                          25, 26, 27, 28, 29, 30, 31);              \
    const v16 s = __builtin_shufflevector(c, d, 8, 9, 10, 11, 12, 13, 14, 15, 24,   \
                                          25, 26, 27, 28, 29, 30, 31);              \
    const v16 blk[4] = {                                                            \
        __builtin_shufflevector(p, q, 0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, \
                                25, 26, 27),                                        \
        __builtin_shufflevector(p, q, 4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23,   \
                                28, 29, 30, 31),                                    \
        __builtin_shufflevector(r, s, 0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, \
                                25, 26, 27),                                        \
        __builtin_shufflevector(r, s, 4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23,   \
                                28, 29, 30, 31)};                                   \
    for (int j = 0; j < 4; ++j) {                                                   \
      const std::size_t at = (base) + 64 * static_cast<std::size_t>(j);             \
      v16 v = blk[j];                                                               \
      if (in != nullptr) {                                                          \
        v16 k;                                                                      \
        std::memcpy(&k, in + at, 64);                                               \
        v ^= k;                                                                     \
      }                                                                             \
      std::memcpy(out + at, &v, 64);                                                \
    }                                                                               \
  }

BENTO_HOT __attribute__((target("avx512f,avx512vl"))) void kernel_avx512(
    const std::uint32_t* state, const std::uint8_t* in, std::uint8_t* out) {
  using v16 = std::uint32_t __attribute__((vector_size(64)));
  const std::uint32_t* s = state;
  const v16 row0 = {s[0], s[1], s[2], s[3], s[0], s[1], s[2], s[3],
                    s[0], s[1], s[2], s[3], s[0], s[1], s[2], s[3]};
  const v16 row1 = {s[4], s[5], s[6], s[7], s[4], s[5], s[6], s[7],
                    s[4], s[5], s[6], s[7], s[4], s[5], s[6], s[7]};
  const v16 row2 = {s[8], s[9], s[10], s[11], s[8], s[9], s[10], s[11],
                    s[8], s[9], s[10], s[11], s[8], s[9], s[10], s[11]};
  const v16 row3 = {s[12], s[13], s[14], s[15], s[12], s[13], s[14], s[15],
                    s[12], s[13], s[14], s[15], s[12], s[13], s[14], s[15]};
  // Per-lane block counters: blocks 0..3 in stream 0, 4..7 in stream 1.
  const v16 ctr0 = {0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0};
  const v16 ctr1 = {4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 7, 0, 0, 0};
  const v16 d0_in = row3 + ctr0;
  const v16 d1_in = row3 + ctr1;
  v16 a0 = row0, b0 = row1, c0 = row2, d0 = d0_in;
  v16 a1 = row0, b1 = row1, c1 = row2, d1 = d1_in;
  for (int round = 0; round < 10; ++round) {
    BENTO_CHACHA_ROW_QR(a0, b0, c0, d0)
    BENTO_CHACHA_ROW_QR(a1, b1, c1, d1)
    b0 = BENTO_CHACHA_LANE_ROT(b0, 1, 2, 3, 0);
    c0 = BENTO_CHACHA_LANE_ROT(c0, 2, 3, 0, 1);
    d0 = BENTO_CHACHA_LANE_ROT(d0, 3, 0, 1, 2);
    b1 = BENTO_CHACHA_LANE_ROT(b1, 1, 2, 3, 0);
    c1 = BENTO_CHACHA_LANE_ROT(c1, 2, 3, 0, 1);
    d1 = BENTO_CHACHA_LANE_ROT(d1, 3, 0, 1, 2);
    BENTO_CHACHA_ROW_QR(a0, b0, c0, d0)
    BENTO_CHACHA_ROW_QR(a1, b1, c1, d1)
    b0 = BENTO_CHACHA_LANE_ROT(b0, 3, 0, 1, 2);
    c0 = BENTO_CHACHA_LANE_ROT(c0, 2, 3, 0, 1);
    d0 = BENTO_CHACHA_LANE_ROT(d0, 1, 2, 3, 0);
    b1 = BENTO_CHACHA_LANE_ROT(b1, 3, 0, 1, 2);
    c1 = BENTO_CHACHA_LANE_ROT(c1, 2, 3, 0, 1);
    d1 = BENTO_CHACHA_LANE_ROT(d1, 1, 2, 3, 0);
  }
  a0 += row0;
  b0 += row1;
  c0 += row2;
  d0 += d0_in;
  a1 += row0;
  b1 += row1;
  c1 += row2;
  d1 += d1_in;
  BENTO_CHACHA_ROW_STORE(a0, b0, c0, d0, 0)
  BENTO_CHACHA_ROW_STORE(a1, b1, c1, d1, 256)
}

#undef BENTO_CHACHA_ROW_STORE
#undef BENTO_CHACHA_LANE_ROT
#undef BENTO_CHACHA_ROW_QR
#endif  // BENTO_CHACHA_SHUFFLE
#endif  // x86

#undef BENTO_CHACHA_WORD_STORE
#undef BENTO_CHACHA_ROUNDS8
#undef BENTO_CHACHA_QR

#else  // !BENTO_CHACHA_SIMD: scalar fallback, 8 interleaved chains

BENTO_HOT void quarter_round(std::uint32_t x[16][8], int a, int b, int c, int d) {
  for (int l = 0; l < 8; ++l) {
    x[a][l] += x[b][l];
    x[d][l] ^= x[a][l];
    x[d][l] = (x[d][l] << 16) | (x[d][l] >> 16);
    x[c][l] += x[d][l];
    x[b][l] ^= x[c][l];
    x[b][l] = (x[b][l] << 12) | (x[b][l] >> 20);
    x[a][l] += x[b][l];
    x[d][l] ^= x[a][l];
    x[d][l] = (x[d][l] << 8) | (x[d][l] >> 24);
    x[c][l] += x[d][l];
    x[b][l] ^= x[c][l];
    x[b][l] = (x[b][l] << 7) | (x[b][l] >> 25);
  }
}

BENTO_HOT void kernel_portable(const std::uint32_t* state, const std::uint8_t* in,
                               std::uint8_t* out) {
  std::uint32_t x[16][8];
  for (int i = 0; i < 16; ++i) {
    for (int l = 0; l < 8; ++l) x[i][l] = state[i];
  }
  for (int l = 0; l < 8; ++l) x[12][l] += static_cast<std::uint32_t>(l);
  for (int round = 0; round < 10; ++round) {
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
  }
  for (int l = 0; l < 8; ++l) {
    for (int i = 0; i < 16; ++i) {
      const std::size_t at = 64 * static_cast<std::size_t>(l) + 4 * static_cast<std::size_t>(i);
      std::uint32_t v = x[i][l] + state[i];
      if (i == 12) v += static_cast<std::uint32_t>(l);
      if (in != nullptr) v ^= load32(in + at);
      store32(out + at, v);
    }
  }
}

#endif  // BENTO_CHACHA_SIMD

detail::ChaChaKernel pick_kernel() {
  if (auto k = detail::chacha20_avx512_kernel()) return k;
  if (auto k = detail::chacha20_avx2_kernel()) return k;
  return kernel_portable;
}

// Picked on first use rather than at static-initialization time, so a
// cipher run by another translation unit's static initializer still finds
// a kernel.
detail::ChaChaKernel keystream_kernel() {
  static const detail::ChaChaKernel kernel = pick_kernel();
  return kernel;
}
}  // namespace

namespace detail {

void chacha20_kernel_portable(const std::uint32_t* state, const std::uint8_t* in,
                              std::uint8_t* out) {
  kernel_portable(state, in, out);
}

ChaChaKernel chacha20_avx2_kernel() {
#if BENTO_CHACHA_SIMD && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return kernel_avx2;
#endif
  return nullptr;
}

ChaChaKernel chacha20_avx512_kernel() {
#if BENTO_CHACHA_SHUFFLE && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl")) {
    return kernel_avx512;
  }
#endif
  return nullptr;
}

}  // namespace detail

ChaCha20::ChaCha20(const ChaChaKey& key, const ChaChaNonce& nonce, std::uint32_t counter) {
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load32(nonce.data() + 4 * i);
}

BENTO_HOT void ChaCha20::refill() {
  keystream_kernel()(state_.data(), nullptr, block_.data());
  state_[12] += static_cast<std::uint32_t>(kLanes);
  used_ = 0;
}

BENTO_HOT void ChaCha20::process(std::span<std::uint8_t> data) {
  std::size_t off = 0;
  const std::size_t n = data.size();
  while (off < n) {
    if (used_ == block_.size()) {
      // Whole 512-byte runs: the kernel XORs the keystream straight into
      // the data, one pass and no trip through the buffer.
      const detail::ChaChaKernel kernel = keystream_kernel();
      for (; n - off >= block_.size(); off += block_.size()) {
        kernel(state_.data(), data.data() + off, data.data() + off);
        state_[12] += static_cast<std::uint32_t>(kLanes);
      }
      if (off == n) break;
      refill();
    }
    const std::size_t take = std::min(block_.size() - used_, n - off);
    std::uint8_t* d = data.data() + off;
    const std::uint8_t* k = block_.data() + used_;
    std::size_t i = 0;
    // 16 bytes per step (one baseline-ISA vector register) where vector
    // extensions exist, then words, then bytes; memcpy keeps every access
    // alignment- and aliasing-safe (the compiler cannot prove d and k
    // disjoint, so it would not widen a word loop by itself).
#if BENTO_CHACHA_SIMD
    using v16 = std::uint8_t __attribute__((vector_size(16)));
    for (; i + 16 <= take; i += 16) {
      v16 dv;
      v16 kv;
      std::memcpy(&dv, d + i, 16);
      std::memcpy(&kv, k + i, 16);
      dv ^= kv;
      std::memcpy(d + i, &dv, 16);
    }
#endif
    for (; i + 8 <= take; i += 8) {
      std::uint64_t dv;
      std::uint64_t kv;
      std::memcpy(&dv, d + i, 8);
      std::memcpy(&kv, k + i, 8);
      dv ^= kv;
      std::memcpy(d + i, &dv, 8);
    }
    for (; i < take; ++i) d[i] ^= k[i];
    used_ += take;
    off += take;
  }
}

void ChaCha20::skip(std::size_t n) {
  while (n > 0) {
    if (used_ == block_.size()) refill();
    const std::size_t take = std::min(block_.size() - used_, n);
    used_ += take;
    n -= take;
  }
}

util::Bytes ChaCha20::transform(util::ByteView data) {
  util::Bytes out(data.begin(), data.end());
  process(out);
  return out;
}

util::Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                         std::uint32_t counter, util::ByteView data) {
  ChaCha20 c(key, nonce, counter);
  return c.transform(data);
}

BENTO_HOT void chacha20_xor_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                                    std::uint32_t counter, std::span<std::uint8_t> data) {
  ChaCha20 c(key, nonce, counter);
  c.process(data);
}

}  // namespace bento::crypto
