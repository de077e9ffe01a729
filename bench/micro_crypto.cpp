// Microbenchmarks: the from-scratch crypto substrate.
#include <benchmark/benchmark.h>

#include <array>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sign.hpp"
#include "tor/ntor.hpp"
#include "util/rng.hpp"

namespace bc = bento::crypto;
namespace bt = bento::tor;
namespace bu = bento::util;

static void BM_Sha256(benchmark::State& state) {
  bu::Rng rng(1);
  const bu::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(512)->Arg(8192);

// Each compression kernel run directly on whole blocks, below the dispatch
// Sha256 does: shani=0 is the portable scalar kernel, shani=1 the SHA-NI
// one (reported as an error on CPUs without the SHA extensions).
static void BM_Sha256Kernel(benchmark::State& state) {
  const bool shani = state.range(0) != 0;
  const bc::detail::Sha256Kernel kernel =
      shani ? bc::detail::sha256_shani_kernel() : bc::detail::sha256_compress_scalar;
  if (kernel == nullptr) {
    state.SkipWithError("host CPU has no SHA extensions");
    return;
  }
  const auto bytes = static_cast<std::size_t>(state.range(1));
  bu::Rng rng(8);
  const bu::Bytes data = rng.bytes(bytes);
  std::array<std::uint32_t, 8> chaining{};
  for (auto _ : state) {
    kernel(chaining, data.data(), bytes / 64);
    benchmark::DoNotOptimize(chaining);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
  state.SetLabel(shani ? "sha_ni" : "scalar");
}
BENCHMARK(BM_Sha256Kernel)
    ->ArgNames({"shani", "bytes"})
    ->Args({0, 64})
    ->Args({0, 8192})
    ->Args({1, 64})
    ->Args({1, 8192});

static void BM_ChaCha20(benchmark::State& state) {
  bu::Rng rng(2);
  bc::ChaChaKey key{};
  bu::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  bc::ChaCha20 cipher(key, bc::ChaChaNonce{});
  for (auto _ : state) {
    cipher.process(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(509)->Arg(8192);

// Each keystream kernel run directly, one 512-byte call per iteration:
// kernel=0 portable, 1 AVX2, 2 AVX-512 (reported as an error on CPUs
// without the extension).
static void BM_ChaCha20Kernel(benchmark::State& state) {
  static constexpr const char* kNames[] = {"portable", "avx2", "avx512"};
  const auto which = static_cast<std::size_t>(state.range(0));
  const bc::detail::ChaChaKernel kernel =
      which == 0   ? bc::detail::chacha20_kernel_portable
      : which == 1 ? bc::detail::chacha20_avx2_kernel()
                   : bc::detail::chacha20_avx512_kernel();
  if (kernel == nullptr) {
    state.SkipWithError("host CPU lacks this kernel's extension");
    return;
  }
  std::array<std::uint32_t, 16> chacha_state{};
  alignas(64) std::array<std::uint8_t, 512> block{};
  for (auto _ : state) {
    kernel(chacha_state.data(), nullptr, block.data());
    chacha_state[12] += 8;
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
  state.SetLabel(kNames[which]);
}
BENCHMARK(BM_ChaCha20Kernel)->ArgName("kernel")->Arg(0)->Arg(1)->Arg(2);

static void BM_AeadSeal(benchmark::State& state) {
  bu::Rng rng(3);
  auto key = bc::AeadKey::from_bytes(rng.bytes(bc::kAeadKeyLen));
  const bu::Bytes payload = rng.bytes(498);
  std::uint64_t counter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bc::aead_seal(key, bc::nonce_from_counter(++counter), {}, payload));
  }
}
BENCHMARK(BM_AeadSeal);

static void BM_HmacSha256(benchmark::State& state) {
  bu::Rng rng(4);
  const bu::Bytes key = rng.bytes(32);
  const bu::Bytes message = rng.bytes(509);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::hmac_sha256(key, message));
  }
}
BENCHMARK(BM_HmacSha256);

static void BM_SchnorrSign(benchmark::State& state) {
  bu::Rng rng(5);
  auto key = bc::SigningKey::generate(rng);
  const bu::Bytes message = rng.bytes(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(message));
  }
}
BENCHMARK(BM_SchnorrSign);

// Fixed base: a keypair is 3^secret mod p, read from the static comb table.
static void BM_DhGenerate(benchmark::State& state) {
  bu::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::DhKeyPair::generate(rng));
  }
}
BENCHMARK(BM_DhGenerate);

// Variable base: the peer's public value raised to our secret, by the
// 4-bit window.
static void BM_DhShared(benchmark::State& state) {
  bu::Rng rng(9);
  const auto peer = bc::DhKeyPair::generate(rng);
  const auto mine = bc::DhKeyPair::generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::dh_shared(mine, peer.public_value));
  }
}
BENCHMARK(BM_DhShared);

// The relay-layer derivation's shape: empty salt, 128 bytes of output.
static void BM_Hkdf128EmptySalt(benchmark::State& state) {
  bu::Rng rng(10);
  const bu::Bytes ikm = rng.bytes(48);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::hkdf(ikm, {}, "bento-ntor-keys", 128));
  }
}
BENCHMARK(BM_Hkdf128EmptySalt);

static void BM_SchnorrVerify(benchmark::State& state) {
  bu::Rng rng(6);
  auto key = bc::SigningKey::generate(rng);
  const bu::Bytes message = rng.bytes(128);
  const auto sig = key.sign(message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::verify(key.public_key(), message, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

static void BM_NtorFullHandshake(benchmark::State& state) {
  bu::Rng rng(7);
  auto onion = bc::DhKeyPair::generate(rng);
  auto identity = bc::SigningKey::generate(rng);
  for (auto _ : state) {
    bt::NtorClientState client_state;
    const bu::Bytes skin =
        bt::ntor_client_create(client_state, onion.public_value,
                               identity.public_key(), rng);
    auto reply = bt::ntor_server_respond(onion, identity.public_key(), skin, rng);
    benchmark::DoNotOptimize(
        bt::ntor_client_finish(client_state, reply.created_payload));
  }
}
BENCHMARK(BM_NtorFullHandshake);

BENCHMARK_MAIN();
