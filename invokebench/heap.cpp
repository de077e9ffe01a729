#include "heap.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace invokebench::heap {

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_in_use{0};
std::atomic<std::uint64_t> g_peak{0};

void note_alloc(void* p) {
  constexpr auto r = std::memory_order_relaxed;
  g_allocs.store(g_allocs.load(r) + 1, r);
  const std::uint64_t now = g_in_use.load(r) + malloc_usable_size(p);
  g_in_use.store(now, r);
  if (now > g_peak.load(r)) g_peak.store(now, r);
}

void note_free(void* p) {
  constexpr auto r = std::memory_order_relaxed;
  g_in_use.store(g_in_use.load(r) - malloc_usable_size(p), r);
}

void* counted(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  note_free(p);
  std::free(p);
}
}  // namespace

Stats stats() {
  constexpr auto r = std::memory_order_relaxed;
  return Stats{g_allocs.load(r), g_in_use.load(r), g_peak.load(r)};
}

void reset_peak() {
  constexpr auto r = std::memory_order_relaxed;
  g_peak.store(g_in_use.load(r), r);
}

void* raw_realloc(void* p, std::size_t bytes) {
  void* q = std::realloc(p, bytes);
  if (q == nullptr) throw std::bad_alloc();
  return q;
}

void raw_free(void* p) { std::free(p); }

}  // namespace invokebench::heap

namespace ih = invokebench::heap;

void* operator new(std::size_t n) { return ih::counted(n); }
void* operator new[](std::size_t n) { return ih::counted(n); }
void* operator new(std::size_t n, std::align_val_t al) { return ih::counted_aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return ih::counted_aligned(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ih::counted(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ih::counted(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { ih::release(p); }
void operator delete[](void* p) noexcept { ih::release(p); }
void operator delete(void* p, std::size_t) noexcept { ih::release(p); }
void operator delete[](void* p, std::size_t) noexcept { ih::release(p); }
void operator delete(void* p, std::align_val_t) noexcept { ih::release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ih::release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ih::release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ih::release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { ih::release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ih::release(p); }
