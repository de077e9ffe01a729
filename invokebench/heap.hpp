// Heap accounting for the benchmark process: a replacement global
// operator new/delete (heap.cpp) counts every allocation and tracks the
// bytes in use and their peak.
//
// The counters are relaxed atomics updated with plain load/store, not
// read-modify-write: exact while one thread allocates, which holds for the
// serial simulator every workload runs on, and free of lock-prefixed
// instructions on the allocation path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace invokebench::heap {

struct Stats {
  std::uint64_t allocs = 0;  // operator new calls since process start
  std::uint64_t in_use = 0;  // usable bytes currently allocated
  std::uint64_t peak = 0;    // high-water of in_use since the last reset_peak()
};

Stats stats();
/// Restarts the high-water mark at the current in-use level.
void reset_peak();

/// A growable array of trivially copyable samples kept on malloc, outside
/// the counted heap, so the benchmark's own bookkeeping moves neither
/// allocs_per_op nor peak_heap_mb.
template <typename T>
class Samples {
 public:
  Samples() = default;
  Samples(const Samples&) = delete;
  Samples& operator=(const Samples&) = delete;
  Samples(Samples&& o) noexcept : data_(o.data_), size_(o.size_), cap_(o.cap_) {
    o.data_ = nullptr;
    o.size_ = o.cap_ = 0;
  }
  Samples& operator=(Samples&& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(cap_, o.cap_);
    return *this;
  }
  ~Samples();

  void push(const T& v) {
    if (size_ == cap_) grow();
    data_[size_++] = v;
  }
  std::size_t size() const { return size_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void grow();
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

void* raw_realloc(void* p, std::size_t bytes);
void raw_free(void* p);

template <typename T>
Samples<T>::~Samples() {
  raw_free(data_);
}

template <typename T>
void Samples<T>::grow() {
  cap_ = cap_ == 0 ? 4096 : cap_ * 2;
  data_ = static_cast<T*>(raw_realloc(data_, cap_ * sizeof(T)));
}

}  // namespace invokebench::heap
