// Sim-time metrics registry (DESIGN.md §8).
//
// Overhead contract: every hot-path operation is O(1), allocation-free, and
// works through a pre-registered handle — registration interns the name in
// a map exactly once, after which an increment is a branch on the global
// enable flag plus a pointer-indirect add. No map lookups, no string
// hashing, no formatting on the event path. When metrics are disabled the
// branch is perfectly predicted and nothing else runs, which is what keeps
// BENCH_datapath.json honest (bench/datapath.cpp counts heap allocations
// through the instrumented 3-hop cell loop).
//
// Sharded execution (DESIGN.md §12): every metric keeps one cache-line-
// padded slot per worker thread; the hot path indexes its slot through a
// thread_local worker id, so concurrent workers never touch the same line.
// Reads (value(), snapshot()) merge the slots: counters and histograms sum
// — which makes them invariant across shard counts, since the multiset of
// recorded values is a property of the logical event sequence — and gauges
// take the max over touched slots (last-writer semantics do not exist under
// parallel windows; the high-water mark stays exact). Serial simulations
// only ever touch slot 0, so their reads are bit-for-bit what they were.
//
// Cells live for the life of the process (the registry only ever grows and
// reset() zeroes values in place), so handles never dangle — call sites can
// cache them in function-local statics.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"

namespace bento::obs {

/// Worker threads the slot arrays are sized for (== the sharded simulator's
/// maximum worker-pool size, Simulator::kMaxShards).
inline constexpr unsigned kMaxMetricWorkers = 8;

namespace detail {
/// Constant-initialized: metrics are collected by default; flip off to make
/// every handle a no-op (bench proves the two modes are within noise on the
/// cell datapath, so "on" is the safe default for scenarios).
inline bool g_metrics_enabled = true;

/// Which per-metric slot this thread writes. Worker 0 is the coordinating
/// (main) thread; the simulator assigns 1..N-1 to pool workers at spawn.
// bentolint: allow(BL105 thread_local worker id for the sharded simulator, DESIGN.md §12)
inline thread_local unsigned g_metric_worker = 0;
}  // namespace detail

inline bool metrics_enabled() { return detail::g_metrics_enabled; }
inline void set_metrics_enabled(bool on) { detail::g_metrics_enabled = on; }

/// Binds this thread to a per-metric slot (simulator-internal).
inline void set_metric_worker(unsigned w) {
  detail::g_metric_worker = w < kMaxMetricWorkers ? w : kMaxMetricWorkers - 1;
}
inline unsigned metric_worker() { return detail::g_metric_worker; }

// Merged, read-only cell views as they appear in a Snapshot. These keep the
// pre-sharding single-value layout; live storage is the slotted *Data below.
struct CounterCell {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeCell {
  std::string name;
  std::int64_t value = 0;
  std::int64_t high_water = std::numeric_limits<std::int64_t>::min();
};

struct HistogramCell {
  std::string name;
  // Ascending upper bounds; buckets has bounds.size() + 1 slots. A value v
  // lands in the first bucket whose bound is strictly greater than v; values
  // >= the last bound land in the final (overflow) bucket. So bucket 0 is
  // [-inf, bounds[0]), bucket i is [bounds[i-1], bounds[i]), and an exact
  // edge value bounds[i] belongs to bucket i + 1.
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
};

namespace detail {

struct alignas(64) CounterSlot {
  std::uint64_t value = 0;
};

struct CounterData {
  std::string name;
  CounterSlot slots[kMaxMetricWorkers];
  std::uint64_t merged() const {
    std::uint64_t total = 0;
    for (const CounterSlot& s : slots) total += s.value;
    return total;
  }
};

struct alignas(64) GaugeSlot {
  std::int64_t value = 0;
  std::int64_t high_water = std::numeric_limits<std::int64_t>::min();
  bool touched = false;
};

struct GaugeData {
  std::string name;
  GaugeSlot slots[kMaxMetricWorkers];
  std::int64_t merged_value() const {
    std::int64_t best = 0;
    bool any = false;
    for (const GaugeSlot& s : slots) {
      if (!s.touched) continue;
      if (!any || s.value > best) best = s.value;
      any = true;
    }
    return best;
  }
  std::int64_t merged_high_water() const {
    std::int64_t hw = std::numeric_limits<std::int64_t>::min();
    for (const GaugeSlot& s : slots) {
      if (s.high_water > hw) hw = s.high_water;
    }
    return hw;
  }
};

struct alignas(64) HistogramSlot {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
};

struct HistogramData {
  std::string name;
  std::vector<std::int64_t> bounds;
  // first_bucket[w]: how many bounds are <= 2^(w-1), i.e. are passed by
  // every positive value of bit width w (w = 0 stands for v <= 0), capped
  // at 255 (a lower start is still correct). record() starts its bound scan
  // there, so on a ladder whose bounds at least double it compares at most
  // a couple of bounds instead of walking the ladder.
  std::array<std::uint8_t, 64> first_bucket{};
  void index_bounds();
  // Slot-major: worker w's buckets are [w * (bounds.size() + 1), ...) — one
  // contiguous private stripe per worker, no shared cache lines inside.
  std::vector<std::uint64_t> buckets;
  HistogramSlot slots[kMaxMetricWorkers];
  // Scratch for cell(): merged view rebuilt on demand, address stable for
  // the life of the process (interned handles compare cell() pointers).
  mutable HistogramCell merged;
  void merge_into(HistogramCell& out) const;
};

}  // namespace detail

/// Monotone event count. Copyable value handle; default-constructed handles
/// are inert.
class Counter {
 public:
  Counter() = default;
  BENTO_HOT void inc(std::uint64_t n = 1) {
    if (!detail::g_metrics_enabled || cell_ == nullptr) return;
    cell_->slots[detail::g_metric_worker].value += n;
  }
  std::uint64_t value() const { return cell_ != nullptr ? cell_->merged() : 0; }

 private:
  friend class Registry;
  explicit Counter(detail::CounterData* cell) : cell_(cell) {}
  detail::CounterData* cell_ = nullptr;
};

/// Point-in-time level with a high-water mark (queue depths, live objects).
class Gauge {
 public:
  Gauge() = default;
  BENTO_HOT void set(std::int64_t v) {
    if (!detail::g_metrics_enabled || cell_ == nullptr) return;
    set_unchecked(cell_->slots[detail::g_metric_worker], v);
  }
  BENTO_HOT void add(std::int64_t delta) {
    if (!detail::g_metrics_enabled || cell_ == nullptr) return;
    detail::GaugeSlot& s = cell_->slots[detail::g_metric_worker];
    set_unchecked(s, s.value + delta);
  }
  std::int64_t value() const { return cell_ != nullptr ? cell_->merged_value() : 0; }
  std::int64_t high_water() const {
    if (cell_ == nullptr) return 0;
    const std::int64_t hw = cell_->merged_high_water();
    return hw != std::numeric_limits<std::int64_t>::min() ? hw : 0;
  }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeData* cell) : cell_(cell) {}
  static void set_unchecked(detail::GaugeSlot& s, std::int64_t v) {
    s.value = v;
    s.touched = true;
    if (v > s.high_water) s.high_water = v;
  }
  detail::GaugeData* cell_ = nullptr;
};

/// Fixed-bucket histogram; bounds are frozen at registration. record() is a
/// short linear scan over the bounds (latency specs are ~a dozen entries,
/// branch behavior is stable), then three adds.
class Histogram {
 public:
  Histogram() = default;
  BENTO_HOT void record(std::int64_t v) {
    if (!detail::g_metrics_enabled || cell_ == nullptr) return;
    const std::uint64_t mag = v > 0 ? static_cast<std::uint64_t>(v) : 0;
    std::size_t i = cell_->first_bucket[std::bit_width(mag)];
    const std::size_t n = cell_->bounds.size();
    while (i < n && v >= cell_->bounds[i]) ++i;
    const unsigned w = detail::g_metric_worker;
    cell_->buckets[w * (n + 1) + i] += 1;
    detail::HistogramSlot& s = cell_->slots[w];
    s.count += 1;
    s.sum += v;
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
  }
  std::uint64_t count() const {
    if (cell_ == nullptr) return 0;
    std::uint64_t total = 0;
    for (const detail::HistogramSlot& s : cell_->slots) total += s.count;
    return total;
  }
  /// Merged view, rebuilt on each call; the pointer is stable per interned
  /// name. Re-call after further record()s — the view is a snapshot.
  const HistogramCell* cell() const {
    if (cell_ == nullptr) return nullptr;
    cell_->merge_into(cell_->merged);
    return &cell_->merged;
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramData* cell) : cell_(cell) {}
  detail::HistogramData* cell_ = nullptr;
};

/// Default latency bucket upper bounds, microseconds of sim time: 50 µs up
/// to 1 s in a coarse exponential ladder (matching the scale of circuit
/// round trips in the testbed).
inline constexpr std::int64_t kLatencyBucketsUs[] = {
    50,     100,    250,    500,     1'000,   2'500,   5'000,
    10'000, 25'000, 50'000, 100'000, 250'000, 500'000, 1'000'000};

/// One read-only copy of everything the registry knows, plus free-form
/// pre-formatted sections appended by higher layers (World::snapshot_stats
/// adds per-server, per-container and per-node blocks).
struct Snapshot {
  std::vector<CounterCell> counters;
  std::vector<GaugeCell> gauges;
  std::vector<HistogramCell> histograms;
  std::vector<std::string> sections;

  /// Human-readable text dump (the "stats dump" artifact).
  std::string to_string() const;

  /// Machine-readable dump: one JSON object with sorted counter/gauge/
  /// histogram maps plus the free-form sections as escaped strings. Integer
  /// values only and map order fixed by the registry's sorted interning, so
  /// identical seeded runs produce byte-identical output (CI diffs these).
  void to_json(std::ostream& os) const;
  std::string to_json() const;
};

class Registry {
 public:
  /// Interning registration: same name returns a handle to the same cell.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `bounds` must be strictly ascending and non-empty; ignored (the
  /// original spec sticks) when `name` is already registered.
  Histogram histogram(std::string_view name,
                      std::span<const std::int64_t> bounds = kLatencyBucketsUs);

  /// Zeroes every value in place. Handles stay valid — registrations are
  /// never dropped — so scenarios can reset between runs for determinism.
  void reset();

  Snapshot snapshot() const;

 private:
  // std::less<> enables string_view lookups without temporary strings.
  std::map<std::string, std::unique_ptr<detail::CounterData>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeData>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramData>, std::less<>> histograms_;
};

/// Process-global registry (one world at a time; registration and reads are
/// serial-context operations — only the slotted hot paths run on workers).
Registry& registry();

}  // namespace bento::obs
