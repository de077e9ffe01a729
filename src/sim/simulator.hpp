// Discrete-event simulation engine: region-sharded with conservative
// lookahead (DESIGN.md §12).
//
// Deterministic: all randomness flows from the seed given at construction,
// and events fire in (when, origin region, seq) order — a strict total
// order that is a function of the logical event graph alone. Everything
// above (network, Tor overlay, Bento, experiment harnesses) is written
// against this clock rather than wall time.
//
// Sharding model. Nodes are partitioned into *regions* at topology build
// time (Network::set_region); the region is the determinism unit. Each
// region owns its event heap, SlabPool, Rng stream (split deterministically
// from the master seed; region 0 keeps the master stream) and clock.
// *Shards* are worker threads: region r is driven by worker (r mod shards),
// so the region split — and therefore every trace — is invariant under the
// shard count. Execution proceeds in conservative-lookahead windows: with
// T_min the earliest pending timestamp, all events with when < T_min +
// lookahead may run in parallel, because a cross-region message takes at
// least the minimum cross-region propagation delay (the lookahead bound the
// Network installs). Cross-region events travel through per-(src,dst)
// mailboxes drained into the destination heap at the window barrier; the
// (when, origin, seq) key makes arrival timing irrelevant to pop order.
// Multi-region topologies run the windowed executor even at shards=1, so
// the trace is byte-identical at every shard count; single-region
// topologies keep the original serial stepper bit-for-bit.
//
// Event datapath: scheduling a handler used to box a std::function into a
// std::priority_queue, which heap-allocates for every capture larger than
// the libstdc++ SBO (16 bytes — i.e. for essentially every real handler).
// EventFn below is a move-only callable with 64 bytes of inline storage,
// sized so the common captures (this + a Packet, this + a couple of words)
// stay inline; larger captures fall back to a slab pool owned by the
// scheduling region, so steady-state scheduling performs zero heap
// allocations. Cross-region and exclusive events may not borrow a region
// pool (slabs would be freed from another thread) and take the plain heap
// when they overflow the inline buffer instead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/annotations.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace bento::sim {

using util::Duration;
using util::Time;

/// Recycles fixed-size allocations for event callables that overflow the
/// inline buffer. Freed slabs go on a free list and are reused by later
/// events, so even capture-heavy workloads stop allocating once warm.
/// Single-owner: each region has its own pool, touched only by the worker
/// driving that region.
class SlabPool {
 public:
  static constexpr std::size_t kSlabSize = 192;

  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    while (free_ != nullptr) {
      Slab* next = free_->next;
      ::operator delete(free_);
      free_ = next;
    }
  }

  BENTO_HOT void* allocate(std::size_t n) {
    // bentolint: allow(BL102 oversized captures take the plain heap by design)
    if (n > kSlabSize) return ::operator new(n);  // oversized: plain heap
    if (free_ != nullptr) {
      Slab* s = free_;
      free_ = s->next;
      return s;
    }
    // bentolint: allow(BL102 cold pool refill, amortized to zero at steady state)
    return ::operator new(sizeof(Slab));
  }

  BENTO_HOT void deallocate(void* p, std::size_t n) {
    if (n > kSlabSize) {
      ::operator delete(p);
      return;
    }
    Slab* s = static_cast<Slab*>(p);
    s->next = free_;
    free_ = s;
  }

 private:
  union Slab {
    Slab* next;
    alignas(std::max_align_t) std::byte storage[kSlabSize];
  };
  Slab* free_ = nullptr;
};

/// Move-only `void()` callable with small-buffer optimization. Callables up
/// to kInlineSize bytes live inside the event itself; larger ones borrow a
/// slab from the scheduling region's pool (returned on destruction), or —
/// for cross-region/exclusive events, which are destroyed on a different
/// thread than they were created — the plain thread-safe heap (kBoxed tag).
class EventFn {
 public:
  static constexpr std::size_t kInlineSize = 64;

  /// Tag: no pool; overflow captures go to ::operator new directly.
  struct BoxedTag {};
  static constexpr BoxedTag kBoxed{};

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  EventFn(SlabPool& pool, F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
      vt_ = &inline_vtable<Fn>;
    } else {
      heap_ = pool.allocate(sizeof(Fn));
      try {
        ::new (heap_) Fn(std::forward<F>(f));
      } catch (...) {
        pool.deallocate(heap_, sizeof(Fn));
        heap_ = nullptr;
        throw;
      }
      pool_ = &pool;
      vt_ = &heap_vtable<Fn>;
    }
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  EventFn(BoxedTag, F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
      vt_ = &inline_vtable<Fn>;
    } else {
      // bentolint: allow(BL102 cross-region/exclusive overflow captures take the plain heap; region pools are single-owner)
      heap_ = ::operator new(sizeof(Fn));
      try {
        ::new (heap_) Fn(std::forward<F>(f));
      } catch (...) {
        ::operator delete(heap_);
        heap_ = nullptr;
        throw;
      }
      vt_ = &heap_vtable<Fn>;
    }
  }

  EventFn(EventFn&& o) noexcept { move_from(o); }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  BENTO_HOT void operator()() { vt_->invoke(target()); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

 private:
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  struct VTable {
    void (*invoke)(void*);
    // Move-construct into dst's inline buffer and destroy src (inline only;
    // heap callables move by pointer swap and never relocate).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*);
    std::size_t heap_size;  // 0 for inline callables
  };

  template <typename Fn>
  static constexpr VTable inline_vtable = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      0};

  template <typename Fn>
  static constexpr VTable heap_vtable = {
      [](void* p) { (*static_cast<Fn*>(p))(); },
      nullptr,
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      sizeof(Fn)};

  void* target() noexcept { return heap_ != nullptr ? heap_ : static_cast<void*>(inline_); }

  void move_from(EventFn& o) noexcept {
    vt_ = o.vt_;
    heap_ = o.heap_;
    pool_ = o.pool_;
    if (vt_ != nullptr && heap_ == nullptr) vt_->relocate(inline_, o.inline_);
    o.vt_ = nullptr;
    o.heap_ = nullptr;
    o.pool_ = nullptr;
  }

  void reset() noexcept {
    if (vt_ == nullptr) return;
    vt_->destroy(target());
    if (heap_ != nullptr) {
      if (pool_ != nullptr) {
        pool_->deallocate(heap_, vt_->heap_size);
      } else {
        ::operator delete(heap_);  // kBoxed: no pool to return to
      }
    }
    vt_ = nullptr;
    heap_ = nullptr;
    pool_ = nullptr;
  }

  alignas(std::max_align_t) std::byte inline_[kInlineSize];
  void* heap_ = nullptr;
  SlabPool* pool_ = nullptr;
  const VTable* vt_ = nullptr;
};

/// Pending events of one region (or of the exclusive queue), popped in
/// (when, origin, seq) order. The binary heap sifts 24-byte keys only; each
/// event's body (queue time, span context, callable) lives in a slot of
/// fixed-size chunks that never move, recycled through a free list, so no
/// sift ever relocates a callable. Dispatch order depends on the keys
/// alone, which carry the same strict total order the full events did.
/// pop() leaves the body in place and its slot reserved until release():
/// a handler may schedule more events (growing the queue) while it runs.
class EventQueue {
 public:
  struct Key {
    Time when;
    std::uint64_t seq;     // per-origin-region FIFO tie-break
    std::uint32_t origin;  // scheduling region (kNoRegion for exclusive)
    std::uint32_t slot;    // body index; no part of the order

    bool before(const Key& o) const {
      if (when != o.when) return when < o.when;
      if (origin != o.origin) return origin < o.origin;
      return seq < o.seq;
    }
  };

  struct Body {
    Time queued_at;  // scheduling time, for the dispatch-lag histogram
    // Span context captured at schedule() and restored around dispatch, so
    // causality crosses timers and modeled delays without any handler
    // threading it through (DESIGN.md §8). Sidecar only: never on the wire.
    obs::SpanContext ctx;
    EventFn fn;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  /// The next event's key; the queue must not be empty.
  const Key& top() const { return keys_.front(); }

  BENTO_HOT void push(Time when, std::uint64_t seq, std::uint32_t origin, Time queued_at,
                      obs::SpanContext ctx, EventFn fn);
  /// Removes the head key. Its body stays valid until release(key.slot).
  BENTO_HOT Key pop();
  Body& body(std::uint32_t slot) { return chunks_[slot / kChunk][slot % kChunk]; }
  /// Destroys a popped event's callable and recycles its slot.
  BENTO_HOT void release(std::uint32_t slot);

 private:
  // Bodies per chunk: small, so a queue's slack beyond its peak depth stays
  // under one kilobyte.
  static constexpr std::uint32_t kChunk = 8;
  void grow();

  std::vector<Key> keys_;  // binary min-heap on Key::before
  std::vector<std::unique_ptr<Body[]>> chunks_;
  std::vector<std::uint32_t> free_;  // capacity == slots: push_back never grows
};

namespace detail {
/// Per-thread execution context: which simulator/region is dispatching on
/// this thread, and whether we are inside a parallel window (cross-region
/// sends must then go through mailboxes). Type-erased so the header-only
/// template entry points can read it without naming Simulator internals.
struct ExecCtx {
  const void* sim = nullptr;
  void* region = nullptr;
  bool in_window = false;
};
// bentolint: allow(BL105 thread_local dispatch context, one per worker, DESIGN.md §12)
inline thread_local ExecCtx g_exec{};
}  // namespace detail

class Simulator {
 public:
  /// Origin rank of exclusive (global, barrier-serialized) events; sorts
  /// after every region at equal timestamps.
  static constexpr std::uint32_t kNoRegion = 0xffffffff;
  /// Worker-pool ceiling (== obs::kMaxMetricWorkers: each worker gets a
  /// metric slot).
  static constexpr unsigned kMaxShards = 8;
  /// Region ceiling (== obs::kMaxSpanRegions: span ids carry the region in
  /// their top 8 bits).
  static constexpr std::uint32_t kMaxRegions = 256;

  /// `shards` == 0 reads the BENTO_SIM_SHARDS environment override
  /// (defaulting to 1), so any existing test or bench can be re-run sharded
  /// without code changes; values are clamped to [1, kMaxShards].
  explicit Simulator(std::uint64_t seed = 1, unsigned shards = 0);
  // The simulator registers itself as the process-wide sim clock (its
  // address is the registration key), so it must stay put.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current sim time: the dispatching region's clock from inside a
  /// handler, the global clock otherwise.
  Time now() const {
    const detail::ExecCtx& x = detail::g_exec;
    if (x.sim == this && x.region != nullptr) {
      return static_cast<const Region*>(x.region)->now;
    }
    return now_;
  }

  /// The current region's Rng stream — region 0's (the master stream, which
  /// is exactly the pre-sharding generator) outside any dispatch.
  util::Rng& rng() { return current_region().rng; }

  /// Worker threads this simulator may run windows on (1 = no pool).
  unsigned shards() const { return shards_; }
  /// Regions created so far (always >= 1; region 0 exists at construction).
  std::uint32_t regions() const { return static_cast<std::uint32_t>(regions_.size()); }

  /// Creates a new region with its own heap, pool, clock and Rng stream
  /// (split deterministically from the master seed) and returns its id.
  /// Topology-build-time only: must not be called mid-run.
  std::uint32_t add_region();

  /// Region currently dispatching on this thread; kNoRegion outside any
  /// handler (setup code, exclusive events).
  std::uint32_t current_region_id() const {
    const detail::ExecCtx& x = detail::g_exec;
    if (x.sim == this && x.region != nullptr) {
      return static_cast<const Region*>(x.region)->id;
    }
    return kNoRegion;
  }

  /// Conservative lookahead bound: a handler running in one region may only
  /// schedule into *another* region at >= this far in the future (the
  /// Network installs the minimum cross-region propagation delay). Multi-
  /// region topologies with a zero bound fall back to the serial stepper.
  void set_lookahead(Duration d) { lookahead_ = d; }
  Duration lookahead() const { return lookahead_; }

  /// Schedules `fn` at absolute time `t` (clamped to now if in the past) in
  /// the current region (region 0 outside any dispatch). Accepts any
  /// `void()` callable; small captures are stored inline in the event queue
  /// with no heap allocation.
  template <typename F>
  void at(Time t, F&& fn) {
    Region& r = current_region();
    schedule_in(r, t, EventFn(r.pool, std::forward<F>(fn)));
  }

  /// Schedules `fn` after the given delay.
  template <typename F>
  void after(Duration d, F&& fn) {
    at(now() + d, std::forward<F>(fn));
  }

  /// Schedules `fn` at `t` in region `region`. Same-region posts are plain
  /// at(); cross-region posts ride the mailbox when issued from inside a
  /// parallel window (where `t` must respect the lookahead bound) and are
  /// pushed directly into the target heap otherwise.
  template <typename F>
  void post(std::uint32_t region, Time t, F&& fn) {
    Region& origin = current_region();
    if (region == origin.id) {
      schedule_in(origin, t, EventFn(origin.pool, std::forward<F>(fn)));
      return;
    }
    post_boxed(origin, region, t, EventFn(EventFn::kBoxed, std::forward<F>(fn)));
  }

  /// Schedules a *global* event: executed serially at a window barrier,
  /// after every region event with the same timestamp, with all workers
  /// parked — so the handler may mutate cross-region state (chaos control
  /// actions: partitions, crashes, throttles) without synchronization.
  template <typename F>
  void at_exclusive(Time t, F&& fn) {
    schedule_exclusive(t, EventFn(EventFn::kBoxed, std::forward<F>(fn)));
  }

  /// Runs one event serially; false if all queues are empty. Always the
  /// serial stepper (no windows), regardless of shard count.
  bool step();

  /// Runs until the queues are empty or `limit` events have fired. Full
  /// drains (the default) of multi-region or multi-shard simulations use
  /// the windowed executor; finite limits always run the serial stepper.
  void run(std::uint64_t limit = UINT64_MAX);

  /// Runs events with timestamp <= deadline; clock lands on `deadline`.
  void run_until(Time deadline);

  /// Number of events executed so far (all regions + exclusive).
  std::uint64_t events_executed() const;
  /// Events still pending (all regions + mailboxes + exclusive).
  std::size_t pending() const;

 private:
  /// A cross-region event in flight: written to a mailbox by the origin's
  /// worker, moved into the target's queue at the window barrier.
  struct Posted {
    Time when;
    std::uint64_t seq;
    std::uint32_t origin;
    Time queued_at;
    obs::SpanContext ctx;
    EventFn fn;
  };

  /// One region: the determinism unit. heap/pool/rng/clock are owned by
  /// whichever worker drives the region during a window (region id mod
  /// worker count), and by the coordinating thread between windows.
  struct Region {
    std::uint32_t id = 0;
    Time now{};
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
    SlabPool pool;  // declared before queue: events may hold pooled slabs
    EventQueue queue;
    util::Rng rng{1};
  };

  Region& current_region() {
    detail::ExecCtx& x = detail::g_exec;
    if (x.sim == this && x.region != nullptr) return *static_cast<Region*>(x.region);
    return *regions_.front();
  }

  BENTO_HOT void schedule_in(Region& r, Time t, EventFn fn);
  void post_boxed(Region& origin, std::uint32_t target, Time t, EventFn fn);
  void schedule_exclusive(Time t, EventFn fn);

  /// The earliest head key over every region queue, or nullptr.
  const EventQueue::Key* region_min() const;
  /// Pops and dispatches the head of `r` (counters, trace, span context).
  BENTO_HOT void exec_region_event(Region& r);
  void exec_exclusive_event();

  void run_windowed(Time deadline, bool bounded);
  void run_serial(std::uint64_t limit, Time deadline, bool bounded);
  void begin_parallel();
  void run_window(Time horizon);
  void run_worker_window(unsigned worker, Time horizon);
  struct DrainStats {
    std::uint64_t drained = 0;
    std::uint64_t max_depth = 0;
  };
  DrainStats drain_mailboxes();
  void ensure_pool();
  void stop_pool();
  void worker_main(unsigned worker);
  void sync_region_clocks(Time t);

  Time now_;
  Duration lookahead_{};
  std::uint64_t seed_ = 1;  // master seed; region streams split from it
  unsigned shards_ = 1;
  std::uint64_t excl_next_seq_ = 0;
  std::uint64_t excl_executed_ = 0;
  // unique_ptr keeps Region addresses stable across add_region() (handlers
  // and the TLS exec context hold raw pointers).
  std::vector<std::unique_ptr<Region>> regions_;
  EventQueue excl_;
  // Mailboxes, index [origin * regions + target]: written by the origin's
  // worker during a window, drained by the coordinator at the barrier.
  std::vector<std::vector<Posted>> mail_;
  std::size_t mail_regions_ = 0;  // regions() the mailbox grid is sized for
  // Regions each worker drives. Rebuilt only when the region count changes
  // (owned_built_ tracks it), so steady-state windowed runs reuse capacity
  // and stay allocation-free.
  std::vector<std::vector<Region*>> owned_;
  std::size_t owned_built_ = 0;
  // Per-region executed-count baseline captured at window open; the deltas
  // at the barrier feed the shard profiler (DESIGN.md §13).
  std::vector<std::uint64_t> win_base_;

  // Worker pool: generation-counted rounds under one mutex. The coordinator
  // publishes a horizon and bumps round_; workers run their regions up to
  // the horizon and decrement pending_workers_. Spawned lazily on the first
  // windowed run; worker 0 is the coordinating thread itself.
  // bentolint: allow(BL105 sharded-simulator worker pool, DESIGN.md §12)
  std::vector<std::thread> workers_;
  // bentolint: allow(BL105 window handshake lock for the worker pool, DESIGN.md §12)
  std::mutex pool_mx_;
  // bentolint: allow(BL105 window start/finish signaling, DESIGN.md §12)
  std::condition_variable pool_cv_;
  // bentolint: allow(BL105 window start/finish signaling, DESIGN.md §12)
  std::condition_variable pool_done_cv_;
  std::uint64_t round_ = 0;
  unsigned pending_workers_ = 0;
  Time horizon_{};  // published before each round, read by workers after the handshake
  bool pool_quit_ = false;
  // First exception a worker window caught; written under pool_mx_, rethrown
  // on the coordinating thread at the barrier so handler contract violations
  // surface as ordinary exceptions instead of std::terminate.
  std::exception_ptr win_error_;

  // Pre-registered observability handles: per-dispatch cost is a flag
  // branch plus pointer-indirect adds (DESIGN.md §8 overhead contract).
  obs::Counter m_events_;
  obs::Histogram m_dispatch_lag_us_;
  obs::Gauge m_pending_;
};

}  // namespace bento::sim
