#include "sim/simulator.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>

#include "obs/profile.hpp"
#include "util/annotations.hpp"
#include "util/log.hpp"
#include "util/simclock.hpp"

namespace bento::sim {

namespace {

std::int64_t sim_clock_thunk(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->now().micros();
}

// std::push_heap/pop_heap are max-heaps; invert `before` to pop the minimum.
struct KeyAfter {
  bool operator()(const EventQueue::Key& a, const EventQueue::Key& b) const {
    return b.before(a);
  }
};

// Returns a popped event's slot to its queue when dispatch ends, including
// by exception.
struct SlotLease {
  EventQueue& queue;
  std::uint32_t slot;
  ~SlotLease() { queue.release(slot); }
};

// Deterministic seed split for region Rng streams (splitmix64 finalizer):
// region r's stream is a pure function of (master seed, r), so it is
// invariant under the shard count. Region 0 keeps Rng(seed) itself.
std::uint64_t split_seed(std::uint64_t seed, std::uint32_t region) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (region + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Restores the dispatch TLS (exec context, span, trace region) even when a
// handler throws: a contract violation surfacing as an exception must not
// leak a dangling region pointer into the next simulation on this thread.
struct DispatchGuard {
  detail::ExecCtx saved;
  explicit DispatchGuard(const detail::ExecCtx& cur) : saved(cur) {}
  ~DispatchGuard() {
    detail::g_exec = saved;
    obs::set_current_span(obs::SpanContext{});
    obs::set_trace_region(0);
  }
};

unsigned shards_from_env() {
  // BL101 exemption rationale: the override selects the worker count, which
  // by construction cannot change any simulation result — determinism is
  // the point of the sharded design (DESIGN.md §12).
  const char* env = std::getenv("BENTO_SIM_SHARDS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || v < 1) return 1;
  return static_cast<unsigned>(v);
}

}  // namespace

BENTO_HOT void EventQueue::push(Time when, std::uint64_t seq, std::uint32_t origin,
                                Time queued_at, obs::SpanContext ctx, EventFn fn) {
  if (free_.empty()) grow();
  const std::uint32_t slot = free_.back();
  // bentolint: allow(BL102 key vector growth, amortized; bodies sit in recycled slots)
  keys_.push_back(Key{when, seq, origin, slot});
  free_.pop_back();
  Body& b = body(slot);
  b.queued_at = queued_at;
  b.ctx = ctx;
  b.fn = std::move(fn);
  std::push_heap(keys_.begin(), keys_.end(), KeyAfter{});
}

BENTO_HOT EventQueue::Key EventQueue::pop() {
  std::pop_heap(keys_.begin(), keys_.end(), KeyAfter{});
  const Key k = keys_.back();
  keys_.pop_back();
  return k;
}

BENTO_HOT void EventQueue::release(std::uint32_t slot) {
  body(slot).fn = EventFn{};
  // bentolint: allow(BL102 capacity reserved in grow() for every slot; never reallocates)
  free_.push_back(slot);
}

void EventQueue::grow() {
  const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunk);
  chunks_.push_back(std::make_unique<Body[]>(kChunk));
  // Room for every slot, grown geometrically: release() never reallocates.
  const std::size_t slots = chunks_.size() * kChunk;
  if (free_.capacity() < slots) free_.reserve(std::max(slots, 2 * free_.capacity()));
  // Lowest slot on top, so a queue reuses the front of its first chunk.
  for (std::uint32_t i = kChunk; i > 0; --i) free_.push_back(base + i - 1);
}

Simulator::Simulator(std::uint64_t seed, unsigned shards)
    : now_(Time::from_micros(0)),
      seed_(seed),
      m_events_(obs::registry().counter("sim.events")),
      m_dispatch_lag_us_(obs::registry().histogram("sim.dispatch_lag_us")),
      m_pending_(obs::registry().gauge("sim.queue_depth")) {
  if (shards == 0) shards = shards_from_env();
  shards_ = std::clamp(shards, 1u, kMaxShards);
  // Touch the profiler so its shard.* registry handles exist in every
  // binary that simulates — keeps snapshot metric sets consistent across
  // shard counts and run modes.
  obs::shard_profiler();
  auto r0 = std::make_unique<Region>();
  r0->id = 0;
  r0->rng = util::Rng(seed);
  regions_.push_back(std::move(r0));
  util::install_sim_clock(&sim_clock_thunk, this);
}

Simulator::~Simulator() {
  stop_pool();
  util::uninstall_sim_clock(this);
}

std::uint32_t Simulator::add_region() {
  if (regions_.size() >= kMaxRegions) {
    throw std::length_error("Simulator::add_region: region limit reached");
  }
  const auto id = static_cast<std::uint32_t>(regions_.size());
  auto r = std::make_unique<Region>();
  r->id = id;
  r->now = now_;
  r->rng = util::Rng(split_seed(seed_, id));
  regions_.push_back(std::move(r));
  return id;
}

BENTO_HOT void Simulator::schedule_in(Region& r, Time t, EventFn fn) {
  const Time tn = now();
  if (t < tn) t = tn;
  r.queue.push(t, r.next_seq++, r.id, tn, obs::current_span(), std::move(fn));
}

void Simulator::post_boxed(Region& origin, std::uint32_t target, Time t, EventFn fn) {
  if (target >= regions_.size()) {
    throw std::out_of_range("Simulator::post: unknown region");
  }
  const Time tn = now();
  if (t < tn) t = tn;
  const std::uint64_t seq = origin.next_seq++;
  const detail::ExecCtx& x = detail::g_exec;
  if (x.sim == this && x.in_window) {
    // Conservative-lookahead contract: inside a window, a cross-region event
    // must land at or beyond the horizon (the Network's minimum cross-region
    // propagation delay guarantees this; anything closer would have to run
    // inside a window another worker is already executing).
    if (t < horizon_) {
      throw std::logic_error(
          "Simulator::post: cross-region event inside the lookahead window");
    }
    // bentolint: allow(BL102 mailbox growth is amortized; capacity is kept across windows)
    mail_[origin.id * mail_regions_ + target].push_back(
        Posted{t, seq, origin.id, tn, obs::current_span(), std::move(fn)});
    return;
  }
  regions_[target]->queue.push(t, seq, origin.id, tn, obs::current_span(), std::move(fn));
}

void Simulator::schedule_exclusive(Time t, EventFn fn) {
  const detail::ExecCtx& x = detail::g_exec;
  if (x.sim == this && x.in_window && regions_.size() > 1) {
    // Single-region windows run on the coordinating thread alone, where the
    // exclusive heap is safe to touch; under parallel regions it is not.
    throw std::logic_error(
        "Simulator::at_exclusive: may not be called from inside a parallel window");
  }
  const Time tn = now();
  if (t < tn) t = tn;
  excl_.push(t, excl_next_seq_++, kNoRegion, tn, obs::current_span(), std::move(fn));
}

const EventQueue::Key* Simulator::region_min() const {
  const EventQueue::Key* mn = nullptr;
  for (const auto& rp : regions_) {
    if (!rp->queue.empty() && (mn == nullptr || rp->queue.top().before(*mn))) {
      mn = &rp->queue.top();
    }
  }
  return mn;
}

BENTO_HOT void Simulator::exec_region_event(Region& r) {
  const EventQueue::Key k = r.queue.pop();
  // The body is dispatched where it sits; the lease, declared before the
  // guard, destroys the callable after the dispatch context is restored.
  const SlotLease lease{r.queue, k.slot};
  EventQueue::Body& ev = r.queue.body(k.slot);
  r.now = k.when;
  detail::ExecCtx& x = detail::g_exec;
  DispatchGuard guard(x);
  x.sim = this;
  x.region = &r;
  obs::set_trace_region(r.id);
  obs::set_trace_order(k.when.micros(), k.origin, k.seq);
  ++r.executed;
  m_events_.inc();
  m_dispatch_lag_us_.record((k.when - ev.queued_at).count_micros());
  m_pending_.set(static_cast<std::int64_t>(r.queue.size()));
  obs::trace(obs::Ev::SimDispatch, 0, r.queue.size());
  // The predicate gate keeps the formatting cost out of the dispatch loop:
  // a Trace-level sink sees every event, everyone else pays one branch.
  if (util::log_enabled(util::LogLevel::Trace)) {
    util::log(util::LogLevel::Trace, "sim", "dispatch #", r.executed, " at t=",
              r.now.micros(), "us, ", r.queue.size(), " pending");
  }
  // Dispatch under the span context captured at schedule() so downstream
  // instrumentation (and any events this handler schedules) inherit the
  // originating request's causal chain; cleared after, never leaked across
  // events.
  obs::set_current_span(ev.ctx);
  ev.fn();
}

void Simulator::exec_exclusive_event() {
  const EventQueue::Key k = excl_.pop();
  const SlotLease lease{excl_, k.slot};
  EventQueue::Body& ev = excl_.body(k.slot);
  if (now_ < k.when) now_ = k.when;
  ++excl_executed_;
  m_events_.inc();
  m_dispatch_lag_us_.record((k.when - ev.queued_at).count_micros());
  m_pending_.set(static_cast<std::int64_t>(excl_.size()));
  obs::set_trace_region(0);
  obs::set_trace_order(k.when.micros(), kNoRegion, k.seq);
  obs::trace(obs::Ev::SimDispatch, 0, excl_.size());
  if (util::log_enabled(util::LogLevel::Trace)) {
    util::log(util::LogLevel::Trace, "sim", "exclusive #", excl_executed_, " at t=",
              now_.micros(), "us, ", excl_.size(), " pending");
  }
  DispatchGuard guard(detail::g_exec);
  obs::set_current_span(ev.ctx);
  ev.fn();
}

BENTO_HOT bool Simulator::step() {
  Region* best = nullptr;
  for (auto& rp : regions_) {
    if (rp->queue.empty()) continue;
    if (best == nullptr || rp->queue.top().before(best->queue.top())) best = rp.get();
  }
  if (!excl_.empty() && (best == nullptr || excl_.top().before(best->queue.top()))) {
    exec_exclusive_event();
    return true;
  }
  if (best == nullptr) return false;
  exec_region_event(*best);
  if (now_ < best->now) now_ = best->now;
  return true;
}

void Simulator::run(std::uint64_t limit) {
  const bool windowed = limit == UINT64_MAX &&
                        (regions_.size() > 1 || shards_ > 1) &&
                        (regions_.size() == 1 || lookahead_ > Duration{});
  if (windowed) {
    run_windowed(Time{}, /*bounded=*/false);
    return;
  }
  run_serial(limit, Time{}, /*bounded=*/false);
}

void Simulator::run_until(Time deadline) {
  const bool windowed = (regions_.size() > 1 || shards_ > 1) &&
                        (regions_.size() == 1 || lookahead_ > Duration{});
  if (windowed) {
    run_windowed(deadline, /*bounded=*/true);
    return;
  }
  run_serial(UINT64_MAX, deadline, /*bounded=*/true);
  if (now_ < deadline) now_ = deadline;
  sync_region_clocks(now_);
}

void Simulator::run_serial(std::uint64_t limit, Time deadline, bool bounded) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    if (bounded) {
      const EventQueue::Key* mn = region_min();
      if (!excl_.empty() && (mn == nullptr || excl_.top().before(*mn))) mn = &excl_.top();
      if (mn == nullptr || deadline < mn->when) break;
    }
    if (!step()) break;
  }
}

void Simulator::run_windowed(Time deadline, bool bounded) {
  begin_parallel();
  const bool multi = regions_.size() > 1;
  // Profiling splits in two (DESIGN.md §13): deterministic sim-domain
  // tallies are recorded only for multi-region topologies — which run the
  // windowed executor at *every* shard count, so the profile is invariant
  // under the worker count — while wall-clock buckets (observational only,
  // never in deterministic artifacts) are collected whenever live. Hooks
  // fire per window, never per event, keeping the always-on cost flat.
  obs::ShardProfiler& prof = obs::shard_profiler();
  const bool prof_live = prof.enabled();
  if (prof_live && multi) prof.record_lookahead(lookahead_.count_micros());
  const std::uint64_t run_t0 = prof_live ? obs::prof_now_ns() : 0;
  const Time inf = Time::from_micros(std::numeric_limits<std::int64_t>::max());
  const Duration tick = Duration::micros(1);
  for (;;) {
    {
      const std::uint64_t t0 = prof_live ? obs::prof_now_ns() : 0;
      const DrainStats ds = drain_mailboxes();
      if (prof_live) {
        prof.add_drain_wall(obs::prof_now_ns() - t0);
        if (multi && ds.drained > 0) prof.on_mailbox_drain(ds.drained, ds.max_depth);
      }
    }
    const EventQueue::Key* rmin = region_min();
    const bool have_excl = !excl_.empty();
    if (rmin == nullptr && !have_excl) break;
    Time tmin = rmin != nullptr ? rmin->when : excl_.top().when;
    if (have_excl && excl_.top().when < tmin) tmin = excl_.top().when;
    if (bounded && deadline < tmin) break;
    // Advance the barrier-context clock to the window floor so anything
    // recorded between windows (the shard.window/shard.barrier events
    // below) stamps T_min instead of a stale start-of-run time. Handlers
    // never see this clock — they read their region's.
    if (now_ < tmin) now_ = tmin;
    if (rmin == nullptr || (have_excl && excl_.top().before(*rmin))) {
      const std::uint64_t t0 = prof_live ? obs::prof_now_ns() : 0;
      exec_exclusive_event();
      if (prof_live) {
        prof.add_exclusive_wall(obs::prof_now_ns() - t0);
        if (multi) prof.on_exclusive();
      }
      continue;
    }
    // Window horizon: T_min + lookahead (unbounded when there is only one
    // region), capped so exclusive events and the deadline fall between
    // windows. Strict-< execution makes the +1µs caps inclusive bounds.
    Time h = multi ? rmin->when + lookahead_ : inf;
    if (have_excl) {
      const Time cap = excl_.top().when + tick;
      if (cap < h) h = cap;
    }
    if (bounded) {
      const Time cap = deadline + tick;
      if (cap < h) h = cap;
    }
    const bool profile_window = prof_live && multi;
    if (profile_window) {
      for (std::size_t i = 0; i < regions_.size(); ++i) {
        win_base_[i] = regions_[i]->executed;
      }
    }
    const std::uint64_t wt0 = prof_live ? obs::prof_now_ns() : 0;
    run_window(h);
    if (prof_live) prof.add_window_wall(obs::prof_now_ns() - wt0);
    if (profile_window) {
      std::uint32_t active = 0;
      for (std::size_t i = 0; i < regions_.size(); ++i) {
        win_base_[i] = regions_[i]->executed - win_base_[i];
        if (win_base_[i] > 0) ++active;
      }
      const std::int64_t span_us = (h - tmin).count_micros();
      prof.on_window_close(win_base_.data(),
                           static_cast<std::uint32_t>(regions_.size()), span_us);
      if (obs::recorder().enabled()) {
        obs::trace(obs::Ev::ShardBarrier, active,
                   static_cast<std::uint64_t>(span_us));
        for (std::size_t i = 0; i < regions_.size(); ++i) {
          if (win_base_[i] > 0) {
            obs::trace(obs::Ev::ShardWindow, static_cast<std::uint32_t>(i),
                       win_base_[i]);
          }
        }
      }
    }
    // Exclusive events due inside the closed window run now — but a region
    // event an exclusive handler schedules at the same timestamp sorts
    // before the *next* exclusive, exactly as the serial stepper would run
    // them, so re-check the region heads between exclusives.
    while (!excl_.empty() && excl_.top().when < h &&
           !(bounded && deadline < excl_.top().when)) {
      const EventQueue::Key* rm = region_min();
      if (rm != nullptr && rm->before(excl_.top())) break;
      const std::uint64_t t0 = prof_live ? obs::prof_now_ns() : 0;
      exec_exclusive_event();
      if (prof_live) {
        prof.add_exclusive_wall(obs::prof_now_ns() - t0);
        if (multi) prof.on_exclusive();
      }
    }
  }
  if (prof_live) prof.add_run_wall(obs::prof_now_ns() - run_t0);
  Time fin = now_;
  for (const auto& rp : regions_) {
    if (fin < rp->now) fin = rp->now;
  }
  if (bounded && fin < deadline) fin = deadline;
  now_ = fin;
  sync_region_clocks(fin);
}

void Simulator::begin_parallel() {
  // Serial context: re-sync span-id generation here so the lazy check in
  // span_alloc_id never writes from a worker thread mid-window.
  obs::sync_span_generation();
  const std::size_t n = regions_.size();
  if (mail_regions_ != n) {
    mail_regions_ = n;
    mail_.clear();
    mail_.resize(n * n);
  }
  // Rebuild the worker→regions map only when the topology changed; on the
  // steady state (scenarios calling run() in a loop) this reuses capacity
  // and performs zero allocations.
  if (owned_.size() != shards_) {
    owned_.clear();
    owned_.resize(shards_);
    owned_built_ = 0;
  }
  if (owned_built_ != n) {
    for (auto& v : owned_) v.clear();
    for (auto& rp : regions_) owned_[rp->id % shards_].push_back(rp.get());
    owned_built_ = n;
  }
  if (win_base_.size() != n) win_base_.resize(n);
  if (shards_ > 1) ensure_pool();
}

void Simulator::run_window(Time horizon) {
  // Multi-region windows buffer trace records per region and merge them at
  // the barrier in dispatch order, so the ring content is independent of
  // the shard count. Single-region simulations write the ring directly.
  const bool buffer = regions_.size() > 1;
  obs::ShardProfiler& prof = obs::shard_profiler();
  const bool prof_live = prof.enabled();
  if (buffer) obs::recorder().begin_window(regions_.size());
  if (workers_.empty()) {
    horizon_ = horizon;
    run_worker_window(0, horizon);
  } else {
    {
      // bentolint: allow(BL105 round publish under the pool mutex, DESIGN.md §12)
      std::lock_guard<std::mutex> lk(pool_mx_);
      horizon_ = horizon;
      ++round_;
      pending_workers_ = static_cast<unsigned>(workers_.size());
    }
    pool_cv_.notify_all();
    run_worker_window(0, horizon);
    // Barrier-stall attribution: how long the coordinator waited for the
    // slowest worker after finishing its own regions.
    const std::uint64_t bt0 = prof_live ? obs::prof_now_ns() : 0;
    {
      // bentolint: allow(BL105 lookahead barrier wait, DESIGN.md §12)
      std::unique_lock<std::mutex> lk(pool_mx_);
      pool_done_cv_.wait(lk, [this] { return pending_workers_ == 0; });
    }
    if (prof_live) prof.add_barrier_wait(obs::prof_now_ns() - bt0);
  }
  if (buffer) {
    const std::uint64_t mt0 = prof_live ? obs::prof_now_ns() : 0;
    obs::recorder().end_window();
    if (prof_live) prof.add_merge_wall(obs::prof_now_ns() - mt0);
  }
  if (win_error_) {
    std::exception_ptr e = win_error_;
    win_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Simulator::run_worker_window(unsigned worker, Time horizon) {
  detail::ExecCtx& x = detail::g_exec;
  x.sim = this;
  x.region = nullptr;
  x.in_window = true;
  std::vector<Region*>& owned = owned_[worker];
  // Per-worker occupancy: one clock pair around the whole window loop (the
  // per-event cost of profiling is zero). Worker 0's busy time doubles as
  // the coordinator's dispatch attribution bucket.
  obs::ShardProfiler& prof = obs::shard_profiler();
  const bool prof_live = prof.enabled();
  const std::uint64_t t0 = prof_live ? obs::prof_now_ns() : 0;
  std::uint64_t dispatched = 0;
  // With a single region the (sole) window runs unbounded on this thread;
  // it must yield to exclusive events as they come due mid-window.
  const bool solo = regions_.size() == 1;
  try {
    for (;;) {
      Region* best = nullptr;
      for (Region* r : owned) {
        if (r->queue.empty() || !(r->queue.top().when < horizon)) continue;
        if (best == nullptr || r->queue.top().before(best->queue.top())) best = r;
      }
      if (best == nullptr) break;
      if (solo && !excl_.empty() && excl_.top().before(best->queue.top())) {
        break;
      }
      exec_region_event(*best);
      ++dispatched;
    }
  } catch (...) {
    // An exception on a worker must not escape the pool: park it and rethrow
    // on the coordinating thread once every worker reaches the barrier.
    // bentolint: allow(BL105 worker-exception capture under the pool mutex, DESIGN.md §12)
    std::lock_guard<std::mutex> lk(pool_mx_);
    if (!win_error_) win_error_ = std::current_exception();
  }
  if (prof_live) prof.add_worker_busy(worker, obs::prof_now_ns() - t0, dispatched);
  x = detail::ExecCtx{};
}

Simulator::DrainStats Simulator::drain_mailboxes() {
  DrainStats ds;
  for (std::size_t i = 0; i < mail_.size(); ++i) {
    std::vector<Posted>& box = mail_[i];
    if (box.empty()) continue;
    if (box.size() > ds.max_depth) ds.max_depth = box.size();
    ds.drained += box.size();
    EventQueue& queue = regions_[i % mail_regions_]->queue;
    for (Posted& ev : box) {
      queue.push(ev.when, ev.seq, ev.origin, ev.queued_at, ev.ctx, std::move(ev.fn));
    }
    box.clear();  // keeps capacity for the next window
  }
  return ds;
}

void Simulator::ensure_pool() {
  if (!workers_.empty()) return;
  workers_.reserve(shards_ - 1);
  for (unsigned w = 1; w < shards_; ++w) {
    // bentolint: allow(BL105 lazily spawned window workers, joined in stop_pool, DESIGN.md §12)
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

void Simulator::stop_pool() {
  if (workers_.empty()) return;
  {
    // bentolint: allow(BL105 pool shutdown handshake, DESIGN.md §12)
    std::lock_guard<std::mutex> lk(pool_mx_);
    pool_quit_ = true;
  }
  pool_cv_.notify_all();
  // bentolint: allow(BL105 joining the window workers, DESIGN.md §12)
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  pool_quit_ = false;
}

void Simulator::worker_main(unsigned worker) {
  obs::set_metric_worker(worker);
  std::uint64_t seen = 0;
  for (;;) {
    Time h{};
    {
      // bentolint: allow(BL105 worker round wait, DESIGN.md §12)
      std::unique_lock<std::mutex> lk(pool_mx_);
      pool_cv_.wait(lk, [&] { return pool_quit_ || round_ != seen; });
      if (pool_quit_) return;
      seen = round_;
      h = horizon_;
    }
    run_worker_window(worker, h);
    {
      // bentolint: allow(BL105 barrier arrival under the pool mutex, DESIGN.md §12)
      std::lock_guard<std::mutex> lk(pool_mx_);
      --pending_workers_;
      if (pending_workers_ == 0) pool_done_cv_.notify_all();
    }
  }
}

void Simulator::sync_region_clocks(Time t) {
  for (auto& rp : regions_) {
    if (rp->now < t) rp->now = t;
  }
}

std::uint64_t Simulator::events_executed() const {
  std::uint64_t total = excl_executed_;
  for (const auto& rp : regions_) total += rp->executed;
  return total;
}

std::size_t Simulator::pending() const {
  std::size_t total = excl_.size();
  for (const auto& rp : regions_) total += rp->queue.size();
  for (const auto& box : mail_) total += box.size();
  return total;
}

}  // namespace bento::sim
