// Shard-aware self-profiling for the region-sharded simulator
// (DESIGN.md §13).
//
// The profiler watches the windowed executor from the inside: every
// conservative-lookahead window reports its span, its per-region event
// counts, mailbox drain volume and depth watermarks, exclusive-event
// frequency and the lookahead horizon — all *sim-domain* quantities that
// are pure functions of (seed, topology, region split), recorded through
// the allocation-free metrics registry plus fixed-size tallies in this
// class. That deterministic half is what `to_json()` (default),
// `to_section()` and the `ShardProfile` block in stats dumps expose, and it
// is byte-identical across repeated runs and across shard counts.
//
// The wall-clock half — per-worker busy time, barrier wait, mailbox-drain
// and trace-merge time — is observational only: it is collected into
// cache-line-padded per-worker slots (one steady_clock pair per window per
// bucket, so the cost is per-window, not per-event), never feeds back into
// the simulation, and is exported only on request (`to_json(os, true)`),
// keeping the default artifacts deterministic. The four coordinator buckets
// {dispatch, barrier wait, mailbox drain, merge} partition the windowed
// run loop by construction, which is what lets `bentotrace shards`
// attribute ≥95% of windowed wall time.
//
// Determinism contract. Hooks mutate profiler state only from the
// coordinating thread at barriers (serial context); the sole exception is
// add_worker_busy, which each worker calls once per window into its own
// padded slot and which feeds the wall half only. Registry writes happen on
// the coordinator, i.e. metric slot 0, so merged snapshots cannot depend on
// the worker count. The simulator gates every deterministic hook on
// `regions > 1`: multi-region topologies run the windowed executor at every
// shard count (so the profile is shard-count-invariant), while single-region
// topologies — whose solo "windows" under shards>1 are an executor artifact
// — profile as empty everywhere, matching their serial runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/annotations.hpp"

namespace bento::obs {

/// Monotonic clock read for profiler self-timing. Observational only: the
/// values never reach a handler, a schedule decision, or a deterministic
/// artifact, so sim determinism is untouched.
inline std::uint64_t prof_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // bentolint: allow(BL101 observational profiler clock, never feeds back into simulation, DESIGN.md §13)
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Merged, read-only view of the profiler; see ShardProfiler::snapshot().
struct ShardProfileSnapshot {
  struct RegionRow {
    std::uint32_t id = 0;
    std::uint64_t events = 0;   // events dispatched through windows
    std::uint64_t windows = 0;  // windows in which this region ran >= 1 event
  };
  struct WorkerRow {
    unsigned id = 0;
    std::uint64_t busy_ns = 0;  // inside run_worker_window
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
  };

  // Deterministic (sim-domain) half.
  std::uint64_t windows = 0;
  std::uint64_t window_events = 0;
  std::uint64_t max_window_events = 0;
  std::int64_t span_sum_us = 0;
  std::int64_t span_min_us = 0;  // 0 when windows == 0
  std::int64_t span_max_us = 0;
  std::uint64_t mailbox_events = 0;
  std::uint64_t mailbox_depth_hw = 0;
  std::uint64_t exclusive_events = 0;
  std::int64_t lookahead_us = 0;
  std::vector<RegionRow> regions;  // regions with >= 1 windowed event, by id

  // Wall-clock (observational) half. dispatch_wall_ns is the coordinator's
  // share of run_window (total minus barrier wait and trace merge — i.e.
  // its own region dispatch plus round publish/wakeup); together with
  // barrier wait, drain and merge it partitions run_wall_ns up to the
  // per-window T_min scan and loop bookkeeping.
  std::uint64_t run_wall_ns = 0;
  std::uint64_t dispatch_wall_ns = 0;
  std::uint64_t barrier_wall_ns = 0;
  std::uint64_t drain_wall_ns = 0;
  std::uint64_t merge_wall_ns = 0;
  std::uint64_t exclusive_wall_ns = 0;
  std::vector<WorkerRow> workers;  // workers with >= 1 window, by id

  /// max/mean of per-region windowed event counts, in thousandths (1000 =
  /// perfectly balanced). Integer math, so it is byte-stable in JSON.
  std::uint64_t imbalance_x1000() const;

  /// `{"shard_profile":{...}}`. The default omits the wall-clock half and is
  /// byte-identical across repeated runs at fixed (seed, topology, region
  /// split) — and across shard counts. `include_wall` adds a "wall" object
  /// for bentotop / stall attribution; that file is not byte-stable.
  void to_json(std::ostream& os, bool include_wall = false) const;
  std::string to_json(bool include_wall = false) const;
  /// Reads to_json() output back, with or without the wall object. False on
  /// anything else, including a file that is still being written.
  static bool from_json(std::string_view json, ShardProfileSnapshot& out);

  /// Deterministic text block appended to Snapshot::sections by
  /// World::snapshot_stats (the `ShardProfile` section of stats dumps).
  std::string to_section() const;
};

/// Renders one bentotop frame: deterministic window/region balance plus —
/// when the snapshot carries wall data — per-worker occupancy bars and the
/// {dispatch, barrier, drain, merge} attribution line.
void render_top_frame(const ShardProfileSnapshot& s, std::ostream& os);

class ShardProfiler {
 public:
  ShardProfiler();

  /// Cheap global switch; on by default ("always-cheap" contract: the hooks
  /// cost one branch when off, a handful of adds per *window* when on).
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Zeroes all tallies (serial context only). Registry-backed metrics are
  /// zeroed by Registry::reset(), not here.
  void reset();

  // --- Deterministic hooks: coordinating thread, barrier context only.

  /// Window closed: `region_events[i]` = events region i dispatched in it.
  BENTO_HOT void on_window_close(const std::uint64_t* region_events,
                                 std::uint32_t region_count,
                                 std::int64_t span_us);
  /// Mailboxes drained at a barrier: total events moved and deepest box.
  BENTO_HOT void on_mailbox_drain(std::uint64_t drained, std::uint64_t max_depth);
  BENTO_HOT void on_exclusive();
  void record_lookahead(std::int64_t us);

  // --- Wall-clock hooks (observational half).

  /// Each worker reports once per window into its own padded slot (the
  /// coordinator is worker 0; its row shows pure dispatch occupancy).
  BENTO_HOT void add_worker_busy(unsigned worker, std::uint64_t ns,
                                 std::uint64_t events);
  /// Whole run_window() call as seen by the coordinator. The dispatch
  /// bucket is derived as window − barrier − merge, so together with drain
  /// and exclusive the buckets partition the windowed loop by construction
  /// (scheduling gaps on oversubscribed hosts land in dispatch, not in an
  /// unattributed remainder).
  BENTO_HOT void add_window_wall(std::uint64_t ns) { window_wall_ns_ += ns; }
  BENTO_HOT void add_barrier_wait(std::uint64_t ns) { barrier_wall_ns_ += ns; }
  BENTO_HOT void add_drain_wall(std::uint64_t ns) { drain_wall_ns_ += ns; }
  BENTO_HOT void add_merge_wall(std::uint64_t ns) { merge_wall_ns_ += ns; }
  void add_exclusive_wall(std::uint64_t ns) { exclusive_wall_ns_ += ns; }
  void add_run_wall(std::uint64_t ns) { run_wall_ns_ += ns; }

  /// Merged view (serial context only — workers must be parked).
  ShardProfileSnapshot snapshot() const;

 private:
  struct RegionTally {
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
  };
  struct alignas(64) WorkerWall {
    std::uint64_t busy_ns = 0;
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
  };

  bool enabled_ = true;

  // Deterministic tallies. Fixed arrays sized for the simulator ceilings so
  // the hot hooks never allocate.
  std::uint64_t windows_ = 0;
  std::uint64_t window_events_ = 0;
  std::uint64_t max_window_events_ = 0;
  std::int64_t span_sum_us_ = 0;
  std::int64_t span_min_us_ = 0;
  std::int64_t span_max_us_ = 0;
  std::uint64_t mailbox_events_ = 0;
  std::uint64_t mailbox_depth_hw_ = 0;
  std::uint64_t exclusive_events_ = 0;
  std::int64_t lookahead_us_ = 0;
  std::uint32_t regions_hw_ = 0;  // highest region_count seen
  RegionTally region_[256];       // == Simulator::kMaxRegions

  // Wall-clock tallies.
  std::uint64_t run_wall_ns_ = 0;
  std::uint64_t window_wall_ns_ = 0;
  std::uint64_t barrier_wall_ns_ = 0;
  std::uint64_t drain_wall_ns_ = 0;
  std::uint64_t merge_wall_ns_ = 0;
  std::uint64_t exclusive_wall_ns_ = 0;
  WorkerWall worker_[kMaxMetricWorkers];

  // Registry-backed mirrors of the deterministic half, so the standard
  // stats snapshot carries shard.* metrics without extra plumbing.
  Counter m_windows_;
  Counter m_window_events_;
  Counter m_mailbox_events_;
  Counter m_exclusive_;
  Gauge m_mailbox_depth_;
  Gauge m_lookahead_us_;
  Histogram m_span_us_;
  Histogram m_events_per_window_;
};

/// Process-global profiler (mirrors recorder()/registry()).
ShardProfiler& shard_profiler();

}  // namespace bento::obs
