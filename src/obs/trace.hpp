// Flight recorder: a bounded ring of POD trace events in sim time
// (DESIGN.md §8).
//
// record() is the hot-path entry: one branch on the enabled flag, one mask
// test, then a fixed-size store into preallocated storage — no heap, no
// strings, no formatting. Memory is bounded by the capacity chosen at
// enable(); when the ring wraps, the *oldest* events are overwritten so a
// post-mortem always holds the newest window (hence "flight recorder").
//
// Events carry a kind, the sim timestamp, an ok/fail flag and two untyped
// operands (a: circuit/container/node id, b: bytes/lag/stream id — see the
// per-kind conventions next to Ev). Naming and structure are resolved at
// export time: to Chrome `trace_event` JSON (load in chrome://tracing or
// Perfetto) or to a JSONL stream (one event per line, byte-stable across
// identical seeded runs — the determinism regression diffs these).
//
// Sharded execution (DESIGN.md §12): while the simulator runs a parallel
// lookahead window, record() from worker threads appends to a per-region
// side buffer instead of the shared ring; each entry carries the executing
// sim event's total-order key (when, origin region, seq) plus an intra-event
// counter. At the window barrier the simulator calls end_window(), which
// k-way-merges the region buffers by that key and commits them to the ring —
// reproducing the exact insertion order a serial run of the same topology
// would have produced, so exports stay byte-identical across shard counts.
// Single-region simulations never enter buffered mode and keep the original
// direct store path bit-for-bit.
#pragma once

#include <cstdint>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"
#include "util/simclock.hpp"

namespace bento::obs {

/// Trace event kinds. Operand conventions in trailing comments.
enum class Ev : std::uint8_t {
  SimDispatch = 0,   // a: -            b: events pending after dispatch
  CircExtend,        // a: circ id      b: hop index just completed
  CircBuilt,         // a: circ id      b: hop count
  CircTeardown,      // a: circ id      b: -
  StreamOpen,        // a: circ id      b: stream id
  StreamTtfb,        // a: stream id    b: sim µs from open to first byte
  StreamTtlb,        // a: stream id    b: sim µs from open to last byte
  CellSend,          // a: circ id      b: relay command (origin send)
  CellRecv,          // a: circ id      b: receiving relay's node id
  CellRecognized,    // a: circ id      b: relay command
  CellUnrecognized,  // a: circ id      b: node id (edge violation / drop)
  FnUpload,          // a: container id b: function source bytes; flags: ok
  FnInvoke,          // a: container id b: payload bytes
  FnShutdown,        // a: container id b: -
  TokenCheck,        // a: container id b: token kind (0 invoke, 1 shutdown); flags: ok
  PolicyDeny,        // a: container id b: 0 manifest, 1 static verifier
  StemDeny,          // a: container id b: denial class (Recorder::kStem*)
  SpanBegin,         // a: span id      b: parent span id << 32 | Stage
  SpanEnd,           // a: span id      b: Stage; flags: ok
  SpanNote,          // a: span id      b: note kind << 32 | value (kNote*)
  SandboxNetDeny,    // a: dest IPv4    b: dest port
  SandboxSyscallDeny,  // a: Syscall    b: -
  SandboxResourceTrip, // a: -          b: resource class (kResource*)
  TeeAttest,         // a: platform id  b: quote TCB version; flags: ok
  TeeEpcPage,        // a: enclave id   b: page faults added by this allocate
  ChaosFault,        // a: node id      b: chaos::FaultKind << 32 | peer/extra
  ClientRetry,       // a: attempt #    b: backoff ms; flags: ok = will retry
  CircRebuild,       // a: new circ id (0 while pending) b: excluded relays
  LbFailover,        // a: replica idx  b: missed health checks; flags: ok
  ShardRepair,       // a: shard index  b: re-seed target ref; flags: ok
  ShardWindow,       // a: region id    b: events the region ran in the closed window
  ShardBarrier,      // a: active regions b: window span (horizon - T_min), sim µs
  kCount,
};

/// Stable lower_snake names used by both exporters.
const char* ev_name(Ev kind);

/// Startup self-check: true iff every kind below kCount resolves to a real
/// name. Catches silent enum drift (a kind added without an ev_name entry).
bool ev_names_complete();

/// One line of Recorder::export_jsonl, as read back by offline tools.
struct RawEvent {
  std::int64_t ts = 0;
  std::string ev;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  bool ok = true;
};

/// Parses one export_jsonl line; nullopt for a blank line or anything but
/// one object with exactly the keys ts, ev, a, b and ok.
std::optional<RawEvent> parse_jsonl_line(std::string_view line);

/// Parses a whole dump. A non-blank line that does not parse becomes a
/// tombstone named "!unparsed", so readers can count it.
std::vector<RawEvent> read_jsonl(std::istream& is);

struct TraceEvent {
  std::int64_t ts_us;
  std::uint64_t b;
  std::uint32_t a;
  Ev kind;
  std::uint8_t flags;  // bit 0: ok
};

namespace detail {
/// Total-order key of the sim event currently dispatching on this thread,
/// set by the simulator before each handler runs. Only consulted while the
/// recorder is in buffered (parallel-window) mode; `sub` counts the records
/// emitted within one handler so their relative order survives the merge.
struct TraceOrder {
  std::int64_t when_us = 0;
  std::uint64_t seq = 0;
  std::uint32_t origin = 0;
  std::uint32_t sub = 0;
};
// bentolint: allow(BL105 thread_local dispatch context for the sharded simulator, DESIGN.md §12)
inline thread_local TraceOrder g_trace_order{};
// bentolint: allow(BL105 thread_local region id routes buffered records, DESIGN.md §12)
inline thread_local std::uint32_t g_trace_region = 0;
}  // namespace detail

/// Region whose side buffer this thread's records land in while the
/// recorder is buffered (simulator-internal; harmless otherwise).
inline void set_trace_region(std::uint32_t region) { detail::g_trace_region = region; }
inline std::uint32_t trace_region() { return detail::g_trace_region; }

/// Stamps the dispatching sim event's (when, origin, seq) key and resets the
/// intra-event counter (simulator-internal).
inline void set_trace_order(std::int64_t when_us, std::uint32_t origin, std::uint64_t seq) {
  detail::g_trace_order.when_us = when_us;
  detail::g_trace_order.seq = seq;
  detail::g_trace_order.origin = origin;
  detail::g_trace_order.sub = 0;
}

class Recorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  // StemDeny `b` operand values.
  static constexpr std::uint64_t kStemCircuitCap = 0;
  static constexpr std::uint64_t kStemSyscall = 1;

  // SandboxResourceTrip `b` operand values.
  static constexpr std::uint64_t kResourceMemory = 0;
  static constexpr std::uint64_t kResourceCpu = 1;
  static constexpr std::uint64_t kResourceDisk = 2;
  static constexpr std::uint64_t kResourceNetwork = 3;
  static constexpr std::uint64_t kResourceFiles = 4;
  static constexpr std::uint64_t kResourceConnections = 5;

  /// Starts (or restarts) recording into a fresh ring of `capacity` events.
  /// The one place the recorder allocates.
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  bool enabled() const { return enabled_; }

  /// Per-kind filter; bit i gates Ev(i). Default: everything on. Use
  /// mask_of() to build masks, e.g. to silence the SimDispatch firehose.
  /// 64-bit since the kind count outgrew 32 (static_assert below).
  void set_mask(std::uint64_t mask) { mask_ = mask; }
  std::uint64_t mask() const { return mask_; }
  static constexpr std::uint64_t mask_of(Ev kind) {
    return std::uint64_t{1} << static_cast<unsigned>(kind);
  }
  static constexpr std::uint64_t mask_all() {
    static_assert(static_cast<unsigned>(Ev::kCount) < 64,
                  "trace mask is a 64-bit kind bitmap");
    return (std::uint64_t{1} << static_cast<unsigned>(Ev::kCount)) - 1;
  }

  BENTO_HOT void record(Ev kind, std::uint32_t a = 0, std::uint64_t b = 0, bool ok = true) {
    if (!enabled_) return;
    if ((mask_ & mask_of(kind)) == 0) return;
    if (buffered_) {  // parallel window: defer to the per-region side buffer
      record_buffered(kind, a, b, ok);
      return;
    }
    TraceEvent& e = ring_[head_];
    e.ts_us = util::sim_now_micros();
    e.b = b;
    e.a = a;
    e.kind = kind;
    e.flags = ok ? 1 : 0;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++overwritten_;
    }
    ++recorded_;
  }

  /// Parallel-window buffering (simulator-internal). Between begin_window()
  /// and end_window(), record() appends to per-region buffers keyed by the
  /// dispatching sim event's total-order key; end_window() merges them by
  /// that key and commits to the ring, reproducing serial insertion order.
  void begin_window(std::size_t regions);
  void end_window();

  /// Events currently held (≤ capacity).
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Total record() calls accepted since enable().
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring wraparound.
  std::uint64_t overwritten() const { return overwritten_; }
  /// Bumped by every enable(); span id allocation (span.hpp) keys off this
  /// so seeded reruns hand out identical ids after re-enabling the ring.
  std::uint64_t generation() const { return generation_; }

  /// Held events, oldest first (insertion order == sim-time order, since
  /// recording happens as the simulation advances).
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}); instant events on
  /// one lane per subsystem, timestamps in sim microseconds.
  void export_chrome_trace(std::ostream& os) const;
  /// One compact JSON object per line; byte-stable for identical runs.
  void export_jsonl(std::ostream& os) const;

 private:
  template <typename Fn>
  void for_each(Fn&& fn) const;  // oldest -> newest

  /// Buffered entry: the public event plus the hidden merge key.
  struct Pending {
    TraceEvent e;
    std::int64_t owhen_us;
    std::uint64_t oseq;
    std::uint32_t oorigin;
    std::uint32_t osub;
  };

  void record_buffered(Ev kind, std::uint32_t a, std::uint64_t b, bool ok);
  BENTO_HOT void commit(const TraceEvent& ev) {
    ring_[head_] = ev;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++overwritten_;
    }
    ++recorded_;
  }

  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t mask_ = mask_all();
  bool enabled_ = false;
  bool buffered_ = false;
  // One side buffer per region; index [region]. Each is written only by the
  // worker thread that owns the region during a window, and drained by the
  // coordinating thread at the barrier — never concurrently.
  std::vector<std::vector<Pending>> pending_;
};

namespace detail {
// Constant-initialized (all members have constexpr default ctors), so
// trace() is safe from any static-init context.
inline Recorder g_recorder;
}  // namespace detail

inline Recorder& recorder() { return detail::g_recorder; }

/// Convenience hot-path entry: obs::trace(Ev::CellSend, circ, cmd).
BENTO_HOT inline void trace(Ev kind, std::uint32_t a = 0, std::uint64_t b = 0, bool ok = true) {
  detail::g_recorder.record(kind, a, b, ok);
}

}  // namespace bento::obs
