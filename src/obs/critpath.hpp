// Per-request critical-path attribution over the span forest (DESIGN.md §14).
//
// The flight recorder measures; this module explains. Given the spans of a
// run (plus the shard.barrier timestamps and the per-link budget notes the
// network stamps), compute_critical_paths() reconstructs, for every request
// root, *where each microsecond of its TTLB went*: which (stage, segment
// kind, region) was the most specific work in flight at every instant of
// the request's lifetime. The resulting blame vector sums exactly to the
// request's measured duration — 100% attribution, no unexplained gap, by
// construction (the root span always covers the interval being divided).
//
// Segment kinds:
//   exec          a span's own time before its first child started
//   wait          a span's time after a child started (sim-queue / in-flight)
//   mailbox_wait  a wait piece that begins exactly at a shard.barrier close —
//                 the request resumed via a cross-shard mailbox window
//   link_queue    net.link time beyond the idle budget: DRR queue contention
//   link_transit  net.link idle budget: serialize at spec bandwidth + latency
//   chaos_dwell   net.link time added by faults: throttled serialization and
//                 injected jitter delay (kNoteChaosDwell)
//
// Everything here is offline analysis over exported trace data: the hot
// paths (0 allocs/cell, ≤2% tracing overhead) never run this code.
//
// All arithmetic is integer µs and all output formatting is integer-only
// (percent values are emitted as x100 fixed point), so reports are
// byte-identical across hosts and across shard counts for the same trace.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/slo.hpp"
#include "obs/span.hpp"

namespace bento::obs {

/// How a microsecond on the critical path was spent (see header comment).
enum class SegKind : std::uint8_t {
  Exec,
  Wait,
  MailboxWait,
  LinkQueue,
  LinkTransit,
  ChaosDwell,
};

/// Stable segment name, e.g. (NetLink, LinkQueue) -> "net_link_queue",
/// (ClientInvoke, Wait) -> "client_invoke_wait", (_, ChaosDwell) ->
/// "chaos_dwell". These are the names the SLO grammar sees as
/// "critpath.<name>_us".
std::string segment_name(Stage stage, SegKind kind);

/// One span, as reconstructed offline (tools/bentotrace adapts its
/// TraceForest to this; tests build them directly).
struct CritSpan {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;    // 0 = request root
  Stage stage = Stage::None;
  std::int64_t begin_us = -1;  // -1: begin lost to ring wraparound
  std::int64_t end_us = -1;    // -1: end never recorded
  bool ok = true;
  std::uint32_t ref = 0;       // kNoteRef (session / node id)
  std::int64_t idle_us = 0;    // kNoteLinkIdle: uncontended transit budget
  std::int64_t chaos_us = 0;   // kNoteChaosDwell: fault-added dwell
};

/// The analyzer's whole input: the span set plus the sim-µs timestamps of
/// shard.barrier events (window closes), used to tell mailbox waits apart
/// from ordinary in-flight waits.
struct CritInput {
  std::vector<CritSpan> spans;
  std::vector<std::int64_t> barriers_us;
};

/// One (stage, kind, region) cell of a request's blame vector.
struct BlameSeg {
  Stage stage = Stage::None;
  SegKind kind = SegKind::Exec;
  std::uint32_t region = 0;  // span id >> 24
  std::int64_t us = 0;
};

/// One request's critical path, fully attributed: sum(segs.us) == total_us.
struct RequestBlame {
  std::uint32_t root_id = 0;
  std::uint32_t ref = 0;  // root's kNoteRef (session index, when stamped)
  std::int64_t begin_us = 0;
  std::int64_t total_us = 0;  // root duration == measured TTLB
  bool ok = true;
  std::vector<BlameSeg> segs;  // sorted by (stage, kind, region)
};

struct CritReport {
  std::vector<RequestBlame> requests;  // root-id (= begin) order
  std::uint64_t incomplete = 0;  // roots dropped: begin or end missing
};

/// Reconstructs every request's critical path. A request is a span with
/// parent == 0 and both endpoints recorded; descendant spans are clamped to
/// the root's interval, and at every instant the deepest active span (ties:
/// latest begin, then highest id — the most recently dispatched work) takes
/// the blame.
CritReport compute_critical_paths(const CritInput& input);

/// Aggregated blame across requests, with p50-body vs p99-tail cohorts.
struct BlameProfile {
  struct Row {
    std::string seg;          // segment_name()
    std::int32_t region = -1; // -1: all regions, else region id
    std::uint64_t requests = 0;    // requests with >0 µs in this cell
    std::int64_t total_us = 0;
    std::int64_t mean_us = 0;      // total_us / all complete requests
    std::int64_t body_mean_us = 0; // per-request mean over the body cohort
    std::int64_t tail_mean_us = 0; // per-request mean over the tail cohort
  };

  std::uint64_t requests = 0;
  std::uint64_t incomplete = 0;
  std::int64_t sum_us = 0;  // sum of all request totals (== sum of blame)
  std::int64_t p50_us = 0;
  std::int64_t p99_us = 0;
  std::int64_t p999_us = 0;
  std::uint64_t body_n = 0;  // requests with total <= p50
  std::uint64_t tail_n = 0;  // requests with total >= p99
  std::int64_t body_mean_us = 0;
  std::int64_t tail_mean_us = 0;
  // Grouped by segment: each segment's all-regions row first (region == -1),
  // then its per-region rows; groups ordered by total blame descending
  // (ties: name) so the top row is the headline.
  std::vector<Row> rows;

  /// Name of the segment with the most total blame ("" when empty).
  std::string top_segment() const;

  /// Byte-stable single-line JSON: {"critpath":{...}}.
  void to_json(std::ostream& os) const;
  std::string to_json() const;
  /// Reads to_json() output back; false on anything else. Cohort counts are
  /// recovered, the per-request vectors are not: a read profile aggregates,
  /// it does not re-analyze.
  static bool from_json(std::string_view json, BlameProfile& out);

  /// Byte-stable human table.
  std::string to_string() const;
};

BlameProfile aggregate_blame(const CritReport& report);

/// Adds the critpath series to an SLO input: "critpath.total_us" plus one
/// "critpath.<segment>_us" series per segment seen anywhere in the report,
/// each with exactly one sample per complete request (0 when that request
/// spent nothing there) — so percentile gates compare like with like.
void add_critpath_series(const CritReport& report, SloInput& input);

/// Cross-run comparison of two blame profiles (run A = baseline, run B =
/// candidate). A segment regresses when its per-request mean — overall or
/// tail-cohort — grows by more than floor_us AND by more than threshold_pct
/// percent. Missing segments count as mean 0 on the side they miss.
struct BlameDiff {
  struct Row {
    std::string seg;
    std::int64_t a_mean_us = 0;
    std::int64_t b_mean_us = 0;
    std::int64_t a_tail_mean_us = 0;
    std::int64_t b_tail_mean_us = 0;
    bool regressed = false;
  };
  std::uint64_t threshold_pct = 0;
  std::int64_t floor_us = 0;
  std::uint64_t a_requests = 0;
  std::uint64_t b_requests = 0;
  std::vector<Row> rows;  // segment-name order

  bool regressed() const;
  void to_json(std::ostream& os) const;
  std::string to_json() const;
  std::string to_string() const;
};

BlameDiff diff_blame(const BlameProfile& a, const BlameProfile& b,
                     std::uint64_t threshold_pct, std::int64_t floor_us);

}  // namespace bento::obs
