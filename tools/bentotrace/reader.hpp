// bentotrace: offline span-tree reconstruction from the flight recorder's
// trace.jsonl dump (obs::Recorder::export_jsonl).
//
// The recorder stores spans as flat POD events (SpanBegin / SpanEnd /
// SpanNote, see src/obs/span.hpp); this library takes the events that
// obs::read_jsonl parsed, stitches them back into per-request trees via the
// parent ids packed into SpanBegin.b, and computes the per-stage latency breakdowns and
// TTFB/TTLB percentile tables the paper-style overhead analysis needs.
//
// Everything is deterministic: the same trace.jsonl produces byte-identical
// format_tree()/stage table output, which is how the fixed-seed regression
// proves span trees are reproducible across runs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace bento::tools {

/// One reconstructed span.
struct SpanNode {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  obs::Stage stage = obs::Stage::None;
  std::int64_t begin_ts = -1;  // -1: begin lost (ring wraparound)
  std::int64_t end_ts = -1;    // -1: end never seen (orphan)
  bool ok = true;
  std::uint32_t ref = 0;         // kNoteRef annotation, if any
  std::uint64_t wire_bytes = 0;  // kNoteWireBytes annotation, if any
  std::int64_t idle_us = 0;      // kNoteLinkIdle: uncontended transit budget
  std::int64_t chaos_us = 0;     // kNoteChaosDwell: fault-added dwell
  std::vector<std::uint32_t> children;  // ordered by begin time (= id order)

  bool complete() const { return begin_ts >= 0 && end_ts >= 0; }
  std::int64_t duration_us() const { return complete() ? end_ts - begin_ts : 0; }
};

/// The whole trace: spans keyed by id plus the stream-level point events
/// needed for the TTFB/TTLB tables.
struct TraceForest {
  std::map<std::uint32_t, SpanNode> spans;
  std::vector<std::uint32_t> roots;            // id order == begin order
  std::vector<std::uint32_t> orphan_ends;      // SpanEnd without a begin
  std::vector<std::uint32_t> unfinished;       // begin without an end
  std::size_t unparsed_lines = 0;
  // (circuit id, µs) pairs in stream order, from stream.ttfb / stream.ttlb.
  std::vector<std::pair<std::uint32_t, std::int64_t>> ttfb;
  std::vector<std::pair<std::uint32_t, std::int64_t>> ttlb;
};

TraceForest build_forest(const std::vector<obs::RawEvent>& events);

/// Indented per-request tree dump; byte-stable for a given trace.
void format_tree(const TraceForest& forest, std::ostream& os);

/// Per-stage latency table: count, failures, total/mean/p50/p95/max sim-µs.
/// Zero-duration stages (synchronous hops) still show their counts — the
/// per-hop story is in the counts and ordering, the latency story in the
/// modeled-delay stages (net.link, fn.dispatch, client.*).
void format_stage_summary(const TraceForest& forest, std::ostream& os);

/// TTFB/TTLB percentiles grouped per circuit, plus an overall row.
void format_ttfb_table(const TraceForest& forest, std::ostream& os);

/// Chrome trace_event JSON with one async lane per trace and flow arrows
/// binding each parent span to its children across hops.
void export_chrome(const TraceForest& forest, std::ostream& os);

}  // namespace bento::tools
