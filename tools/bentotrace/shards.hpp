// bentotrace shard analysis: per-region balance and barrier-stall
// attribution for sharded-simulator runs (DESIGN.md §13).
//
// Two inputs, two trust levels. The deterministic story comes from the
// trace itself: shard.window events (a: region id, b: events the region ran
// in the closed window) and shard.barrier events (a: active regions,
// b: window span in sim µs) are byte-identical across shard counts, so the
// balance report is reproducible anywhere. The wall-clock story — where the
// run actually spent its time: dispatch vs barrier wait vs mailbox drain vs
// trace merge — comes from an optional ShardProfile JSON written with the
// wall section (`--profile-wall-out`); it describes one specific run on one
// specific host.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "bentotrace/reader.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"

namespace bento::tools {

/// Shard balance + barrier report from trace events, with wall-time
/// attribution appended when `wall` is non-null (a snapshot whose wall half
/// is populated). Byte-stable for fixed inputs.
void format_shard_report(const std::vector<obs::RawEvent>& events,
                         const obs::ShardProfileSnapshot* wall, std::ostream& os);

/// Builds the SLO input (ttfb_us / ttlb_us series) from trace events and
/// evaluates the given objectives. Scalar metrics available: "windows"
/// (shard.barrier count) and "region_imbalance" (from shard.window events).
/// Specs naming "critpath.*" metrics (e.g. critpath.net_link_queue_us) run
/// the critical-path analyzer over the same events to build those series.
obs::SloReport evaluate_trace_slos(const std::vector<obs::RawEvent>& events,
                                   const std::vector<obs::SloSpec>& specs);

}  // namespace bento::tools
