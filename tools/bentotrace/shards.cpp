#include "bentotrace/shards.hpp"

#include <cstdint>
#include <ostream>

#include "bentotrace/critpath.hpp"
#include "bentotrace/textutil.hpp"
#include "obs/critpath.hpp"

namespace bento::tools {

namespace {

struct RegionAgg {
  std::uint32_t id = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
};

}  // namespace

void format_shard_report(const std::vector<obs::RawEvent>& events,
                         const obs::ShardProfileSnapshot* wall, std::ostream& os) {
  std::vector<RegionAgg> regions;  // sparse by id, compacted below
  std::uint64_t barriers = 0;
  std::uint64_t span_sum = 0;
  std::int64_t span_min = 0;
  std::int64_t span_max = 0;
  std::uint64_t active_sum = 0;
  std::uint32_t active_min = 0;
  std::uint32_t active_max = 0;
  for (const obs::RawEvent& e : events) {
    if (e.ev == "shard.window") {
      if (e.a >= regions.size()) regions.resize(e.a + 1);
      regions[e.a].id = e.a;
      regions[e.a].events += e.b;
      regions[e.a].windows += 1;
    } else if (e.ev == "shard.barrier") {
      const auto span = static_cast<std::int64_t>(e.b);
      if (barriers == 0 || span < span_min) span_min = span;
      if (barriers == 0 || span > span_max) span_max = span;
      if (barriers == 0 || e.a < active_min) active_min = e.a;
      if (barriers == 0 || e.a > active_max) active_max = e.a;
      ++barriers;
      span_sum += e.b;
      active_sum += e.a;
    }
  }
  std::vector<RegionAgg> live;
  std::uint64_t total = 0;
  std::uint64_t max_ev = 0;
  for (const RegionAgg& r : regions) {
    if (r.events == 0) continue;
    live.push_back(r);
    total += r.events;
    if (r.events > max_ev) max_ev = r.events;
  }

  os << "bentotrace shards: " << barriers << " barriers, " << live.size()
     << " active regions, " << total << " events through windows\n";
  if (barriers == 0) {
    os << "no shard.window/shard.barrier events — serial or single-region "
          "run, or the trace mask filtered them\n";
    return;
  }
  os << "window span us: min=" << span_min << " mean=" << span_sum / barriers
     << " max=" << span_max << "\n";
  os << "active regions per window: min=" << active_min
     << " mean=" << active_sum / barriers << " max=" << active_max << "\n";
  const std::uint64_t imbalance =
      live.empty() || total == 0 ? 1000 : max_ev * 1000 * live.size() / total;
  os << "imbalance (max/mean x1000): " << imbalance << "\n";
  os << "region balance:\n";
  for (const RegionAgg& r : live) {
    os << "  r" << r.id << " " << r.events << " ev ";
    fixed1(os, pct_of(r.events, total));
    os << "% " << r.windows << " win\n";
  }

  if (wall == nullptr) {
    os << "wall attribution: no profile given (pass --profile "
          "<profile_wall.json>)\n";
    return;
  }
  const std::uint64_t attributed = wall->dispatch_wall_ns + wall->barrier_wall_ns +
                                   wall->drain_wall_ns + wall->merge_wall_ns +
                                   wall->exclusive_wall_ns;
  const std::uint64_t other =
      wall->run_wall_ns > attributed ? wall->run_wall_ns - attributed : 0;
  os << "wall attribution (run ";
  fixed1(os, static_cast<double>(wall->run_wall_ns) / 1e6);
  os << " ms, ";
  fixed1(os, pct_of(attributed, wall->run_wall_ns));
  os << "% attributed):\n";
  os << "  dispatch ";
  fixed1(os, pct_of(wall->dispatch_wall_ns + wall->exclusive_wall_ns, wall->run_wall_ns));
  os << "% | barrier wait ";
  fixed1(os, pct_of(wall->barrier_wall_ns, wall->run_wall_ns));
  os << "% | mailbox drain ";
  fixed1(os, pct_of(wall->drain_wall_ns, wall->run_wall_ns));
  os << "% | merge ";
  fixed1(os, pct_of(wall->merge_wall_ns, wall->run_wall_ns));
  os << "% | other ";
  fixed1(os, pct_of(other, wall->run_wall_ns));
  os << "%\n";
  for (const auto& w : wall->workers) {
    os << "  worker " << w.id << ": busy ";
    fixed1(os, pct_of(w.busy_ns, wall->run_wall_ns));
    os << "% (" << w.events << " ev, " << w.windows << " win, stall ";
    fixed1(os, pct_of(wall->run_wall_ns > w.busy_ns ? wall->run_wall_ns - w.busy_ns : 0,
                   wall->run_wall_ns));
    os << "%)\n";
  }
}

obs::SloReport evaluate_trace_slos(const std::vector<obs::RawEvent>& events,
                                   const std::vector<obs::SloSpec>& specs) {
  obs::SloInput input;
  std::vector<RegionAgg> regions;
  std::uint64_t barriers = 0;
  for (const obs::RawEvent& e : events) {
    if (e.ev == "stream.ttfb") {
      input.add_sample("ttfb_us", static_cast<std::int64_t>(e.b));
    } else if (e.ev == "stream.ttlb") {
      input.add_sample("ttlb_us", static_cast<std::int64_t>(e.b));
    } else if (e.ev == "shard.window") {
      if (e.a >= regions.size()) regions.resize(e.a + 1);
      regions[e.a].events += e.b;
    } else if (e.ev == "shard.barrier") {
      ++barriers;
    }
  }
  std::uint64_t total = 0;
  std::uint64_t max_ev = 0;
  std::uint64_t live = 0;
  for (const RegionAgg& r : regions) {
    if (r.events == 0) continue;
    total += r.events;
    ++live;
    if (r.events > max_ev) max_ev = r.events;
  }
  input.set_scalar("windows", static_cast<double>(barriers));
  if (live > 0 && total > 0) {
    input.set_scalar("region_imbalance",
                     static_cast<double>(max_ev * 1000 * live / total) / 1000.0);
  }
  // critpath.* metrics (e.g. "critpath.net_link_queue_us:p99<=...") run the
  // critical-path analyzer over the same events — lazily, only when a spec
  // actually asks, so plain latency gates stay O(events).
  bool want_critpath = false;
  for (const obs::SloSpec& spec : specs) {
    if (spec.metric.rfind("critpath.", 0) == 0) {
      want_critpath = true;
      break;
    }
  }
  if (want_critpath) {
    const obs::CritReport report =
        obs::compute_critical_paths(crit_input_from_events(events));
    obs::add_critpath_series(report, input);
  }
  return obs::evaluate_slos("trace", specs, input);
}

}  // namespace bento::tools
