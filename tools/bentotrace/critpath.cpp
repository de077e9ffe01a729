#include "bentotrace/critpath.hpp"

#include <algorithm>
#include <sstream>
#include <string>

namespace bento::tools {

obs::CritInput crit_input_from_events(const std::vector<obs::RawEvent>& events) {
  obs::CritInput input;
  const TraceForest forest = build_forest(events);
  input.spans.reserve(forest.spans.size());
  for (const auto& [id, node] : forest.spans) {
    obs::CritSpan s;
    s.id = id;
    s.parent = node.parent;
    s.stage = node.stage;
    s.begin_us = node.begin_ts;
    s.end_us = node.end_ts;
    s.ok = node.ok;
    s.ref = node.ref;
    s.idle_us = node.idle_us;
    s.chaos_us = node.chaos_us;
    input.spans.push_back(s);
  }
  for (const obs::RawEvent& e : events) {
    if (e.ev == "shard.barrier") input.barriers_us.push_back(e.ts);
  }
  return input;
}

bool load_blame_profile(std::string_view text, obs::BlameProfile& out,
                        std::string* err) {
  if (obs::BlameProfile::from_json(text, out)) return true;
  std::istringstream is{std::string(text)};
  const std::vector<obs::RawEvent> events = obs::read_jsonl(is);
  if (std::all_of(events.begin(), events.end(),
                  [](const obs::RawEvent& e) { return e.ev == "!unparsed"; })) {
    if (err != nullptr) *err = "neither a critpath profile JSON nor a trace.jsonl";
    return false;
  }
  out = obs::aggregate_blame(
      obs::compute_critical_paths(crit_input_from_events(events)));
  return true;
}

}  // namespace bento::tools
