// bentotrace critical-path glue: adapts parsed trace events to the offline
// analyzer in src/obs/critpath.hpp, and loads a diff side from either a
// raw trace.jsonl or a committed blame profile (the golden-profile gate in
// CI diffs a fresh run against a checked-in JSON).
#pragma once

#include <string_view>
#include <vector>

#include "bentotrace/reader.hpp"
#include "obs/critpath.hpp"

namespace bento::tools {

/// Builds the analyzer input from parsed trace events: the span forest
/// (with the kNoteLinkIdle / kNoteChaosDwell budget notes) plus the
/// shard.barrier timestamps.
obs::CritInput crit_input_from_events(const std::vector<obs::RawEvent>& events);

/// Loads one side of a diff: a blame-profile JSON is read by
/// obs::BlameProfile::from_json; any other content is treated as
/// trace.jsonl and run through the analyzer.
/// Returns false (with *err set) when neither works.
bool load_blame_profile(std::string_view text, obs::BlameProfile& out,
                        std::string* err);

}  // namespace bento::tools
