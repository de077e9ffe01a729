#include "bentotrace/reader.hpp"

#include <algorithm>
#include <array>
#include <ostream>

#include "obs/slo.hpp"
#include "util/json.hpp"
#include "util/textutil.hpp"

namespace bento::tools {

using util::rcol;

namespace {

obs::Stage stage_from_index(std::uint64_t idx) {
  if (idx >= static_cast<std::uint64_t>(obs::Stage::kCount)) {
    return obs::Stage::None;
  }
  return static_cast<obs::Stage>(idx);
}

}  // namespace

TraceForest build_forest(const std::vector<obs::RawEvent>& events) {
  TraceForest forest;
  for (const obs::RawEvent& ev : events) {
    if (ev.ev == "!unparsed") {
      ++forest.unparsed_lines;
      continue;
    }
    if (ev.ev == "span.begin") {
      SpanNode& node = forest.spans[ev.a];
      node.id = ev.a;
      node.parent = static_cast<std::uint32_t>(ev.b >> 32);
      node.stage = stage_from_index(ev.b & 0xffffffffu);
      node.begin_ts = ev.ts;
    } else if (ev.ev == "span.end") {
      auto it = forest.spans.find(ev.a);
      if (it == forest.spans.end()) {
        // Begin fell off the ring (wraparound) — synthesize a stub so the
        // end is still attributable: span.end carries the stage in b.
        SpanNode& node = forest.spans[ev.a];
        node.id = ev.a;
        node.stage = stage_from_index(ev.b & 0xffffffffu);
        node.end_ts = ev.ts;
        node.ok = ev.ok;
        forest.orphan_ends.push_back(ev.a);
      } else {
        it->second.end_ts = ev.ts;
        it->second.ok = ev.ok;
      }
    } else if (ev.ev == "span.note") {
      auto it = forest.spans.find(ev.a);
      if (it == forest.spans.end()) continue;
      const std::uint32_t note_kind = static_cast<std::uint32_t>(ev.b >> 32);
      const std::uint32_t value = static_cast<std::uint32_t>(ev.b & 0xffffffffu);
      if (note_kind == obs::kNoteRef) {
        it->second.ref = value;
      } else if (note_kind == obs::kNoteWireBytes) {
        it->second.wire_bytes = value;
      } else if (note_kind == obs::kNoteLinkIdle) {
        it->second.idle_us = value;
      } else if (note_kind == obs::kNoteChaosDwell) {
        it->second.chaos_us = value;
      }
    } else if (ev.ev == "stream.ttfb") {
      forest.ttfb.emplace_back(ev.a, static_cast<std::int64_t>(ev.b));
    } else if (ev.ev == "stream.ttlb") {
      forest.ttlb.emplace_back(ev.a, static_cast<std::int64_t>(ev.b));
    }
  }
  // Link children and collect roots. Span ids are allocated monotonically in
  // begin order, so iterating the id-sorted map yields begin order and the
  // children vectors come out chronologically sorted for free.
  for (auto& [id, node] : forest.spans) {
    if (node.parent != 0) {
      auto parent_it = forest.spans.find(node.parent);
      if (parent_it != forest.spans.end()) {
        parent_it->second.children.push_back(id);
        continue;
      }
      // Parent lost to wraparound: promote to root so the subtree survives.
    }
    forest.roots.push_back(id);
  }
  for (const auto& [id, node] : forest.spans) {
    if (node.begin_ts >= 0 && node.end_ts < 0) forest.unfinished.push_back(id);
  }
  return forest;
}

namespace {

void format_node(const TraceForest& forest, std::uint32_t id, int depth,
                 std::ostream& os) {
  const SpanNode& node = forest.spans.at(id);
  for (int i = 0; i < depth; ++i) os << "  ";
  os << obs::stage_name(node.stage) << " #" << node.id;
  if (node.begin_ts < 0) {
    os << " [begin lost";
    if (node.end_ts >= 0) os << ", end @" << node.end_ts << "us";
    os << "]";
  } else if (node.end_ts < 0) {
    os << " @" << node.begin_ts << "us [unfinished]";
  } else {
    os << " @" << node.begin_ts << "us +" << node.duration_us() << "us";
  }
  if (!node.ok) os << " FAILED";
  if (node.ref != 0) os << " ref=" << node.ref;
  if (node.wire_bytes != 0) os << " wire=" << node.wire_bytes << "B";
  if (node.chaos_us != 0) os << " chaos=+" << node.chaos_us << "us";
  os << "\n";
  for (const std::uint32_t child : node.children) {
    format_node(forest, child, depth + 1, os);
  }
}

}  // namespace

void format_tree(const TraceForest& forest, std::ostream& os) {
  std::size_t trace_no = 0;
  for (const std::uint32_t root : forest.roots) {
    os << "trace " << ++trace_no << ":\n";
    format_node(forest, root, 1, os);
  }
  if (!forest.orphan_ends.empty()) {
    os << "orphan ends (begin lost to ring wraparound): "
       << forest.orphan_ends.size() << "\n";
  }
  if (!forest.unfinished.empty()) {
    os << "unfinished spans (no end recorded): " << forest.unfinished.size()
       << "\n";
  }
  if (forest.unparsed_lines > 0) {
    os << "unparsed input lines: " << forest.unparsed_lines << "\n";
  }
}

void format_stage_summary(const TraceForest& forest, std::ostream& os) {
  struct StageAgg {
    std::vector<std::int64_t> durations;
    std::size_t count = 0;
    std::size_t failed = 0;
    std::size_t incomplete = 0;
  };
  std::array<StageAgg, static_cast<std::size_t>(obs::Stage::kCount)> agg;
  for (const auto& [id, node] : forest.spans) {
    StageAgg& a = agg[static_cast<std::size_t>(node.stage)];
    ++a.count;
    if (!node.ok) ++a.failed;
    if (node.complete()) {
      a.durations.push_back(node.duration_us());
    } else {
      ++a.incomplete;
    }
  }
  os << "stage                count  fail  total_us    mean_us     p50_us    "
        " p95_us     max_us\n";
  for (std::size_t i = 0; i < agg.size(); ++i) {
    StageAgg& a = agg[i];
    if (a.count == 0) continue;
    std::sort(a.durations.begin(), a.durations.end());
    std::int64_t total = 0;
    for (const std::int64_t d : a.durations) total += d;
    const std::int64_t mean =
        a.durations.empty() ? 0
                            : total / static_cast<std::int64_t>(a.durations.size());
    const std::string name(obs::stage_name(static_cast<obs::Stage>(i)));
    os << name;
    for (std::size_t pad = name.size(); pad < 20; ++pad) os << ' ';
    rcol(os, static_cast<std::int64_t>(a.count), 6);
    rcol(os, static_cast<std::int64_t>(a.failed), 6);
    rcol(os, total, 10);
    rcol(os, mean, 11);
    rcol(os, obs::percentile_sorted(a.durations, 50), 11);
    rcol(os, obs::percentile_sorted(a.durations, 95), 11);
    rcol(os, a.durations.empty() ? 0 : a.durations.back(), 11);
    if (a.incomplete > 0) os << "  (" << a.incomplete << " incomplete)";
    os << "\n";
  }
}

void format_ttfb_table(const TraceForest& forest, std::ostream& os) {
  auto table = [&os](const char* label,
                     const std::vector<std::pair<std::uint32_t, std::int64_t>>&
                         samples) {
    if (samples.empty()) {
      os << label << ": no samples\n";
      return;
    }
    std::map<std::uint32_t, std::vector<std::int64_t>> per_circuit;
    std::vector<std::int64_t> all;
    for (const auto& [circ, us] : samples) {
      per_circuit[circ].push_back(us);
      all.push_back(us);
    }
    os << label << " (us):\n";
    os << "  circuit   count     p50     p95     p99   p99.9     max\n";
    auto row = [&os](const std::string& key, std::vector<std::int64_t>& v) {
      std::sort(v.begin(), v.end());
      os << "  " << key;
      for (std::size_t pad = key.size(); pad < 8; ++pad) os << ' ';
      rcol(os, static_cast<std::int64_t>(v.size()), 7);
      rcol(os, obs::percentile_sorted(v, 50), 8);
      rcol(os, obs::percentile_sorted(v, 95), 8);
      rcol(os, obs::percentile_sorted(v, 99), 8);
      rcol(os, obs::percentile_sorted(v, 99.9), 8);
      rcol(os, v.back(), 8);
      os << "\n";
    };
    for (auto& [circ, v] : per_circuit) row(std::to_string(circ), v);
    row("all", all);
  };
  table("ttfb", forest.ttfb);
  table("ttlb", forest.ttlb);
}

void export_chrome(const TraceForest& forest, std::ostream& os) {
  // One Chrome lane (tid) per trace, keyed by the root span's id. Async
  // b/e pairs draw the span bars; s/f flow events draw parent->child arrows
  // so cross-hop causality stays visible even when Chrome collapses lanes.
  util::json::Writer w(os);
  w.begin_object().field("displayTimeUnit", "ms").key("traceEvents").begin_array(true);
  for (const std::uint32_t root : forest.roots) {
    const auto event = [&w, root](const char* name, const char* cat, const char* ph,
                                  std::uint32_t id, std::int64_t ts) -> util::json::Writer& {
      w.begin_object().field("name", name).field("cat", cat).field("ph", ph);
      if (ph[0] == 'f') w.field("bp", "e");
      return w.field("id", id).field("pid", 1).field("tid", root).field("ts", ts);
    };
    std::vector<std::uint32_t> stack{root};
    while (!stack.empty()) {
      const SpanNode& node = forest.spans.at(stack.back());
      stack.pop_back();
      if (node.begin_ts >= 0) {
        const char* name = obs::stage_name(node.stage);
        event(name, "span", "b", node.id, node.begin_ts).key("args").begin_object();
        w.field("span", node.id).field("parent", node.parent).field("ok", node.ok);
        w.end_object().end_object();
        event(name, "span", "e", node.id, node.end_ts >= 0 ? node.end_ts : node.begin_ts)
            .end_object();
        const auto parent_it = forest.spans.find(node.parent);
        if (node.parent != 0 && parent_it != forest.spans.end() &&
            parent_it->second.begin_ts >= 0) {
          // Flow arrow: parent begin -> child begin.
          event("causal", "flow", "s", node.id, parent_it->second.begin_ts).end_object();
          event("causal", "flow", "f", node.id, node.begin_ts).end_object();
        }
      }
      for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
  w.end_array().end_object();
  os << '\n';
}

}  // namespace bento::tools
