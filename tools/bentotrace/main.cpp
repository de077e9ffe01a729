// bentotrace — analysis CLI for Bento flight-recorder dumps.
//
// Usage:
//   bentotrace summary <trace.jsonl>   per-stage latency table + TTFB/TTLB
//   bentotrace tree    <trace.jsonl>   reconstructed span trees, one per request
//   bentotrace chrome  <trace.jsonl>   Chrome trace_event JSON (about:tracing)
//   bentotrace shards  <trace.jsonl> [--profile <profile_wall.json>]
//                                      per-region balance + barrier stats from
//                                      shard.window/shard.barrier events; with
//                                      --profile, wall-time attribution
//                                      {dispatch, barrier wait, drain, merge}
//   bentotrace slo     <trace.jsonl> SPEC [SPEC...]
//                                      evaluate SLO specs (see obs/slo.hpp,
//                                      e.g. ttfb_us:p99<=250000 or
//                                      critpath.net_link_queue_us:p99<=...)
//                                      against the trace; exit 0 pass / 1 fail
//   bentotrace critpath <trace.jsonl> [--json]
//                                      per-request critical-path blame,
//                                      aggregated with p50-body vs p99-tail
//                                      cohorts (DESIGN.md §14)
//   bentotrace diff A B [--threshold-pct N] [--floor-us N] [--json]
//                                      align two runs' blame profiles (each
//                                      side: trace.jsonl or a critpath JSON)
//                                      and flag per-segment regressions;
//                                      exit 0 ok / 1 regressed
//
// `-` reads the dump from stdin. Every subcommand starts with a self-check
// that obs::ev_name / obs::stage_name cover their whole enums — a new kind
// added without a name string fails loudly here (and in CI) instead of
// rendering as "unknown" in reports.

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bentotrace/critpath.hpp"
#include "bentotrace/reader.hpp"
#include "bentotrace/shards.hpp"
#include "obs/critpath.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace {

int usage() {
  std::cerr << "usage: bentotrace <summary|tree|chrome> <trace.jsonl|->\n"
               "       bentotrace shards <trace.jsonl|-> [--profile <profile_wall.json>]\n"
               "       bentotrace slo <trace.jsonl|-> SPEC [SPEC...]\n"
               "       bentotrace critpath <trace.jsonl|-> [--json]\n"
               "       bentotrace diff <A> <B> [--threshold-pct N] "
               "[--floor-us N] [--json]\n";
  return 2;
}

bool self_check() {
  if (!bento::obs::ev_names_complete()) {
    std::cerr << "bentotrace: self-check failed: obs::ev_name is missing a "
                 "name for at least one Ev kind\n";
    return false;
  }
  if (!bento::obs::stage_names_complete()) {
    std::cerr << "bentotrace: self-check failed: obs::stage_name is missing a "
                 "name for at least one Stage\n";
    return false;
  }
  return true;
}

bool read_events(const std::string& path, std::vector<bento::obs::RawEvent>& out) {
  if (path == "-") {
    out = bento::obs::read_jsonl(std::cin);
    return true;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bentotrace: cannot open " << path << "\n";
    return false;
  }
  out = bento::obs::read_jsonl(in);
  return true;
}

bool read_whole(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "bentotrace: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = std::move(ss).str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (!self_check()) return 3;
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];

  if (cmd == "diff") {
    if (argc < 4) return usage();
    std::uint64_t threshold_pct = 10;
    std::int64_t floor_us = 50;
    bool json = false;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--threshold-pct" && i + 1 < argc) {
        threshold_pct = std::strtoull(argv[++i], nullptr, 10);
      } else if (arg == "--floor-us" && i + 1 < argc) {
        floor_us = std::strtoll(argv[++i], nullptr, 10);
      } else if (arg == "--json") {
        json = true;
      } else {
        return usage();
      }
    }
    bento::obs::BlameProfile a;
    bento::obs::BlameProfile b;
    std::string text;
    std::string err;
    if (!read_whole(path, text)) return 1;
    if (!bento::tools::load_blame_profile(text, a, &err)) {
      std::cerr << "bentotrace: " << path << ": " << err << "\n";
      return 1;
    }
    if (!read_whole(argv[3], text)) return 1;
    if (!bento::tools::load_blame_profile(text, b, &err)) {
      std::cerr << "bentotrace: " << argv[3] << ": " << err << "\n";
      return 1;
    }
    const bento::obs::BlameDiff diff =
        bento::obs::diff_blame(a, b, threshold_pct, floor_us);
    std::cout << (json ? diff.to_json() : diff.to_string());
    return diff.regressed() ? 1 : 0;
  }

  std::vector<bento::obs::RawEvent> events;
  if (!read_events(path, events)) return 1;

  if (cmd == "critpath") {
    bool json = false;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        json = true;
      } else {
        return usage();
      }
    }
    const bento::obs::BlameProfile profile = bento::obs::aggregate_blame(
        bento::obs::compute_critical_paths(
            bento::tools::crit_input_from_events(events)));
    std::cout << (json ? profile.to_json() : profile.to_string());
    return 0;
  }

  if (cmd == "shards") {
    bento::obs::ShardProfileSnapshot wall;
    bool have_wall = false;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--profile" && i + 1 < argc) {
        std::string text;
        if (!read_whole(argv[++i], text)) return 1;
        if (!bento::obs::ShardProfileSnapshot::from_json(text, wall)) {
          std::cerr << "bentotrace: not a ShardProfile JSON: " << argv[i] << "\n";
          return 1;
        }
        have_wall = true;
      } else {
        return usage();
      }
    }
    bento::tools::format_shard_report(events, have_wall ? &wall : nullptr,
                                      std::cout);
    return 0;
  }

  if (cmd == "slo") {
    if (argc < 4) return usage();
    std::vector<bento::obs::SloSpec> specs;
    for (int i = 3; i < argc; ++i) {
      bento::obs::SloSpec spec;
      std::string err;
      if (!bento::obs::parse_slo_spec(argv[i], spec, &err)) {
        std::cerr << "bentotrace: bad SLO spec '" << argv[i] << "': " << err
                  << "\n";
        return 2;
      }
      specs.push_back(spec);
    }
    const bento::obs::SloReport report =
        bento::tools::evaluate_trace_slos(events, specs);
    std::cout << report.to_string();
    return report.pass() ? 0 : 1;
  }

  if (argc != 3) return usage();
  const bento::tools::TraceForest forest = bento::tools::build_forest(events);

  if (cmd == "summary") {
    std::cout << "bentotrace summary: " << events.size() << " events, "
              << forest.spans.size() << " spans, " << forest.roots.size()
              << " traces\n\n";
    bento::tools::format_stage_summary(forest, std::cout);
    std::cout << "\n";
    bento::tools::format_ttfb_table(forest, std::cout);
    if (!forest.orphan_ends.empty() || !forest.unfinished.empty() ||
        forest.unparsed_lines > 0) {
      std::cout << "\nintegrity: " << forest.orphan_ends.size()
                << " orphan ends, " << forest.unfinished.size()
                << " unfinished spans, " << forest.unparsed_lines
                << " unparsed lines\n";
    }
  } else if (cmd == "tree") {
    bento::tools::format_tree(forest, std::cout);
  } else if (cmd == "chrome") {
    bento::tools::export_chrome(forest, std::cout);
  } else {
    return usage();
  }
  return 0;
}
