#include "obs/critpath.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>

#include "util/json.hpp"

namespace bento::obs {

namespace {

constexpr std::int32_t kAllRegions = -1;

std::string stage_token(Stage stage) {
  std::string name(stage_name(stage));
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

void col(std::ostream& os, const std::string& s, std::size_t width) {
  for (std::size_t pad = s.size(); pad < width; ++pad) os << ' ';
  os << s;
}

void lcol(std::ostream& os, const std::string& s, std::size_t width) {
  os << s;
  for (std::size_t pad = s.size(); pad < width; ++pad) os << ' ';
}

/// "8333" -> "83.33": x100 fixed-point percent, integer arithmetic only.
std::string pct_x100(std::int64_t bp) {
  std::string out = std::to_string(bp / 100) + ".";
  const std::int64_t frac = bp < 0 ? -(bp % 100) : bp % 100;
  if (frac < 10) out += '0';
  out += std::to_string(frac);
  return out;
}

std::string region_label(std::int32_t region) {
  return region < 0 ? std::string("all") : "r" + std::to_string(region);
}

}  // namespace

std::string segment_name(Stage stage, SegKind kind) {
  switch (kind) {
    case SegKind::Exec: return stage_token(stage);
    case SegKind::Wait: return stage_token(stage) + "_wait";
    case SegKind::MailboxWait: return stage_token(stage) + "_mailbox_wait";
    case SegKind::LinkQueue: return stage_token(stage) + "_queue";
    case SegKind::LinkTransit: return stage_token(stage) + "_transit";
    case SegKind::ChaosDwell: return "chaos_dwell";
  }
  return "unknown";
}

CritReport compute_critical_paths(const CritInput& input) {
  CritReport out;
  std::map<std::uint32_t, const CritSpan*> by_id;
  for (const CritSpan& s : input.spans) {
    if (s.id != 0) by_id[s.id] = &s;
  }
  std::map<std::uint32_t, std::vector<std::uint32_t>> kids;
  for (const auto& [id, s] : by_id) {
    if (s->parent != 0 && by_id.count(s->parent) != 0) {
      kids[s->parent].push_back(id);
    }
  }
  std::vector<std::int64_t> barriers = input.barriers_us;
  std::sort(barriers.begin(), barriers.end());

  // One flattened subtree interval. The span hierarchy is causal, not
  // containment: children routinely outlive their (often instantaneous)
  // parents, so depth comes from the tree while intervals are taken at face
  // value and clamped to the root's window.
  struct Flat {
    const CritSpan* s = nullptr;
    std::int64_t b = 0;
    std::int64_t e = 0;
    std::int64_t first_child_b = std::numeric_limits<std::int64_t>::max();
    int depth = 0;
  };
  std::vector<Flat> flats;
  std::vector<std::int64_t> pts;
  std::vector<std::int64_t> link_us;

  for (const auto& [rid, root] : by_id) {
    if (root->parent != 0) continue;  // descendants ride their root's walk
    if (root->begin_us < 0 || root->end_us < root->begin_us) {
      ++out.incomplete;
      continue;
    }
    const std::int64_t rb = root->begin_us;
    const std::int64_t re = root->end_us;

    flats.clear();
    std::map<std::uint32_t, std::size_t> flat_of;
    std::vector<std::pair<std::uint32_t, int>> stack{{rid, 0}};
    while (!stack.empty()) {
      const auto [id, depth] = stack.back();
      stack.pop_back();
      const auto kit = kids.find(id);
      if (kit != kids.end()) {
        for (const std::uint32_t k : kit->second) stack.emplace_back(k, depth + 1);
      }
      const CritSpan* s = by_id.at(id);
      if (s->begin_us < 0) continue;  // wraparound stub; keep descending
      const std::int64_t b = std::max(s->begin_us, rb);
      const std::int64_t e = std::min(s->end_us < 0 ? re : s->end_us, re);
      if (e < b) continue;
      flat_of[id] = flats.size();
      flats.push_back(Flat{s, b, e,
                           std::numeric_limits<std::int64_t>::max(), depth});
    }
    for (const Flat& f : flats) {
      const auto pit = flat_of.find(f.s->parent);
      if (pit != flat_of.end()) {
        Flat& parent = flats[pit->second];
        parent.first_child_b = std::min(parent.first_child_b, f.b);
      }
    }

    // Elementary intervals: every clamped span boundary plus every
    // shard.barrier timestamp inside the root's window.
    pts.clear();
    for (const Flat& f : flats) {
      pts.push_back(f.b);
      pts.push_back(f.e);
    }
    const auto bar_lo = std::upper_bound(barriers.begin(), barriers.end(), rb);
    const auto bar_hi = std::lower_bound(barriers.begin(), barriers.end(), re);
    pts.insert(pts.end(), bar_lo, bar_hi);
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());

    RequestBlame req;
    req.root_id = rid;
    req.ref = root->ref;
    req.begin_us = rb;
    req.total_us = re - rb;
    req.ok = root->ok;

    std::map<std::tuple<Stage, SegKind, std::uint32_t>, std::int64_t> acc;
    link_us.assign(flats.size(), 0);
    for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
      const std::int64_t t0 = pts[i];
      const std::int64_t t1 = pts[i + 1];
      // Winner: the deepest span covering the interval; ties go to the
      // latest begin, then the highest id — the most recently dispatched
      // work. The root always covers, so every microsecond lands somewhere.
      const Flat* w = nullptr;
      std::size_t wi = 0;
      for (std::size_t j = 0; j < flats.size(); ++j) {
        const Flat& f = flats[j];
        if (f.b > t0 || f.e < t1) continue;
        if (w == nullptr || std::tuple(f.depth, f.b, f.s->id) >
                                std::tuple(w->depth, w->b, w->s->id)) {
          w = &f;
          wi = j;
        }
      }
      if (w == nullptr) continue;  // unreachable: the root covers [rb, re]
      const std::int64_t dt = t1 - t0;
      if (w->s->stage == Stage::NetLink) {
        link_us[wi] += dt;  // split into queue/transit/chaos below
        continue;
      }
      SegKind kind = SegKind::Exec;
      if (t0 >= w->first_child_b) {
        kind = std::binary_search(barriers.begin(), barriers.end(), t0)
                   ? SegKind::MailboxWait
                   : SegKind::Wait;
      }
      acc[{w->s->stage, kind, w->s->id >> 24}] += dt;
    }
    // Split each link's attributed time using the budget notes the network
    // stamped at send time: fault dwell first (so an injected throttle
    // surfaces even on a partially-attributed link), then the uncontended
    // transit budget, with the remainder as queue contention. The clamps
    // keep the request sum exact even when a note is missing.
    for (std::size_t j = 0; j < flats.size(); ++j) {
      const std::int64_t a = link_us[j];
      if (a <= 0) continue;
      const CritSpan& s = *flats[j].s;
      const std::uint32_t region = s.id >> 24;
      const std::int64_t chaos =
          std::min(std::max<std::int64_t>(s.chaos_us, 0), a);
      const std::int64_t transit =
          std::min(std::max<std::int64_t>(s.idle_us, 0), a - chaos);
      const std::int64_t queue = a - chaos - transit;
      if (chaos > 0) acc[{Stage::NetLink, SegKind::ChaosDwell, region}] += chaos;
      if (transit > 0) {
        acc[{Stage::NetLink, SegKind::LinkTransit, region}] += transit;
      }
      if (queue > 0) acc[{Stage::NetLink, SegKind::LinkQueue, region}] += queue;
    }
    req.segs.reserve(acc.size());
    for (const auto& [key, us] : acc) {
      req.segs.push_back(
          BlameSeg{std::get<0>(key), std::get<1>(key), std::get<2>(key), us});
    }
    out.requests.push_back(std::move(req));
  }
  return out;
}

BlameProfile aggregate_blame(const CritReport& report) {
  BlameProfile p;
  p.incomplete = report.incomplete;
  p.requests = report.requests.size();
  std::vector<std::int64_t> totals;
  totals.reserve(report.requests.size());
  for (const RequestBlame& r : report.requests) {
    totals.push_back(r.total_us);
    p.sum_us += r.total_us;
  }
  p.p50_us = slo_percentile(totals, 50);
  p.p99_us = slo_percentile(totals, 99);
  p.p999_us = slo_percentile(totals, 99.9);

  struct Agg {
    std::uint64_t requests = 0;
    std::int64_t total = 0;
    std::int64_t body = 0;
    std::int64_t tail = 0;
  };
  std::map<std::pair<std::string, std::int32_t>, Agg> cells;
  std::int64_t body_sum = 0;
  std::int64_t tail_sum = 0;
  std::map<std::pair<std::string, std::int32_t>, std::int64_t> mine;
  for (const RequestBlame& r : report.requests) {
    const bool body = r.total_us <= p.p50_us;
    const bool tail = r.total_us >= p.p99_us;
    if (body) {
      ++p.body_n;
      body_sum += r.total_us;
    }
    if (tail) {
      ++p.tail_n;
      tail_sum += r.total_us;
    }
    mine.clear();
    for (const BlameSeg& seg : r.segs) {
      const std::string name = segment_name(seg.stage, seg.kind);
      mine[{name, static_cast<std::int32_t>(seg.region)}] += seg.us;
      mine[{name, kAllRegions}] += seg.us;
    }
    for (const auto& [key, us] : mine) {
      Agg& a = cells[key];
      ++a.requests;
      a.total += us;
      if (body) a.body += us;
      if (tail) a.tail += us;
    }
  }
  if (p.body_n > 0) p.body_mean_us = body_sum / static_cast<std::int64_t>(p.body_n);
  if (p.tail_n > 0) p.tail_mean_us = tail_sum / static_cast<std::int64_t>(p.tail_n);

  // Group by segment, ordered by total blame descending (ties: name), with
  // the all-regions row leading each group and regions ascending after it.
  std::vector<std::pair<std::string, std::int64_t>> groups;
  for (const auto& [key, a] : cells) {
    if (key.second == kAllRegions) groups.emplace_back(key.first, a.total);
  }
  std::sort(groups.begin(), groups.end(), [](const auto& x, const auto& y) {
    if (x.second != y.second) return x.second > y.second;
    return x.first < y.first;
  });
  const auto n = static_cast<std::int64_t>(p.requests);
  for (const auto& [name, total] : groups) {
    (void)total;
    for (const auto& [key, a] : cells) {
      if (key.first != name) continue;
      BlameProfile::Row row;
      row.seg = name;
      row.region = key.second;
      row.requests = a.requests;
      row.total_us = a.total;
      row.mean_us = n > 0 ? a.total / n : 0;
      row.body_mean_us =
          p.body_n > 0 ? a.body / static_cast<std::int64_t>(p.body_n) : 0;
      row.tail_mean_us =
          p.tail_n > 0 ? a.tail / static_cast<std::int64_t>(p.tail_n) : 0;
      p.rows.push_back(std::move(row));
    }
  }
  return p;
}

std::string BlameProfile::top_segment() const {
  return rows.empty() ? std::string() : rows.front().seg;
}

void BlameProfile::to_json(std::ostream& os) const {
  util::json::Writer w(os);
  w.begin_object().key("critpath").begin_object().field("requests", requests);
  w.field("incomplete", incomplete).key("total_us").begin_object().field("sum", sum_us);
  w.field("p50", p50_us).field("p99", p99_us).field("p99_9", p999_us).end_object();
  w.key("cohorts").begin_object().field("body_n", body_n);
  w.field("body_mean_us", body_mean_us).field("tail_n", tail_n);
  w.field("tail_mean_us", tail_mean_us).end_object().field("top", top_segment());
  w.key("segments").begin_array();
  for (const Row& r : rows) {
    const std::int64_t share = sum_us > 0 ? r.total_us * 10000 / sum_us : 0;
    w.begin_object().field("seg", r.seg).field("region", region_label(r.region));
    w.field("requests", r.requests).field("total_us", r.total_us);
    w.field("share_x100", share).field("mean_us", r.mean_us);
    w.field("body_mean_us", r.body_mean_us).field("tail_mean_us", r.tail_mean_us);
    w.end_object();
  }
  w.end_array().end_object().end_object();
  os << '\n';
}

bool BlameProfile::from_json(std::string_view json, BlameProfile& out) {
  util::json::Reader r(json);
  BlameProfile p;
  std::string top;        // derived: rows.front().seg
  std::int64_t share = 0;  // derived: total_us / sum_us
  const auto segment = [&] {
    Row& row = p.rows.emplace_back();
    std::string region;
    if (!r.fields({"seg", "region", "requests", "total_us", "share_x100", "mean_us",
                   "body_mean_us", "tail_mean_us"},
                  row.seg, region, row.requests, row.total_us, share, row.mean_us,
                  row.body_mean_us, row.tail_mean_us)) {
      return false;
    }
    if (region == "all") return true;  // row.region stays kAllRegions
    const char* end = region.data() + region.size();
    const auto [ptr, ec] = std::from_chars(region.data() + 1, end, row.region);
    return region.size() > 1 && region[0] == 'r' && ec == std::errc{} && ptr == end &&
           row.region >= 0;
  };
  const auto totals = [&] {
    return r.fields({"sum", "p50", "p99", "p99_9"}, p.sum_us, p.p50_us, p.p99_us, p.p999_us);
  };
  const auto cohorts = [&] {
    return r.fields({"body_n", "body_mean_us", "tail_n", "tail_mean_us"}, p.body_n,
                    p.body_mean_us, p.tail_n, p.tail_mean_us);
  };
  const auto segments = [&] { return r.array(segment); };
  bool found = false;  // the body is a nested value, so fields() lets it be absent
  const auto body = [&] {
    found = true;
    return r.fields({"requests", "incomplete", "total_us", "cohorts", "top", "segments"},
                    p.requests, p.incomplete, totals, cohorts, top, segments);
  };
  if (!r.fields({"critpath"}, body) || !found || !r.finish()) return false;
  out = std::move(p);
  return true;
}

std::string BlameProfile::to_json() const { return util::json::to_string(*this); }

std::string BlameProfile::to_string() const {
  std::ostringstream os;
  os << "critical-path blame: " << requests << " requests";
  if (incomplete > 0) os << " (" << incomplete << " incomplete dropped)";
  os << ", " << sum_us << " us attributed\n";
  os << "ttlb: p50=" << p50_us << "us p99=" << p99_us << "us p99.9=" << p999_us
     << "us | body n=" << body_n << " mean=" << body_mean_us
     << "us | tail n=" << tail_n << " mean=" << tail_mean_us << "us\n";
  if (rows.empty()) return std::move(os).str();
  os << "segment                       region    req      total_us  share%  "
        "  mean_us  body_mean  tail_mean\n";
  for (const Row& r : rows) {
    const std::int64_t share = sum_us > 0 ? r.total_us * 10000 / sum_us : 0;
    lcol(os, r.seg, 30);
    lcol(os, region_label(r.region), 7);
    col(os, std::to_string(r.requests), 6);
    col(os, std::to_string(r.total_us), 14);
    col(os, pct_x100(share), 8);
    col(os, std::to_string(r.mean_us), 11);
    col(os, std::to_string(r.body_mean_us), 11);
    col(os, std::to_string(r.tail_mean_us), 11);
    os << "\n";
  }
  return std::move(os).str();
}

void add_critpath_series(const CritReport& report, SloInput& input) {
  std::map<std::string, bool> seen;
  for (const RequestBlame& r : report.requests) {
    for (const BlameSeg& s : r.segs) seen[segment_name(s.stage, s.kind)] = true;
  }
  std::map<std::string, std::int64_t> mine;
  for (const RequestBlame& r : report.requests) {
    input.add_sample("critpath.total_us", r.total_us);
    mine.clear();
    for (const BlameSeg& s : r.segs) mine[segment_name(s.stage, s.kind)] += s.us;
    for (const auto& [name, present] : seen) {
      (void)present;
      const auto it = mine.find(name);
      input.add_sample("critpath." + name + "_us",
                       it == mine.end() ? 0 : it->second);
    }
  }
}

bool BlameDiff::regressed() const {
  for (const Row& r : rows) {
    if (r.regressed) return true;
  }
  return false;
}

BlameDiff diff_blame(const BlameProfile& a, const BlameProfile& b,
                     std::uint64_t threshold_pct, std::int64_t floor_us) {
  BlameDiff d;
  d.threshold_pct = threshold_pct;
  d.floor_us = floor_us;
  d.a_requests = a.requests;
  d.b_requests = b.requests;
  // a_mean, a_tail, b_mean, b_tail per segment (all-regions rows only).
  std::map<std::string, std::array<std::int64_t, 4>> cells;
  for (const BlameProfile::Row& r : a.rows) {
    if (r.region != kAllRegions) continue;
    cells[r.seg][0] = r.mean_us;
    cells[r.seg][1] = r.tail_mean_us;
  }
  for (const BlameProfile::Row& r : b.rows) {
    if (r.region != kAllRegions) continue;
    cells[r.seg][2] = r.mean_us;
    cells[r.seg][3] = r.tail_mean_us;
  }
  const auto worse = [&](std::int64_t x, std::int64_t y) {
    return y - x > floor_us &&
           y * 100 > x * (100 + static_cast<std::int64_t>(threshold_pct));
  };
  for (const auto& [seg, m] : cells) {
    BlameDiff::Row row;
    row.seg = seg;
    row.a_mean_us = m[0];
    row.b_mean_us = m[2];
    row.a_tail_mean_us = m[1];
    row.b_tail_mean_us = m[3];
    row.regressed = worse(m[0], m[2]) || worse(m[1], m[3]);
    d.rows.push_back(std::move(row));
  }
  return d;
}

void BlameDiff::to_json(std::ostream& os) const {
  util::json::Writer w(os);
  w.begin_object().key("critpath_diff").begin_object();
  w.field("threshold_pct", threshold_pct).field("floor_us", floor_us);
  w.field("a_requests", a_requests).field("b_requests", b_requests);
  w.field("verdict", regressed() ? "fail" : "pass").key("segments").begin_array();
  for (const Row& r : rows) {
    w.begin_object().field("seg", r.seg).field("a_mean_us", r.a_mean_us);
    w.field("b_mean_us", r.b_mean_us).field("a_tail_mean_us", r.a_tail_mean_us);
    w.field("b_tail_mean_us", r.b_tail_mean_us).field("regressed", r.regressed);
    w.end_object();
  }
  w.end_array().end_object().end_object();
  os << '\n';
}

std::string BlameDiff::to_json() const { return util::json::to_string(*this); }

std::string BlameDiff::to_string() const {
  std::ostringstream os;
  os << "critpath diff: a=" << a_requests << " req, b=" << b_requests
     << " req, threshold " << threshold_pct << "% floor " << floor_us
     << "us -> " << (regressed() ? "REGRESSED" : "ok") << "\n";
  if (rows.empty()) return std::move(os).str();
  os << "segment                        a_mean_us  b_mean_us      delta  "
        "a_tail_us  b_tail_us tail_delta  verdict\n";
  for (const Row& r : rows) {
    lcol(os, r.seg, 30);
    col(os, std::to_string(r.a_mean_us), 10);
    col(os, std::to_string(r.b_mean_us), 11);
    col(os, std::to_string(r.b_mean_us - r.a_mean_us), 11);
    col(os, std::to_string(r.a_tail_mean_us), 11);
    col(os, std::to_string(r.b_tail_mean_us), 11);
    col(os, std::to_string(r.b_tail_mean_us - r.a_tail_mean_us), 11);
    os << "  " << (r.regressed ? "REGRESSED" : "ok") << "\n";
  }
  return std::move(os).str();
}

}  // namespace bento::obs
