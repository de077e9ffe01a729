#include "obs/profile.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/json.hpp"
#include "util/textutil.hpp"

namespace bento::obs {

namespace {

// Window-span buckets, sim microseconds: lookahead horizons range from
// sub-millisecond datacenter links to multi-second WAN windows.
constexpr std::int64_t kWindowSpanBucketsUs[] = {
    100,     250,     500,     1'000,     2'500,    5'000,    10'000,
    25'000,  50'000,  100'000, 250'000,   500'000,  1'000'000};

// Events-per-window buckets: how much parallel work a window exposes.
constexpr std::int64_t kEventsPerWindowBuckets[] = {
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1'024, 4'096, 16'384, 65'536};

void bar(std::ostream& os, double frac, int width) {
  if (frac < 0) frac = 0;
  if (frac > 1) frac = 1;
  const int fill = static_cast<int>(frac * width + 0.5);
  for (int i = 0; i < width; ++i) os << (i < fill ? '#' : '.');
}

}  // namespace

ShardProfiler::ShardProfiler()
    : m_windows_(registry().counter("shard.windows")),
      m_window_events_(registry().counter("shard.window_events")),
      m_mailbox_events_(registry().counter("shard.mailbox_events")),
      m_exclusive_(registry().counter("shard.exclusive_events")),
      m_mailbox_depth_(registry().gauge("shard.mailbox_depth")),
      m_lookahead_us_(registry().gauge("shard.lookahead_us")),
      m_span_us_(registry().histogram("shard.window_span_us", kWindowSpanBucketsUs)),
      m_events_per_window_(
          registry().histogram("shard.events_per_window", kEventsPerWindowBuckets)) {}

ShardProfiler& shard_profiler() {
  static ShardProfiler instance;
  return instance;
}

void ShardProfiler::reset() {
  windows_ = 0;
  window_events_ = 0;
  max_window_events_ = 0;
  span_sum_us_ = 0;
  span_min_us_ = 0;
  span_max_us_ = 0;
  mailbox_events_ = 0;
  mailbox_depth_hw_ = 0;
  exclusive_events_ = 0;
  lookahead_us_ = 0;
  for (std::uint32_t i = 0; i < regions_hw_; ++i) region_[i] = RegionTally{};
  regions_hw_ = 0;
  run_wall_ns_ = 0;
  window_wall_ns_ = 0;
  barrier_wall_ns_ = 0;
  drain_wall_ns_ = 0;
  merge_wall_ns_ = 0;
  exclusive_wall_ns_ = 0;
  for (WorkerWall& w : worker_) w = WorkerWall{};
}

BENTO_HOT void ShardProfiler::on_window_close(const std::uint64_t* region_events,
                                              std::uint32_t region_count,
                                              std::int64_t span_us) {
  if (!enabled_) return;
  if (region_count > 256) region_count = 256;
  if (region_count > regions_hw_) regions_hw_ = region_count;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < region_count; ++i) {
    const std::uint64_t n = region_events[i];
    if (n == 0) continue;
    total += n;
    region_[i].events += n;
    region_[i].windows += 1;
  }
  if (windows_ == 0 || span_us < span_min_us_) span_min_us_ = span_us;
  if (windows_ == 0 || span_us > span_max_us_) span_max_us_ = span_us;
  ++windows_;
  span_sum_us_ += span_us;
  window_events_ += total;
  if (total > max_window_events_) max_window_events_ = total;
  m_windows_.inc();
  m_window_events_.inc(total);
  m_span_us_.record(span_us);
  m_events_per_window_.record(static_cast<std::int64_t>(total));
}

BENTO_HOT void ShardProfiler::on_mailbox_drain(std::uint64_t drained,
                                               std::uint64_t max_depth) {
  if (!enabled_) return;
  mailbox_events_ += drained;
  if (max_depth > mailbox_depth_hw_) mailbox_depth_hw_ = max_depth;
  m_mailbox_events_.inc(drained);
  m_mailbox_depth_.set(static_cast<std::int64_t>(max_depth));
}

BENTO_HOT void ShardProfiler::on_exclusive() {
  if (!enabled_) return;
  ++exclusive_events_;
  m_exclusive_.inc();
}

void ShardProfiler::record_lookahead(std::int64_t us) {
  if (!enabled_) return;
  lookahead_us_ = us;
  m_lookahead_us_.set(us);
}

BENTO_HOT void ShardProfiler::add_worker_busy(unsigned worker, std::uint64_t ns,
                                              std::uint64_t events) {
  if (worker >= kMaxMetricWorkers) worker = kMaxMetricWorkers - 1;
  WorkerWall& w = worker_[worker];
  w.busy_ns += ns;
  w.windows += 1;
  w.events += events;
}

ShardProfileSnapshot ShardProfiler::snapshot() const {
  ShardProfileSnapshot s;
  s.windows = windows_;
  s.window_events = window_events_;
  s.max_window_events = max_window_events_;
  s.span_sum_us = span_sum_us_;
  s.span_min_us = span_min_us_;
  s.span_max_us = span_max_us_;
  s.mailbox_events = mailbox_events_;
  s.mailbox_depth_hw = mailbox_depth_hw_;
  s.exclusive_events = exclusive_events_;
  s.lookahead_us = lookahead_us_;
  for (std::uint32_t i = 0; i < regions_hw_; ++i) {
    if (region_[i].events == 0) continue;
    s.regions.push_back(ShardProfileSnapshot::RegionRow{i, region_[i].events,
                                                        region_[i].windows});
  }
  s.run_wall_ns = run_wall_ns_;
  // Dispatch = the coordinator's share of run_window: everything it did
  // between window entry and exit that was not barrier wait or trace merge
  // (its own region dispatch, round publish, worker wakeup). Derived by
  // subtraction so the four buckets partition the loop even when the OS
  // schedules the coordinator out between finer timing points.
  const std::uint64_t timed = barrier_wall_ns_ + merge_wall_ns_;
  s.dispatch_wall_ns = window_wall_ns_ > timed ? window_wall_ns_ - timed : 0;
  s.barrier_wall_ns = barrier_wall_ns_;
  s.drain_wall_ns = drain_wall_ns_;
  s.merge_wall_ns = merge_wall_ns_;
  s.exclusive_wall_ns = exclusive_wall_ns_;
  for (unsigned w = 0; w < kMaxMetricWorkers; ++w) {
    if (worker_[w].windows == 0) continue;
    s.workers.push_back(ShardProfileSnapshot::WorkerRow{
        w, worker_[w].busy_ns, worker_[w].windows, worker_[w].events});
  }
  return s;
}

std::uint64_t ShardProfileSnapshot::imbalance_x1000() const {
  std::uint64_t total = 0;
  std::uint64_t max_ev = 0;
  std::uint64_t active = 0;
  for (const RegionRow& r : regions) {
    total += r.events;
    if (r.events > max_ev) max_ev = r.events;
    ++active;
  }
  if (active == 0 || total == 0) return 1000;
  return max_ev * 1000 * active / total;
}

void ShardProfileSnapshot::to_json(std::ostream& os, bool include_wall) const {
  util::json::Writer w(os);
  w.begin_object().key("shard_profile").begin_object();
  w.field("windows", windows).field("window_events", window_events);
  w.field("max_window_events", max_window_events).key("span_us").begin_object();
  w.field("sum", span_sum_us).field("min", span_min_us).field("max", span_max_us);
  w.end_object().key("mailbox").begin_object().field("events", mailbox_events);
  w.field("depth_high_water", mailbox_depth_hw).end_object();
  w.field("exclusive_events", exclusive_events).field("lookahead_us", lookahead_us);
  w.field("imbalance_x1000", imbalance_x1000()).key("regions").begin_array();
  for (const RegionRow& r : regions) {
    w.begin_object().field("id", r.id).field("events", r.events);
    w.field("windows", r.windows).end_object();
  }
  w.end_array();
  if (include_wall) {
    w.key("wall").begin_object().field("run_ns", run_wall_ns);
    w.field("dispatch_ns", dispatch_wall_ns).field("barrier_ns", barrier_wall_ns);
    w.field("drain_ns", drain_wall_ns).field("merge_ns", merge_wall_ns);
    w.field("exclusive_ns", exclusive_wall_ns).key("workers").begin_array();
    for (const WorkerRow& r : workers) {
      w.begin_object().field("id", r.id).field("busy_ns", r.busy_ns);
      w.field("windows", r.windows).field("events", r.events).end_object();
    }
    w.end_array().end_object();
  }
  w.end_object().end_object();
  os << '\n';
}

bool ShardProfileSnapshot::from_json(std::string_view json, ShardProfileSnapshot& out) {
  util::json::Reader r(json);
  ShardProfileSnapshot s;
  std::uint64_t imbalance = 0;  // derived from the regions
  const auto region = [&] {
    RegionRow& row = s.regions.emplace_back();
    return r.fields({"id", "events", "windows"}, row.id, row.events, row.windows);
  };
  const auto worker = [&] {
    WorkerRow& row = s.workers.emplace_back();
    return r.fields({"id", "busy_ns", "windows", "events"}, row.id, row.busy_ns,
                    row.windows, row.events);
  };
  const auto span = [&] {
    return r.fields({"sum", "min", "max"}, s.span_sum_us, s.span_min_us, s.span_max_us);
  };
  const auto mailbox = [&] {
    return r.fields({"events", "depth_high_water"}, s.mailbox_events, s.mailbox_depth_hw);
  };
  const auto regions = [&] { return r.array(region); };
  const auto wall = [&] {
    return r.fields({"run_ns", "dispatch_ns", "barrier_ns", "drain_ns", "merge_ns",
                     "exclusive_ns", "workers"},
                    s.run_wall_ns, s.dispatch_wall_ns, s.barrier_wall_ns, s.drain_wall_ns,
                    s.merge_wall_ns, s.exclusive_wall_ns, [&] { return r.array(worker); });
  };
  bool found = false;  // the body is a nested value, so fields() lets it be absent
  const auto body = [&] {
    found = true;
    return r.fields({"windows", "window_events", "max_window_events", "span_us", "mailbox",
                     "exclusive_events", "lookahead_us", "imbalance_x1000", "regions", "wall"},
                    s.windows, s.window_events, s.max_window_events, span, mailbox,
                    s.exclusive_events, s.lookahead_us, imbalance, regions, wall);
  };
  if (!r.fields({"shard_profile"}, body) || !found || !r.finish()) return false;
  out = std::move(s);
  return true;
}

std::string ShardProfileSnapshot::to_json(bool include_wall) const {
  return util::json::to_string(*this, include_wall);
}

std::string ShardProfileSnapshot::to_section() const {
  std::ostringstream os;
  os << "=== shard profile ===\n";
  if (windows == 0) {
    os << "windows: 0 (serial or single-region run)\n";
    return os.str();
  }
  os << "windows: " << windows << "\n";
  os << "window span us: min=" << span_min_us
     << " mean=" << span_sum_us / static_cast<std::int64_t>(windows)
     << " max=" << span_max_us << " sum=" << span_sum_us << "\n";
  os << "events through windows: " << window_events
     << " (max per window " << max_window_events << ")\n";
  os << "mailbox: " << mailbox_events << " events, depth high-water "
     << mailbox_depth_hw << "\n";
  os << "exclusive events: " << exclusive_events << "\n";
  os << "lookahead us: " << lookahead_us << "\n";
  os << "imbalance (max/mean x1000): " << imbalance_x1000() << "\n";
  for (const RegionRow& r : regions) {
    os << "region " << r.id << ": " << r.events << " events, " << r.windows
       << " windows\n";
  }
  return os.str();
}

void render_top_frame(const ShardProfileSnapshot& s, std::ostream& os) {
  os << "bentotop — shard observatory\n";
  os << "windows " << s.windows << " | events " << s.window_events << " | mailbox "
     << s.mailbox_events << " (hw " << s.mailbox_depth_hw << ") | exclusive "
     << s.exclusive_events << " | lookahead " << s.lookahead_us << "us\n";
  if (s.windows > 0) {
    os << "window span us min/mean/max " << s.span_min_us << "/"
       << s.span_sum_us / static_cast<std::int64_t>(s.windows) << "/"
       << s.span_max_us << " | events/window mean "
       << s.window_events / s.windows << " max " << s.max_window_events
       << " | imbalance ";
    util::fixed1(os, static_cast<double>(s.imbalance_x1000()) / 1000.0);
    os << "x\n";
  } else {
    os << "no windowed activity (serial or single-region run)\n";
  }
  if (!s.regions.empty()) {
    std::uint64_t total = 0;
    for (const auto& r : s.regions) total += r.events;
    os << "regions:\n";
    for (const auto& r : s.regions) {
      os << "  r" << r.id << " ";
      bar(os, total == 0 ? 0 : static_cast<double>(r.events) / total *
                                   static_cast<double>(s.regions.size()),
          16);
      os << " " << r.events << " ev ";
      util::fixed1(os, util::pct_of(r.events, total));
      os << "% " << r.windows << " win\n";
    }
  }
  if (!s.workers.empty() && s.run_wall_ns > 0) {
    os << "workers:\n";
    for (const auto& w : s.workers) {
      const double occ = static_cast<double>(w.busy_ns) /
                         static_cast<double>(s.run_wall_ns);
      os << "  w" << w.id << " ";
      bar(os, occ, 16);
      os << " ";
      util::fixed1(os, occ * 100.0);
      os << "% busy " << w.windows << " win " << w.events << " ev\n";
    }
    const std::uint64_t accounted = s.dispatch_wall_ns + s.barrier_wall_ns +
                                    s.drain_wall_ns + s.merge_wall_ns +
                                    s.exclusive_wall_ns;
    const std::uint64_t other =
        s.run_wall_ns > accounted ? s.run_wall_ns - accounted : 0;
    os << "wall: dispatch ";
    util::fixed1(os, util::pct_of(s.dispatch_wall_ns + s.exclusive_wall_ns, s.run_wall_ns));
    os << "% | barrier ";
    util::fixed1(os, util::pct_of(s.barrier_wall_ns, s.run_wall_ns));
    os << "% | drain ";
    util::fixed1(os, util::pct_of(s.drain_wall_ns, s.run_wall_ns));
    os << "% | merge ";
    util::fixed1(os, util::pct_of(s.merge_wall_ns, s.run_wall_ns));
    os << "% | other ";
    util::fixed1(os, util::pct_of(other, s.run_wall_ns));
    os << "% (run ";
    util::fixed1(os, static_cast<double>(s.run_wall_ns) / 1e6);
    os << " ms)\n";
  }
}

}  // namespace bento::obs
