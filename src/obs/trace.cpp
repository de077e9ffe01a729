#include "obs/trace.hpp"

#include <istream>
#include <ostream>
#include <string_view>

#include "util/json.hpp"

namespace bento::obs {

const char* ev_name(Ev kind) {
  switch (kind) {
    case Ev::SimDispatch: return "sim.dispatch";
    case Ev::CircExtend: return "circuit.extend";
    case Ev::CircBuilt: return "circuit.built";
    case Ev::CircTeardown: return "circuit.teardown";
    case Ev::StreamOpen: return "stream.open";
    case Ev::StreamTtfb: return "stream.ttfb";
    case Ev::StreamTtlb: return "stream.ttlb";
    case Ev::CellSend: return "cell.send";
    case Ev::CellRecv: return "cell.recv";
    case Ev::CellRecognized: return "cell.recognized";
    case Ev::CellUnrecognized: return "cell.unrecognized";
    case Ev::FnUpload: return "fn.upload";
    case Ev::FnInvoke: return "fn.invoke";
    case Ev::FnShutdown: return "fn.shutdown";
    case Ev::TokenCheck: return "token.check";
    case Ev::PolicyDeny: return "policy.deny";
    case Ev::StemDeny: return "stem.deny";
    case Ev::SpanBegin: return "span.begin";
    case Ev::SpanEnd: return "span.end";
    case Ev::SpanNote: return "span.note";
    case Ev::SandboxNetDeny: return "sandbox.net_deny";
    case Ev::SandboxSyscallDeny: return "sandbox.syscall_deny";
    case Ev::SandboxResourceTrip: return "sandbox.resource_trip";
    case Ev::TeeAttest: return "tee.attest";
    case Ev::TeeEpcPage: return "tee.epc_page";
    case Ev::ChaosFault: return "chaos.fault";
    case Ev::ClientRetry: return "client.retry";
    case Ev::CircRebuild: return "circuit.rebuild";
    case Ev::LbFailover: return "lb.failover";
    case Ev::ShardRepair: return "shard.repair";
    case Ev::ShardWindow: return "shard.window";
    case Ev::ShardBarrier: return "shard.barrier";
    case Ev::kCount: break;
  }
  return "unknown";
}

bool ev_names_complete() {
  for (unsigned i = 0; i < static_cast<unsigned>(Ev::kCount); ++i) {
    const char* name = ev_name(static_cast<Ev>(i));
    if (name == nullptr || name[0] == '\0') return false;
    // ev_name falls through to "unknown" for kinds without a case label.
    if (name[0] == 'u' && std::string_view(name) == "unknown") return false;
  }
  return true;
}

namespace {
// Chrome renders one horizontal lane per (pid, tid); group events by
// subsystem so the sim firehose does not bury the application story.
int lane_of(Ev kind) {
  switch (kind) {
    case Ev::SimDispatch:
    case Ev::ShardWindow:
    case Ev::ShardBarrier:
    case Ev::ChaosFault: return 0;  // sim
    case Ev::CircExtend:
    case Ev::CircRebuild:
    case Ev::CircBuilt:
    case Ev::CircTeardown:
    case Ev::StreamOpen:
    case Ev::StreamTtfb:
    case Ev::StreamTtlb:
    case Ev::CellSend:
    case Ev::CellRecv:
    case Ev::CellRecognized:
    case Ev::CellUnrecognized: return 1;  // tor
    default: return 2;                    // core / bento
  }
}
}  // namespace

void Recorder::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, TraceEvent{});
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  overwritten_ = 0;
  ++generation_;
  buffered_ = false;
  for (auto& buf : pending_) buf.clear();
  enabled_ = true;
}

void Recorder::disable() { enabled_ = false; }

void Recorder::begin_window(std::size_t regions) {
  if (pending_.size() < regions) pending_.resize(regions);
  buffered_ = true;
}

void Recorder::record_buffered(Ev kind, std::uint32_t a, std::uint64_t b, bool ok) {
  const std::uint32_t region = detail::g_trace_region;
  if (region >= pending_.size()) return;  // misconfigured caller; drop
  detail::TraceOrder& ord = detail::g_trace_order;
  Pending p;
  p.e.ts_us = util::sim_now_micros();
  p.e.b = b;
  p.e.a = a;
  p.e.kind = kind;
  p.e.flags = ok ? 1 : 0;
  p.owhen_us = ord.when_us;
  p.oseq = ord.seq;
  p.oorigin = ord.origin;
  p.osub = ord.sub++;
  // bentolint: allow(BL102 side-buffer growth is amortized; capacity is reused across windows)
  pending_[region].push_back(p);
}

void Recorder::end_window() {
  buffered_ = false;
  bool any = false;
  for (const auto& buf : pending_) {
    if (!buf.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return;
  // Each per-region buffer is already sorted by the dispatch key — a region
  // executes its events in (when, origin, seq) order and `osub` increments
  // within one handler — so a k-way merge by that key reconstructs exactly
  // the insertion order a serial run would have produced.
  const auto before = [](const Pending& x, const Pending& y) {
    if (x.owhen_us != y.owhen_us) return x.owhen_us < y.owhen_us;
    if (x.oorigin != y.oorigin) return x.oorigin < y.oorigin;
    if (x.oseq != y.oseq) return x.oseq < y.oseq;
    return x.osub < y.osub;
  };
  std::vector<std::size_t> cursor(pending_.size(), 0);
  for (;;) {
    const Pending* best = nullptr;
    std::size_t best_region = 0;
    for (std::size_t r = 0; r < pending_.size(); ++r) {
      if (cursor[r] >= pending_[r].size()) continue;
      const Pending& cand = pending_[r][cursor[r]];
      if (best == nullptr || before(cand, *best)) {
        best = &cand;
        best_region = r;
      }
    }
    if (best == nullptr) break;
    commit(best->e);
    ++cursor[best_region];
  }
  for (auto& buf : pending_) buf.clear();  // keeps capacity for the next window
}

template <typename Fn>
void Recorder::for_each(Fn&& fn) const {
  // Oldest event: `head_` when full (head points at the next overwrite
  // victim), index 0 otherwise.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t idx = start + i;
    if (idx >= ring_.size()) idx -= ring_.size();
    fn(ring_[idx]);
  }
}

std::vector<TraceEvent> Recorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for_each([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void Recorder::export_chrome_trace(std::ostream& os) const {
  static const char* kLaneNames[] = {"sim", "tor", "bento"};
  util::json::Writer w(os);
  w.begin_object().field("displayTimeUnit", "ms").key("traceEvents").begin_array(true);
  for (int lane = 0; lane < 3; ++lane) {
    w.begin_object().field("name", "thread_name").field("ph", "M").field("pid", 1);
    w.field("tid", lane).key("args").begin_object().field("name", kLaneNames[lane]);
    w.end_object().end_object();
  }
  for_each([&w](const TraceEvent& e) {
    w.begin_object().field("name", ev_name(e.kind)).field("ph", "i").field("s", "t");
    w.field("pid", 1).field("tid", lane_of(e.kind)).field("ts", e.ts_us);
    w.key("args").begin_object().field("a", e.a).field("b", e.b);
    w.field("ok", (e.flags & 1) != 0).end_object().end_object();
  });
  w.end_array().end_object();
  os << '\n';
}

void Recorder::export_jsonl(std::ostream& os) const {
  for_each([&os](const TraceEvent& e) {
    util::json::Writer w(os);
    w.begin_object().field("ts", e.ts_us).field("ev", ev_name(e.kind)).field("a", e.a);
    w.field("b", e.b).field("ok", e.flags & 1).end_object();
    os << '\n';
  });
}

namespace {

// Fills `ev` in place, so read_jsonl moves no event.
bool parse_line(std::string_view line, RawEvent& ev) {
  util::json::Reader r(line);
  int ok = 0;
  if (!r.fields({"ts", "ev", "a", "b", "ok"}, ev.ts, ev.ev, ev.a, ev.b, ok) ||
      !r.finish()) {
    return false;
  }
  ev.ok = ok != 0;
  return true;
}

}  // namespace

std::optional<RawEvent> parse_jsonl_line(std::string_view line) {
  RawEvent ev;
  if (!parse_line(line, ev)) return std::nullopt;
  return ev;
}

std::vector<RawEvent> read_jsonl(std::istream& is) {
  std::vector<RawEvent> out;
  std::string line;
  while (std::getline(is, line)) {
    RawEvent& ev = out.emplace_back();
    if (line.empty()) {
      out.pop_back();
    } else if (!parse_line(line, ev)) {
      ev = RawEvent{.ev = "!unparsed"};
    }
  }
  return out;
}

}  // namespace bento::obs
