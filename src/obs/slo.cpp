#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace bento::obs {

namespace {

const char* agg_token(SloSpec::Agg agg) {
  switch (agg) {
    case SloSpec::Agg::Scalar: return "";
    case SloSpec::Agg::Percentile: return "p";
    case SloSpec::Agg::Count: return "count";
    case SloSpec::Agg::Mean: return "mean";
    case SloSpec::Agg::Max: return "max";
    case SloSpec::Agg::Min: return "min";
  }
  return "";
}

}  // namespace

std::string SloSpec::name() const {
  if (agg == Agg::Scalar) return metric;
  std::ostringstream os;
  os << metric << ":" << agg_token(agg);
  if (agg == Agg::Percentile) {
    // p99 / p99.9: strip a trailing ".0" so whole percentiles stay short.
    std::ostringstream p;
    util::json::write_number(p, pct);
    std::string t = p.str();
    const std::size_t dot = t.find('.');
    if (dot != std::string::npos) {
      std::size_t last = t.size();
      while (last > dot + 1 && t[last - 1] == '0') --last;
      if (last == dot + 1) last = dot;
      t.resize(last);
    }
    os << t;
  }
  return os.str();
}

bool parse_slo_spec(std::string_view text, SloSpec& out, std::string* err) {
  const auto fail = [&](const char* why) {
    if (err != nullptr) *err = std::string(why) + ": '" + std::string(text) + "'";
    return false;
  };
  std::size_t op_pos = text.find("<=");
  SloSpec::Op op = SloSpec::Op::Le;
  if (op_pos == std::string_view::npos) {
    op_pos = text.find(">=");
    op = SloSpec::Op::Ge;
  }
  if (op_pos == std::string_view::npos) return fail("missing <= or >=");
  const std::string_view lhs = text.substr(0, op_pos);
  const std::string_view rhs = text.substr(op_pos + 2);
  if (lhs.empty() || rhs.empty()) return fail("empty metric or target");

  SloSpec spec;
  spec.op = op;
  char* end = nullptr;
  const std::string rhs_s(rhs);
  spec.target = std::strtod(rhs_s.c_str(), &end);
  if (end == rhs_s.c_str() || *end != '\0') return fail("bad target number");
  if (!std::isfinite(spec.target)) return fail("target must be finite");

  const std::size_t colon = lhs.find(':');
  if (colon == std::string_view::npos) {
    spec.metric = std::string(lhs);
    spec.agg = SloSpec::Agg::Scalar;
  } else {
    spec.metric = std::string(lhs.substr(0, colon));
    const std::string_view agg = lhs.substr(colon + 1);
    if (spec.metric.empty() || agg.empty()) return fail("empty metric or aggregator");
    if (agg == "count") {
      spec.agg = SloSpec::Agg::Count;
    } else if (agg == "mean") {
      spec.agg = SloSpec::Agg::Mean;
    } else if (agg == "max") {
      spec.agg = SloSpec::Agg::Max;
    } else if (agg == "min") {
      spec.agg = SloSpec::Agg::Min;
    } else if (agg.size() > 1 && agg[0] == 'p') {
      const std::string p_s(agg.substr(1));
      spec.pct = std::strtod(p_s.c_str(), &end);
      if (end == p_s.c_str() || *end != '\0') return fail("bad percentile");
      if (!(spec.pct > 0 && spec.pct <= 100)) return fail("percentile out of (0,100]");
      spec.agg = SloSpec::Agg::Percentile;
    } else {
      return fail("unknown aggregator");
    }
  }
  out = spec;
  return true;
}

void SloInput::collect_latencies(const Recorder& rec) {
  for (const TraceEvent& e : rec.events()) {
    if (e.kind == Ev::StreamTtfb) {
      series["ttfb_us"].push_back(static_cast<std::int64_t>(e.b));
    } else if (e.kind == Ev::StreamTtlb) {
      series["ttlb_us"].push_back(static_cast<std::int64_t>(e.b));
    }
  }
}

std::int64_t percentile_sorted(std::span<const std::int64_t> samples, double pct) {
  if (samples.empty()) return 0;
  // Nearest rank: the smallest sample with at least pct% of the mass at or
  // below it. rank is 1-based; the epsilon keeps an exact rank exact when
  // pct/100*n lands a hair above an integer (99.9% of 1000 must be rank
  // 999, not 1000), and the clamps guard pct == 0 and the top end.
  double rank = std::ceil(pct / 100.0 * static_cast<double>(samples.size()) - 1e-9);
  if (rank < 1) rank = 1;
  std::size_t idx = static_cast<std::size_t>(rank) - 1;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

std::int64_t slo_percentile(std::vector<std::int64_t> samples, double pct) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, pct);
}

SloReport evaluate_slos(std::string scenario, const std::vector<SloSpec>& specs,
                        const SloInput& input) {
  SloReport rep;
  rep.scenario = std::move(scenario);
  rep.results.reserve(specs.size());
  for (const SloSpec& spec : specs) {
    SloResult res;
    res.spec = spec;
    if (spec.agg == SloSpec::Agg::Scalar) {
      const auto it = input.scalars.find(spec.metric);
      if (it == input.scalars.end()) {
        res.missing = true;
      } else {
        res.actual = it->second;
      }
    } else {
      const auto it = input.series.find(spec.metric);
      const std::vector<std::int64_t>* s =
          it != input.series.end() ? &it->second : nullptr;
      if (spec.agg == SloSpec::Agg::Count) {
        // A missing series is an honest zero for count floors.
        res.actual = s != nullptr ? static_cast<double>(s->size()) : 0.0;
      } else if (s == nullptr || s->empty()) {
        res.missing = true;
      } else {
        switch (spec.agg) {
          case SloSpec::Agg::Percentile:
            res.actual = static_cast<double>(slo_percentile(*s, spec.pct));
            break;
          case SloSpec::Agg::Mean: {
            std::int64_t sum = 0;
            for (const std::int64_t v : *s) sum += v;
            res.actual = static_cast<double>(sum / static_cast<std::int64_t>(s->size()));
            break;
          }
          case SloSpec::Agg::Max:
            res.actual = static_cast<double>(*std::max_element(s->begin(), s->end()));
            break;
          case SloSpec::Agg::Min:
            res.actual = static_cast<double>(*std::min_element(s->begin(), s->end()));
            break;
          default: break;
        }
      }
    }
    if (res.missing) {
      res.ok = false;
    } else if (spec.op == SloSpec::Op::Le) {
      res.ok = res.actual <= spec.target;
    } else {
      res.ok = res.actual >= spec.target;
    }
    rep.results.push_back(std::move(res));
  }
  return rep;
}

bool SloReport::pass() const {
  for (const SloResult& r : results) {
    if (!r.ok) return false;
  }
  return true;
}

void SloReport::to_json(std::ostream& os) const {
  util::json::Writer w(os);
  w.begin_object().field("scenario", scenario).field("verdict", pass() ? "pass" : "fail");
  w.key("objectives").begin_array();
  for (const SloResult& r : results) {
    w.begin_object().field("name", r.spec.name());
    w.field("op", r.spec.op == SloSpec::Op::Le ? "<=" : ">=").field("target", r.spec.target);
    w.key("actual");
    if (r.missing) {
      w.null();
    } else {
      w.value(r.actual);
    }
    w.field("pass", r.ok).end_object();
  }
  w.end_array().end_object();
  os << '\n';
}

std::string SloReport::to_json() const { return util::json::to_string(*this); }

std::string SloReport::to_string() const {
  std::ostringstream os;
  os << "SLO verdict for " << scenario << ": " << (pass() ? "PASS" : "FAIL") << "\n";
  for (const SloResult& r : results) {
    os << "  [" << (r.ok ? "ok  " : "FAIL") << "] " << r.spec.name() << " "
       << (r.spec.op == SloSpec::Op::Le ? "<=" : ">=") << " ";
    util::json::write_number(os, r.spec.target);
    os << "  actual ";
    if (r.missing) {
      os << "(no data)";
    } else {
      util::json::write_number(os, r.actual);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace bento::obs
