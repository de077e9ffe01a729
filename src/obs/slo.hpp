// Declarative service-level objectives over a simulated run (DESIGN.md §13).
//
// An SLO is a predicate over an *actual* computed from run data: a
// percentile / count / mean / max over a sample series (e.g. "ttfb_us", the
// stream.ttfb latencies pulled from the trace ring), or a named scalar the
// scenario supplies (e.g. "cells_per_sim_sec", "region_imbalance"). All
// inputs are sim-domain quantities, so a report — including the
// BENCH_scenarios.json rendering — is byte-identical across repeated runs
// at fixed (seed, topology, shard count). Wall-clock numbers are
// deliberately not admissible inputs; they live in the profiler's opt-in
// wall section instead.
//
// Spec strings (parse_slo_spec):
//   ttfb_us:p99<=250000        p99 of series "ttfb_us" must be <= 250000
//   ttfb_us:p99.9<=400000      fractional percentiles allowed
//   ttfb_us:count>=100000      sample count floor
//   ttlb_us:mean<=120000       mean ceiling
//   cells_per_sim_sec>=50000   scalar floor (no aggregator)
//   region_imbalance<=1.5      scalar ceiling
// Percentiles use the nearest-rank definition on the sorted series.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bento::obs {

class Recorder;

struct SloSpec {
  enum class Agg { Scalar, Percentile, Count, Mean, Max, Min };
  enum class Op { Le, Ge };

  std::string metric;       // series or scalar name
  Agg agg = Agg::Scalar;
  double pct = 0;           // percentile, for Agg::Percentile
  Op op = Op::Le;
  double target = 0;

  /// Canonical display name, e.g. "ttfb_us:p99" or "cells_per_sim_sec".
  std::string name() const;
};

/// Parses one spec string; returns false (with *err set, if given) on
/// malformed input. Accepted ops: "<=" and ">=".
bool parse_slo_spec(std::string_view text, SloSpec& out, std::string* err = nullptr);

/// Run data the objectives are evaluated against.
struct SloInput {
  std::map<std::string, std::vector<std::int64_t>> series;
  std::map<std::string, double> scalars;

  void add_sample(const std::string& name, std::int64_t v) {
    series[name].push_back(v);
  }
  void set_scalar(const std::string& name, double v) { scalars[name] = v; }

  /// Pulls latency series out of the trace ring: stream.ttfb -> "ttfb_us",
  /// stream.ttlb -> "ttlb_us" (operand b is the sim-µs latency).
  void collect_latencies(const Recorder& rec);
};

struct SloResult {
  SloSpec spec;
  double actual = 0;
  bool ok = false;
  bool missing = false;  // metric absent from the input; always a failure
};

struct SloReport {
  std::string scenario;
  std::vector<SloResult> results;

  bool pass() const;

  /// Byte-stable JSON verdict (the BENCH_scenarios.json schema):
  /// {"scenario":...,"verdict":"pass"|"fail","objectives":[{"name":...,
  ///  "op":"<="|">=","target":...,"actual":...,"pass":...},...]}
  void to_json(std::ostream& os) const;
  std::string to_json() const;

  /// Human-readable verdict table.
  std::string to_string() const;
};

/// Nearest-rank percentile over an ascending series; 0 when it is empty.
std::int64_t percentile_sorted(std::span<const std::int64_t> samples, double pct);

/// Nearest-rank percentile over an unsorted series (sorts a copy); 0 when
/// the series is empty.
std::int64_t slo_percentile(std::vector<std::int64_t> samples, double pct);

/// Evaluates every spec against the input. Specs whose metric is absent
/// (unknown scalar, empty/missing series for non-Count aggregates) are
/// reported missing and fail the run — a silent no-data pass is the one
/// outcome an SLO gate must never produce.
SloReport evaluate_slos(std::string scenario, const std::vector<SloSpec>& specs,
                        const SloInput& input);

}  // namespace bento::obs
