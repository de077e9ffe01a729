#!/usr/bin/env bash
# Run the datapath microbenchmarks and distill BENCH_datapath.json plus
# BENCH_obs.json.
#
# Usage: bench/run_benchmarks.sh [build-dir] [out-json] [obs-out-json] [store-out-json]
#
# BENCH_datapath.json records keystream throughput (seed scalar baseline vs
# the current 8-block kernel), the 3-hop relay datapath (cells/s, MB/s,
# allocs/cell), and simulator event churn (events/s, allocs/event).
# BENCH_obs.json records the observability overhead story: the metrics-on vs
# metrics-off datapath delta, the traced and span-traced datapaths, and the
# raw per-op cost of counter/histogram/trace-record handles. CI runs this as
# a smoke check: it fails if any zero-allocation invariant breaks, the kernel
# regresses below 3x the scalar baseline, live metrics/span tracing cost
# the cell datapath more than 10%/15% throughput, or idle chaos hooks (no
# plan installed) add any allocation or more than 2% overhead to the network
# send path.
#
# Regression gate: after distilling, the run is compared against the
# *committed* BENCH_datapath.json / BENCH_obs.json baselines. Only
# host-independent metrics are gated (speedup ratios and alloc counts — raw
# cells/s vary with the runner): a >15% drop in either ChaCha20 speedup or
# any alloc metric moving off its baseline fails the script. Every gated run
# also appends one line to BENCH_trajectory.jsonl so the perf history of the
# repo is recorded PR over PR. Set BENCH_BASELINE_SKIP=1 to bypass the gate
# (e.g. when intentionally refreshing the committed baselines).
#
# Sealed-store gates (DESIGN.md §15): BENCH_store.json records the blob
# store's append/replay/compaction story. The run fails if a steady-state
# append performs any heap allocation, if replaying the same log twice does
# not reproduce a byte-identical namespace (SHA-256 snapshot digest), or if
# an idle persistent-store mount costs the invoke datapath more than 2%.
#
# Shard observatory gates (DESIGN.md §13): the profiler hot hooks must add
# <= 2% to the relay datapath and zero allocations per cell — at --shards 1
# and --shards 4 — and the windowed dispatch loop must stay allocation-free
# with the profiler live. The consensus-scale standing scenario (1,024
# relays, 100k client sessions) then runs with its declarative SLOs (p99
# TTFB ceiling among them); its byte-stable verdict lands in
# BENCH_scenarios.json and the run fails if the verdict is "fail" or the
# wall-time attribution drops below 95%.
#
# Tail-latency explainer gate (DESIGN.md §14): a fixed small spanned run of
# the consensus scenario feeds `bentotrace critpath`; its blame profile is
# diffed against the committed bench/consensus_critpath_golden.json and a
# per-segment mean/tail regression (>10% and >50 µs) fails the script. The
# top-blame segment and diff verdict are appended to BENCH_trajectory.jsonl.
# Regenerate the golden after an intentional change with:
#   ./build/bench/consensus_scale --shards 4 --clients 2000 --seed 42 \
#     --trace-spans --trace-out /tmp/t.jsonl --slo "ttlb_us:count>=2000"
#   ./build/tools/bentotrace critpath /tmp/t.jsonl --json \
#     > bench/consensus_critpath_golden.json

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_json="${2:-${repo_root}/BENCH_datapath.json}"
obs_out_json="${3:-${repo_root}/BENCH_obs.json}"
store_out_json="${4:-${repo_root}/BENCH_store.json}"
min_time="${BENCH_MIN_TIME:-0.2}"
baseline_json="${BENCH_BASELINE:-${repo_root}/BENCH_datapath.json}"
obs_baseline_json="${BENCH_OBS_BASELINE:-${repo_root}/BENCH_obs.json}"
store_baseline_json="${BENCH_STORE_BASELINE:-${repo_root}/BENCH_store.json}"
trajectory_jsonl="${BENCH_TRAJECTORY:-${repo_root}/BENCH_trajectory.jsonl}"
git_rev="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"

bin="${build_dir}/bench/datapath"
if [[ ! -x "${bin}" ]]; then
  echo "error: ${bin} not built (cmake --build ${build_dir} --target datapath)" >&2
  exit 1
fi
scaling_bin="${build_dir}/bench/scalability"
if [[ ! -x "${scaling_bin}" ]]; then
  echo "error: ${scaling_bin} not built (cmake --build ${build_dir} --target scalability)" >&2
  exit 1
fi
consensus_bin="${build_dir}/bench/consensus_scale"
if [[ ! -x "${consensus_bin}" ]]; then
  echo "error: ${consensus_bin} not built (cmake --build ${build_dir} --target consensus_scale)" >&2
  exit 1
fi
store_bin="${build_dir}/bench/store"
if [[ ! -x "${store_bin}" ]]; then
  echo "error: ${store_bin} not built (cmake --build ${build_dir} --target store)" >&2
  exit 1
fi
scenarios_json="${BENCH_SCENARIOS:-${repo_root}/BENCH_scenarios.json}"
bentotrace_bin="${build_dir}/tools/bentotrace"
if [[ ! -x "${bentotrace_bin}" ]]; then
  echo "error: ${bentotrace_bin} not built (cmake --build ${build_dir} --target bentotrace)" >&2
  exit 1
fi
critpath_golden="${BENCH_CRITPATH_GOLDEN:-${repo_root}/bench/consensus_critpath_golden.json}"

raw_json="$(mktemp)"
raw4_json="$(mktemp)"
raw_store_json="$(mktemp)"
scaling_json="$(mktemp)"
consensus_summary="$(mktemp)"
baseline_copy="$(mktemp)"
obs_baseline_copy="$(mktemp)"
store_baseline_copy="$(mktemp)"
critpath_trace="$(mktemp)"
critpath_json="$(mktemp)"
critpath_diff_json="$(mktemp)"
trap 'rm -f "${raw_json}" "${raw4_json}" "${raw_store_json}" "${scaling_json}" "${consensus_summary}" "${baseline_copy}" "${obs_baseline_copy}" "${store_baseline_copy}" "${critpath_trace}" "${critpath_json}" "${critpath_diff_json}"' EXIT

# Snapshot the committed baselines before anything overwrites them (the
# default out paths are the baseline files themselves).
if [[ -f "${baseline_json}" ]]; then cp "${baseline_json}" "${baseline_copy}"; else : >"${baseline_copy}"; fi
if [[ -f "${obs_baseline_json}" ]]; then cp "${obs_baseline_json}" "${obs_baseline_copy}"; else : >"${obs_baseline_copy}"; fi
if [[ -f "${store_baseline_json}" ]]; then cp "${store_baseline_json}" "${store_baseline_copy}"; else : >"${store_baseline_copy}"; fi

"${bin}" --benchmark_format=json --benchmark_min_time="${min_time}" \
  >"${raw_json}"

# Shard-profiler gates again with the pooled dispatch path live: the same
# three benchmarks at --shards 4 (DESIGN.md §13).
"${bin}" --shards 4 \
  --benchmark_filter='Profiled|ProfilerOverhead|WindowedDispatchChurn' \
  --benchmark_format=json --benchmark_min_time="${min_time}" >"${raw4_json}"

# Sealed blob-store benchmarks (DESIGN.md §15): append/replay/compaction,
# the zero-alloc steady-state append, the replay-determinism witness, and
# the idle-mount invoke-datapath tax.
"${store_bin}" --benchmark_format=json --benchmark_min_time="${min_time}" \
  >"${raw_store_json}"

# Shard-scaling sweep (DESIGN.md §12): region-sharded simulator throughput
# at shards 1/2/4/8 on the large multi-region topology.
"${scaling_bin}" >"${scaling_json}"

# Consensus-scale standing scenario (DESIGN.md §13): SLO verdict is the exit
# code; the verdict JSON is byte-stable and committed as BENCH_scenarios.json.
set +e
"${consensus_bin}" --shards 4 --out "${scenarios_json}" >"${consensus_summary}"
consensus_exit=$?
set -e

# Tail-latency explainer gate (DESIGN.md §14): a fixed small spanned run of
# the same scenario, its per-request critical-path blame profile, and a
# `bentotrace diff` against the committed golden. The profile is a pure
# function of (seed, clients, topology) — byte-stable across hosts and
# shard counts — so the golden can be a committed JSON. The run carries its
# own SLO (the default windows floor assumes the 100k-session scale);
# --trace-spans is what the golden's blame numbers are made of.
"${consensus_bin}" --shards 4 --clients 2000 --seed 42 --trace-spans \
  --trace-out "${critpath_trace}" --slo "ttlb_us:count>=2000" >/dev/null
"${bentotrace_bin}" critpath "${critpath_trace}" --json >"${critpath_json}"
critpath_diff_exit=2  # 2 = skipped (no golden committed yet)
if [[ -f "${critpath_golden}" ]]; then
  set +e
  "${bentotrace_bin}" diff "${critpath_golden}" "${critpath_json}" --json \
    >"${critpath_diff_json}"
  critpath_diff_exit=$?
  set -e
else
  : >"${critpath_diff_json}"
fi

python3 - "${raw_json}" "${out_json}" "${obs_out_json}" \
  "${baseline_copy}" "${obs_baseline_copy}" "${trajectory_jsonl}" \
  "${git_rev}" "${BENCH_BASELINE_SKIP:-0}" "${scaling_json}" \
  "${raw4_json}" "${consensus_summary}" "${consensus_exit}" \
  "${scenarios_json}" "${critpath_json}" "${critpath_diff_json}" \
  "${critpath_diff_exit}" "${raw_store_json}" "${store_baseline_copy}" \
  "${store_out_json}" "${build_dir}" <<'PY'
import json
import re
import sys

(raw_path, out_path, obs_out_path, baseline_path, obs_baseline_path,
 trajectory_path, git_rev, baseline_skip, scaling_path,
 raw4_path, consensus_summary_path, consensus_exit, scenarios_path,
 critpath_path, critpath_diff_path, critpath_diff_exit,
 raw_store_path, store_baseline_path, store_out_path,
 build_dir) = sys.argv[1:21]
with open(raw_path) as f:
    raw = json.load(f)
with open(scaling_path) as f:
    scaling = json.load(f)
with open(raw4_path) as f:
    raw4 = json.load(f)
with open(consensus_summary_path) as f:
    consensus = json.load(f)
with open(scenarios_path) as f:
    scenarios = json.load(f)

by_name = {b["name"]: b for b in raw["benchmarks"]}
by4_name = {b["name"]: b for b in raw4["benchmarks"]}

def mb_s(name):
    return round(by_name[name]["bytes_per_second"] / 1e6, 1)

def counter(name, key):
    return by_name[name][key]

def cmake_build_type(build_dir):
    # Our own CMAKE_BUILD_TYPE, not google-benchmark's library_build_type.
    try:
        with open(f"{build_dir}/CMakeCache.txt") as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
    except OSError:
        return "unknown"
    return m.group(1) if m and m.group(1) else "unknown"

def cpu_features():
    # The SHA-256, ChaCha20 and CRC-32C kernels are picked per host at startup.
    try:
        with open("/proc/cpuinfo") as f:
            flags = next((line.split(":", 1)[1].split() for line in f
                          if line.startswith("flags")), [])
    except OSError:
        flags = []
    return {name: name in flags for name in ("avx2", "avx512f", "avx512vl", "sha_ni", "sse4_2")}

seed_509 = mb_s("BM_ChaCha20Seed/509")
seed_8192 = mb_s("BM_ChaCha20Seed/8192")
new_509 = mb_s("BM_ChaCha20/509")
new_8192 = mb_s("BM_ChaCha20/8192")

relay = by_name["BM_RelayDatapath3Hop"]
churn = by_name["BM_SimulatorEventChurn"]
frame = by_name["BM_CellFrameUnframe"]
net_base = by_name["BM_NetworkSendDatapath"]
net_idle = by_name["BM_NetworkSendDatapathChaosIdle"]
net_base_cells = net_base["items_per_second"]
net_idle_cells = net_idle["items_per_second"]
# The gated overhead comes from the paired benchmark, which alternates the
# two variants inside one timed loop — host drift between two separately-
# timed runs would otherwise read as fake overhead. Alloc counts are exact
# (fixed-batch probe in the benchmark), so the delta gates at literal zero.
chaos_overhead_pct = round(
    by_name["BM_NetworkSendChaosIdleOverhead"]["overhead_pct"], 2)
chaos_extra_allocs = round(
    net_idle["allocs_per_cell"] - net_base["allocs_per_cell"], 6)

distilled = {
    "bench": "datapath",
    "context": {
        "host_cpus": raw["context"]["num_cpus"],
        "mhz_per_cpu": raw["context"]["mhz_per_cpu"],
        "build_type": cmake_build_type(build_dir),
        "library_build_type": raw["context"].get("library_build_type", "unknown"),
        "cpu_features": cpu_features(),
    },
    "chacha20": {
        "seed_scalar_mb_s_509": seed_509,
        "seed_scalar_mb_s_8192": seed_8192,
        "kernel_mb_s_509": new_509,
        "kernel_mb_s_8192": new_8192,
        "speedup_509": round(new_509 / seed_509, 2),
        "speedup_8192": round(new_8192 / seed_8192, 2),
    },
    "relay_datapath_3hop": {
        "cells_per_sec": round(relay["items_per_second"]),
        "mb_per_sec": round(relay["bytes_per_second"] / 1e6, 1),
        "allocs_per_cell": relay["allocs_per_cell"],
    },
    "cell_frame_unframe": {
        "cells_per_sec": round(frame["items_per_second"]),
        "allocs_per_cell": frame["allocs_per_cell"],
    },
    "simulator_event_churn": {
        "events_per_sec": round(churn["items_per_second"]),
        "allocs_per_event": churn["allocs_per_event"],
    },
    "network_send_chaos_idle": {
        "baseline_cells_per_sec": round(net_base_cells),
        "idle_hooks_cells_per_sec": round(net_idle_cells),
        "overhead_pct": chaos_overhead_pct,
        "baseline_allocs_per_cell": net_base["allocs_per_cell"],
        "idle_hooks_allocs_per_cell": net_idle["allocs_per_cell"],
        "extra_allocs_per_cell": chaos_extra_allocs,
    },
}

with open(out_path, "w") as f:
    json.dump(distilled, f, indent=2)
    f.write("\n")

print(json.dumps(distilled, indent=2))

# Observability overhead distillation (BENCH_obs.json).
metrics_on = by_name["BM_RelayDatapath3Hop"]
metrics_off = by_name["BM_RelayDatapath3HopMetricsOff"]
traced = by_name["BM_RelayDatapath3HopTraced"]
span_traced = by_name["BM_RelayDatapath3HopSpanTraced"]
on_cells = metrics_on["items_per_second"]
off_cells = metrics_off["items_per_second"]
span_cells = span_traced["items_per_second"]
overhead_pct = round((off_cells - on_cells) / off_cells * 100.0, 2)
# Span overhead is measured against the metrics-on path from the same run:
# both sides share the host, so the ratio is host-independent.
span_overhead_pct = round((on_cells - span_cells) / on_cells * 100.0, 2)

def ns_per_op(name):
    b = by_name[name]
    unit = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[b["time_unit"]]
    return round(b["cpu_time"] * unit, 3)

obs = {
    "bench": "obs",
    "relay_datapath_3hop": {
        "metrics_on_cells_per_sec": round(on_cells),
        "metrics_off_cells_per_sec": round(off_cells),
        "metrics_overhead_pct": overhead_pct,
        "metrics_on_allocs_per_cell": metrics_on["allocs_per_cell"],
        "traced_cells_per_sec": round(traced["items_per_second"]),
        "traced_allocs_per_cell": traced["allocs_per_cell"],
        "span_traced_cells_per_sec": round(span_cells),
        "span_traced_allocs_per_cell": span_traced["allocs_per_cell"],
        "span_overhead_pct": span_overhead_pct,
    },
    "handles": {
        "counter_inc_ns": ns_per_op("BM_CounterIncrement"),
        "histogram_record_ns": ns_per_op("BM_HistogramRecord"),
        "trace_record_ns": ns_per_op("BM_TraceRecord"),
        "trace_record_allocs_per_event": by_name["BM_TraceRecord"]["allocs_per_event"],
    },
    # Shard-observatory cost story (DESIGN.md §13): the profiler hot hooks
    # charged to every cell (worst case), the paired-median overhead ratio,
    # and the windowed dispatch loop's alloc count — serial and pooled.
    "shard_profiler": {
        "profiled_allocs_per_cell":
            by_name["BM_RelayDatapath3HopProfiled"]["allocs_per_cell"],
        "profiler_overhead_pct":
            round(by_name["BM_RelayDatapath3HopProfilerOverhead"]["overhead_pct"], 2),
        "windowed_churn_allocs_per_event":
            by_name["BM_WindowedDispatchChurn"]["allocs_per_event"],
        "profiled_allocs_per_cell_shards4":
            by4_name["BM_RelayDatapath3HopProfiled"]["allocs_per_cell"],
        "profiler_overhead_pct_shards4":
            round(by4_name["BM_RelayDatapath3HopProfilerOverhead"]["overhead_pct"], 2),
        "windowed_churn_allocs_per_event_shards4":
            by4_name["BM_WindowedDispatchChurn"]["allocs_per_event"],
    },
}

with open(obs_out_path, "w") as f:
    json.dump(obs, f, indent=2)
    f.write("\n")

print(json.dumps(obs, indent=2))

# Sealed blob-store distillation (BENCH_store.json, DESIGN.md §15).
with open(raw_store_path) as f:
    raw_store = json.load(f)
s_by = {b["name"]: b for b in raw_store["benchmarks"]}

def s_mb(name):
    return round(s_by[name]["bytes_per_second"] / 1e6, 1)

s_idle = s_by["BM_StoreIdleInvokeOverhead"]
s_replay = s_by["BM_StoreReplay"]
s_compact = s_by["BM_StoreCompact"]
store = {
    "bench": "store",
    "append": {
        "sealed_mb_s_512": s_mb("BM_StoreAppend/512"),
        "sealed_mb_s_4096": s_mb("BM_StoreAppend/4096"),
        "plain_mb_s_4096": s_mb("BM_StoreAppendPlain/4096"),
        "appends_per_sec_512": round(s_by["BM_StoreAppend/512"]["items_per_second"]),
        "allocs_per_append_512": s_by["BM_StoreAppend/512"]["allocs_per_append"],
        "allocs_per_append_4096": s_by["BM_StoreAppend/4096"]["allocs_per_append"],
    },
    "replay": {
        "mb_per_sec": round(s_replay["bytes_per_second"] / 1e6, 1),
        "frames_per_sec": round(s_replay["items_per_second"]),
        "deterministic": int(s_replay["deterministic"]),
        "torn": int(s_replay["torn"]),
        "live_files": int(s_replay["live_files"]),
    },
    "compaction": {
        "compactions_per_sec": round(s_compact["items_per_second"]),
        "sealed_kb_per_compaction": round(
            s_compact["sealed_bytes_per_compaction"] / 1e3, 1),
        "reclaimed_ratio": round(s_compact["reclaimed_ratio"], 3),
    },
    "idle_mount": {
        "invoke_overhead_pct": round(s_idle["overhead_pct"], 2),
        "extra_allocs_per_invoke": s_idle["extra_allocs_per_invoke"],
    },
}

with open(store_out_path, "w") as f:
    json.dump(store, f, indent=2)
    f.write("\n")

print(json.dumps(store, indent=2))

# Smoke assertions: the invariants these PRs establish must hold wherever
# the benchmark runs, independent of absolute host speed.
failures = []
if distilled["relay_datapath_3hop"]["allocs_per_cell"] != 0:
    failures.append("relay datapath allocates per cell")
if distilled["simulator_event_churn"]["allocs_per_event"] != 0:
    failures.append("simulator event churn allocates per event")
if distilled["chacha20"]["speedup_509"] < 3.0:
    failures.append("ChaCha20 509B speedup below 3x scalar baseline")
if distilled["chacha20"]["speedup_8192"] < 3.0:
    failures.append("ChaCha20 8KiB speedup below 3x scalar baseline")
if obs["relay_datapath_3hop"]["metrics_on_allocs_per_cell"] != 0:
    failures.append("metrics-on datapath allocates per cell")
if obs["relay_datapath_3hop"]["traced_allocs_per_cell"] != 0:
    failures.append("traced datapath allocates per cell")
if obs["relay_datapath_3hop"]["span_traced_allocs_per_cell"] != 0:
    failures.append("span-traced datapath allocates per cell")
if obs["handles"]["trace_record_allocs_per_event"] != 0:
    failures.append("trace record allocates per event")
# Noise-tolerant: live metrics must stay within 10% of the disabled path,
# and per-cell span scopes within 15% of the metrics-on path.
if obs["relay_datapath_3hop"]["metrics_overhead_pct"] > 10.0:
    failures.append("metrics overhead on the cell datapath above 10%")
if obs["relay_datapath_3hop"]["span_overhead_pct"] > 15.0:
    failures.append("span tracing overhead on the cell datapath above 15%")
# Chaos-idle guard (DESIGN.md §9): supporting fault injection must be free
# when no plan is installed — zero extra allocations, <= 2% send throughput.
chaos_gate = distilled["network_send_chaos_idle"]
if chaos_gate["extra_allocs_per_cell"] > 0:
    failures.append("idle chaos hooks allocate on the network send path")
if chaos_gate["overhead_pct"] > 2.0:
    failures.append("idle chaos hooks cost the network send path above 2%")
# Sealed-store gates (DESIGN.md §15): steady-state appends are heap-free,
# replay of one log is byte-deterministic (SHA-256 namespace digest), and
# an idle persistent mount taxes the invoke datapath at most 2%.
if store["append"]["allocs_per_append_512"] != 0:
    failures.append("store append (512B) allocates in steady state")
if store["append"]["allocs_per_append_4096"] != 0:
    failures.append("store append (4KiB) allocates in steady state")
if store["replay"]["deterministic"] != 1:
    failures.append("store replay is not deterministic (snapshot digest drifted)")
if store["replay"]["torn"] != 0:
    failures.append("store replay reported a torn tail on a fully synced log")
if store["idle_mount"]["invoke_overhead_pct"] > 2.0:
    failures.append("idle persistent-store mount costs the invoke datapath above 2%")
# Shard profiler gates (DESIGN.md §13): hooks free of heap and <= 2% on the
# cell datapath, serial and pooled alike.
prof_gate = obs["shard_profiler"]
for suffix, label in (("", "shards=1"), ("_shards4", "shards=4")):
    if prof_gate[f"profiled_allocs_per_cell{suffix}"] != 0:
        failures.append(f"profiled datapath allocates per cell at {label}")
    if prof_gate[f"windowed_churn_allocs_per_event{suffix}"] != 0:
        failures.append(f"windowed dispatch churn allocates per event at {label}")
    if prof_gate[f"profiler_overhead_pct{suffix}"] > 2.0:
        failures.append(f"profiler overhead on the cell datapath above 2% at {label}")

# Consensus-scale scenario gate (DESIGN.md §13): the SLO engine's verdict
# (p99 TTFB ceiling among the objectives) is the exit code, and the wall
# attribution buckets must cover >= 95% of the windowed run.
scenario_verdict = scenarios.get("verdict", "fail")
if consensus_exit != "0" or scenario_verdict != "pass":
    detail = "; ".join(
        f"{o['name']} actual {o['actual']}" for o in scenarios.get("objectives", [])
        if not o.get("pass"))
    failures.append(f"consensus scenario SLO verdict: {scenario_verdict}"
                    + (f" ({detail})" if detail else ""))
if consensus["wall_attributed_pct"] < 95.0:
    failures.append(
        f"consensus scenario wall attribution {consensus['wall_attributed_pct']}% "
        "below 95%")
scenario_ttfb_p99 = next(
    (o["actual"] for o in scenarios.get("objectives", [])
     if o["name"] == "ttfb_us:p99"), None)
print(f"consensus scenario: verdict={scenario_verdict}, "
      f"ttfb_p99_us={scenario_ttfb_p99}, "
      f"attributed={consensus['wall_attributed_pct']}%, "
      f"imbalance_x1000={consensus['region_imbalance_x1000']}")

# ---- Tail-latency explainer gate (DESIGN.md §14) ------------------------
# The spanned run's blame profile names the stage that owns the most
# critical-path time, and `bentotrace diff` against the committed golden
# flags any per-segment mean/tail regression (>10% and >50 µs). Both land
# in the trajectory so the blame history is recorded PR over PR.
with open(critpath_path) as f:
    critpath = json.load(f)["critpath"]
critpath_top_seg = critpath.get("top", "")
critpath_tail_mean_us = critpath.get("cohorts", {}).get("tail_mean_us")
if critpath_diff_exit == "2":
    critpath_diff_verdict = "skip"
    print("critpath gate: no committed golden "
          "(regenerate: bentotrace critpath <trace> --json "
          "> bench/consensus_critpath_golden.json)")
else:
    with open(critpath_diff_path) as f:
        critpath_diff_verdict = json.load(f)["critpath_diff"]["verdict"]
    if critpath_diff_verdict != "pass" and baseline_skip != "1":
        failures.append(
            "critical-path blame regressed vs bench/consensus_critpath_golden"
            ".json (bentotrace diff: per-segment mean or tail mean grew "
            ">10% and >50us)")
print(f"critpath: top_seg={critpath_top_seg}, "
      f"tail_mean_us={critpath_tail_mean_us}, "
      f"diff_verdict={critpath_diff_verdict}")

# ---- Shard-scaling gate (DESIGN.md §12) ---------------------------------
# shards=4 must deliver >= 2.0x the cells/sec of shards=1 on the large
# multi-region topology. Parallel speedup needs parallel hardware: on a
# host with fewer than 4 CPUs the ratio is physically unreachable, so the
# gate records a skip (with the reason) instead of a meaningless failure.
shard_cps = {str(p["shards"]): round(p["cells_per_sec"])
             for p in scaling["sweep"]}
shard_speedup = round(scaling["speedup_4v1"], 3)
scaling_cpus = scaling["host_cpus"]
# Status and reason are separate fields so the trajectory stays machine-
# readable: every entry — skips included — records why it got its status
# and how many CPUs the host had.
if scaling_cpus >= 4:
    if shard_speedup < 2.0:
        shard_gate = "fail"
        shard_gate_reason = f"speedup_4v1={shard_speedup} below 2.0x"
        failures.append(
            f"shards=4 speedup {shard_speedup} below 2.0x over shards=1")
    else:
        shard_gate = "pass"
        shard_gate_reason = f"speedup_4v1={shard_speedup} >= 2.0x"
else:
    shard_gate = "skip"
    shard_gate_reason = (
        f"host_cpus={scaling_cpus} < 4: parallel speedup is physically "
        "unreachable on this runner")
print(f"shard scaling: cells/sec {shard_cps}, "
      f"speedup_4v1={shard_speedup}, gate={shard_gate} ({shard_gate_reason})")

# ---- Regression gate against the committed baselines --------------------
# Only host-independent metrics are gated; raw cells/s and MB/s depend on
# the runner and would make CI flaky.
def load_baseline(path):
    try:
        with open(path) as f:
            text = f.read().strip()
        return json.loads(text) if text else None
    except (OSError, ValueError):
        return None

if baseline_skip == "1":
    print("bench gate: skipped (BENCH_BASELINE_SKIP=1)")
else:
    base = load_baseline(baseline_path)
    obs_base = load_baseline(obs_baseline_path)
    if base is None or obs_base is None:
        print("bench gate: no committed baseline found, skipping comparison")
    else:
        def gate_speedup(label, now, then):
            if now < then * 0.85:
                failures.append(
                    f"{label} regressed >15% vs baseline ({now} < {then} * 0.85)")

        def gate_allocs(label, now, then):
            if now > then:
                failures.append(
                    f"{label} allocations regressed vs baseline ({now} > {then})")

        gate_speedup("ChaCha20 509B speedup",
                     distilled["chacha20"]["speedup_509"],
                     base["chacha20"]["speedup_509"])
        gate_speedup("ChaCha20 8KiB speedup",
                     distilled["chacha20"]["speedup_8192"],
                     base["chacha20"]["speedup_8192"])
        gate_allocs("relay datapath",
                    distilled["relay_datapath_3hop"]["allocs_per_cell"],
                    base["relay_datapath_3hop"]["allocs_per_cell"])
        gate_allocs("cell frame/unframe",
                    distilled["cell_frame_unframe"]["allocs_per_cell"],
                    base["cell_frame_unframe"]["allocs_per_cell"])
        gate_allocs("simulator event churn",
                    distilled["simulator_event_churn"]["allocs_per_event"],
                    base["simulator_event_churn"]["allocs_per_event"])
        gate_allocs("traced datapath",
                    obs["relay_datapath_3hop"]["traced_allocs_per_cell"],
                    obs_base["relay_datapath_3hop"]["traced_allocs_per_cell"])
        base_span = obs_base["relay_datapath_3hop"].get("span_traced_allocs_per_cell")
        if base_span is not None:
            gate_allocs("span-traced datapath",
                        obs["relay_datapath_3hop"]["span_traced_allocs_per_cell"],
                        base_span)
        base_chaos = base.get("network_send_chaos_idle")
        if base_chaos is not None:
            gate_allocs("idle chaos hooks",
                        chaos_gate["extra_allocs_per_cell"],
                        base_chaos["extra_allocs_per_cell"])
        store_base = load_baseline(store_baseline_path)
        if store_base is not None:
            gate_allocs("store append (512B)",
                        store["append"]["allocs_per_append_512"],
                        store_base["append"]["allocs_per_append_512"])
            gate_allocs("store append (4KiB)",
                        store["append"]["allocs_per_append_4096"],
                        store_base["append"]["allocs_per_append_4096"])
            if (store["replay"]["deterministic"] <
                    store_base["replay"]["deterministic"]):
                failures.append("store replay determinism regressed vs baseline")
        print("bench gate: compared against committed baselines"
              + (" — FAILED" if failures else " — ok"))

# Append this run to the perf trajectory (one JSON object per line) so the
# repo accumulates a PR-over-PR history of the gated metrics.
trajectory_entry = {
    "rev": git_rev,
    "speedup_509": distilled["chacha20"]["speedup_509"],
    "speedup_8192": distilled["chacha20"]["speedup_8192"],
    "relay_cells_per_sec": distilled["relay_datapath_3hop"]["cells_per_sec"],
    "relay_allocs_per_cell": distilled["relay_datapath_3hop"]["allocs_per_cell"],
    "churn_allocs_per_event": distilled["simulator_event_churn"]["allocs_per_event"],
    "metrics_overhead_pct": obs["relay_datapath_3hop"]["metrics_overhead_pct"],
    "span_overhead_pct": obs["relay_datapath_3hop"]["span_overhead_pct"],
    "span_traced_allocs_per_cell":
        obs["relay_datapath_3hop"]["span_traced_allocs_per_cell"],
    "chaos_idle_overhead_pct": chaos_gate["overhead_pct"],
    "chaos_idle_extra_allocs_per_cell": chaos_gate["extra_allocs_per_cell"],
    "host_cpus": scaling_cpus,
    "shard_cells_per_sec": shard_cps,
    "shard_speedup_4v1": shard_speedup,
    "shard_gate": shard_gate,
    "shard_gate_reason": shard_gate_reason,
    "profiler_overhead_pct": prof_gate["profiler_overhead_pct"],
    "profiler_overhead_pct_shards4": prof_gate["profiler_overhead_pct_shards4"],
    "profiled_allocs_per_cell": prof_gate["profiled_allocs_per_cell"],
    "windowed_churn_allocs_per_event":
        prof_gate["windowed_churn_allocs_per_event"],
    "scenario_verdict": scenario_verdict,
    "scenario_ttfb_p99_us": scenario_ttfb_p99,
    "critpath_top_seg": critpath_top_seg,
    "critpath_tail_mean_us": critpath_tail_mean_us,
    "critpath_diff_verdict": critpath_diff_verdict,
    "scenario_wall_attributed_pct": consensus["wall_attributed_pct"],
    "scenario_imbalance_x1000": consensus["region_imbalance_x1000"],
    "store_allocs_per_append": store["append"]["allocs_per_append_512"],
    "store_replay_deterministic": store["replay"]["deterministic"],
    "store_idle_overhead_pct": store["idle_mount"]["invoke_overhead_pct"],
    "gate": "skip" if baseline_skip == "1" else ("fail" if failures else "pass"),
}
with open(trajectory_path, "a") as f:
    f.write(json.dumps(trajectory_entry, sort_keys=True) + "\n")

if failures:
    print("BENCH SMOKE FAILURES: " + "; ".join(failures), file=sys.stderr)
    sys.exit(1)
PY

echo "wrote ${out_json}, ${obs_out_json}, ${store_out_json}, ${scenarios_json}; appended ${trajectory_jsonl}"
