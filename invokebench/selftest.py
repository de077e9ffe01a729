#!/usr/bin/env python3
"""invokebench's own test: the determinism witness and the sensitivity
self-test. Run from the repository root:

    python3 invokebench/selftest.py

It builds like run.py, then runs the binary in fixed-op mode (--ops), where
every run of one seed replays the same simulated event sequence:

  determinism  two runs of one seed give the same reply digest, and the
               deterministic counts (allocs_per_op, sim.events_per_op,
               tor.cells_per_op, store.frames_per_op) repeat exactly;
  sensitivity  one input changed at a time moves the metric it should move
               and leaves the unrelated counts alone:
                 - echo_small payload 64 B -> 8 KiB: tor.cells_per_op rises
                   about 17x (one cell each way -> 17), cpu_us_per_op rises,
                   sim.events_per_op per cell holds;
                 - doubling the dropbox_sealed tenants raises peak_heap_mb;
                 - the dropbox_sealed cache above the working set gives
                   store.cache_hit_ratio 1 with no unseal misses, so
                   store.get_miss_us carries no weight in the ledger.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

FAILURES = []


def invoke(workload, *extra, seed=11, ops=40, trace=1):
    args = [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--ops", str(ops)] + [str(a) for a in extra]
    out = subprocess.run(args, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("selftest: {} exited with {}".format(" ".join(args), out.returncode))
    info_line, result_line = out.stdout.splitlines()[-2:]
    info = json.loads(info_line)["info"]
    result = json.loads(result_line)
    if not result["correct"] or result["failed"] != 0:
        FAILURES.append("{} {}: run not correct: {} {}".format(
            workload, extra, info["failures"], info["layer_check_failures"]))
    values = {k: v["value"] for k, v in info["end_to_end"].items()}
    values.update({k: v["value"] for k, v in result["metrics"].items()})
    values["reply_digest"] = info["reply_digest"]
    return values


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def determinism():
    exact = ["reply_digest", "allocs_per_op", "sim.events_per_op", "tor.cells_per_op",
             "store.frames_per_op"]
    for workload in ("echo_small", "dropbox_sealed", "session_churn"):
        ops = 3 if workload == "session_churn" else 40
        a = invoke(workload, ops=ops)
        b = invoke(workload, ops=ops)
        for key in exact:
            check(a[key] == b[key], "determinism {}: {} repeats ({} vs {})".format(
                workload, key, a[key], b[key]))


def sensitivity():
    small = invoke("echo_small", "--payload", 64, ops=200)
    large = invoke("echo_small", "--payload", 8192, ops=200)
    ratio = large["tor.cells_per_op"] / small["tor.cells_per_op"]
    check(14 <= ratio <= 20, "echo_small 64 B -> 8 KiB: tor.cells_per_op x{:.2f} (about 17)"
          .format(ratio))
    check(large["cpu_us_per_op"] > small["cpu_us_per_op"],
          "echo_small 64 B -> 8 KiB: cpu_us_per_op rises ({:.1f} -> {:.1f} us)".format(
              small["cpu_us_per_op"], large["cpu_us_per_op"]))
    per_cell = [v["sim.events_per_op"] / v["tor.cells_per_op"] for v in (small, large)]
    check(abs(per_cell[1] / per_cell[0] - 1) < 0.25,
          "echo_small 64 B -> 8 KiB: sim events per cell hold ({:.2f} vs {:.2f})".format(
              *per_cell))

    four = invoke("dropbox_sealed", "--clients", 4, ops=12, trace=0)
    eight = invoke("dropbox_sealed", "--clients", 8, ops=12, trace=0)
    check(eight["peak_heap_mb"] > four["peak_heap_mb"],
          "dropbox_sealed 4 -> 8 tenants: peak_heap_mb rises ({:.3f} -> {:.3f} MiB)".format(
              four["peak_heap_mb"], eight["peak_heap_mb"]))
    check(eight["allocs_per_op"] < 1.25 * four["allocs_per_op"],
          "dropbox_sealed 4 -> 8 tenants: allocs_per_op holds ({:.1f} vs {:.1f})".format(
              four["allocs_per_op"], eight["allocs_per_op"]))

    base = invoke("dropbox_sealed", ops=40)
    cached = invoke("dropbox_sealed", "--cache-bytes", 1 << 20, ops=40)
    check(0 < base["store.cache_hit_ratio"] < 1,
          "dropbox_sealed default cache: hits and unseal misses both ({:.3f})".format(
              base["store.cache_hit_ratio"]))
    check(cached["store.cache_hit_ratio"] == 1,
          "dropbox_sealed cache above the working set: store.cache_hit_ratio is 1")
    check(cached["store.frames_per_op"] == base["store.frames_per_op"],
          "dropbox_sealed cache size: store.frames_per_op holds")


def main():
    run.build()
    determinism()
    sensitivity()
    if FAILURES:
        print("selftest: {} check(s) failed".format(len(FAILURES)))
        for f in FAILURES:
            print("  " + f)
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
