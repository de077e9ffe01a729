#!/usr/bin/env python3
"""Build invokebench from this checkout's sources and run one workload.

    python3 invokebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                               [extra invokebench flags]

Run from the repository root. The first run configures and builds into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. Everything the binary prints goes to stdout unchanged; its last line
is the result object. Exits non-zero, without a result, when the sources
are missing or the build or run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "invokebench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "invokebench", "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    build()
    args = [BINARY] + argv + ["--git-rev", git_rev()]
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("invokebench did not finish within {} s".format(RUN_TIMEOUT_S))
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("invokebench exited with {}".format(proc.returncode))
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("invokebench printed no result line")
    if set(result) != RESULT_KEYS:
        fail("result line has keys {}".format(sorted(result)))
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
