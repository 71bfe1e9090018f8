#!/usr/bin/env python3
"""Session-level HTH benchmark: build from source, run one workload.

    python3 hthbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
the hthbench package (hthbench/CMakeLists.txt, which compiles the
repository's src/ tree) into .bench_build/hthbench; later calls only
let CMake confirm the build is current. Build output goes to stderr.
The benchmark's JSON result is the last line of stdout; with
--trace 1 the session spans are also written to
.bench_build/traces/<workload>-<seed>.json (Chrome trace_event).
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "hthbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "hthbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group and
    wait for it when the timeout expires. Returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"hthbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 124, None
    return proc.returncode, out


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"hthbench: no HTH sources under {ROOT}/src",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", PACKAGE, "-B", BUILD],
                      deadline - time.monotonic(), sys.stderr)
        if code != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run(["cmake", "--build", BUILD, "--target", "hthbench",
                   "-j", jobs],
                  deadline - time.monotonic(), sys.stderr)
    return code == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build(time.monotonic() + BUILD_TIMEOUT_S):
        print("hthbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "hthbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code != 0 or out is None:
        print(f"hthbench: benchmark exited with {code}", file=sys.stderr)
        return code or 1
    sys.stdout.write(out.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
