#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds 45]
                             [--trace 0|1]

Workloads: triage-cold and reattach-warm, the two BENCHMARK.json lists,
and remote-session, which runs the same way but is left out of
BENCHMARK.json because its times follow the host (see perfbench/README.md).
The build goes to .bench_build/perfbench (configured once, rebuilt
incrementally on every run); the benchmark's artifacts live under
.bench_build/perfbench-run/ and are removed when it exits. Build output
goes to stderr, so the last stdout line is the benchmark's JSON result.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "perfbench-run"
WORKLOADS = ("triage-cold", "reattach-warm", "remote-session")
# A run must end within 180 s, or 900 s when it has to build first.
RUN_LIMIT_S, BUILD_LIMIT_S, MARGIN_S = 180, 900, 5
# The timed phase is fixed at perfbench_e2e's RunSeconds, which is also
# BENCHMARK.json's run_seconds. Runners of BENCHMARK.json pass it back as
# --seconds; any other length is refused rather than ignored.
RUN_SECONDS = 45


def git_rev():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def run_quiet(cmd, deadline):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: build timed out: " + " ".join(cmd))
    if rc != 0:
        sys.exit("perfbench: build step failed (%d): %s" % (rc, " ".join(cmd)))


def build(deadline):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: %s has no src/CMakeLists.txt; the benchmark "
                 "builds the library from a full checkout" % ROOT)
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen, deadline)
    run_quiet(["cmake", "--build", str(BUILD), "-j",
               str(os.cpu_count() or 2)], deadline)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="must be %d, the fixed run length" % RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds != RUN_SECONDS:
        ap.error("--seconds must be %d: the run length is fixed"
                 % RUN_SECONDS)

    first_build = not (BUILD / "perfbench_e2e").is_file()
    limit = BUILD_LIMIT_S if first_build else RUN_LIMIT_S
    deadline = start + limit - MARGIN_S
    build(deadline)

    cmd = [str(BUILD / "perfbench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--scratch", str(SCRATCH / args.workload),
           "--git-rev", git_rev()]
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(SCRATCH / args.workload, ignore_errors=True)
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, limit))
    sys.exit(rc)


if __name__ == "__main__":
    main()
