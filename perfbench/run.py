#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload replay|timing|serve --seed N \
        --seconds S --trace 0|1

Builds the simulator and the benchmark binary from source on first use
(CMake, into .bench_build/perfbench at the repository root), runs the
binary, and passes its output through.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with
every end-to-end metric of BENCHMARK.json for --trace 0 and every
per-layer metric for --trace 1.  See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("replay", "timing", "serve")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the two binaries up to date."""
    if not (ROOT / "src" / "api" / "api.hpp").is_file() or not (
        ROOT / "tools" / "hpe_sim.cpp"
    ).is_file():
        die(f"simulator sources not found under {ROOT}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", jobs,
             "--target", "perfbench", "hpe_sim"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except subprocess.CalledProcessError as e:
        die(f"build failed: {e}", 1)

    work = BUILD / f"work-{args.workload}-{os.getpid()}"
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--hpe-sim", str(BUILD / "hpe_sim"), "--work-dir", str(work)]
    if args.trace:
        cmd += ["--spans-out",
                str(BUILD / f"spans-{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"benchmark binary exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        # The binary reaps its daemon; this also catches anything left
        # in its session if it crashed.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(out)
        die(f"benchmark binary exited with status {proc.returncode}", 1)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("benchmark binary printed a malformed result", 1)
    # A traced run reports every per-layer metric, an untraced run every
    # end-to-end metric, whatever the workload.
    names, expected = set(result["metrics"]), expected_metrics(args.trace)
    if names != expected:
        die(f"metrics do not match BENCHMARK.json: {sorted(names ^ expected)}", 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
