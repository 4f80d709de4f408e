#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seconds S]
        [--workloads replay,timing,serve] [--first-seed 1]

Runs every workload --runs times per set (untraced), each run with its
own seed, rotating the workload order from one round to the next so no
workload always runs first.  For each workload and end-to-end metric it
prints the median, quartiles, min and max of the runs, the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json.

Exit status is non-zero when any run fails or reports correct=false,
when a spread exceeds its bound, or, with --sets 2 or more, when a later
set's median differs from the first set's, either way, by more than the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def worse_by(first, later, better):
    """Relative worsening of `later` against `first` (negative = better)."""
    if better == "higher":
        return (first - later) / first
    return (later - first) / first


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2 or args.sets < 1:
        ap.error("--runs must be >= 2 and --sets >= 1")

    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]
    # results[set][workload][metric] -> list of values
    results = []
    ok = True
    seed = args.first_seed
    started = time.time()
    for s in range(args.sets):
        per = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for r in range(args.runs):
            order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
            for w in order:
                try:
                    res = run_once(w, seed, args.seconds)
                except RuntimeError as e:
                    print(f"FAIL {e}")
                    ok = False
                    seed += 1
                    continue
                if not res["correct"] or res["failed"] != 0:
                    print(f"FAIL {w} seed {seed}: correct={res['correct']} "
                          f"failed={res['failed']}/{res['attempted']}")
                    ok = False
                for name, m in res["metrics"].items():
                    per[w][name].append(m["value"])
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
                    flush=True)
                seed += 1
        results.append(per)

    print(f"\n{args.sets} set(s) x {args.runs} runs per workload, "
          f"{args.seconds:g} s each, {time.time() - started:.0f} s wall")
    header = (f"{'workload':8} {'metric':24} {'set':>3} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'min':>11} {'max':>11} {'spread':>7} {'bound':>6}  verdict")
    print(header)
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, per in enumerate(results):
                values = per[w][name]
                if len(values) < args.runs:
                    print(f"{w:8} {name:24} {s + 1:>3} reported by only "
                          f"{len(values)} of {args.runs} runs")
                    ok = False
                    continue
                st = summarize(values)
                spread = (st["q3"] - st["q1"]) / st["median"]
                verdict = "ok"
                if spread > bound:
                    verdict = "SPREAD OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    verdict = "ok (spread above bound/3)"
                if first_median is None:
                    first_median = st["median"]
                else:
                    shift = worse_by(first_median, st["median"], m["better"])
                    verdict += f", median shift {shift:+.3f}"
                    if abs(shift) > bound:
                        verdict += " OVER BOUND"
                        ok = False
                print(f"{w:8} {name:24} {s + 1:>3} {st['median']:>11.5g} {st['q1']:>11.5g} "
                      f"{st['q3']:>11.5g} {st['min']:>11.5g} {st['max']:>11.5g} "
                      f"{spread:>7.3f} {bound:>6.3f}  {verdict}")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
