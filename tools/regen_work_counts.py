#!/usr/bin/env python3
"""Regenerate (or verify) ci/work_counts.json, the benchmark's work counts.

    python3 tools/regen_work_counts.py [--check]

Runs perfbench's traced run (`perfbench/run.py --trace 1`) on the replay
and timing workloads at seed 1 and keeps the per-layer metrics that count
work: policy hook calls, faults, evictions, PCIe transfers, engine events,
overflow, simulated cycles, TLB, cache and DRAM, each per reference.  For
a seed these repeat exactly, whatever the run's length or the host.  Heap
allocations per reference depend on the standard library's growth
policies, so they are recorded too but checked against a ceiling
ALLOC_HEADROOM above the recorded value.

Without --check the file is rewritten; commit it with a change that moves
the counts on purpose.  With --check (tools/regen_check.sh runs it) the
exit status is 1 when a count differs, an allocation count is over its
ceiling, a key is missing or extra, the stamp is not STAMP, or a traced
run is not correct with no failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILE = ROOT / "ci" / "work_counts.json"
STAMP = "hpe-work-counts/1"
WORKLOADS = ("replay", "timing")
SEED = 1
# A traced run makes at least two traced passes, however short its window.
SECONDS = 1
EXACT = ("policy.calls_per_ref.", "driver.faults_per_kref",
         "driver.evictions_per_kref", "driver.pcie_transfers_per_kref",
         "gpu.events_per_ref", "gpu.overflow_per_kref",
         "gpu.sim_cycles_per_ref", "tlb.", "mem.")
ALLOCS = ".allocs_per_ref"
# Allocations per reference allowed over the recorded count: room for
# another standard library, well under one allocation per reference.
ALLOC_HEADROOM = 0.05


def traced_counts(workload):
    """The workload's counts from one traced run, or exit on a failed run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = (json.loads(proc.stdout.strip().split("\n")[-1])
              if proc.returncode == 0 else None)
    if result is None or result["correct"] is not True or result["failed"] != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit(f"traced {workload} run failed (exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.startswith(EXACT) or name.endswith(ALLOCS)}


def check(recorded, measured):
    """Every way the committed document disagrees with fresh counts."""
    problems = []
    if recorded.get("tool_version") != STAMP:
        problems.append(f"tool_version is {recorded.get('tool_version')!r}, "
                        f"expected {STAMP!r}")
    pinned = recorded.get("workloads", {})
    for w in sorted(set(pinned) | set(measured)):
        old, new = pinned.get(w, {}), measured.get(w, {})
        for name in sorted(set(old) | set(new)):
            if name not in new:
                problems.append(f"{w} {name}: pinned but not measured")
            elif name not in old:
                problems.append(f"{w} {name}: measured but not pinned")
            elif name.endswith(ALLOCS):
                if new[name] > old[name] + ALLOC_HEADROOM:
                    problems.append(f"{w} {name}: {new[name]!r} is over the "
                                    f"ceiling {old[name] + ALLOC_HEADROOM!r}")
            elif new[name] != old[name]:
                problems.append(f"{w} {name}: {old[name]!r} -> {new[name]!r}")
    return problems


def main():
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: tools/regen_work_counts.py [--check]")
    measured = {w: traced_counts(w) for w in WORKLOADS}
    if sys.argv[1:] == []:
        doc = {"tool_version": STAMP, "workloads": measured}
        FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"regenerated {FILE.relative_to(ROOT)}; review the diff and commit")
        return 0
    problems = check(json.loads(FILE.read_text()), measured)
    for p in problems:
        print(f"MISMATCH: {p}", file=sys.stderr)
    if problems:
        print("work counts moved; if intended, regenerate with "
              "tools/regen_work_counts.py", file=sys.stderr)
        return 1
    print(f"work counts: all {sum(map(len, measured.values()))} counts "
          "within their pins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
