#!/usr/bin/env python3
"""Paired A/B run of the repository benchmark: REV against the working tree.

    python3 tools/ab.py REV

Unpacks REV with `git archive` under .bench_build/ab/, copies the working
tree's perfbench/ and BENCHMARK.json over REV's so that both sides run the
same benchmark code, and runs every workload of BENCHMARK.json in 10 pairs
of untraced runs at its run_seconds.  Both runs of a pair use the same
seed, and the side that runs first alternates from pair to pair.  For each
workload and end-to-end metric it prints both sides' median and quartiles
and the pairs the change won.

Exit status 1 on a regression: on some workload the change's median of a
metric is worse than REV's by more than the metric's bound and also lies
outside REV's quartiles, or the change fails a larger share of operations.
Exit status 2 when a run produces no result.
"""

import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import from perfbench/ without writing there
sys.path.insert(0, str(ROOT / "perfbench"))
from steady import summarize, worse_by  # noqa: E402

PAIRS = 10


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def unpack(rev):
    """REV's tree under .bench_build/ab/<sha>, with this tree's benchmark."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    dest = ROOT / ".bench_build" / "ab" / sha
    if not dest.is_dir():
        dest.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=dest.parent))
        with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
            tar.extractall(tmp)
        tmp.rename(dest)
    shutil.rmtree(dest / "perfbench")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"ab: {tree}: {workload} seed {seed} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-400:]}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def compare(parent, change, better, bound):
    """Verdict on one metric's paired samples (parent[i] pairs change[i])."""
    p, c = summarize(parent), summarize(change)
    worse = worse_by(p["median"], c["median"], better)
    if better == "lower":
        outside = c["median"] > p["q3"]
        won = sum(b < a for a, b in zip(parent, change))
    else:
        outside = c["median"] < p["q1"]
        won = sum(b > a for a, b in zip(parent, change))
    return {"parent": p, "change": c, "worse": worse, "won": won,
            "ok": not (worse > bound and outside)}


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def more_failures(parent, change):
    """True when the change's runs fail a larger share of operations."""
    return failed_share(change) > failed_share(parent)


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": unpack(sys.argv[1]), "change": ROOT}
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                res = run_once(trees[side], w, i + 1, spec["run_seconds"])
                results[w][side].append(res)
                print(f"pair {i + 1} {w} {side}: " + ", ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in sorted(res["metrics"].items())), flush=True)

    ok = True
    print(f"\n{sys.argv[1]} (parent) against the working tree (change), "
          f"{PAIRS} pairs of {spec['run_seconds']} s runs")
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            row = compare([r["metrics"][name]["value"] for r in results[w]["parent"]],
                          [r["metrics"][name]["value"] for r in results[w]["change"]],
                          m["better"], m["bound"])
            ok = ok and row["ok"]
            p, c = row["parent"], row["change"]
            print(f"{w:8} {name:12} parent {p['median']:.5g} [{p['q1']:.5g}, "
                  f"{p['q3']:.5g}]  change {c['median']:.5g} [{c['q1']:.5g}, "
                  f"{c['q3']:.5g}]  worse {row['worse']:+.3f} (bound "
                  f"{m['bound']:g})  won {row['won']}/{PAIRS}  "
                  f"{'ok' if row['ok'] else 'REGRESSION'}")
        if more_failures(results[w]["parent"], results[w]["change"]):
            ok = False
            print(f"{w:8} failed operations: parent "
                  f"{failed_share(results[w]['parent']):.3g}, change "
                  f"{failed_share(results[w]['change']):.3g}  REGRESSION")
    print("OK" if ok else "REGRESSION")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
