"""Benchmark the parent commit against the change, in alternating pairs.

    python3 bench/pairs.py <n> [--parent REV]

Run from anywhere inside a git checkout.  The parent is REV (default HEAD~;
name the branch point when the change spans several commits), checked out
with `git worktree` into a temporary directory that is removed afterwards;
the change is the working tree this script sits in.  For every workload in
BENCHMARK.json, pair i of PAIRS runs `perfbench/run.py --trace 0 --seed
<FIRST_SEED + i>` once on each side, the parent first in even pairs and the
change first in odd ones, each for the benchmark's run_seconds.

Writes BENCH_<n>.json at the root of the checkout.  Per workload it holds
every run's result line and, for each side and end-to-end metric, the median
and the quartiles [q1, q3] (statistics.quantiles, inclusive method), plus
the number of pairs in which the change read better.  The file also records
both revisions, the seeds, the run length and the Python version, numpy
version and CPU count of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: a gain is read from its median and the parent's quartiles, and from the
#: pairs it wins, so every trajectory file has at least ten pairs
PAIRS = 10
FIRST_SEED = 1


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in `checkout`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"pairs: {' '.join(argv[1:])} in {checkout} exited "
                 f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "quartiles": [q1, q3]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("n", type=int, help="the file written is BENCH_<n>.json")
    ap.add_argument("--parent", default="HEAD~", metavar="REV",
                    help="the revision to compare against (default HEAD~)")
    args = ap.parse_args(argv)
    try:
        parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    except subprocess.CalledProcessError:
        ap.error(f"--parent {args.parent!r} names no commit")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    seeds = [FIRST_SEED + i for i in range(PAIRS)]
    doc = {
        "parent": parent_sha,
        "change": git("rev-parse", "HEAD"),
        "change_has_uncommitted_edits": git("status", "--porcelain") != "",
        "command": [*spec["command"], "--trace", "0"],
        "seconds": seconds,
        "seeds": seeds,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpu_count": os.cpu_count()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(parent), parent_sha)
        try:
            checkouts = {"parent": parent, "change": ROOT}
            for w in spec["workloads"]:
                name = w["name"]
                runs = {"parent": [], "change": []}
                first = []
                for i, seed in enumerate(seeds):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    first.append(order[0])
                    for side in order:
                        result = run_once(checkouts[side], name, seed, seconds)
                        runs[side].append(result)
                        print(f"pairs: {name} seed {seed} {side}: "
                              f"{json.dumps(result['metrics'])}", file=sys.stderr)
                entry = {"first": first, "runs": runs}
                for side in ("parent", "change"):
                    entry[side] = {m["name"]: summary(
                        [r["metrics"][m["name"]]["value"] for r in runs[side]])
                        for m in metrics}
                entry["change_better"] = {}
                for m in metrics:
                    sign = 1 if m["better"] == "higher" else -1
                    entry["change_better"][m["name"]] = sum(
                        sign * (c["metrics"][m["name"]]["value"]
                                - p["metrics"][m["name"]]["value"]) > 0
                        for p, c in zip(runs["parent"], runs["change"]))
                doc["workloads"][name] = entry
        finally:
            git("worktree", "remove", "--force", str(parent))

    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"pairs: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
