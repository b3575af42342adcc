"""Every committed BENCH_<n>.json, the perf trajectory written by
bench/pairs.py, holds at least ten alternating parent/change pairs and each
workload's end-to-end medians and quartiles for both sides."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_trajectory_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_holds_every_workload_and_metric(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert len(doc["seeds"]) >= 10
    for name, entry in doc["workloads"].items():
        # pairs alternate which side runs first, so drift favours neither
        assert entry["first"] == [("parent", "change")[i % 2]
                                  for i in range(len(doc["seeds"]))], name
        assert len(entry["runs"]["parent"]) == len(entry["runs"]["change"]) == len(doc["seeds"])
        for side in ("parent", "change"):
            for metric in SPEC["end_to_end"]:
                summary = entry[side][metric["name"]]
                q1, q3 = summary["quartiles"]
                median = summary["median"]
                assert all(isinstance(x, (int, float)) and math.isfinite(x)
                           for x in (q1, median, q3)), (name, side, metric["name"])
                assert q1 <= median <= q3, (name, side, metric["name"])
