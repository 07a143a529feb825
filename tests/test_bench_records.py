"""The committed benchmark records, BENCH_<change>.json at the repository
root: each parses and names the end-to-end metrics, units and workloads
of BENCHMARK.json, with finite numbers.  The records are measurements
kept for later changes to compare against; nothing here gates on their
values."""

import glob
import json
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {w["name"] for w in spec["workloads"]})


def _finite(x):
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_bench_record_names_the_benchmark_metrics(path):
    units, workloads = _benchmark()
    with open(path) as f:
        record = json.load(f)
    machine = record["machine"]
    assert machine["cpu"] and machine["cores"] >= 1
    assert machine["python"] and machine["numpy"]
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for runs in record["workloads"].values():
        assert runs["seeds"] and all(isinstance(s, int) for s in runs["seeds"])
        for side in ("parent", "change"):
            assert set(runs[side]) == set(units)
            for name, stats in runs[side].items():
                assert stats["unit"] == units[name]
                q1, median, q3 = stats["q1"], stats["median"], stats["q3"]
                assert all(map(_finite, (q1, median, q3)))
                assert q1 <= median <= q3
