"""Every committed benchmark record (BENCH_*.json at the repository root)
recomputes from its own per-seed values, and its claim names what
BENCHMARK.json measures.  A record that claims no gain ("claim": null)
carries instead, per metric, whether the change's median is worse than the
parent's by no more than the metric's bound."""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _close(a, b):
    return np.isclose(a, b, rtol=1e-12, atol=0.0)


def _check_workloads(workloads):
    for name, w in workloads.items():
        assert name in WORKLOADS, name
        assert w["pairs"] == len(w["seeds"]) == len(w["first_side"])
        for metric, m in w["metrics"].items():
            spec = END_TO_END[metric]
            assert (m["unit"], m["better"], m["bound"]) == (
                spec["unit"], spec["better"], spec["bound"]), (name, metric)
            runs = {side: np.asarray(m[side]["runs"], dtype=float)
                    for side in ("parent", "change")}
            for side, values in runs.items():
                assert values.shape == (w["pairs"],), (name, metric, side)
                q1, median, q3 = np.percentile(values, [25, 50, 75])
                for key, value in (("median", median), ("q1", q1), ("q3", q3)):
                    assert _close(m[side][key], value), (name, metric, side, key)
            sign = 1.0 if m["better"] == "lower" else -1.0
            delta = sign * (runs["change"] - runs["parent"])
            assert m["change_wins"] == int((delta < 0).sum()), (name, metric)
            assert m["change_losses"] == int((delta > 0).sum()), (name, metric)
            parent_median = m["parent"]["median"]
            assert _close(m["median_change_rel"],
                          (m["change"]["median"] - parent_median) / parent_median)
            assert _close(m["parent_iqr"], m["parent"]["q3"] - m["parent"]["q1"])


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_recomputes(path):
    record = json.loads(path.read_text())
    _check_workloads(record["workloads"])
    if "superseded_runs" in record:
        _check_workloads(record["superseded_runs"]["workloads"])

    claim = record["claim"]
    if claim is None:
        for w in record["workloads"].values():
            for m in w["metrics"].values():
                worse = m["median_change_rel"] if m["better"] == "lower" else -m["median_change_rel"]
                assert m["within_bound"] == (worse <= m["bound"])
        return
    assert claim["workload"] in WORKLOADS and claim["metric"] in END_TO_END
    m = record["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    assert claim["better"] == m["better"]
    assert claim["pairs"] == record["workloads"][claim["workload"]]["pairs"]
    assert claim["change_wins"] == m["change_wins"]
    assert _close(claim["parent_median"], m["parent"]["median"])
    assert _close(claim["change_median"], m["change"]["median"])
    assert _close(claim["parent_iqr"], m["parent_iqr"])
    # won on at least nine pairs in ten, by more than the parent's spread
    gain = claim["parent_median"] - claim["change_median"]
    if claim["better"] == "higher":
        gain = -gain
    holds = 10 * claim["change_wins"] >= 9 * claim["pairs"] and gain > claim["parent_iqr"]
    assert claim["holds"] == holds


def test_there_is_a_bench_record():
    assert RECORDS
