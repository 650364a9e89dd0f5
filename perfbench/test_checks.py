"""The benchmark's output checks and per-layer metrics, at tiny sizes.

Each check passes on ocd's real output and fails once that output is
perturbed, so every check is shown to catch a wrong result.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import worker  # noqa: E402
from run import Checker, Runner, _units, _write_inputs, measure  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def _solve(name, tmp_path, **changes):
    """Run one operation of a shrunken workload in this process."""
    w = replace(WORKLOADS[name], **changes)
    x0, y0 = make_inputs(w, seed=3)
    runner = Runner(w, tmp_path, _write_inputs(w, x0, y0, tmp_path))
    job = runner.job()
    op = worker._cli_op if w.kind == "cli" else worker._library_op
    return w, x0, y0, job, op(job, None)


@pytest.fixture(scope="module")
def rk4(tmp_path_factory):
    # the workload's fixed eps grid brackets the cutoff at N = 20000 only
    w, x0, y0, job, res = _solve("rk4-moderate", tmp_path_factory.mktemp("rk4"),
                                 n=3000, eps_grid=None)
    with np.load(job["final"]) as final:
        fx, fy = final["x"], final["y"]
    return x0, y0, fx, fy, res


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    w, x0, y0, job, res = _solve("dense-eps", tmp_path_factory.mktemp("dense"), n=128)
    with np.load(job["final"]) as final:
        return w, x0, y0, final["x"], final["y"], res


@pytest.fixture()
def cli(tmp_path):
    w, x0, y0, job, res = _solve("cli-solve", tmp_path, n=2000)
    return w, x0, y0, Path(job["out_dir"])


def _rk4_failures(rk4, **override):
    x0, y0, fx, fy, res = rk4
    args = {"fx": fx, "fy": fy, "n_clusters0": (res["n_clusters_x0"], res["n_clusters_y0"])}
    args.update(override)
    return checks.check_rk4_moderate(x0, y0, args["fx"], args["fy"], res["epsilon"],
                                     args["n_clusters0"])


def test_rk4_moderate_passes_on_solver_output(rk4):
    assert _rk4_failures(rk4) == []


def test_rk4_moderate_catches_unmoved_pairs(rk4):
    x0, y0, *_ = rk4
    assert "map_err_reduction" in _rk4_failures(rk4, fx=x0, fy=y0)


def test_rk4_moderate_catches_cost_increase(rk4):
    x0, y0, fx, fy, _ = rk4
    worse = fy + 0.5 * (fy - fx)   # partners pushed apart
    assert "cost_descent" in _rk4_failures(rk4, fy=worse)


def test_rk4_moderate_catches_marginal_drift(rk4):
    _, _, fx, _, _ = rk4
    assert "marginal_drift" in _rk4_failures(rk4, fx=1.5 * fx)


def test_rk4_moderate_catches_wrong_cluster_count(rk4):
    _, _, _, _, res = rk4
    wrong = (res["n_clusters_x0"] + 1, res["n_clusters_y0"])
    assert _rk4_failures(rk4, n_clusters0=wrong) == ["step0_clusters"]


def test_dense_passes_on_solver_output(dense):
    w, x0, y0, fx, fy, res = dense
    assert checks.check_dense(x0, y0, fx, fy, res["epsilon"], w.dt, w.steps) == []


def test_dense_catches_a_small_error(dense):
    w, x0, y0, fx, fy, res = dense
    off = fx.copy()
    off[7, 1] *= 1.0 + 1e-7
    assert checks.check_dense(x0, y0, off, fy, res["epsilon"], w.dt, w.steps) == [
        "global_moment_rk4"]


def test_dense_reference_refuses_eps_below_the_diameter(dense):
    w, x0, y0, *_ = dense
    with pytest.raises(ValueError):
        checks.global_moment_rk4(x0, y0, 1.0, w.dt, w.steps)


def _cli_failures(cli):
    w, x0, y0, out = cli
    return checks.check_cli(x0, y0, out, w.steps)[0]


def _edit_lines(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_cli_passes_on_solver_output(cli):
    assert _cli_failures(cli) == []


def test_cli_catches_a_missing_row(cli):
    _edit_lines(cli[3] / "pairs.csv", lambda lines: lines[:-1])
    assert _cli_failures(cli)[0].startswith("outputs_unreadable")


def test_cli_catches_a_non_finite_value(cli):
    _edit_lines(cli[3] / "pairs.csv",
                lambda lines: lines[:5] + ["nan," + lines[5].split(",", 1)[1]] + lines[6:])
    assert "pairs_finite" in _cli_failures(cli)


def test_cli_catches_pairs_that_disagree_with_the_last_cost(cli):
    def bump(lines):
        rec = json.loads(lines[-1])
        rec["cost"] *= 1.0 + 1e-9
        return lines[:-1] + [json.dumps(rec)]

    _edit_lines(cli[3] / "diagnostics.jsonl", bump)
    assert _cli_failures(cli) == ["final_cost_matches_diagnostics"]


def test_cli_catches_a_missing_diagnostics_record(cli):
    _edit_lines(cli[3] / "diagnostics.jsonl", lambda lines: lines[:-1])
    assert _cli_failures(cli) == ["diagnostics_records"]


def test_cli_catches_cost_and_map_err_increase(cli):
    w, x0, y0, out = cli
    pairs = checks.read_pairs_csv(out / "pairs.csv", *x0.shape)
    pairs[:, w.d:] += 3.0   # every partner moved away
    header = ",".join([f"x{j + 1}" for j in range(w.d)] + [f"y{j + 1}" for j in range(w.d)])
    np.savetxt(out / "pairs.csv", pairs, fmt="%.17g", delimiter=",", header=header, comments="")
    failed = _cli_failures(cli)
    assert "cost_descent" in failed and "map_err_not_worse" in failed


def test_cli_catches_a_wrong_manifest(cli):
    path = cli[3] / "manifest.json"
    path.write_text(json.dumps(json.loads(path.read_text()) | {"subcommand": "emd"}))
    assert _cli_failures(cli) == ["manifest"]


def test_checker_catches_a_run_that_stopped_early(rk4, tmp_path):
    x0, y0, fx, fy, res = rk4
    w = replace(WORKLOADS["rk4-moderate"], n=x0.shape[0])
    np.savez(tmp_path / "final.npz", x=fx, y=fy)
    check = Checker(w, x0, y0)
    job = {"final": str(tmp_path / "final.npz")}
    assert check(job, res)[0] == []
    assert check(job, res | {"steps": w.steps - 1})[0] == ["steps"]


def test_a_run_whose_workers_all_fail_still_reports(monkeypatch, tmp_path):
    monkeypatch.setattr(Runner, "run", lambda self, job: None)
    w = replace(WORKLOADS["rk4-moderate"], n=200)
    result = measure(w, 1, 0.0, False, tmp_path)
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
    assert set(result["metrics"]) == set(_units("end_to_end"))
    assert all(m["value"] is None for m in result["metrics"].values())


def test_traced_operation_reports_every_layer_metric(tmp_path):
    w = replace(WORKLOADS["rk4-moderate"], n=2000, eps_grid=None)
    x0, y0 = make_inputs(w, seed=3)
    runner = Runner(w, tmp_path, _write_inputs(w, x0, y0, tmp_path))
    res = runner.run(runner.job(trace=True))      # separate process: wrappers stay there
    m = layer_metrics(res["spans"], res["absent"])
    assert set(m) == set(_units("per_layer")) - {"trace.overhead_s"}
    assert None not in m.values()
    assert m["dynamics.steps"] == w.steps
    assert m["neighbors.builds_per_step"] == m["neighbors.build_index.calls"] / w.steps > 0
    # every span inside run() is a leaf, so run = its self time + its children
    children = ["neighbors.build_index.s", "neighbors.neighbor_csr.s",
                "neighbors.cluster_count_csr.s", "estimators.linear.s", "diagnostics.s"]
    assert m["dynamics.run.s"] == pytest.approx(
        m["dynamics.run.self_s"] + sum(m[c] for c in children), rel=1e-9)


def test_a_missing_function_is_reported_absent():
    tracer = Tracer()
    tracer.install([("ocd.dynamics", "no_such_function", "neighbors.build_index")])
    m = layer_metrics([], tracer.absent)
    assert m["neighbors.build_index.s"] is None and m["neighbors.builds_per_step"] is None
    assert m["estimators.linear.s"] == 0.0
