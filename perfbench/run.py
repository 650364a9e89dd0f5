"""ocd benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload rk4-moderate --seed 1 --seconds 30 --trace 0

Each operation runs in a fresh interpreter (worker.py) so that set-up,
which includes importing ocd, and peak memory are those of a user's
process.  Operations repeat in whole rounds until --seconds have passed;
every operation's outputs are checked (checks.py) and a failed check
counts the operation as failed, as does a worker that crashes or runs
past the run's deadline; either sets "correct" to false.  --trace 0 prints the end-to-end metrics;
--trace 1 alternates untraced and traced operations and prints the
per-layer metrics, the tracing overhead among them.  The last line of
standard output is the result.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and every worker
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, make_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 150.0        # no worker runs past this many seconds into the run


def _units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class Runner:
    """Writes jobs for worker.py into one run directory and runs them."""

    def __init__(self, workload: Workload, run_dir: Path, inputs: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.inputs = inputs
        self.count = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def job(self, *, setup_only=False, trace=False) -> dict:
        self.count += 1
        op_dir = self.run_dir / f"op{self.count}"
        op_dir.mkdir()
        w = self.workload
        job = asdict(w) | {
            "setup_only": setup_only,
            "trace": trace,
            "inputs": str(self.inputs),
            "final": str(op_dir / "final.npz"),
            "result": str(op_dir / "result.json"),
            "out_dir": str(op_dir),
        }
        if w.kind == "cli":
            job["argv"] = [
                "solve", "--x", str(self.inputs / "x.csv"), "--y", str(self.inputs / "y.csv"),
                "--eps", "auto", "--estimator", w.estimator, "--stepper", w.stepper,
                "--dt", repr(w.dt), "--max-steps", str(w.steps),
                "--gamma-abs", "0", "--gamma-rel", "0", "--out", str(op_dir),
            ]
        return job

    def run(self, job: dict) -> dict | None:
        """The worker's result, or None if it failed."""
        path = Path(job["out_dir"]) / "job.json"
        path.write_text(json.dumps(job))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(path)], cwd=ROOT,
                capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            print("worker killed at the run's deadline", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        return json.loads(Path(job["result"]).read_text())


def _write_inputs(workload: Workload, x, y, run_dir: Path) -> Path:
    if workload.kind == "cli":
        # written apart from ocd.io; %.17g round-trips every float64
        inputs = run_dir / "inputs"
        inputs.mkdir()
        header = ",".join(f"x{j + 1}" for j in range(workload.d))
        for name, m in (("x.csv", x), ("y.csv", y)):
            np.savetxt(inputs / name, m, fmt="%.17g", delimiter=",", header=header, comments="")
        return inputs
    path = run_dir / "inputs.npz"
    np.savez(path, x=x, y=y)
    return path


class Checker:
    """Checks one operation's outputs; caches what depends only on the inputs."""

    def __init__(self, workload: Workload, x0, y0):
        self.workload = workload
        self.x0, self.y0 = x0, y0
        self.components: dict[float, tuple] = {}

    def __call__(self, job: dict, res: dict):
        """(failed check names, map_err of the final pairs)."""
        w = self.workload
        if w.kind == "cli":
            failed, pairs = checks.check_cli(self.x0, self.y0, job["out_dir"], w.steps)
            if pairs is None:
                return failed, None
            return failed, checks.map_err(pairs[:, :w.d], pairs[:, w.d:])
        with np.load(job["final"]) as final:
            fx, fy = final["x"], final["y"]
        eps = res["epsilon"]
        if res["steps"] != w.steps:
            return ["steps"], None
        if w.name == "dense-eps":
            failed = checks.check_dense(self.x0, self.y0, fx, fy, eps, w.dt, w.steps)
        else:
            if eps not in self.components:
                self.components[eps] = (checks.component_count(self.x0, eps),
                                        checks.component_count(self.y0, eps))
            failed = checks.check_rk4_moderate(
                self.x0, self.y0, fx, fy, eps,
                (res["n_clusters_x0"], res["n_clusters_y0"]), self.components[eps])
        return failed, checks.map_err(fx, fy)


def _median(values):
    return statistics.median(values) if values else None


def measure(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    x0, y0 = make_inputs(workload, seed)
    runner = Runner(workload, run_dir, _write_inputs(workload, x0, y0, run_dir))
    check = Checker(workload, x0, y0)

    # fills the file cache and byte-compiles ocd; not measured
    runner.run(runner.job(setup_only=True))

    setup = []
    start = time.perf_counter()
    attempted = failed = 0
    correct = True
    ops = {False: [], True: []}     # by traced
    rounds = (False, True) if trace else (False,)
    while True:
        for traced in rounds:
            job = runner.job(trace=traced)
            res = runner.run(job)
            attempted += 1
            bad, err = (["worker"], None) if res is None else check(job, res)
            if bad:
                failed += 1
                correct = False
                print(f"check failed: {bad}", file=sys.stderr)
                continue
            res["map_err"] = err
            ops[traced].append(res)
            if not traced:
                setup.append(res["setup_s"])
        if time.perf_counter() - start >= seconds or time.monotonic() >= runner.deadline:
            break

    plain = ops[False]
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    if not plain or (trace and not ops[True]):
        section = "per_layer" if trace else "end_to_end"
        return result | {"metrics": {k: {"value": None, "unit": u}
                                     for k, u in _units(section).items()}}
    solve = _median([r["solve_s"] for r in plain])

    if not trace:
        values = {
            "setup_s": _median(setup),
            "solve_s": solve,
            "particle_steps_per_s": _median(
                [workload.n * workload.steps / r["solve_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "map_err": _median([r["map_err"] for r in plain]),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in _units("end_to_end").items()}
    else:
        traced_ops = ops[True]
        per_op = [layer_metrics(r["spans"], r["absent"]) for r in traced_ops]
        metrics = {}
        for name, unit in _units("per_layer").items():
            if name == "trace.overhead_s":
                value = _median([r["solve_s"] for r in traced_ops]) - solve
            else:
                vals = [m.get(name) for m in per_op]
                value = None if None in vals else _median(vals)
            metrics[name] = {"value": value, "unit": unit}
        _write_trace(workload, seed, traced_ops)

    return result | {"metrics": metrics}


def _write_trace(workload: Workload, seed: int, traced_ops) -> None:
    """Spans of every traced operation, one JSON object per span."""
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    with open(out / f"{workload.name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for op, res in enumerate(traced_ops):
            for span in res["spans"]:
                fh.write(json.dumps({"op": op} | span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ocd" / "__init__.py").is_file():
        print(f"error: no ocd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a SIGTERM unwinds through subprocess.run, which kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    run_dir = HERE / "runs" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
