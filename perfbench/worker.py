"""One operation of a workload, run in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

JOB.json is written by run.py.  The worker imports ocd from the checkout's
``src``, times set-up and the solve, saves the final pairs (library
workloads; ``ocd solve`` writes its own files) and writes RESULT.json next
to the job.  With ``trace`` set it records spans and writes them too.

Times are CPU seconds of this process (``time.process_time``).  The solver
runs on one thread, BLAS included, so on an idle core they equal wall time;
unlike wall time they leave out the intervals in which the host held the
virtual CPU or another process held the core.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_checked(module: str):
    sys.path.insert(0, str(SRC))
    mod = importlib.import_module(module)
    origin = Path(mod.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"{module} was imported from {origin}, not from {SRC}")
    return mod


def _library_op(job, tracer):
    t0 = time.process_time()
    _import_checked("ocd")
    t1 = time.process_time()
    import numpy as np

    import ocd

    if tracer is not None:
        from spans import DYNAMICS_HOOKS, LIBRARY_HOOKS

        tracer.install(DYNAMICS_HOOKS + LIBRARY_HOOKS)
    with np.load(job["inputs"]) as data:
        x, y = data["x"], data["y"]
    grid = None if job["eps_grid"] is None else np.geomspace(*job["eps_grid"])
    # largest bounding-box diagonal: no pair is farther apart
    diameter = max(float(np.linalg.norm(np.ptp(p, axis=0))) for p in (x, y))

    t2 = time.process_time()
    auto = ocd.auto_epsilon(x, y, grid=grid)
    ensemble = ocd.new_ensemble(x, y)
    t3 = time.process_time()
    out = {"setup_s": (t1 - t0) + (t3 - t2)}
    if job["setup_only"]:
        return out

    eps = max(16.0 * auto, job["diag_factor"] * diameter)
    config = ocd.SolverConfig(
        epsilon=eps, dt=job["dt"], max_steps=job["steps"], gamma_abs=0.0,
        gamma_rel=0.0, estimator=job["estimator"], stepper=job["stepper"],
    )
    cost = ocd.l2_cost_model()
    t4 = time.process_time()
    result = ocd.run(ensemble, cost, config)
    t5 = time.process_time()

    final = result.final_ensemble
    np.savez(job["final"], x=final.x_samples, y=final.y_samples)
    out.update(
        solve_s=t5 - t4,
        epsilon=eps,
        steps=final.step_index,
        n_clusters_x0=result.diagnostics[0].n_clusters_x,
        n_clusters_y0=result.diagnostics[0].n_clusters_y,
    )
    return out


def _cli_op(job, tracer):
    t0 = time.process_time()
    cli = _import_checked("ocd.cli")
    t1 = time.process_time()
    out = {"setup_s": t1 - t0}
    if job["setup_only"]:
        return out
    if tracer is not None:
        from spans import CLI_HOOKS, DYNAMICS_HOOKS

        tracer.install(DYNAMICS_HOOKS + CLI_HOOKS)
    t2 = time.process_time()
    code = cli.main(job["argv"])
    t3 = time.process_time()
    if code != 0:
        raise SystemExit(f"ocd solve exited with {code}")
    out["solve_s"] = t3 - t2
    return out


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
    op = _cli_op if job["kind"] == "cli" else _library_op
    out = op(job, tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["spans"] = tracer.spans
        out["absent"] = tracer.absent
    Path(job["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
