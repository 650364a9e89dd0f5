"""Output checks, each against a computation made apart from ocd.

Each ``check_*`` returns the list of failed check names (empty: pass).
The references here use numpy and scipy only and import nothing from ocd.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from workloads import brenier_map, w2_squared

# rk4-moderate: final map_err at most start / MAP_ERR_FACTOR (about 1.85x
# in its one step today), and each marginal's moments within DRIFT_BOUND of
# the start.
MAP_ERR_FACTOR = 1.5
DRIFT_BOUND = 0.1
# dense-eps: reordered sums leave ~1e-16 today
DENSE_RTOL = 1e-9
# cli-solve: pairs.csv holds shortest round-trip reprs, so only the mean's
# own summation order differs from the solver's
COST_RTOL = 1e-12


def map_err(x: np.ndarray, y: np.ndarray) -> float:
    """Mean |y_i - T(x_i)|^2 over the pairs, divided by W2^2 = 15 d / 4."""
    return float(np.mean(np.sum((y - brenier_map(x)) ** 2, axis=1)) / w2_squared(x.shape[1]))


def mean_cost(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.sum((x - y) ** 2, axis=1)))


def moment_drift(before: np.ndarray, after: np.ndarray) -> float:
    """Largest relative change of the mean and the covariance (Frobenius)."""
    m0, m1 = before.mean(axis=0), after.mean(axis=0)
    c0, c1 = np.cov(before, rowvar=False, bias=True), np.cov(after, rowvar=False, bias=True)
    return float(max(np.linalg.norm(m1 - m0) / (1.0 + np.linalg.norm(m0)),
                     np.linalg.norm(c1 - c0) / (1.0 + np.linalg.norm(c0))))


def component_count(points: np.ndarray, eps: float) -> int:
    """Connected components of the closed eps-ball graph."""
    n = points.shape[0]
    pairs = cKDTree(points).query_pairs(r=eps, output_type="ndarray")
    graph = coo_matrix((np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return int(connected_components(graph, directed=False)[0])


def _global_moment_velocity(x, y):
    # one cluster holds every particle: the linear estimate is the global
    # affine regression of the pair gradient on position
    v = []
    for pos, grad in ((x, 2.0 * (x - y)), (y, 2.0 * (y - x))):
        dpos = pos - pos.mean(axis=0)
        dgrad = grad - grad.mean(axis=0)
        s_pp = dpos.T @ dpos / pos.shape[0]
        s_pg = dpos.T @ dgrad / pos.shape[0]
        fit = grad.mean(axis=0) + np.linalg.solve(s_pp, dpos.T).T @ s_pg
        v.append(fit - grad)
    return v


def global_moment_rk4(x, y, eps: float, dt: float, steps: int):
    """Linear-estimator RK4 when every eps-ball holds every particle.

    Raises ValueError if some stage's bounding-box diagonal exceeds eps,
    where the single-cluster premise would not hold.
    """

    def vel(px, py):
        for p in (px, py):
            if np.linalg.norm(np.ptp(p, axis=0)) > eps:
                raise ValueError("a stage left the single-cluster regime")
        return _global_moment_velocity(px, py)

    for _ in range(steps):
        k1 = vel(x, y)
        k2 = vel(x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1])
        k3 = vel(x + 0.5 * dt * k2[0], y + 0.5 * dt * k2[1])
        k4 = vel(x + dt * k3[0], y + dt * k3[1])
        x = x + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y = y + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return x, y


def check_rk4_moderate(x0, y0, fx, fy, eps, n_clusters0, components0=None) -> list[str]:
    """n_clusters0 is the solver's step-0 (x, y) cluster count."""
    failed = []
    if not map_err(fx, fy) <= map_err(x0, y0) / MAP_ERR_FACTOR:
        failed.append("map_err_reduction")
    if not mean_cost(fx, fy) < mean_cost(x0, y0):
        failed.append("cost_descent")
    if not max(moment_drift(x0, fx), moment_drift(y0, fy)) <= DRIFT_BOUND:
        failed.append("marginal_drift")
    if components0 is None:
        components0 = (component_count(x0, eps), component_count(y0, eps))
    if tuple(n_clusters0) != tuple(components0):
        failed.append("step0_clusters")
    return failed


def check_dense(x0, y0, fx, fy, eps, dt, steps) -> list[str]:
    rx, ry = global_moment_rk4(x0, y0, eps, dt, steps)
    err = max(np.abs(fx - rx).max(), np.abs(fy - ry).max())
    scale = max(np.abs(rx).max(), np.abs(ry).max())
    return [] if err <= DENSE_RTOL * scale else ["global_moment_rk4"]


def read_pairs_csv(path, n: int, d: int) -> np.ndarray:
    """pairs.csv as an (n, 2d) array; raises ValueError on any other shape."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        expected = [f"x{j + 1}" for j in range(d)] + [f"y{j + 1}" for j in range(d)]
        if header != expected:
            raise ValueError(f"pairs.csv header {header}, expected {expected}")
        pairs = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    if pairs.shape != (n, 2 * d):
        raise ValueError(f"pairs.csv has shape {pairs.shape}, expected {(n, 2 * d)}")
    return pairs


def check_cli(x0, y0, out_dir, steps: int):
    """Returns (failed check names, final pairs or None)."""
    out_dir = Path(out_dir)
    n, d = x0.shape
    try:
        pairs = read_pairs_csv(out_dir / "pairs.csv", n, d)
        records = [json.loads(line) for line in
                   (out_dir / "diagnostics.jsonl").read_text(encoding="utf-8").splitlines()]
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"outputs_unreadable: {exc}"], None
    failed = []
    if not np.isfinite(pairs).all():
        failed.append("pairs_finite")
    fx, fy = pairs[:, :d], pairs[:, d:]
    final_cost = mean_cost(fx, fy)
    if [r.get("step") for r in records] != list(range(steps + 1)):
        failed.append("diagnostics_records")
    elif not abs(final_cost - records[-1]["cost"]) <= COST_RTOL * abs(final_cost):
        failed.append("final_cost_matches_diagnostics")
    if not final_cost <= mean_cost(x0, y0):
        failed.append("cost_descent")
    if not map_err(fx, fy) <= map_err(x0, y0):
        failed.append("map_err_not_worse")
    if manifest.get("subcommand") != "solve":
        failed.append("manifest")
    return failed, pairs
