"""Cluster counting and cutoff selection.

The cutoff ε is the solver's key hyper-parameter.  Three proxies are
exposed: the β-rule (largest ε keeping the cluster/particle ratio above
β), a dimensional rule of thumb, and a log-log knee detector on the
cluster curve.  None is canonical; sweeps are the honest way to pick ε.

The β-rule and the CLI's knee read the cluster count at every grid ε off
one minimum spanning forest (``neighbors.cluster_curve``), not off one
graph per grid point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .core import CostModel, SolverConfig, new_ensemble
from .dynamics import run
from .emd import emd, joint_distance
from .errors import (
    CurveTooShort,
    InvalidConfig,
    NoFeasibleEpsilon,
    NonFiniteInput,
    OcdError,
)
from .neighbors import (
    build_index,
    cluster_count_csr,
    cluster_curve,
    knn_query,
    neighbor_csr,
)


@dataclass(frozen=True)
class ClusterReport:
    epsilon: float
    n_clusters: int
    cluster_labels: np.ndarray  # (N,) int, labelled by smallest member index


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.isfinite(pts).all():
        raise NonFiniteInput("points contain NaN or Inf")
    return pts


def count_clusters(points, epsilon: float) -> ClusterReport:
    """Connected components of the ε-radius graph.

    Equivalent to DBSCAN with min_points = 1: every point belongs to a
    cluster, there is no noise label.  Labels are assigned in order of
    each cluster's smallest member index.
    """
    if not epsilon > 0.0:
        raise InvalidConfig(f"epsilon must be positive, got {epsilon}")
    pts = _as_points(points)
    index = build_index(pts)
    indptr, cols = neighbor_csr(index, epsilon)
    n_clusters, labels = cluster_count_csr(indptr, cols)
    return ClusterReport(epsilon=float(epsilon), n_clusters=n_clusters, cluster_labels=labels)


def epsilon_max(points, beta: float, grid=None) -> float:
    """Largest grid ε whose cluster/particle ratio stays above β.

    The ratio is non-increasing in ε, so the answer is the grid point
    before the first failure.  The counts come from one spanning forest
    (``cluster_curve``) over the grid cut where the ratio is sure to fail,
    so that its one pair query stays near the answer: once ⌈(1-β)·N·m/(m-1)⌉
    points each have m-1 others within ε, with m = ⌊1/β⌋ + 1, clusters of
    at least m points hold the count to βN.  The cut is the first grid point
    at or above that many points' (m-1)-th nearest-neighbour distance.
    Should rounding leave a pair at exactly that distance out, every grid
    point above it fails, so the answer is the same.

    ``grid=None`` takes the default grid, read off the same KD-tree and
    nearest-neighbour query as the cut; ``cluster_curve`` reuses the tree.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidConfig(f"beta must lie in (0, 1), got {beta}")
    if grid is not None:
        grid = np.array([float(g) for g in grid])
        if not grid.size or (grid[1:] <= grid[:-1]).any():
            raise InvalidConfig("grid must be non-empty and strictly ascending")
    index = build_index(_as_points(points))
    n = index.n_points
    m = int(1.0 / beta) + 1
    dist = knn_query(index, index.points, k=min(m, n))[0]
    if grid is None:
        grid = _grid_from(index, dist[:, 1]) if n > 1 else np.array([1.0])
    if m <= n:
        need = math.ceil((1 - Fraction(beta)) * n * m / (m - 1))
        reach = np.sort(dist[:, m - 1])[need - 1]
        grid = grid[: np.searchsorted(grid, reach) + 1]
    # a prefix of the grid, since the count never rises with ε
    n_ok = int(np.count_nonzero(cluster_curve(index, grid) / n > beta))
    if n_ok == 0:
        raise NoFeasibleEpsilon(
            f"no grid epsilon keeps n_clusters/n_particles above beta={beta}"
        )
    return float(grid[n_ok - 1])


def _grid_from(index, nn) -> np.ndarray:
    """The default grid over the indexed points, nn their nearest-neighbour gaps."""
    nn = nn[nn > 0]
    hi = float(np.linalg.norm(index.extent))
    if hi <= 0.0:
        hi = 1.0
    if nn.size:
        # keep a floor so one near-duplicate pair cannot stretch the grid
        lo = max(0.5 * float(nn.min()), 1e-6 * float(np.median(nn)))
    else:
        lo = 1e-9 * hi
    lo = min(max(lo, 1e-15), hi / 2.0)
    n_points = int(np.clip(round(4.0 * np.log10(hi / lo)) + 1, 16, 48))
    return np.geomspace(lo, hi, n_points)


def default_epsilon_grid(points) -> np.ndarray:
    """Geometric candidate grid from the data's own scales.

    Spans from below the smallest nearest-neighbour gap over all points
    (every point its own cluster) up to the bounding-box diagonal the
    KD-tree stores (one giant cluster), at roughly factor-1.8 resolution.
    """
    pts = _as_points(points)
    if pts.shape[0] < 2:
        return np.array([1.0])
    index = build_index(pts)
    return _grid_from(index, knn_query(index, index.points, k=2)[0][:, 1])


def auto_epsilon(x_points, y_points, beta: float = 0.9, grid=None) -> float:
    """β-rule cutoff: computed on each marginal separately, the smaller wins."""
    return min(epsilon_max(pts, beta, grid) for pts in (x_points, y_points))


def epsilon_rule_of_thumb(dim: int, n_particles: int) -> float:
    """Dimensional scaling heuristic 0.75 * d * N^(-1/4)."""
    if dim < 1 or n_particles < 1:
        raise InvalidConfig("dim and n_particles must be at least 1")
    return 0.75 * dim * float(n_particles) ** -0.25


@dataclass(frozen=True)
class EpsilonCritResult:
    epsilon: float
    low_confidence: bool
    curvature: np.ndarray  # |second difference| per interior grid point


def epsilon_crit(curve) -> EpsilonCritResult:
    """Knee of the cluster curve: max |second difference| in log-log.

    A strictly power-law curve has no knee; the mid-grid point is then
    returned with low_confidence set.
    """
    pairs = [(float(e), float(n)) for e, n in curve]
    if len(pairs) < 5:
        raise CurveTooShort(f"need at least 5 grid points, got {len(pairs)}")
    eps = np.array([p[0] for p in pairs])
    counts = np.array([p[1] for p in pairs])
    if np.any(eps <= 0) or np.any(counts < 1):
        raise InvalidConfig("epsilon must be positive and counts at least 1")
    if np.any(np.diff(eps) <= 0):
        raise InvalidConfig("epsilon grid must be strictly ascending")
    u = np.log(eps)
    v = np.log(counts)
    left = (v[1:-1] - v[:-2]) / (u[1:-1] - u[:-2])
    right = (v[2:] - v[1:-1]) / (u[2:] - u[1:-1])
    curvature = np.abs(2.0 * (right - left) / (u[2:] - u[:-2]))
    scale = max(np.abs(v).max(), 1.0)
    if curvature.max() <= 1e-9 * scale:
        return EpsilonCritResult(
            epsilon=float(eps[len(pairs) // 2]), low_confidence=True, curvature=curvature
        )
    knee = int(np.argmax(curvature)) + 1
    return EpsilonCritResult(epsilon=float(eps[knee]), low_confidence=False, curvature=curvature)


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    final_cost: float
    emd_cost: float
    joint_distance: float
    n_clusters_x: int
    n_clusters_y: int
    steps: int
    wall_time_ms: float
    failed: bool = False
    message: str = ""


def epsilon_sweep(x0, y0, cost: CostModel, config_template: SolverConfig, grid) -> list[SweepRow]:
    """One solver run per grid ε from the same initial pairing.

    The exact-assignment reference is computed once on the shared initial
    samples.  A row reports no diagnostics, so its run records none; its
    cluster counts are taken once, at the final positions.  A failing row
    is recorded (NaN metrics) and the sweep continues.  wall_time_ms is
    telemetry, not part of any determinism contract.
    """
    base = new_ensemble(x0, y0)
    coupling = emd(base.x_samples, base.y_samples, cost)
    emd_pairs = np.hstack([base.x_samples, base.y_samples[coupling.assignment]])
    rows = []
    for eps in grid:
        eps = float(eps)
        config = replace(config_template, epsilon=eps, record_diagnostics=False)
        start = time.perf_counter()
        try:
            result = run(base.copy(), cost, config)
            final = result.final_ensemble
            ocd_pairs = np.hstack([final.x_samples, final.y_samples])
            rows.append(
                SweepRow(
                    epsilon=eps,
                    final_cost=result.final_cost,
                    emd_cost=coupling.total_cost,
                    joint_distance=joint_distance(ocd_pairs, emd_pairs),
                    n_clusters_x=count_clusters(final.x_samples, eps).n_clusters,
                    n_clusters_y=count_clusters(final.y_samples, eps).n_clusters,
                    steps=final.step_index,
                    wall_time_ms=(time.perf_counter() - start) * 1e3,
                )
            )
        except OcdError as exc:
            rows.append(
                SweepRow(
                    epsilon=eps,
                    final_cost=float("nan"),
                    emd_cost=coupling.total_cost,
                    joint_distance=float("nan"),
                    n_clusters_x=0,
                    n_clusters_y=0,
                    steps=0,
                    wall_time_ms=(time.perf_counter() - start) * 1e3,
                    failed=True,
                    message=f"{type(exc).__name__}: {exc}",
                )
            )
    return rows
