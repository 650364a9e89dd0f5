"""Cluster counting and cutoff selection.

The cutoff ε is the solver's key hyper-parameter.  Three proxies are
exposed: the β-rule (largest ε keeping the cluster/particle ratio above
β), a dimensional rule of thumb, and a log-log knee detector on the
cluster curve.  None is canonical; sweeps are the honest way to pick ε.

The β-rule reads its exact threshold off one minimum spanning forest of
neighbor_csr's graph; cluster_curve, behind the CLI's knee and the β-rule
on an explicit grid, reads every grid ε's count off one.  Its tie rule
hands a count within rounding of a forest edge back to the tree.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from .core import CostModel, SolverConfig, new_ensemble
from .dynamics import run
from .emd import emd, joint_distance
from .errors import (
    CurveTooShort,
    InvalidConfig,
    NoFeasibleEpsilon,
    NonFiniteResult,
    OcdError,
)
from .neighbors import SpatialIndex, build_index, cluster_count_csr, knn_query, neighbor_csr

# csgraph reads a stored zero as no edge, so an exact duplicate pair stands
# in with the smallest positive length; the tree merges it at every eps > 0
_STAND_IN = np.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class ClusterReport:
    epsilon: float
    n_clusters: int
    cluster_labels: np.ndarray  # (N,) int, labelled by smallest member index


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return pts[:, None] if pts.ndim == 1 else pts


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


def _spanning_forest(index: SpatialIndex, radius: float) -> np.ndarray:
    """Ascending squared edge lengths of a minimum spanning forest at radius.

    Each length is summed over the columns in order.  From eight columns on
    the tree may round a length the other way, so ``length <= eps**2`` is
    its verdict except at ties (see cluster_curve).
    """
    n = index.n_points
    indptr, cols = neighbor_csr(index, radius)
    rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(indptr))
    lengths = np.zeros(cols.shape[0])
    with np.errstate(over="ignore"):  # a length past the float range is inf
        for col in index.points.T:
            diff = col[rows] - col[cols]
            diff *= diff
            lengths += diff
    del rows
    lengths[lengths == 0.0] = _STAND_IN
    graph = csr_matrix((lengths, cols, indptr), shape=(n, n))
    return np.sort(minimum_spanning_tree(graph, overwrite=True).data)


def cluster_curve(index: SpatialIndex, grid) -> np.ndarray:
    """Connected components of the ε-ball graph at each ε of ``grid``.

    Equals ``cluster_count_csr(*neighbor_csr(index, eps))[0]`` for every eps
    in the grid, from the one graph ``neighbor_csr`` builds at the largest
    eps, complete-graph shortcut included.  By Kruskal's algorithm, a
    minimum spanning forest F of that graph answers every smaller eps too:
    the graph at eps has N - #{edges of F no longer than eps} components
    (single linkage is the minimum spanning tree).  A duplicate pair's
    stand-in edge counts at every eps, also where eps**2 underflows to 0.

    Ties go to the tree, whose own rounding may put a pair at distance eps
    on the other side: where eps**2 is within the index's relative slack of a
    forest edge's length, the count is neighbor_csr's at eps.  By the cycle
    property, any edge the tree rounds across eps**2 moves the count only
    through a forest edge between eps**2 and its length, so inside the band.
    The grid may be in any order; the result follows it.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or not (grid > 0).all():
        raise InvalidConfig("grid must hold at least one epsilon, all > 0")
    forest = _spanning_forest(index, grid.max())
    with np.errstate(over="ignore"):  # a square past the float range is inf
        squared = grid * grid
        ties = (np.searchsorted(forest, squared * (1.0 + index.slack), side="right")
                > np.searchsorted(forest, squared * (1.0 - index.slack), side="left"))
    merged = np.searchsorted(forest, np.maximum(squared, _STAND_IN), side="right")
    counts = index.n_points - merged
    for k in np.flatnonzero(ties):
        counts[k] = cluster_count_csr(*neighbor_csr(index, grid[k]))[0]
    return counts


def epsilon_max(points, beta: float, grid=None) -> float:
    """Largest ε whose cluster/particle ratio stays above β.

    The ratio never rises with ε.  Both paths query pairs out to about the
    reach where it is sure to fail: once ⌈(1-β)·N·m/(m-1)⌉ points each have
    m-1 others within ε, m = ⌊1/β⌋ + 1, clusters of m or more hold the
    count to βN.  ``grid=None`` gives the exact threshold.  With F a
    minimum spanning forest at the reach (widened by the tie band, lest the
    tree round a pair out), the graph at ε has N - #{edges of F ≤ ε}
    components, so the ratio fails from F's k-th shortest edge on, k the
    fewest merges that bring it to β or below.  The answer is the midpoint between
    that edge and the longest one below its tie band, clear of the tree's
    rounding; with no k merges, the bounding-box diagonal, or 1.0 if that
    is 0.  A ``grid`` snaps it to the grid point before the first failure.
    A squared diagonal past the float range raises NonFiniteResult first.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidConfig(f"beta must lie in (0, 1), got {beta}")
    if grid is not None:
        grid = np.array([float(g) for g in grid])
        if not grid.size or (grid[1:] <= grid[:-1]).any():
            raise InvalidConfig("grid must be non-empty and strictly ascending")
    index = build_index(_as_points(points))
    if index.diagonal == np.inf:
        raise NonFiniteResult("the points' squared bounding-box diagonal overflows")
    n = index.n_points
    m = int(1.0 / beta) + 1
    dist = knn_query(index, index.points, k=min(m, n))[0]
    need = math.ceil((1 - Fraction(beta)) * n * m / (m - 1))
    # below m points only the complete graph is sure to fail
    reach = np.sort(dist[:, m - 1])[need - 1] if m <= n else np.inf
    if grid is not None:
        # a prefix of the grid, since the count never rises with ε
        grid = grid[: np.searchsorted(grid, reach) + 1]
        n_ok = int(np.count_nonzero(cluster_curve(index, grid) / n > beta))
        eps = grid[n_ok - 1] if n_ok else 0.0
    elif (k := n - int(np.count_nonzero(np.arange(1, n + 1) / n <= beta))) >= n:
        eps = index.diagonal or 1.0
    else:
        band = index.slack
        forest = _spanning_forest(index, reach * (1.0 + band)) if reach > 0 else np.zeros(k)
        edge = forest[k - 1]  # a duplicate pair's stand-in fails at every ε
        lo = forest[forest < edge * (1.0 - band)].max(initial=0.0)
        eps = (np.sqrt(lo) + np.sqrt(edge)) / 2 if edge > _STAND_IN else 0.0
    if eps == 0.0:
        raise NoFeasibleEpsilon(f"no epsilon keeps n_clusters/n_particles above beta={beta}")
    return float(eps)


def default_epsilon_grid(index: SpatialIndex) -> np.ndarray:
    """Geometric candidate grid from the indexed points' own scales.

    Spans from below the smallest nearest-neighbour gap over all points
    (every point its own cluster) up to the bounding-box diagonal the
    KD-tree stores (one giant cluster), at roughly factor-1.8 resolution.
    Takes the index that ``cluster_curve`` then reads, so a curve over this
    grid builds one tree.  A squared diagonal past the float range raises
    NonFiniteResult.
    """
    if index.n_points < 2:
        return np.array([1.0])
    hi = index.diagonal or 1.0
    if hi == np.inf:
        raise NonFiniteResult("the points' squared bounding-box diagonal overflows")
    nn = knn_query(index, index.points, k=2)[0][:, 1]
    nn = nn[nn > 0]
    if nn.size:
        # keep a floor so one near-duplicate pair cannot stretch the grid
        lo = max(0.5 * float(nn.min()), 1e-6 * float(np.median(nn)))
    else:
        lo = 1e-9 * hi
    lo = min(max(lo, 1e-15), hi / 2.0)
    n_points = int(np.clip(round(4.0 * np.log10(hi / lo)) + 1, 16, 48))
    return np.geomspace(lo, hi, n_points)


def auto_epsilon(x_points, y_points, beta: float = 0.9, grid=None) -> float:
    """β-rule cutoff (``epsilon_max``) of each marginal; the smaller wins."""
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
    # every row's config is checked before any work
    configs = [replace(config_template, epsilon=float(eps), record_diagnostics=False)
               for eps in grid]
    base = new_ensemble(x0, y0)
    coupling = emd(base.x_samples, base.y_samples, cost)
    emd_pairs = np.hstack([base.x_samples, base.y_samples[coupling.assignment]])
    rows = []
    for config in configs:
        start = time.perf_counter()
        try:
            result = run(base.copy(), cost, config)
            final = result.final_ensemble
            ocd_pairs = np.hstack([final.x_samples, final.y_samples])
            outcome = dict(
                final_cost=result.final_cost,
                joint_distance=joint_distance(ocd_pairs, emd_pairs),
                n_clusters_x=count_clusters(final.x_samples, config.epsilon).n_clusters,
                n_clusters_y=count_clusters(final.y_samples, config.epsilon).n_clusters,
                steps=final.step_index,
            )
        except OcdError as exc:
            outcome = dict(final_cost=float("nan"), joint_distance=float("nan"),
                           n_clusters_x=0, n_clusters_y=0, steps=0,
                           failed=True, message=f"{type(exc).__name__}: {exc}")
        rows.append(SweepRow(epsilon=config.epsilon, emd_cost=coupling.total_cost,
                             wall_time_ms=(time.perf_counter() - start) * 1e3, **outcome))
    return rows
