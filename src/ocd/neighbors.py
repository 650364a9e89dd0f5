"""Exact radius-neighbor queries over one sample matrix.

The cluster of particle i is the closed Euclidean ball {j : ||p_i - p_j|| <= eps},
always including i itself.  Queries are exact: ties at distance eps are in,
and no tolerance fudge is applied.  A space-partitioning tree keeps the build
at O(N log N) and queries output-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import EmptyInput, IndexOutOfRange, InvalidConfig, NonFiniteInput


@dataclass
class SpatialIndex:
    """Immutable radius-query structure over one point matrix.

    Holds a borrowed reference to ``points``; results are valid only while
    the source array is unchanged.
    """

    points: np.ndarray       # (N, n), borrowed
    _tree: cKDTree = field(repr=False)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def build_index(points) -> SpatialIndex:
    """Build a radius-query index over the rows of ``points``."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise EmptyInput(f"points must be a 2-D (N, n) matrix, got ndim={pts.ndim}")
    if pts.shape[0] == 0 or pts.shape[1] == 0:
        raise EmptyInput(f"cannot index an empty point set, shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise NonFiniteInput("points contain NaN or Inf")
    tree = cKDTree(pts, leafsize=16, copy_data=False)
    return SpatialIndex(points=pts, _tree=tree)


def radius_neighbors(index: SpatialIndex, query_row: int, epsilon: float) -> list[int]:
    """Sorted indices of all points within distance epsilon of the given row.

    The query row is always a member of its own result (distance 0).
    """
    if not (0 <= query_row < index.n_points):
        raise IndexOutOfRange(
            f"query_row {query_row} outside [0, {index.n_points})"
        )
    if not epsilon > 0:
        raise InvalidConfig(f"epsilon must be > 0, got {epsilon}")
    hits = index._tree.query_ball_point(index.points[query_row], r=epsilon)
    hits.sort()
    return hits


def neighbor_csr(index: SpatialIndex, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """All-rows neighbor lists in CSR layout: (indptr, cols).

    Row i's neighbors are cols[indptr[i]:indptr[i+1]], sorted ascending and
    always containing i.  This is the bulk form of radius_neighbors used by
    the estimators; both produce the same closed-ball sets.
    """
    if not epsilon > 0:
        raise InvalidConfig(f"epsilon must be > 0, got {epsilon}")
    n = index.n_points
    if np.isfinite(epsilon):
        pairs = index._tree.query_pairs(r=float(epsilon), output_type="ndarray")
    else:
        # cKDTree.query_pairs(r=inf) raises ValueError ("floating point
        # overflow") once squared distances leave the float range, as on a
        # diverging run; an infinite cutoff joins every pair, so list them
        ii, jj = np.triu_indices(n, k=1)
        pairs = np.stack([ii, jj], axis=1)
    if pairs.shape[0] == 0:
        # isolated points: every row is its own singleton cluster
        indptr = np.arange(n + 1, dtype=np.int64)
        return indptr, np.arange(n, dtype=np.int64)
    deg = (
        np.bincount(pairs[:, 0], minlength=n)
        + np.bincount(pairs[:, 1], minlength=n)
        + 1
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    self_ix = np.arange(n, dtype=np.int64)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1], self_ix])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0], self_ix])
    order = np.lexsort((cols, rows))
    return indptr, cols[order]


def knn_query(index: SpatialIndex, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of the k nearest indexed points per query row."""
    if not 1 <= k <= index.n_points:
        raise InvalidConfig(f"k must lie in [1, {index.n_points}], got {k}")
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    dist, idx = index._tree.query(q, k=k)
    return dist.reshape(q.shape[0], k), idx.reshape(q.shape[0], k)


def nearest_neighbor_distances(index: SpatialIndex) -> np.ndarray:
    """Distance from each point to its closest other point."""
    if index.n_points < 2:
        return np.zeros(index.n_points)
    dist, _ = knn_query(index, index.points, k=2)
    return dist[:, 1]


def cluster_count_csr(indptr: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of a neighbor graph in CSR form.

    Returns (n_components, labels); labels are numbered in order of each
    component's smallest member index.
    """
    n = indptr.shape[0] - 1
    graph = csr_matrix(
        (np.ones(cols.shape[0], dtype=np.int8), cols, indptr), shape=(n, n)
    )
    n_comp, labels = connected_components(graph, directed=False)
    # renumber so that the component holding the smallest row index gets
    # label 0, the next-smallest unseen component label 1, and so on
    first_row = np.unique(labels, return_index=True)[1]
    remap = np.empty(n_comp, dtype=labels.dtype)
    remap[np.argsort(first_row, kind="stable")] = np.arange(n_comp, dtype=labels.dtype)
    return int(n_comp), remap[labels]
