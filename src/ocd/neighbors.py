"""Exact ε-ball graphs over one sample matrix.

The cluster of particle i is the closed Euclidean ball {j : ||p_i - p_j|| <= eps},
always including i itself.  Queries are exact: ties at distance eps are in,
and no tolerance fudge is applied.  A space-partitioning tree keeps the build
at O(N log N) and queries output-sensitive.  The ε-ball graph has one
format, its strict upper triangle U (each unordered pair once), and one
query, neighbor_csr.  cluster_count_csr reads its components; the cluster
curve in ocd.epsilon reads its minimum spanning forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import EmptyInput, InvalidConfig, NonFiniteInput, NonFiniteResult


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

    @property
    def extent(self) -> np.ndarray:
        """Side lengths of the points' bounding box, as the tree stores it."""
        return self._tree.maxes - self._tree.mins


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


def neighbor_csr(index: SpatialIndex, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The ε-ball graph as the strict upper triangle U in CSR layout: (indptr, cols).

    Row i holds, ascending, every j > i with ||p_i - p_j|| <= epsilon, so
    each unordered pair appears once and no row holds itself.  The closed
    ball of i is i itself, row i and column i.

    The tree's pairs come in no particular order; two counting passes and
    no comparison sort order them.  The first groups each pair under its
    larger index, which gives U's transpose L in CSR.  The second, scipy's
    CSR-to-CSC transpose of L, walks L's rows in order and appends each
    pair to its smaller index's row of U, so every row comes out ascending.

    When epsilon exceeds the bounding-box diagonal of the points by a
    relative margin of 1e-12 per dimension, the complete graph is returned
    without a pair query.  The condition is sufficient, not necessary: no
    pair is farther apart than the diagonal, and the margin is far above
    the rounding of a squared sum of dim terms (about 2 * dim * 2**-53
    relative), so the tree would keep every pair too; inside the margin
    the tree decides.  Either way both arrays have scipy's index dtype:
    int32 while the graph has fewer than 2**31 entries, int64 beyond.

    Raises NonFiniteResult when the squared distances among finite points
    overflow the float range, as on a diverging run; at epsilon = inf the
    complete graph is returned instead.
    """
    if not epsilon > 0:
        raise InvalidConfig(f"epsilon must be > 0, got {epsilon}")
    n = index.n_points
    with np.errstate(over="ignore"):
        # the tree holds the bounding box; a squared extent that overflows
        # makes the diagonal inf, which only an infinite epsilon clears
        extent = index.extent
        diagonal = np.sqrt(np.dot(extent, extent))
    if epsilon >= diagonal * (1.0 + 1e-12 * extent.shape[0]):
        dtype = np.int32 if n * (n - 1) // 2 <= np.iinfo(np.int32).max else np.int64
        indptr = np.concatenate([[0], np.cumsum(np.arange(n - 1, -1, -1))]).astype(dtype)
        # entry k of row i is column i + 1 + (k - indptr[i]); k = r * width + c is
        # added in place on an (r, c) view, as a second N(N-1)/2 array faults in
        cols = np.repeat(np.arange(1, n + 1, dtype=dtype) - indptr[:-1], np.diff(indptr))
        block = cols.reshape((n // 2, n - 1) if n % 2 == 0 else (n, (n - 1) // 2))
        block += np.arange(block.shape[1], dtype=dtype)
        block += block.shape[1] * np.arange(block.shape[0], dtype=dtype)[:, None]
        return indptr, cols
    try:
        pairs = index._tree.query_pairs(r=float(epsilon), output_type="ndarray")
    except ValueError as exc:
        # cKDTree refuses any query, whatever r, once the squared extent
        # of the data overflows ("Encountering floating point overflow")
        raise NonFiniteResult(f"squared point distances overflow: {exc}") from exc
    # pair (i, j), i < j, is entry (j, i) of U's transpose L
    lower = coo_matrix(
        (np.ones(pairs.shape[0], dtype=np.int8), (pairs[:, 1], pairs[:, 0])), shape=(n, n)
    )
    del pairs
    # query_pairs reports each pair once, so there is nothing to sum, and
    # the flag skips tocsr's sum_duplicates with its per-row sort
    lower.has_canonical_format = True
    lower = lower.tocsr()
    upper = lower.tocsc()  # L in CSC is U in CSR
    return upper.indptr, upper.indices


def knn_query(index: SpatialIndex, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of the k nearest indexed points per query row."""
    if not 1 <= k <= index.n_points:
        raise InvalidConfig(f"k must lie in [1, {index.n_points}], got {k}")
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    dist, idx = index._tree.query(q, k=k)
    return dist.reshape(q.shape[0], k), idx.reshape(q.shape[0], k)


def cluster_count_csr(indptr: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of neighbor_csr's graph U.

    Returns (n_components, labels); labels are numbered in order of each
    component's smallest member index, the order in which scipy's search
    meets them.  A U with N(N-1)/2 entries is complete (each pair appears
    once), so it is one component, read off without a search.
    """
    n = indptr.shape[0] - 1
    if cols.shape[0] == n * (n - 1) // 2:
        return 1, np.zeros(n, dtype=np.int32)
    graph = csr_matrix(
        (np.ones(cols.shape[0], dtype=np.int8), cols, indptr), shape=(n, n)
    )
    n_comp, labels = connected_components(graph, directed=False)
    return int(n_comp), labels
