"""Exact radius-neighbor queries over one sample matrix.

The cluster of particle i is the closed Euclidean ball {j : ||p_i - p_j|| <= eps},
always including i itself.  Queries are exact: ties at distance eps are in,
and no tolerance fudge is applied.  A space-partitioning tree keeps the build
at O(N log N) and queries output-sensitive.  The ε-ball graph has one
format, its strict upper triangle U (each unordered pair once; see neighbor_csr).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

from .errors import (
    EmptyInput,
    IndexOutOfRange,
    InvalidConfig,
    NonFiniteInput,
    NonFiniteResult,
)


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


def _pairs(index: SpatialIndex, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows i < j of every pair within distance epsilon, as two int arrays.

    Raises NonFiniteResult when the squared distances among finite points
    overflow the float range, as on a diverging run.
    """
    if not np.isfinite(epsilon):
        # cluster_curve's infinite grid value joins every pair, so list them
        # without the tree, which would overflow on a diverging state
        return np.triu_indices(index.n_points, k=1)
    try:
        ii, jj = index._tree.query_pairs(r=float(epsilon), output_type="ndarray").T
    except ValueError as exc:
        # cKDTree refuses any query, whatever r, once the squared extent
        # of the data overflows ("Encountering floating point overflow")
        raise NonFiniteResult(f"squared point distances overflow: {exc}") from exc
    return ii, jj


def neighbor_csr(index: SpatialIndex, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The ε-ball graph as the strict upper triangle U in CSR layout: (indptr, cols).

    Row i holds, ascending, every j > i with ||p_i - p_j|| <= epsilon, so
    each unordered pair appears once and no row holds itself.  The closed
    ball of i, as radius_neighbors returns it, is i, row i and column i.

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
    ii, jj = _pairs(index, epsilon)
    upper = coo_matrix((np.ones(ii.shape[0], dtype=np.int8), (ii, jj)), shape=(n, n)).tocsr()
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


def _squared_lengths(points: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Squared lengths of the pairs (ii, jj), summed as cKDTree sums them.

    cKDTree keeps four running sums over whole blocks of four columns, adds
    them in order, then adds the remaining columns one by one.  Summing the
    same way makes ``length <= eps**2`` the tree's own verdict on ``<= eps``,
    ties included.
    """
    def square(c):
        col = points[:, c]
        diff = col[ii] - col[jj]
        diff *= diff
        return diff

    dim = points.shape[1]
    whole = dim - dim % 4
    if whole:
        part = [square(c) for c in range(4)]
        for c in range(4, whole):
            part[c % 4] += square(c)
        total = part[0] + part[1] + part[2] + part[3]
    else:
        total = np.zeros(ii.shape[0])
    for c in range(whole, dim):
        total += square(c)
    return total


def cluster_curve(index: SpatialIndex, grid) -> np.ndarray:
    """Connected components of the ε-ball graph at each ε of ``grid``.

    Equals ``cluster_count_csr(*neighbor_csr(index, eps))[0]`` for every eps
    in the grid, from one pair query at the largest eps.  By Kruskal's
    algorithm, a minimum spanning forest F of the graph at that eps answers
    every smaller eps too: the graph at eps has N - #{edges of F no longer
    than eps} components (single linkage is the minimum spanning tree).
    The grid may be in any order; the result follows it.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or not (grid > 0).all():
        raise InvalidConfig("grid must hold at least one epsilon, all > 0")
    n = index.n_points
    ii, jj = _pairs(index, grid.max())
    lengths = _squared_lengths(index.points, ii, jj)
    # csgraph reads a stored zero as no edge, so an exact duplicate pair
    # stands in with the smallest positive length, still <= eps**2 for
    # any eps above 1e-161
    lengths[lengths == 0.0] = np.nextafter(0.0, 1.0)
    graph = csr_matrix((lengths, (ii, jj)), shape=(n, n))
    # free the pair list before the forest, the peak of the build
    del ii, jj, lengths
    forest = np.sort(minimum_spanning_tree(graph, overwrite=True).data)
    return n - np.searchsorted(forest, grid * grid, side="right")
