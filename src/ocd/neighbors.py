"""Exact ε-ball graphs over one sample matrix.

The cluster of particle i is the closed Euclidean ball {j : ||p_i - p_j|| <= eps},
always including i itself.  Queries are exact: ties at distance eps are in,
and no tolerance fudge is applied.  A space-partitioning tree keeps the build
at O(N log N) and queries output-sensitive.  The ε-ball graph has one
format, its strict upper triangle U (each unordered pair once), and one
query, neighbor_csr; cluster_count_csr and cluster_curve read its U.
The tree alone decides ties: cluster_curve, which sums lengths its own way,
asks neighbor_csr at an eps within rounding of one of its edge lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
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
        ii, jj = index._tree.query_pairs(r=float(epsilon), output_type="ndarray").T
    except ValueError as exc:
        # cKDTree refuses any query, whatever r, once the squared extent
        # of the data overflows ("Encountering floating point overflow")
        raise NonFiniteResult(f"squared point distances overflow: {exc}") from exc
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
    """Squared lengths of the pairs (ii, jj), the columns summed in order.

    From eight columns on the tree may round a length the other way, so
    ``length <= eps**2`` is its verdict except at ties (see cluster_curve).
    """
    total = np.zeros(ii.shape[0])
    for c in range(points.shape[1]):
        col = points[:, c]
        diff = col[ii] - col[jj]
        diff *= diff
        total += diff
    return total


def cluster_curve(index: SpatialIndex, grid) -> np.ndarray:
    """Connected components of the ε-ball graph at each ε of ``grid``.

    Equals ``cluster_count_csr(*neighbor_csr(index, eps))[0]`` for every eps
    in the grid, from the one graph ``neighbor_csr`` builds at the largest
    eps, complete-graph shortcut included.  By Kruskal's algorithm, a
    minimum spanning forest F of that graph answers every smaller eps too:
    the graph at eps has N - #{edges of F no longer than eps} components
    (single linkage is the minimum spanning tree).

    Ties go to the tree, whose own rounding may put a pair at distance eps
    on the other side: where eps**2 is within a relative 1e-12 * dim of a
    forest edge's length, the count is neighbor_csr's at eps.  By the cycle
    property, any edge the tree rounds across eps**2 moves the count only
    through a forest edge between eps**2 and its length, so inside the band.
    The grid may be in any order; the result follows it.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or not (grid > 0).all():
        raise InvalidConfig("grid must hold at least one epsilon, all > 0")
    n = index.n_points
    indptr, cols = neighbor_csr(index, grid.max())
    rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(indptr))
    lengths = _squared_lengths(index.points, rows, cols)
    del rows
    # csgraph reads a stored zero as no edge, so an exact duplicate pair
    # stands in with the smallest positive length, still <= eps**2 for
    # any eps above 1e-161
    lengths[lengths == 0.0] = np.nextafter(0.0, 1.0)
    graph = csr_matrix((lengths, cols, indptr), shape=(n, n))
    forest = np.sort(minimum_spanning_tree(graph, overwrite=True).data)
    squared = grid * grid
    counts = n - np.searchsorted(forest, squared, side="right")
    band = 1e-12 * index.points.shape[1]
    ties = (np.searchsorted(forest, squared * (1.0 + band), side="right")
            > np.searchsorted(forest, squared * (1.0 - band), side="left"))
    for k in np.flatnonzero(ties):
        counts[k] = cluster_count_csr(*neighbor_csr(index, grid[k]))[0]
    return counts
