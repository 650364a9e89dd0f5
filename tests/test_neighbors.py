import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from scipy.spatial import cKDTree

from ocd import (
    EmptyInput,
    InvalidConfig,
    NonFiniteInput,
    NonFiniteResult,
    build_index,
    cluster_count_csr,
    neighbor_csr,
)
from ocd.estimators import _cluster_mean
from ocd.neighbors import knn_query

from oracles import brute_ball, brute_clusters, closed_ball_csr, neighbor_csr_lexsort


def csr_row(indptr, cols, i):
    return cols[indptr[i]:indptr[i + 1]].tolist()


class NoPairQuery(cKDTree):
    """A KD-tree that fails any pair query made on it."""

    def query_pairs(self, *args, **kwargs):
        raise AssertionError("pair query")


def test_neighbor_csr_basic():
    idx = build_index(np.array([[0.0], [0.5], [2.0]]))
    assert csr_row(*neighbor_csr(idx, 0.6), 0) == [1]
    assert csr_row(*closed_ball_csr(*neighbor_csr(idx, 10.0)), 2) == [0, 1, 2]
    assert csr_row(*closed_ball_csr(*neighbor_csr(idx, 0.1)), 2) == [2]


def test_neighbor_csr_closed_ball_includes_boundary():
    idx = build_index(np.array([[0.0], [1.0]]))
    assert csr_row(*neighbor_csr(idx, 1.0), 0) == [1]


def test_neighbor_csr_rejects_nonpositive_epsilon():
    idx = build_index(np.array([[0.0], [1.0]]))
    for eps in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidConfig):
            neighbor_csr(idx, eps)


def test_build_index_errors():
    with pytest.raises(EmptyInput):
        build_index(np.zeros((0, 2)))
    with pytest.raises(EmptyInput):
        build_index(np.zeros(3))
    with pytest.raises(NonFiniteInput):
        build_index(np.array([[np.nan], [0.0]]))


def test_neighbor_csr_matches_per_row_queries():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 2))
    idx = build_index(pts)
    indptr, cols = closed_ball_csr(*neighbor_csr(idx, 0.5))
    for i in range(40):
        assert csr_row(indptr, cols, i) == brute_ball(pts, i, 0.5)


def test_neighbor_csr_infinite_epsilon_is_complete_graph():
    idx = build_index(np.random.default_rng(1).standard_normal((7, 3)))
    indptr, cols = closed_ball_csr(*neighbor_csr(idx, np.inf))
    for i in range(7):
        assert csr_row(indptr, cols, i) == list(range(7))


def test_neighbor_csr_all_singletons():
    idx = build_index(np.array([[0.0], [10.0], [20.0]]))
    upper = neighbor_csr(idx, 0.1)
    np.testing.assert_array_equal(upper[0], [0, 0, 0, 0])
    assert upper[1].size == 0
    indptr, cols = closed_ball_csr(*upper)
    np.testing.assert_array_equal(indptr, [0, 1, 2, 3])
    np.testing.assert_array_equal(cols, [0, 1, 2])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.05, max_value=3.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_neighbor_csr_equals_brute_force(n, dim, eps, seed):
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(n, dim))
    idx = build_index(pts)
    indptr, cols = closed_ball_csr(*neighbor_csr(idx, eps))
    for i in range(n):
        assert csr_row(indptr, cols, i) == brute_ball(pts, i, eps)


@st.composite
def clouds(draw):
    """(points, epsilon) with duplicates, exact ties, singletons or eps = inf."""
    kind = draw(st.sampled_from(["uniform", "duplicates", "lattice", "singletons"]))
    n = draw(st.integers(min_value=1, max_value=40))
    dim = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    if kind == "uniform":
        pts = rng.uniform(-2, 2, size=(n, dim))
    elif kind == "duplicates":
        base = rng.uniform(-2, 2, size=(max(1, n // 3), dim))
        pts = base[rng.integers(0, base.shape[0], size=n)]
    elif kind == "lattice":
        # half-integer grid points: axis neighbours sit exactly eps = 0.5 apart
        pts = rng.integers(0, 4, size=(n, dim)) * 0.5
    else:
        pts = np.zeros((n, dim))
        pts[:, 0] = 10.0 * np.arange(n)
    if kind == "lattice":
        eps = draw(st.sampled_from([0.5, 1.0, np.inf]))
    elif kind == "singletons":
        eps = draw(st.sampled_from([1.0, np.inf]))
    else:
        eps = draw(st.one_of(st.floats(min_value=0.05, max_value=3.0), st.just(np.inf)))
    return pts, eps


@settings(max_examples=120, deadline=None)
@given(clouds())
def test_neighbor_csr_equals_lexsort_construction(cloud):
    pts, eps = cloud
    indptr, cols = neighbor_csr(build_index(pts), eps)
    ref_indptr, ref_cols = neighbor_csr_lexsort(pts, eps)
    np.testing.assert_array_equal(indptr, ref_indptr)
    np.testing.assert_array_equal(cols, ref_cols)
    assert indptr[-1] == cols.size
    for i in range(pts.shape[0]):
        row = cols[indptr[i]:indptr[i + 1]]
        assert (np.diff(row) > 0).all()
        assert (row > i).all()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=1.1, max_value=4.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_neighbor_sets_grow_with_epsilon(n, eps, factor, seed):
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(n, 2))
    idx = build_index(pts)
    small = neighbor_csr(idx, eps)
    big = neighbor_csr(idx, eps * factor)
    for i in range(n):
        assert set(csr_row(*small, i)) <= set(csr_row(*big, i))


def test_neighbor_relation_is_symmetric():
    pts = np.random.default_rng(5).standard_normal((30, 2))
    idx = build_index(pts)
    upper = neighbor_csr(idx, 0.8)
    assert all(j > i for i in range(30) for j in csr_row(*upper, i))
    indptr, cols = closed_ball_csr(*upper)
    rows = {(i, j) for i in range(30) for j in csr_row(indptr, cols, i)}
    assert rows == {(j, i) for i, j in rows}


# box extents, in half units, whose diagonal is a whole number of half units
PYTHAGOREAN = {
    1: [(1,), (3,)],
    2: [(3, 4), (6, 8)],
    3: [(1, 2, 2), (2, 3, 6)],
    4: [(1, 1, 1, 1), (1, 1, 3, 5)],
    5: [(2, 2, 2, 2, 3), (1, 1, 3, 3, 4)],
}


@st.composite
def lattice_boxes(draw, exact=None):
    """(points, exact): a half-integer lattice cloud holding two opposite
    corners of its bounding box, whose diagonal is then a pair distance.
    ``exact`` boxes have a diagonal the float sqrt gives without rounding."""
    dim = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=2, max_value=30))
    if exact is None:
        exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    if exact:
        halves = np.array(draw(st.sampled_from(PYTHAGOREAN[dim])))
    else:
        halves = rng.integers(1, 5, size=dim)
    low = rng.integers(-8, 8, size=dim) * 0.5
    pts = low + rng.integers(0, halves + 1, size=(n, dim)) * 0.5
    pts[rng.permutation(n)[:2]] = [low, low + 0.5 * halves]
    return pts, exact


def _diagonal(pts):
    extent = pts.max(axis=0) - pts.min(axis=0)
    return np.sqrt(np.dot(extent, extent))


@settings(max_examples=300, deadline=None)
@given(lattice_boxes(), st.integers(min_value=0, max_value=5))
def test_neighbor_csr_at_the_bounding_box_diagonal(box, which):
    # epsilon one ulp below, at and above the diagonal (the tree decides),
    # then one ulp below, at and above the complete-graph margin
    pts, exact = box
    n, dim = pts.shape
    diag = _diagonal(pts)
    cut = diag * (1.0 + 1e-12 * dim)
    eps = [np.nextafter(diag, 0.0), diag, np.nextafter(diag, np.inf),
           np.nextafter(cut, 0.0), cut, np.nextafter(cut, np.inf)][which]
    if eps >= cut:
        # past the margin no pair query runs
        with mock.patch("ocd.neighbors.cKDTree", NoPairQuery):
            index = build_index(pts)
        indptr, cols = neighbor_csr(index, eps)
        assert cols.size == n * (n - 1) // 2
    else:
        indptr, cols = neighbor_csr(build_index(pts), eps)
    assert indptr.dtype == np.int32 and cols.dtype == np.int32
    ref_indptr, ref_cols = neighbor_csr_lexsort(pts, eps)
    np.testing.assert_array_equal(indptr, ref_indptr)
    np.testing.assert_array_equal(cols, ref_cols)
    ball_indptr, ball_cols = closed_ball_csr(indptr, cols)
    for i in range(n):
        row = cols[indptr[i]:indptr[i + 1]]
        assert (np.diff(row) > 0).all() and (row > i).all()
        if exact:
            # an exact diagonal is a tie both the tree and the scan resolve alike
            assert csr_row(ball_indptr, ball_cols, i) == brute_ball(pts, i, eps)
    if exact and eps >= diag:
        assert cols.size == n * (n - 1) // 2


@settings(max_examples=60, deadline=None)
@given(lattice_boxes(exact=True), st.integers(min_value=0, max_value=2**31))
def test_complete_graph_consumers_agree_on_both_paths(box, seed):
    # at the exact diagonal the pair query builds the complete graph; at
    # eps = inf the shortcut does; the components and cluster means of both
    # must equal the generic answers
    pts, _ = box
    n = pts.shape[0]
    index = build_index(pts)
    queried, shortcut = neighbor_csr(index, _diagonal(pts)), neighbor_csr(index, np.inf)
    for a, b in zip(queried, shortcut):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype
    indptr, cols = queried
    ref_count, ref_labels = connected_components(
        csr_matrix((np.ones(cols.size), cols, indptr), shape=(n, n)), directed=False)
    for graph in (queried, shortcut):
        count, labels = cluster_count_csr(*graph)
        assert count == ref_count == 1
        np.testing.assert_array_equal(labels, ref_labels)
        assert labels.dtype == ref_labels.dtype
    values = np.random.default_rng(seed).standard_normal((n, 4)) + pts[:, :1]
    indptr, cols = closed_ball_csr(indptr, cols)
    ref = np.array([values[cols[indptr[i]:indptr[i + 1]]].mean(axis=0) for i in range(n)])
    scale = np.abs(ref).max()
    for graph in (queried, shortcut):
        assert np.abs(_cluster_mean(values, *graph) - ref).max() <= 1e-15 * scale


def test_neighbor_csr_on_an_overflowing_extent():
    # the squared extent overflows: a finite cutoff cannot be decided, an
    # infinite one still joins every pair, and neither warns
    index = build_index(np.array([[-1e308], [1e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (1.0, 1e300):
            with pytest.raises(NonFiniteResult):
                neighbor_csr(index, eps)
        indptr, cols = closed_ball_csr(*neighbor_csr(index, np.inf))
    np.testing.assert_array_equal(indptr, [0, 2, 4])
    np.testing.assert_array_equal(cols, [0, 1, 0, 1])


def test_cluster_count_csr_matches_union_find():
    pts = np.array([[0.0], [0.1], [5.0]])
    idx = build_index(pts)
    n, labels = cluster_count_csr(*neighbor_csr(idx, 0.2))
    assert n == 2
    np.testing.assert_array_equal(labels, [0, 0, 1])
    n_ref, labels_ref = brute_clusters(pts, 0.2)
    assert n == n_ref
    np.testing.assert_array_equal(labels, labels_ref)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=25),
    st.floats(min_value=0.05, max_value=2.5),
    st.integers(min_value=0, max_value=2**31),
)
def test_cluster_labels_equal_brute_force(n, eps, seed):
    pts = np.random.default_rng(seed).uniform(-2, 2, size=(n, 2))
    idx = build_index(pts)
    count, labels = cluster_count_csr(*neighbor_csr(idx, eps))
    count_ref, labels_ref = brute_clusters(pts, eps)
    assert count == count_ref
    np.testing.assert_array_equal(labels, labels_ref)


def test_knn_query_bounds():
    idx = build_index(np.array([[0.0], [1.0], [2.0]]))
    with pytest.raises(InvalidConfig):
        knn_query(idx, [[0.0]], k=0)
    with pytest.raises(InvalidConfig):
        knn_query(idx, [[0.0]], k=4)
    dist, nn = knn_query(idx, [[1.0]], k=2)
    assert dist[0, 0] == 0.0 and nn[0, 0] == 1


def test_knn_query_second_column_is_the_nearest_other_point():
    idx = build_index(np.array([[0.0], [1.0], [3.0]]))
    np.testing.assert_allclose(knn_query(idx, idx.points, k=2)[0][:, 1], [1.0, 1.0, 2.0])
    lone = build_index(np.array([[7.0]]))
    np.testing.assert_array_equal(knn_query(lone, lone.points, k=1)[0], [[0.0]])
