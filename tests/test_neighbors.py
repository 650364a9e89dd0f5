import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocd import (
    EmptyInput,
    IndexOutOfRange,
    InvalidConfig,
    NonFiniteInput,
    build_index,
    cluster_count_csr,
    neighbor_csr,
    radius_neighbors,
)
from ocd.neighbors import knn_query, nearest_neighbor_distances

from oracles import brute_ball, brute_clusters


def csr_row(indptr, cols, i):
    return cols[indptr[i]:indptr[i + 1]].tolist()


def test_radius_neighbors_basic():
    idx = build_index(np.array([[0.0], [0.5], [2.0]]))
    assert radius_neighbors(idx, 0, 0.6) == [0, 1]
    assert radius_neighbors(idx, 2, 10.0) == [0, 1, 2]
    assert radius_neighbors(idx, 2, 0.1) == [2]


def test_radius_neighbors_closed_ball_includes_boundary():
    idx = build_index(np.array([[0.0], [1.0]]))
    assert radius_neighbors(idx, 0, 1.0) == [0, 1]


def test_radius_neighbors_errors():
    idx = build_index(np.array([[0.0], [1.0]]))
    with pytest.raises(IndexOutOfRange):
        radius_neighbors(idx, 2, 1.0)
    with pytest.raises(IndexOutOfRange):
        radius_neighbors(idx, -1, 1.0)
    with pytest.raises(InvalidConfig):
        radius_neighbors(idx, 0, 0.0)


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
    indptr, cols = neighbor_csr(idx, 0.5)
    for i in range(40):
        assert csr_row(indptr, cols, i) == radius_neighbors(idx, i, 0.5)


def test_neighbor_csr_infinite_epsilon_is_complete_graph():
    idx = build_index(np.random.default_rng(1).standard_normal((7, 3)))
    indptr, cols = neighbor_csr(idx, np.inf)
    for i in range(7):
        assert csr_row(indptr, cols, i) == list(range(7))


def test_neighbor_csr_all_singletons():
    idx = build_index(np.array([[0.0], [10.0], [20.0]]))
    indptr, cols = neighbor_csr(idx, 0.1)
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
    indptr, cols = neighbor_csr(idx, eps)
    for i in range(n):
        assert csr_row(indptr, cols, i) == brute_ball(pts, i, eps)


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
    indptr, cols = neighbor_csr(idx, 0.8)
    rows = {(i, j) for i in range(30) for j in csr_row(indptr, cols, i)}
    assert rows == {(j, i) for i, j in rows}


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


def test_nearest_neighbor_distances():
    idx = build_index(np.array([[0.0], [1.0], [3.0]]))
    np.testing.assert_allclose(nearest_neighbor_distances(idx), [1.0, 1.0, 2.0])
    lone = build_index(np.array([[7.0]]))
    np.testing.assert_array_equal(nearest_neighbor_distances(lone), [0.0])
