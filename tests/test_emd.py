import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocd import (
    DimensionMismatch,
    NonFiniteInput,
    ShapeMismatch,
    SizeGuardExceeded,
    custom_cost_model,
    emd,
    joint_distance,
    l2_cost_model,
)
from oracles import hungarian_min_cost

L2 = l2_cost_model()


def test_emd_two_point_shift():
    # {0,1} -> {2,3}: identity assignment, mean cost (4+4)/2
    res = emd(np.array([[0.0], [1.0]]), np.array([[2.0], [3.0]]), L2)
    assert res.total_cost == pytest.approx(4.0)
    assert list(res.assignment) == [0, 1]


def test_emd_overlapping_supports():
    res = emd(np.array([[0.0], [1.0]]), np.array([[1.0], [2.0]]), L2)
    assert res.total_cost == pytest.approx(1.0)


def test_emd_1d_sorts_not_identity():
    x = np.array([[3.0], [0.0], [1.0]])
    y = np.array([[1.5], [3.5], [0.5]])
    res = emd(x, y, L2)
    # monotone pairing: 0->0.5, 1->1.5, 3->3.5
    assert list(res.assignment) == [1, 2, 0]
    assert res.total_cost == pytest.approx(0.25)


def test_emd_matches_cubic_hungarian_2d():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal((n, 2))
        res = emd(x, y, L2)
        cost_matrix = ((x[:, None, :] - y[None, :, :]) ** 2).sum(-1)
        assignment = hungarian_min_cost(cost_matrix)
        assert res.total_cost == pytest.approx(
            float(cost_matrix[np.arange(n), assignment].mean())
        )


def test_emd_1d_sort_agrees_with_assignment_solver():
    # force the generic path with an equivalent custom cost and compare
    rng = np.random.default_rng(6)
    x = rng.standard_normal((60, 1))
    y = rng.standard_normal((60, 1)) + 0.5
    sq = custom_cost_model(
        cost=lambda a, b: np.sum((a - b) ** 2, axis=-1),
        grad_x=lambda a, b: 2.0 * (a - b),
        grad_y=lambda a, b: 2.0 * (b - a),
        dim=1,
        vectorized=True,
    )
    assert emd(x, y, L2).total_cost == pytest.approx(emd(x, y, sq).total_cost)


def test_wasserstein2_gaussian_shift():
    # mean shift by 1 in 1D: W2^2 = 1, sampling error at N=400 stays small
    rng = np.random.default_rng(8)
    x = rng.standard_normal((400, 1))
    y = rng.standard_normal((400, 1)) + 1.0
    assert emd(x, y, L2).total_cost == pytest.approx(1.0, rel=0.15)


def test_joint_distance_translation():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((50, 2))
    y = rng.standard_normal((50, 2))
    pairs = np.hstack([x, y])
    shifted = np.hstack([x + 1.0, y - 1.0])
    # rigid shift v = (1,1,-1,-1) of the paired cloud costs exactly |v|^2
    assert joint_distance(pairs, shifted) == pytest.approx(4.0)


def test_joint_distance_zero_on_itself():
    rng = np.random.default_rng(10)
    pairs = rng.standard_normal((30, 4))
    assert joint_distance(pairs, pairs) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_emd_never_beaten_by_random_permutation(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal((n, 2))
    res = emd(x, y, L2)
    perm = rng.permutation(n)
    competitor = float(np.mean(np.sum((x - y[perm]) ** 2, axis=1)))
    assert res.total_cost <= competitor + 1e-9


def test_emd_input_validation():
    with pytest.raises(DimensionMismatch):
        emd(np.zeros((3, 1)), np.zeros((4, 1)), L2)
    with pytest.raises(ShapeMismatch):
        emd(np.zeros(3), np.zeros((3, 1)), L2)
    with pytest.raises(DimensionMismatch):
        emd(np.zeros((3, 1)), np.zeros((3, 2)), L2)
    with pytest.raises(NonFiniteInput):
        emd(np.array([[np.nan]]), np.array([[1.0]]), L2)


def test_emd_size_guard():
    big = np.zeros((5001, 1))
    with pytest.raises(SizeGuardExceeded):
        emd(big, big, L2)
