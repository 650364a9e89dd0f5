import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix

from ocd import (
    SolverConfig,
    custom_cost_model,
    l2_cost_model,
    new_ensemble,
    ocd_velocity,
)
from ocd.estimators import _linear_estimate, _piecewise_constant_from_csr
from ocd.neighbors import build_index, neighbor_csr

from oracles import closed_ball_csr, constant_estimate_l2_loop, linear_estimate_loop

L2 = l2_cost_model()


def _estimate(ens, cost, epsilon, estimator, epsilon_hat=0.0):
    # the velocity is v = k - grad c, so the estimate is k = v + grad c
    config = SolverConfig(epsilon=epsilon, estimator=estimator, epsilon_hat=epsilon_hat)
    v = ocd_velocity(ens, cost, config)
    x, y = ens.x_samples, ens.y_samples
    return v.v_x + cost.grad_x(x, y), v.v_y + cost.grad_y(x, y)


def estimate_piecewise_constant(ens, cost, epsilon):
    """(k_x, k_y) of the cluster-average estimator."""
    return _estimate(ens, cost, epsilon, "constant")


def estimate_piecewise_linear(ens, cost, epsilon, epsilon_hat=0.0):
    """(k_x, k_y) of the per-cluster linear-regression estimator."""
    return _estimate(ens, cost, epsilon, "linear", epsilon_hat)


def test_constant_estimator_cluster_average():
    # X-cluster {1, 2} with partners {1, 3}: k_x[0] = mean 2(1 - Y_j) = -2
    ens = new_ensemble(np.array([[1.0], [2.0]]), np.array([[1.0], [3.0]]))
    k_x, k_y = estimate_piecewise_constant(ens, L2, epsilon=1.5)
    assert k_x[0, 0] == pytest.approx(-2.0)
    assert k_x[1, 0] == pytest.approx(0.0)   # mean 2(2 - Y_j)


def test_constant_estimator_singleton_returns_own_gradient():
    ens = new_ensemble(np.array([[0.0], [10.0]]), np.array([[1.0], [2.0]]))
    k_x, k_y = estimate_piecewise_constant(ens, L2, epsilon=0.5)
    np.testing.assert_allclose(k_x, L2.grad_x(ens.x_samples, ens.y_samples))
    np.testing.assert_allclose(k_y, L2.grad_y(ens.x_samples, ens.y_samples))


def test_constant_estimator_two_particle_global_cluster():
    ens = new_ensemble(np.array([[-1.0], [1.0]]), np.array([[1.0], [-1.0]]))
    k_x, k_y = estimate_piecewise_constant(ens, L2, epsilon=np.inf)
    v_x = k_x - L2.grad_x(ens.x_samples, ens.y_samples)
    v_y = k_y - L2.grad_y(ens.x_samples, ens.y_samples)
    np.testing.assert_allclose(v_x, [[2.0], [-2.0]])
    np.testing.assert_allclose(v_y, [[-2.0], [2.0]])


def test_constant_estimator_custom_cost_matches_direct_average():
    quartic = custom_cost_model(
        cost=lambda x, y: np.sum((x - y) ** 4, axis=-1),
        grad_x=lambda x, y: 4.0 * (x - y) ** 3,
        grad_y=lambda x, y: -4.0 * (x - y) ** 3,
        dim=2,
        vectorized=True,
    )
    rng = np.random.default_rng(2)
    x = rng.standard_normal((12, 2))
    y = rng.standard_normal((12, 2))
    ens = new_ensemble(x, y)
    eps = 1.0
    k_x, k_y = estimate_piecewise_constant(ens, quartic, epsilon=eps)
    for i in range(12):
        ball = np.nonzero(np.linalg.norm(x - x[i], axis=1) <= eps)[0]
        ref = quartic.grad_x(np.broadcast_to(x[i], (ball.size, 2)), y[ball]).mean(axis=0)
        np.testing.assert_allclose(k_x[i], ref, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.3, 1.0, np.inf]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31),
)
def test_custom_cost_constant_estimate_matches_closed_ball_averages(n, dim, eps, dups, seed):
    # k_x[i] averages grad_x c(X_i, Y_j) over the closed X-ball of i and
    # k_y[i] averages grad_y c(X_j, Y_i) over the closed Y-ball, each ball
    # found by scanning every distance; dups repeats rows exactly
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (n, dim))
    y = rng.uniform(-1, 1, (n, dim))
    if dups:
        x = x[rng.integers(0, max(1, n // 3), size=n)]
        y = y[rng.integers(0, max(1, n // 3), size=n)]
    quartic = custom_cost_model(
        cost=lambda a, b: np.sum((a - b) ** 4, axis=-1),
        grad_x=lambda a, b: 4.0 * (a - b) ** 3,
        grad_y=lambda a, b: -4.0 * (a - b) ** 3,
        dim=dim,
        vectorized=True,
    )
    csr_x = neighbor_csr(build_index(x), eps)
    csr_y = neighbor_csr(build_index(y), eps)
    k_x, k_y = _piecewise_constant_from_csr(new_ensemble(x, y), quartic, csr_x, csr_y)
    for i in range(n):
        ball_x = np.nonzero(np.linalg.norm(x - x[i], axis=1) <= eps)[0]
        ball_y = np.nonzero(np.linalg.norm(y - y[i], axis=1) <= eps)[0]
        ref_x = quartic.grad_x(np.broadcast_to(x[i], (ball_x.size, dim)), y[ball_x]).mean(axis=0)
        ref_y = quartic.grad_y(x[ball_y], np.broadcast_to(y[i], (ball_y.size, dim))).mean(axis=0)
        np.testing.assert_allclose(k_x[i], ref_x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(k_y[i], ref_y, rtol=1e-12, atol=1e-12)


def test_linear_estimator_recovers_affine_coupling():
    # Y = 2 X + 1 exactly; the fitted line reproduces the diagonal gradients,
    # so every velocity vanishes and the coupling is stationary
    x = np.array([[0.0], [1.0], [2.0]])
    y = 2.0 * x + 1.0
    ens = new_ensemble(x, y)
    k_x, k_y = estimate_piecewise_linear(ens, L2, epsilon=np.inf)
    np.testing.assert_allclose(k_x, 2.0 * (x - y), atol=1e-12)
    v_x = k_x - L2.grad_x(x, y)
    np.testing.assert_allclose(v_x, np.zeros_like(x), atol=1e-12)


def test_linear_estimator_singleton_is_frozen():
    x = np.array([[0.0], [50.0]])
    y = np.array([[3.0], [-7.0]])
    ens = new_ensemble(x, y)
    k_x, k_y = estimate_piecewise_linear(ens, L2, epsilon=1.0)
    np.testing.assert_allclose(k_x, L2.grad_x(x, y))
    np.testing.assert_allclose(k_y, L2.grad_y(x, y))


def test_linear_estimator_interpolates_two_point_clusters():
    # a line through two 1-D points is exact at both, so k equals the own
    # gradient and the pair does not move
    x = np.array([[0.0], [1.0]])
    y = np.array([[5.0], [-2.0]])
    ens = new_ensemble(x, y)
    k_x, k_y = estimate_piecewise_linear(ens, L2, epsilon=np.inf)
    np.testing.assert_allclose(k_x, L2.grad_x(x, y), atol=1e-10)
    np.testing.assert_allclose(k_y, L2.grad_y(x, y), atol=1e-10)


def test_linear_estimator_large_ridge_limit_is_cluster_mean():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 2))
    y = rng.standard_normal((20, 2))
    ens = new_ensemble(x, y)
    k_x, k_y = estimate_piecewise_linear(ens, L2, epsilon=np.inf, epsilon_hat=1e12)
    g = L2.grad_x(x, y)
    np.testing.assert_allclose(k_x, np.broadcast_to(g.mean(axis=0), g.shape),
                               atol=1e-9)


def test_linear_estimator_handles_duplicate_points():
    # zero within-cluster covariance exercises the fallback ridge
    x = np.zeros((4, 2))
    y = np.random.default_rng(0).standard_normal((4, 2))
    ens = new_ensemble(x, y)
    k_x, k_y = estimate_piecewise_linear(ens, L2, epsilon=0.5)
    g = L2.grad_x(x, y)
    np.testing.assert_allclose(k_x, np.broadcast_to(g.mean(axis=0), g.shape),
                               atol=1e-6)


@pytest.mark.parametrize("maker", [estimate_piecewise_constant, estimate_piecewise_linear])
def test_estimators_translation_invariant(maker):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((15, 2))
    y = rng.standard_normal((15, 2))
    shift = np.array([3.0, -4.0])
    a = maker(new_ensemble(x, y), L2, 0.8)
    b = maker(new_ensemble(x + shift, y + shift), L2, 0.8)
    np.testing.assert_allclose(a[0], b[0], atol=1e-9)
    np.testing.assert_allclose(a[1], b[1], atol=1e-9)


@pytest.mark.parametrize("maker", [estimate_piecewise_constant, estimate_piecewise_linear])
def test_velocities_sum_to_zero_over_global_cluster(maker):
    # the estimate is an L2 projection, so residual velocities average out
    rng = np.random.default_rng(13)
    x = rng.standard_normal((30, 3))
    y = rng.standard_normal((30, 3))
    ens = new_ensemble(x, y)
    k_x, k_y = maker(ens, L2, np.inf)
    v_x = k_x - L2.grad_x(x, y)
    v_y = k_y - L2.grad_y(x, y)
    np.testing.assert_allclose(v_x.sum(axis=0), np.zeros(3), atol=1e-10)
    np.testing.assert_allclose(v_y.sum(axis=0), np.zeros(3), atol=1e-10)


def test_velocities_sum_to_zero_per_isolated_cluster():
    # two well-separated groups: the mean-zero property holds group by group
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.normal(0, 0.1, (8, 1)), rng.normal(100, 0.1, (6, 1))])
    y = rng.standard_normal((14, 1))
    ens = new_ensemble(x, y)
    k_x, k_y = estimate_piecewise_linear(ens, L2, epsilon=5.0)
    v_x = k_x - L2.grad_x(x, y)
    assert abs(v_x[:8].sum()) < 1e-9
    assert abs(v_x[8:].sum()) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=18),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.integers(min_value=0, max_value=2**31),
)
def test_linear_estimator_finite_on_random_inputs(n, dim, eps, eps_hat, seed):
    # never raises and always returns finite numbers, ridge or not
    rng = np.random.default_rng(seed)
    ens = new_ensemble(rng.uniform(-2, 2, (n, dim)), rng.uniform(-2, 2, (n, dim)))
    k_x, k_y = estimate_piecewise_linear(ens, L2, epsilon=eps, epsilon_hat=eps_hat)
    assert np.isfinite(k_x).all()
    assert np.isfinite(k_y).all()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
    st.integers(min_value=0, max_value=2**31),
)
def test_linear_estimate_matches_per_cluster_loop(dim, eps_hat, seed):
    # a random symmetric pair set over spread points, plus two groups of
    # three exact duplicates on a quarter grid, each joined to itself only,
    # whose cluster means are exact: their covariance is zero, so at
    # eps_hat = 0 they take the fallback ridge
    rng = np.random.default_rng(seed)
    n_spread = 30
    dups = np.repeat(rng.integers(-4, 5, size=(2, dim)) / 4.0, 3, axis=0)
    pos = np.vstack([rng.standard_normal((n_spread, dim)), dups])
    grad = rng.standard_normal(pos.shape)
    ii, jj = np.triu_indices(n_spread, k=1)
    keep = rng.random(ii.size) < rng.uniform(0.6, 0.9)
    groups = n_spread + np.array([[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
    pairs = (np.concatenate([ii[keep], groups[:, 0]]), np.concatenate([jj[keep], groups[:, 1]]))
    upper = coo_matrix((np.ones(pairs[0].size), pairs), shape=(pos.shape[0],) * 2).tocsr()
    indptr, cols = upper.indptr, upper.indices
    est = _linear_estimate(pos, grad, indptr, cols, eps_hat)
    ref = linear_estimate_loop(pos, grad, *closed_ball_csr(indptr, cols), eps_hat)
    np.testing.assert_allclose(est, ref, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.3, 1.0, np.inf]),
    st.integers(min_value=0, max_value=2**31),
)
def test_l2_constant_estimate_matches_direct_partner_means(n, dim, eps, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, (n, dim))
    y = rng.uniform(-2, 2, (n, dim))
    csr_x = neighbor_csr(build_index(x), eps)
    csr_y = neighbor_csr(build_index(y), eps)
    k_x, k_y = _piecewise_constant_from_csr(new_ensemble(x, y), L2, csr_x, csr_y)
    ref_x, ref_y = constant_estimate_l2_loop(x, y, closed_ball_csr(*csr_x),
                                             closed_ball_csr(*csr_y))
    np.testing.assert_allclose(k_x, ref_x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(k_y, ref_y, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("eps_hat", [0.0, 1e-3])
@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_linear_estimate_precision_far_from_global_mean(dim, eps_hat, seed):
    # two tight groups (spread 0.1) 1000 apart, one cluster each: every
    # position lies 500 from the global mean, so the raw second moments
    # cancel (500 / 0.1)**2 = 2.5e7 of their magnitude; the groups sit
    # 1e4 from the origin, so moments not shifted by the global mean fail
    rng = np.random.default_rng(seed)
    pos = np.vstack([rng.normal(1e4, 0.1, (20, dim)),
                     rng.normal(1.1e4, 0.1, (20, dim))])
    grad = L2.grad_x(pos, rng.standard_normal(pos.shape))
    upper = neighbor_csr(build_index(pos), 10.0)
    ball = closed_ball_csr(*upper)
    assert np.diff(ball[0]).tolist() == [20] * 40
    est = _linear_estimate(pos, grad, *upper, eps_hat)
    ref = linear_estimate_loop(pos, grad, *ball, eps_hat)
    np.testing.assert_allclose(est, ref, rtol=1e-9)
