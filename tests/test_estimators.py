import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocd import (
    SolverConfig,
    custom_cost_model,
    l2_cost_model,
    new_ensemble,
    ocd_velocity,
)

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
