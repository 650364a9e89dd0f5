import numpy as np
import pytest

from ocd import (
    GaussianPair,
    InvalidConfig,
    SingularCovariance,
    gaussian_ot_optimum,
    integrate_riccati,
    kappa_closed_form,
    riccati_rhs,
    riccati_stationary_point,
)

UNIT_1D = GaussianPair(np.eye(1), np.eye(1))


def test_rhs_at_zero_is_sum_of_covariances():
    pair = GaussianPair(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    np.testing.assert_allclose(riccati_rhs(np.zeros((2, 2)), pair), np.diag([4.0, 6.0]))


def test_rhs_scalar_value():
    # 2 - 0.25 - 0.25 with unit variances and j = 0.5
    np.testing.assert_allclose(riccati_rhs(np.array([[0.5]]), UNIT_1D), [[1.5]])


def test_rhs_vanishes_at_stationary_point():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    pair = GaussianPair(a @ a.T + 3.0 * np.eye(3), b @ b.T + 2.0 * np.eye(3))
    j_star = riccati_stationary_point(pair)
    np.testing.assert_allclose(riccati_rhs(j_star, pair), np.zeros((3, 3)), atol=1e-10)


def test_scalar_trajectory_matches_tanh():
    times, traj = integrate_riccati(UNIT_1D, np.zeros((1, 1)), dt=1e-3, t_final=1.0)
    assert times[-1] == pytest.approx(1.0)
    for t, j in zip(times, traj[:, 0, 0]):
        assert j == pytest.approx(np.tanh(2.0 * t), abs=1e-8)


def test_scalar_trajectory_unequal_variances():
    # kappa = J / (s_mu s_nu) follows tanh(c t) with c = (s_mu^2+s_nu^2)/(s_mu s_nu)
    s_mu, s_nu = 1.0, 2.0
    pair = GaussianPair([[s_mu**2]], [[s_nu**2]])
    times, traj = integrate_riccati(pair, np.zeros((1, 1)), dt=1e-3, t_final=0.75)
    kappa = traj[-1, 0, 0] / (s_mu * s_nu)
    assert kappa == pytest.approx(kappa_closed_form(s_mu, s_nu, 0.75), abs=1e-8)


def test_kappa_closed_form_values():
    assert kappa_closed_form(1.0, 1.0, 0.5) == pytest.approx(np.tanh(1.0))
    assert kappa_closed_form(1.0, 1.0, 0.0) == 0.0
    assert kappa_closed_form(2.0, 3.0, 10.0) == pytest.approx(1.0)


def test_kappa_closed_form_rejects_bad_arguments():
    with pytest.raises(InvalidConfig):
        kappa_closed_form(0.0, 1.0, 1.0)
    with pytest.raises(InvalidConfig):
        kappa_closed_form(1.0, 1.0, -0.1)


@pytest.mark.parametrize("sigma", [np.nan, np.inf])
def test_kappa_closed_form_rejects_non_finite_sigmas(sigma):
    with pytest.raises(InvalidConfig, match="finite"):
        kappa_closed_form(sigma, 1.0, 1.0)
    with pytest.raises(InvalidConfig, match="finite"):
        kappa_closed_form(1.0, sigma, 1.0)


def test_ot_optimum_commuting_diagonals():
    pair = GaussianPair(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
    j_opt, d2 = gaussian_ot_optimum(pair)
    np.testing.assert_allclose(j_opt, np.diag([2.0, 2.0]), atol=1e-12)
    assert d2 == pytest.approx(2.0)


def test_ot_optimum_scalar_is_squared_sigma_gap():
    pair = GaussianPair([[4.0]], [[9.0]])
    j_opt, d2 = gaussian_ot_optimum(pair)
    assert d2 == pytest.approx(1.0)      # (2 - 3)^2
    assert j_opt[0, 0] == pytest.approx(6.0)  # s_mu * s_nu


def test_ot_optimum_zero_for_identical_covariances():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    j_opt, d2 = gaussian_ot_optimum(GaussianPair(cov, cov))
    assert d2 == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(j_opt, cov, atol=1e-12)


def test_stationary_point_matches_optimum_when_commuting():
    pair = GaussianPair(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
    j_opt, _ = gaussian_ot_optimum(pair)
    np.testing.assert_allclose(riccati_stationary_point(pair), j_opt, atol=1e-12)


def test_flow_converges_to_stationary_point():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2))
    pair = GaussianPair(a @ a.T + 2.0 * np.eye(2), np.diag([0.5, 3.0]))
    _, traj = integrate_riccati(pair, np.zeros((2, 2)), dt=1e-3, t_final=12.0)
    np.testing.assert_allclose(traj[-1], riccati_stationary_point(pair), atol=1e-8)


def test_pair_validation():
    with pytest.raises(SingularCovariance):
        GaussianPair(np.zeros((2, 2)), np.eye(2))          # singular
    with pytest.raises(SingularCovariance):
        GaussianPair(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))  # asymmetric
    with pytest.raises(SingularCovariance):
        GaussianPair(np.ones((2, 3)), np.eye(2))           # not square
    with pytest.raises(SingularCovariance):
        GaussianPair([[-1.0]], [[1.0]])                    # negative


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_pair_rejects_non_finite_covariances(value):
    # checked before symmetry: a NaN entry is not an asymmetric matrix
    with pytest.raises(InvalidConfig, match="sigma_mu"):
        GaussianPair([[value]], [[1.0]])
    with pytest.raises(InvalidConfig, match="sigma_nu"):
        GaussianPair(np.eye(2), np.diag([1.0, value]))


def test_integrate_rejects_bad_steps():
    with pytest.raises(InvalidConfig):
        integrate_riccati(UNIT_1D, np.zeros((1, 1)), dt=0.0, t_final=1.0)
    with pytest.raises(InvalidConfig):
        integrate_riccati(UNIT_1D, np.zeros((1, 1)), dt=0.1, t_final=-1.0)


@pytest.mark.parametrize("dt, t_final", [
    (np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf),
])
def test_integrate_rejects_non_finite_steps(dt, t_final):
    with pytest.raises(InvalidConfig, match="finite"):
        integrate_riccati(UNIT_1D, np.zeros((1, 1)), dt=dt, t_final=t_final)
