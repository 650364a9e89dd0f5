"""Analytic oracles for centered Gaussian marginals.

For Gaussian marginals the cross-covariance J_t of the coupling closes into
a matrix-Riccati ODE, which in 1D reduces to a scalar equation with a tanh
solution.  The exact Gaussian transport optimum (Bures form) is provided as
an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonFiniteState, SingularCovariance


def _sqrtm_spd(a: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition; input must be SPD-ish."""
    w, v = np.linalg.eigh(a)
    if w[0] < -1e-10 * max(1.0, abs(w[-1])):
        raise SingularCovariance(f"matrix is not positive semi-definite (min eig {w[0]})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


@dataclass(frozen=True)
class GaussianPair:
    """Covariances of two centered Gaussian marginals (SPD, checked)."""

    sigma_mu: np.ndarray  # (n, n)
    sigma_nu: np.ndarray  # (n, n)

    def __post_init__(self):
        for name in ("sigma_mu", "sigma_nu"):
            mat = np.atleast_2d(np.asarray(getattr(self, name), dtype=np.float64))
            if mat.shape[0] != mat.shape[1]:
                raise SingularCovariance(f"{name} must be square, got {mat.shape}")
            if not np.isfinite(mat).all():
                raise InvalidConfig(f"{name} contains NaN or Inf")
            if not np.allclose(mat, mat.T, rtol=1e-12, atol=1e-12):
                raise SingularCovariance(f"{name} must be symmetric")
            if np.linalg.eigvalsh(mat)[0] <= 0:
                raise SingularCovariance(f"{name} must be positive definite")
            object.__setattr__(self, name, mat)

    @property
    def dim(self) -> int:
        return self.sigma_mu.shape[0]


def riccati_rhs(j: np.ndarray, pair: GaussianPair) -> np.ndarray:
    """Right-hand side S_mu + S_nu - J^T S_mu^-1 J - J S_nu^-1 J^T."""
    j = np.atleast_2d(np.asarray(j, dtype=np.float64))
    if j.shape != (pair.dim, pair.dim):
        raise InvalidConfig(f"J must be {pair.dim}x{pair.dim}, got {j.shape}")
    inv_mu_j = np.linalg.solve(pair.sigma_mu, j)
    inv_nu_jt = np.linalg.solve(pair.sigma_nu, j.T)
    return pair.sigma_mu + pair.sigma_nu - j.T @ inv_mu_j - j @ inv_nu_jt


def integrate_riccati(
    pair: GaussianPair, j0: np.ndarray, dt: float, t_final: float
) -> tuple[np.ndarray, np.ndarray]:
    """Classic RK4 trajectory of the Riccati flow from j0.

    Returns (times, traj) where traj[k] is J at times[k]; the step count is
    round(t_final / dt).
    """
    if not 0 < dt < np.inf:
        raise InvalidConfig(f"dt must be finite and > 0, got {dt}")
    if not 0 <= t_final < np.inf:
        raise InvalidConfig(f"t_final must be finite and >= 0, got {t_final}")
    j = np.atleast_2d(np.asarray(j0, dtype=np.float64)).copy()
    n_steps = int(round(t_final / dt))
    times = dt * np.arange(n_steps + 1)
    traj = np.empty((n_steps + 1, pair.dim, pair.dim))
    traj[0] = j
    for k in range(n_steps):
        k1 = riccati_rhs(j, pair)
        k2 = riccati_rhs(j + 0.5 * dt * k1, pair)
        k3 = riccati_rhs(j + 0.5 * dt * k2, pair)
        k4 = riccati_rhs(j + dt * k3, pair)
        j = j + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(j).all():
            raise NonFiniteState(f"Riccati trajectory diverged at step {k + 1}")
        traj[k + 1] = j
    return times, traj


def kappa_closed_form(sigma_mu: float, sigma_nu: float, t: float) -> float:
    """1D correlation kappa(t) = tanh(c t), c = (s_mu^2 + s_nu^2)/(s_mu s_nu).

    This is the kappa(0) = 0 solution of d kappa/dt = c (1 - kappa^2); it
    rises monotonically to the stationary value 1.
    """
    if not (0 < sigma_mu < np.inf and 0 < sigma_nu < np.inf):
        raise InvalidConfig("standard deviations must be finite and > 0")
    if t < 0:
        raise InvalidConfig(f"t must be >= 0, got {t}")
    c = (sigma_mu**2 + sigma_nu**2) / (sigma_mu * sigma_nu)
    return float(np.tanh(c * t))


def gaussian_ot_optimum(pair: GaussianPair) -> tuple[np.ndarray, float]:
    """Exact transport optimum between the two centered Gaussians.

    Returns (J_opt, d2): the cross-covariance of (X, T X) under the optimal
    linear map T, and the squared distance
    d2 = tr S_mu + tr S_nu - 2 tr (S_mu^1/2 S_nu S_mu^1/2)^1/2.

    J_opt is symmetric exactly when the two covariances commute; the Riccati
    flow's stationary point coincides with it only in that case.
    """
    root_mu = _sqrtm_spd(pair.sigma_mu)
    middle = _sqrtm_spd(root_mu @ pair.sigma_nu @ root_mu)
    d2 = float(np.trace(pair.sigma_mu) + np.trace(pair.sigma_nu) - 2.0 * np.trace(middle))
    # J_opt = S_mu A = S_mu^1/2 (S_mu^1/2 S_nu S_mu^1/2)^1/2 S_mu^-1/2
    j_opt = root_mu @ np.linalg.solve(root_mu, middle.T).T
    return j_opt, d2


def riccati_stationary_point(pair: GaussianPair) -> np.ndarray:
    """Symmetric fixed point of the Riccati flow.

    Solves J (S_mu^-1 + S_nu^-1) J = S_mu + S_nu for the unique SPD J; this
    is where integrate_riccati lands from J0 = 0.  For commuting covariances
    it equals the transport optimum's J_opt.
    """
    a = np.linalg.inv(pair.sigma_mu) + np.linalg.inv(pair.sigma_nu)
    b = pair.sigma_mu + pair.sigma_nu
    root_a = _sqrtm_spd(a)
    inner = _sqrtm_spd(root_a @ b @ root_a)
    inv_root_a = np.linalg.inv(root_a)
    return inv_root_a @ inner @ inv_root_a
