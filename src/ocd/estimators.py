"""Cluster-local estimators of E[grad_x c | X] and E[grad_y c | Y].

Both estimators work on the epsilon-ball clusters delivered by the spatial
index.  The piecewise-constant form averages pair gradients over the cluster;
the piecewise-linear form fits a ridge-regularized linear model of the
diagonal-pair gradient values against position within each cluster and
evaluates it at the query particle.

Note on the linear form: the per-cluster statistics regress the gradient
values grad c(X_j, Y_j) onto the conditioning positions, i.e. the linear
model is the L2 projection of the gradient onto affine functions of X
(respectively Y).  For the quadratic cost this is exactly the Gaussian
conditional-expectation formula applied to the cluster's joint sample, and
it degrades gracefully: a singleton cluster returns its own gradient (zero
velocity), and the infinite-ridge limit returns the cluster mean gradient.
"""

from __future__ import annotations

import numpy as np

from .core import KIND_L2
from .errors import NonFiniteResult, SingularSystem

# Condition-number ceiling above which the cluster solve falls back to a
# scaled ridge; see _linear_estimate.
_COND_LIMIT = 1e12


def _segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    # every segment is non-empty (each particle neighbors itself)
    return np.add.reduceat(values, indptr[:-1], axis=0)


def _piecewise_constant_from_csr(ensemble, cost, csr_x, csr_y):
    """Cluster-average estimates (k_x, k_y).

    k_x[i] averages grad_x c(X_i, Y_j) over j in the X-cluster of i, and
    k_y[i] averages grad_y c(X_j, Y_i) over the Y-cluster.
    """
    x, y = ensemble.x_samples, ensemble.y_samples
    indptr_x, cols_x = csr_x
    indptr_y, cols_y = csr_y
    cnt_x = np.diff(indptr_x)[:, None]
    cnt_y = np.diff(indptr_y)[:, None]
    if cost.kind == KIND_L2:
        # mean_j 2(X_i - Y_j) = 2(X_i - mean_j Y_j), so only neighbor means
        # of the partner positions are needed
        y_bar = _segment_sum(y[cols_x], indptr_x) / cnt_x
        x_bar = _segment_sum(x[cols_y], indptr_y) / cnt_y
        k_x = 2.0 * (x - y_bar)
        k_y = 2.0 * (y - x_bar)
    else:
        rows_x = np.repeat(np.arange(x.shape[0]), np.diff(indptr_x))
        rows_y = np.repeat(np.arange(x.shape[0]), np.diff(indptr_y))
        k_x = _segment_sum(cost.grad_x(x[rows_x], y[cols_x]), indptr_x) / cnt_x
        k_y = _segment_sum(cost.grad_y(x[cols_y], y[rows_y]), indptr_y) / cnt_y
    if not (np.isfinite(k_x).all() and np.isfinite(k_y).all()):
        raise NonFiniteResult("piecewise-constant estimate is not finite")
    return k_x, k_y


def _min_max_eig_sym(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extreme eigenvalues of a batch of small symmetric matrices.

    Closed forms for n <= 2 keep the hot path away from batched LAPACK.
    """
    n = mats.shape[-1]
    if n == 1:
        v = mats[:, 0, 0]
        return v, v
    if n == 2:
        a = mats[:, 0, 0]
        c = mats[:, 1, 1]
        b = mats[:, 0, 1]
        half_tr = 0.5 * (a + c)
        rad = np.sqrt(np.square(0.5 * (a - c)) + np.square(b))
        return half_tr - rad, half_tr + rad
    w = np.linalg.eigvalsh(mats)
    return w[:, 0], w[:, -1]


def _linear_estimate(
    pos: np.ndarray,
    grad: np.ndarray,
    indptr: np.ndarray,
    cols: np.ndarray,
    epsilon_hat: float,
) -> np.ndarray:
    """Ridge regression of diagonal-pair gradients on position, per cluster."""
    n_pts, dim = pos.shape
    cnt = np.diff(indptr)
    rows = np.repeat(np.arange(n_pts), cnt)
    cntf = cnt[:, None].astype(np.float64)

    m_pos = _segment_sum(pos[cols], indptr) / cntf
    m_grad = _segment_sum(grad[cols], indptr) / cntf
    dpos = pos[cols] - m_pos[rows]
    dgrad = grad[cols] - m_grad[rows]

    # population-normalized covariance blocks, one per particle
    s_pp = np.empty((n_pts, dim, dim))
    s_pg = np.empty((n_pts, dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            s_pp[:, a, b] = _segment_sum(dpos[:, a] * dpos[:, b], indptr) / cnt
            s_pp[:, b, a] = s_pp[:, a, b]
        for b in range(dim):
            s_pg[:, a, b] = _segment_sum(dpos[:, a] * dgrad[:, b], indptr) / cnt

    eye = np.eye(dim)
    system = s_pp + epsilon_hat * eye
    lo, hi = _min_max_eig_sym(system)
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = ~np.isfinite(lo) | (lo <= 0) | (hi / lo > _COND_LIMIT)
    if bad.any():
        # fall back to a ridge scaled by the cluster covariance magnitude
        tr = np.einsum("naa->n", s_pp)
        ridge = 1e-8 * tr / dim + 1e-12
        system = system.copy()
        system[bad] += ridge[bad, None, None] * eye

    rhs = pos - m_pos
    try:
        z = np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        if epsilon_hat == 0:
            raise SingularSystem(f"cluster covariance solve failed: {exc}") from exc
        raise NonFiniteResult(f"cluster covariance solve failed: {exc}") from exc
    est = m_grad + np.einsum("nab,na->nb", s_pg, z)
    if not np.isfinite(est).all():
        if epsilon_hat == 0:
            raise SingularSystem("regularized cluster solve produced non-finite values")
        raise NonFiniteResult("piecewise-linear estimate is not finite")
    return est


def _piecewise_linear_from_csr(ensemble, cost, csr_x, csr_y, epsilon_hat):
    """Per-cluster linear-regression estimates (k_x, k_y) with ridge epsilon_hat."""
    x, y = ensemble.x_samples, ensemble.y_samples
    g_x = cost.grad_x(x, y)   # diagonal pairs: gradients at (X_j, Y_j)
    g_y = cost.grad_y(x, y)
    k_x = _linear_estimate(x, g_x, csr_x[0], csr_x[1], epsilon_hat)
    k_y = _linear_estimate(y, g_y, csr_y[0], csr_y[1], epsilon_hat)
    return k_x, k_y
