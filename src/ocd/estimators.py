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

Both read clusters off neighbor_csr's upper triangle U and their statistics
off one kernel, _cluster_mean; only a custom-cost constant form uses _ball_mean.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from .core import KIND_L2
from .errors import NonFiniteResult

# Condition-number ceiling above which the cluster solve falls back to a
# scaled ridge; see _linear_estimate.
_COND_LIMIT = 1e12


def _cluster_mean(values: np.ndarray, indptr: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Closed-ball means of the (N, k) rows of ``values`` over neighbor_csr's
    U: (U @ values + U.T @ values + values) / ball sizes, no per-pair array.

    A U with N(N-1)/2 entries is complete, so every cluster mean is the
    column mean, broadcast to every row (a read-only view) in O(N k).
    """
    n = indptr.shape[0] - 1
    if cols.shape[0] == n * (n - 1) // 2:
        return np.broadcast_to(values.mean(axis=0), values.shape)
    upper = csr_matrix((np.ones(cols.shape[0]), cols, indptr), shape=(n, n))
    sizes = np.diff(indptr) + np.bincount(cols, minlength=n) + 1
    return (upper @ values + upper.T @ values + values) / sizes[:, None]


def _ball_mean(pair_values, indptr: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Closed-ball means of ``pair_values(i, j)`` per i, over the self pair
    and both orientations of every pair of neighbor_csr's U."""
    n = indptr.shape[0] - 1
    own = np.arange(n)
    rows = np.repeat(own, np.diff(indptr))
    heads = np.concatenate([own, rows, cols])
    values = pair_values(heads, np.concatenate([own, cols, rows]))
    sums = np.zeros((n, values.shape[1]))
    np.add.at(sums, heads, values)
    return sums / np.bincount(heads, minlength=n)[:, None]


def _piecewise_constant_from_csr(ensemble, cost, csr_x, csr_y):
    """Cluster-average estimates (k_x, k_y).

    k_x[i] averages grad_x c(X_i, Y_j) over j in the X-cluster of i, and
    k_y[i] averages grad_y c(X_j, Y_i) over the Y-cluster.
    """
    x, y = ensemble.x_samples, ensemble.y_samples
    if cost.kind == KIND_L2:
        # mean_j 2(X_i - Y_j) = 2(X_i - mean_j Y_j), so only neighbor means
        # of the partner positions are needed
        k_x = 2.0 * (x - _cluster_mean(y, *csr_x))
        k_y = 2.0 * (y - _cluster_mean(x, *csr_y))
    else:
        k_x = _ball_mean(lambda i, j: cost.grad_x(x[i], y[j]), *csr_x)
        k_y = _ball_mean(lambda i, j: cost.grad_y(x[j], y[i]), *csr_y)
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


def _linear_estimate(pos: np.ndarray, grad: np.ndarray, indptr: np.ndarray,
                     cols: np.ndarray, epsilon_hat: float) -> np.ndarray:
    """Ridge regression of diagonal-pair gradients on position, per cluster.

    One _cluster_mean call averages [p, g, p p^T, p g^T], p and g being pos
    and grad minus their global means.  The covariances are raw moments minus
    products of means (s_pp = E[p p^T] - m_p m_p^T), so a cluster at distance
    r from the global mean, of spread s, loses ~(r / s)**2 * 2**-52 in them.
    """
    n_pts, dim = pos.shape
    g_mean = grad.mean(axis=0)
    p = pos - pos.mean(axis=0)
    g = grad - g_mean
    moments = _cluster_mean(
        np.hstack([p, g, (p[:, :, None] * p[:, None, :]).reshape(n_pts, -1),
                   (p[:, :, None] * g[:, None, :]).reshape(n_pts, -1)]),
        indptr, cols,
    )
    m_p, m_g, e_pp, e_pg = np.split(moments, [dim, 2 * dim, 2 * dim + dim * dim], axis=1)
    # population-normalized covariance blocks, one per particle
    s_pp = e_pp.reshape(n_pts, dim, dim) - m_p[:, :, None] * m_p[:, None, :]
    s_pg = e_pg.reshape(n_pts, dim, dim) - m_p[:, :, None] * m_g[:, None, :]

    eye = np.eye(dim)
    system = s_pp + epsilon_hat * eye
    lo, hi = _min_max_eig_sym(system)
    with np.errstate(divide="ignore", invalid="ignore"):
        # written so that a NaN or infinite eigenvalue marks the cluster bad
        bad = ~((lo > 0) & (hi / lo <= _COND_LIMIT))
    if bad.any():
        # fall back to a ridge scaled by the cluster covariance magnitude
        ridge = 1e-8 * np.einsum("naa->n", s_pp) / dim + 1e-12
        system[bad] += ridge[bad, None, None] * eye

    try:
        z = np.linalg.solve(system, (p - m_p)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise NonFiniteResult(f"cluster covariance solve failed: {exc}") from exc
    return g_mean + m_g + np.einsum("nab,na->nb", s_pg, z)


def _piecewise_linear_from_csr(ensemble, cost, csr_x, csr_y, epsilon_hat):
    """Per-cluster linear-regression estimates (k_x, k_y) with ridge epsilon_hat."""
    x, y = ensemble.x_samples, ensemble.y_samples
    # diagonal pairs: gradients at (X_j, Y_j)
    k_x = _linear_estimate(x, cost.grad_x(x, y), *csr_x, epsilon_hat)
    k_y = _linear_estimate(y, cost.grad_y(x, y), *csr_y, epsilon_hat)
    return k_x, k_y
