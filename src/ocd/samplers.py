"""Seeded generators for the built-in test marginals.

These back the `sample` subcommand.  The curved targets (banana, funnel,
swiss roll) follow the usual literature parameterizations; the constants
are conventions of this package, recorded in run manifests, and nothing
quantitative in the test suite depends on them.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig

BANANA_CURVATURE = 0.5
FUNNEL_SCALE = 3.0
SWISS_ROLL_TURNS = (1.5 * np.pi, 4.5 * np.pi)
SWISS_ROLL_NOISE = 0.05


def sample_normal(n: int, mean, cov, seed: int = 0) -> np.ndarray:
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    cov = np.atleast_2d(np.asarray(cov, dtype=np.float64))
    if cov.shape != (mean.size, mean.size):
        raise InvalidConfig(
            f"cov shape {cov.shape} incompatible with mean of size {mean.size}"
        )
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise InvalidConfig("mean and cov must be finite")
    rng = np.random.default_rng(seed)
    try:
        return rng.multivariate_normal(mean, cov, size=n, method="cholesky")
    except np.linalg.LinAlgError:
        raise InvalidConfig(f"cov must be positive definite, got {cov.tolist()}") from None


def sample_banana(n: int, seed: int = 0) -> np.ndarray:
    """Gaussian bent along a parabola: x2 gets a curvature*(x1^2 - 1) shift."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    z[:, 1] += BANANA_CURVATURE * (z[:, 0] ** 2 - 1.0)
    return z


def sample_funnel(n: int, dim: int = 2, seed: int = 0) -> np.ndarray:
    """Neal's funnel: v ~ N(0, scale^2), remaining coords ~ N(0, e^v)."""
    if dim < 2:
        raise InvalidConfig(f"funnel needs dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    v = FUNNEL_SCALE * rng.standard_normal(n)
    rest = rng.standard_normal((n, dim - 1)) * np.exp(v / 2.0)[:, None]
    return np.column_stack([v, rest])


def sample_swiss_roll(n: int, seed: int = 0) -> np.ndarray:
    """2-D spiral with radial jitter, rescaled to an O(1) bounding box."""
    rng = np.random.default_rng(seed)
    lo, hi = SWISS_ROLL_TURNS
    t = lo + (hi - lo) * rng.random(n)
    pts = np.column_stack([t * np.cos(t), t * np.sin(t)])
    pts += SWISS_ROLL_NOISE * hi * rng.standard_normal((n, 2))
    return pts / hi


def softmax_map(x) -> np.ndarray:
    """Gradient of log(e^{x1} + ... + e^{xn}); a Monge map for the L2 cost."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def sample_softmax_pushforward(n: int, dim: int = 2, seed: int = 0) -> np.ndarray:
    """Push standard-normal samples through the softmax map."""
    rng = np.random.default_rng(seed)
    return softmax_map(rng.standard_normal((n, dim)))


SAMPLERS = {
    "normal": sample_normal,
    "banana": sample_banana,
    "funnel": sample_funnel,
    "swiss-roll": sample_swiss_roll,
    "softmax-pushforward": sample_softmax_pushforward,
}
