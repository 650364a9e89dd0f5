"""Workload definitions and their seeded inputs.

Every workload starts from the product pairing of x ~ N(0, I_d) with
y = T(z), z ~ N(0, I_d) drawn independently, where T(x) = x + x**3 / 2
componentwise.  T is the gradient of the convex |x|^2/2 + sum x_k^4/8, so
it is the Brenier (Monge) map from N(0, I_d) to the law of y and
W2^2 = E|T(X) - X|^2 = d * E[x^6] / 4 = 15 d / 4 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm, qmc


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "library": ocd.run(); "cli": ocd solve
    n: int
    d: int
    steps: int
    dt: float
    estimator: str
    stepper: str
    sampling: str = "iid"      # "iid" or "sobol" (scrambled, seeded)
    # library workloads: eps = max(16 * auto_epsilon, diag_factor * diameter)
    diag_factor: float = 0.0
    # auto_epsilon grid (geomspace lo, hi, n); None takes the default grid
    eps_grid: tuple | None = None


# The library workloads take one RK4 step (four estimator calls), so that
# an operation lasts about 5 s and a run's figure is a median over five or
# more operations.
WORKLOADS = {
    w.name: w
    for w in (
        # The default auto_epsilon grid steps by ~1.78x from a seed-dependent
        # start, which moves 16 x auto by up to 1.6x (2.7x in pairs) between
        # seeds; a fixed 2 % grid that brackets the beta-rule cutoff of these
        # inputs (about 0.0063) keeps the regime the same on every seed.
        Workload("rk4-moderate", "library", n=20_000, d=2, steps=1, dt=0.1,
                 estimator="linear", stepper="rk4",
                 eps_grid=(0.004, 0.016, 71)),
        # dt is small because in one global cluster the heavy-tailed partners
        # pull x far from N(0, I) at dt = 0.1, and map_err then swings by
        # 100 % between seeds; Sobol points cut the seed spread of the sixth
        # moments in map_err from ~9 % to ~4 % at N = 1024, and the point
        # pattern does not matter when every ball holds every point.
        Workload("dense-eps", "library", n=1024, d=3, steps=1, dt=0.02,
                 estimator="linear", stepper="rk4", sampling="sobol",
                 diag_factor=2.0),
        Workload("cli-solve", "cli", n=200_000, d=2, steps=5, dt=0.1,
                 estimator="constant", stepper="euler"),
    )
}


def brenier_map(z: np.ndarray) -> np.ndarray:
    """T(z) = z + z**3 / 2, the optimal map of every workload."""
    return z + 0.5 * z**3


def w2_squared(d: int) -> float:
    return 15.0 * d / 4.0


def make_inputs(workload: Workload, seed: int):
    """(x, y) of the product pairing, a pure function of (workload, seed)."""
    n, d = workload.n, workload.d
    if workload.sampling == "sobol":
        u = qmc.Sobol(2 * d, scramble=True, seed=seed).random(n)
        # scrambled points can land on 0; keep the quantiles finite
        u = np.clip(u, 2.0**-53, 1.0 - 2.0**-53)
        w = norm.ppf(u)
        x, z = w[:, :d], w[:, d:]
    else:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        z = rng.standard_normal((n, d))
    return np.ascontiguousarray(x), np.ascontiguousarray(brenier_map(z))
