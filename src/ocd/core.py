"""Shared value types: particle ensembles, cost models, solver configuration.

The ensemble holds index-paired samples of the two marginals; row i of x
pairs with row i of y, so the ensemble itself is the empirical coupling that
the dynamics evolves.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import EmptyInput, InvalidConfig, NonFiniteInput, ShapeMismatch

# kind tags for CostModel
KIND_L2 = "l2-squared"
KIND_CUSTOM = "custom"

ESTIMATOR_CONSTANT = "constant"
ESTIMATOR_LINEAR = "linear"
STEPPER_EULER = "euler"
STEPPER_RK4 = "rk4"

# probe pairs and seed of custom_cost_model's finite-difference audit
_AUDIT_PROBES = 100
_AUDIT_SEED = 0


@dataclass
class ParticleEnsemble:
    """Index-paired samples (x_samples[i], y_samples[i]) plus solver clock."""

    x_samples: np.ndarray  # (N_p, n)
    y_samples: np.ndarray  # (N_p, n), same shape as x_samples
    time: float = 0.0
    step_index: int = 0

    @property
    def n_particles(self) -> int:
        return self.x_samples.shape[0]

    @property
    def dim(self) -> int:
        return self.x_samples.shape[1]

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(
            self.x_samples.copy(), self.y_samples.copy(), self.time, self.step_index
        )


@dataclass(frozen=True)
class CostModel:
    """Transport cost c plus both partial gradients, evaluated batch-wise.

    All three callables accept (M, n) arrays for x and y; cost returns (M,),
    the gradients return (M, n).  ``kind`` is KIND_L2 for the built-in
    quadratic cost and KIND_CUSTOM for user-supplied models.
    """

    cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: str = KIND_CUSTOM


def l2_cost_model() -> CostModel:
    """Quadratic cost c(x, y) = ||x - y||^2 with exact gradients.

    The solver always integrates the -grad c + E[grad c | .] form, so with
    this cost the velocities carry an explicit factor 2; trajectories of the
    normalized form dX/dt = Y - E[Y|X] are recovered under t -> 2t.
    """

    def cost(x, y):
        d = x - y
        return np.sum(d * d, axis=-1)

    def grad_x(x, y):
        return 2.0 * (x - y)

    def grad_y(x, y):
        return 2.0 * (y - x)

    return CostModel(cost=cost, grad_x=grad_x, grad_y=grad_y, kind=KIND_L2)


def _batchify(fn, out_dim):
    """Lift a per-pair callable to a batched one (slow path, row loop)."""

    def batched(x, y):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        if out_dim == 0:
            return np.array([float(fn(xi, yi)) for xi, yi in zip(x, y)])
        return np.array([np.asarray(fn(xi, yi), dtype=np.float64) for xi, yi in zip(x, y)])

    return batched


def custom_cost_model(
    cost,
    grad_x,
    grad_y,
    dim: int,
    *,
    vectorized: bool = False,
) -> CostModel:
    """Wrap user-supplied cost callables after a finite-difference audit.

    The supplied gradients must reproduce central finite differences of the
    cost to 1e-5 relative tolerance at _AUDIT_PROBES random probe points;
    otherwise InvalidConfig is raised.  Set ``vectorized=True`` when the
    callables already accept (M, n) batches.
    """
    if dim < 1:
        raise InvalidConfig(f"cost model dimension must be >= 1, got {dim}")
    if vectorized:
        c, gx, gy = cost, grad_x, grad_y
    else:
        c = _batchify(cost, out_dim=0)
        gx = _batchify(grad_x, out_dim=1)
        gy = _batchify(grad_y, out_dim=1)

    rng = np.random.default_rng(_AUDIT_SEED)
    x = rng.standard_normal((_AUDIT_PROBES, dim))
    y = rng.standard_normal((_AUDIT_PROBES, dim))
    gx_val = np.asarray(gx(x, y), dtype=np.float64)
    gy_val = np.asarray(gy(x, y), dtype=np.float64)
    if gx_val.shape != (_AUDIT_PROBES, dim) or gy_val.shape != (_AUDIT_PROBES, dim):
        raise InvalidConfig("gradient callables must return one vector per pair")

    h = 1e-6
    fd_x = np.empty_like(gx_val)
    fd_y = np.empty_like(gy_val)
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = h
        fd_x[:, a] = (c(x + e, y) - c(x - e, y)) / (2.0 * h)
        fd_y[:, a] = (c(x, y + e) - c(x, y - e)) / (2.0 * h)
    ok_x = np.allclose(fd_x, gx_val, rtol=1e-5, atol=1e-7)
    ok_y = np.allclose(fd_y, gy_val, rtol=1e-5, atol=1e-7)
    if not (ok_x and ok_y):
        raise InvalidConfig(
            "supplied gradients disagree with central finite differences of "
            "the cost (relative tolerance 1e-5)"
        )
    return CostModel(cost=c, grad_x=gx, grad_y=gy, kind=KIND_CUSTOM)


# the values each SolverConfig field annotation admits
_FIELD_TYPES = {"float": (int, float, np.integer, np.floating), "int": (int, np.integer),
                "str": (str,), "bool": (bool, np.bool_)}


@dataclass(frozen=True)
class SolverConfig:
    """All knobs of one solver run.  Immutable; validated on construction."""

    epsilon: float                      # cluster cutoff radius, > 0
    epsilon_hat: float = 0.0            # ridge regularizer for the linear estimator
    dt: float = 0.1
    max_steps: int = 1000
    gamma_abs: float = 0.01             # stop when mean cost falls below this
    gamma_rel: float = 1e-4             # stagnation: relative cost change over the window
    stagnation_window: int = 50
    estimator: str = ESTIMATOR_LINEAR   # "constant" | "linear"
    stepper: str = STEPPER_RK4          # "euler" | "rk4"
    seed: int = 0
    record_diagnostics: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int, so only the bool field takes one
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                    isinstance(value, bool) and f.type != "bool"):
                raise InvalidConfig(f"{f.name} must be of type {f.type}, got {value!r}")
        if not self.epsilon > 0 or np.isnan(self.epsilon):
            raise InvalidConfig(f"epsilon must be > 0, got {self.epsilon}")
        if not (np.isfinite(self.epsilon_hat) and self.epsilon_hat >= 0):
            raise InvalidConfig(f"epsilon_hat must be >= 0, got {self.epsilon_hat}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise InvalidConfig(f"dt must be finite and > 0, got {self.dt}")
        if self.max_steps < 0:
            raise InvalidConfig(f"max_steps must be >= 0, got {self.max_steps}")
        if not (self.gamma_abs >= 0 and self.gamma_rel >= 0):
            raise InvalidConfig("gamma_abs and gamma_rel must be >= 0")
        if self.stagnation_window < 1:
            raise InvalidConfig(f"stagnation_window must be >= 1, got {self.stagnation_window}")
        if self.estimator not in (ESTIMATOR_CONSTANT, ESTIMATOR_LINEAR):
            raise InvalidConfig(f"unknown estimator {self.estimator!r}")
        if self.stepper not in (STEPPER_EULER, STEPPER_RK4):
            raise InvalidConfig(f"unknown stepper {self.stepper!r}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step observables recorded by the solver loop."""

    step_index: int
    time: float
    transport_cost: float
    cross_correlation: np.ndarray  # (n, n) centered cross-covariance
    min_sym_eig: float             # smallest eigenvalue of the symmetrized cross-correlation
    marginal_drift_x: float
    marginal_drift_y: float
    n_clusters_x: int
    n_clusters_y: int


def _as_sample_matrix(a, name: str) -> np.ndarray:
    arr = np.array(a, dtype=np.float64, copy=True, order="C")
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be a 2-D (N, n) matrix, got ndim={arr.ndim}")
    return arr


def new_ensemble(x_samples, y_samples) -> ParticleEnsemble:
    """Validate and pair two sample matrices into a fresh ensemble at t=0.

    Rows are paired by index.  Callers wanting the product-coupling start
    should pass independently drawn (or shuffled) rows.
    """
    x = _as_sample_matrix(x_samples, "x_samples")
    y = _as_sample_matrix(y_samples, "y_samples")
    if x.shape != y.shape:
        raise ShapeMismatch(f"paired sample shapes differ: {x.shape} vs {y.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise EmptyInput(f"need at least one row and one column, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteInput("x_samples contains NaN or Inf")
    if not np.isfinite(y).all():
        raise NonFiniteInput("y_samples contains NaN or Inf")
    return ParticleEnsemble(x_samples=x, y_samples=y, time=0.0, step_index=0)
