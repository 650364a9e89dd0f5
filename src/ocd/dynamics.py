"""Velocity assembly and time integration of the coupling dynamics.

The per-particle velocities are

    v_x[i] = -grad_x c(X_i, Y_i) + k_x[i]
    v_y[i] = -grad_y c(X_i, Y_i) + k_y[i]

with k the configured conditional-expectation estimate.  Subtracting the
pair gradient and adding back its conditional mean descends the transport
cost while (in the mean-field limit) leaving both marginals invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ESTIMATOR_CONSTANT,
    CostModel,
    ParticleEnsemble,
    SolverConfig,
    StepDiagnostics,
    STEPPER_EULER,
)
from .diagnostics import (
    cross_correlation,
    marginal_drift,
    moment_summary,
    spd_margin,
    transport_cost,
)
from .errors import NonFiniteInput, NonFiniteResult, NonFiniteState
from .estimators import (
    _piecewise_constant_from_csr,
    _piecewise_linear_from_csr,
)
from .neighbors import build_index, cluster_count_csr, neighbor_csr

TERM_COST_BELOW_GAMMA = "cost-below-gamma"
TERM_STAGNATED = "stagnated"
TERM_MAX_STEPS = "max-steps"


@dataclass
class VelocityBatch:
    """Per-particle velocities for both marginals."""

    v_x: np.ndarray  # (N_p, n)
    v_y: np.ndarray  # (N_p, n)


@dataclass
class RunResult:
    final_ensemble: ParticleEnsemble
    diagnostics: list[StepDiagnostics]
    termination: str  # one of the TERM_* constants
    final_cost: float


def _build_csrs(x, y, config):
    idx_x = build_index(x)
    idx_y = build_index(y)
    return neighbor_csr(idx_x, config.epsilon), neighbor_csr(idx_y, config.epsilon)


def _velocities_at(x, y, cost, config, csrs=None):
    """OCD velocities for given positions; builds fresh clusters unless given."""
    if csrs is None:
        csrs = _build_csrs(x, y, config)
    csr_x, csr_y = csrs
    state = ParticleEnsemble(x, y)
    if config.estimator == ESTIMATOR_CONSTANT:
        k_x, k_y = _piecewise_constant_from_csr(state, cost, csr_x, csr_y)
    else:
        k_x, k_y = _piecewise_linear_from_csr(state, cost, csr_x, csr_y, config.epsilon_hat)
    return k_x - cost.grad_x(x, y), k_y - cost.grad_y(x, y)


def ocd_velocity(
    ensemble: ParticleEnsemble, cost: CostModel, config: SolverConfig
) -> VelocityBatch:
    """Velocities at the ensemble's current positions, from fresh clusters."""
    v_x, v_y = _velocities_at(ensemble.x_samples, ensemble.y_samples, cost, config)
    return VelocityBatch(v_x=v_x, v_y=v_y)


def _advance(ensemble, cost, config, k1, diagnostics):
    """One step of the configured stepper, in place, from step-start velocities."""
    x, y = ensemble.x_samples, ensemble.y_samples
    dt = config.dt
    k1x, k1y = k1
    if config.stepper == STEPPER_EULER:
        x += dt * k1x
        y += dt * k1y
    else:
        # classic RK4; every stage re-clusters at its own positions
        k2x, k2y = _velocities_at(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y, cost, config)
        k3x, k3y = _velocities_at(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y, cost, config)
        k4x, k4y = _velocities_at(x + dt * k3x, y + dt * k3y, cost, config)
        x += (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    ensemble.time += dt
    ensemble.step_index += 1
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteState("particle state diverged (NaN/Inf position)", diagnostics)


def _record(ensemble, cost, config, ref_x, ref_y, csrs, diagnostics):
    cost_now = transport_cost(ensemble, cost)
    if not np.isfinite(cost_now):
        raise NonFiniteState("transport cost diverged", diagnostics)
    if not config.record_diagnostics:
        return cost_now
    if ensemble.n_particles >= 2:
        j = cross_correlation(ensemble)
    else:
        j = np.zeros((ensemble.dim, ensemble.dim))
    n_cl_x, _ = cluster_count_csr(*csrs[0])
    n_cl_y, _ = cluster_count_csr(*csrs[1])
    diagnostics.append(
        StepDiagnostics(
            step_index=ensemble.step_index,
            time=ensemble.time,
            transport_cost=cost_now,
            cross_correlation=j,
            min_sym_eig=spd_margin(j),
            marginal_drift_x=marginal_drift(moment_summary(ensemble.x_samples), ref_x),
            marginal_drift_y=marginal_drift(moment_summary(ensemble.y_samples), ref_y),
            n_clusters_x=n_cl_x,
            n_clusters_y=n_cl_y,
        )
    )
    return cost_now


def run(ensemble: ParticleEnsemble, cost: CostModel, config: SolverConfig) -> RunResult:
    """Advance the ensemble until a stopping rule fires.

    Stops when (a) the transport cost falls to gamma_abs, (b) the cost change
    over the stagnation window drops below gamma_rel relative, or (c)
    max_steps is exhausted.  The ensemble is mutated in place and returned
    inside the RunResult.
    """
    if not (
        np.isfinite(ensemble.x_samples).all() and np.isfinite(ensemble.y_samples).all()
    ):
        raise NonFiniteInput("ensemble state contains NaN or Inf")
    ref_x = moment_summary(ensemble.x_samples)
    ref_y = moment_summary(ensemble.y_samples)
    diagnostics: list[StepDiagnostics] = []
    start_step = ensemble.step_index

    try:
        csrs = _build_csrs(ensemble.x_samples, ensemble.y_samples, config)
        cost_now = _record(ensemble, cost, config, ref_x, ref_y, csrs, diagnostics)
        history = [cost_now]

        while True:
            steps_taken = ensemble.step_index - start_step
            if cost_now <= config.gamma_abs:
                termination = TERM_COST_BELOW_GAMMA
                break
            if steps_taken >= config.stagnation_window:
                prior = history[steps_taken - config.stagnation_window]
                if abs(cost_now - prior) <= config.gamma_rel * max(cost_now, 1e-12):
                    termination = TERM_STAGNATED
                    break
            if steps_taken >= config.max_steps:
                termination = TERM_MAX_STEPS
                break
            k1 = _velocities_at(ensemble.x_samples, ensemble.y_samples, cost, config, csrs)
            del csrs  # freed before the RK stages and the next step build theirs
            _advance(ensemble, cost, config, k1, diagnostics)
            csrs = _build_csrs(ensemble.x_samples, ensemble.y_samples, config)
            cost_now = _record(ensemble, cost, config, ref_x, ref_y, csrs, diagnostics)
            history.append(cost_now)
    except NonFiniteResult as exc:
        # finite inputs gave a non-finite result: the state has left the
        # float range, e.g. squared pair distances overflow in the tree
        raise NonFiniteState(f"particle state diverged: {exc}", diagnostics) from exc

    return RunResult(
        final_ensemble=ensemble,
        diagnostics=diagnostics,
        termination=termination,
        final_cost=cost_now,
    )
