import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from ocd import (
    NonFiniteInput,
    NonFiniteResult,
    NonFiniteState,
    SolverConfig,
    l2_cost_model,
    new_ensemble,
    ocd_velocity,
    run,
)
from ocd.dynamics import TERM_COST_BELOW_GAMMA, TERM_MAX_STEPS, TERM_STAGNATED
from ocd.neighbors import neighbor_csr

from oracles import two_particle_closed_form

L2 = l2_cost_model()


def two_particle():
    return new_ensemble(np.array([[-1.0], [1.0]]), np.array([[1.0], [-1.0]]))


def cfg(**kw):
    base = dict(epsilon=np.inf, estimator="constant", stepper="euler", dt=0.1)
    base.update(kw)
    return SolverConfig(**base)


def advance(ens, n_steps, **kw):
    """Exactly n_steps solver steps, in place: the cost and stagnation stops are off."""
    run(ens, L2, cfg(max_steps=n_steps, gamma_abs=0.0, gamma_rel=0.0, **kw))


def test_velocity_two_particles():
    v = ocd_velocity(two_particle(), L2, cfg())
    np.testing.assert_allclose(v.v_x, [[2.0], [-2.0]])
    np.testing.assert_allclose(v.v_y, [[-2.0], [2.0]])


def test_euler_step_two_particles():
    ens = two_particle()
    advance(ens, 1)
    np.testing.assert_allclose(ens.x_samples, [[-0.8], [0.8]])
    np.testing.assert_allclose(ens.y_samples, [[0.8], [-0.8]])
    assert ens.step_index == 1
    assert ens.time == pytest.approx(0.1)
    # each pair gap contracts by the same factor, so the cost is geometric
    cost = np.mean((ens.x_samples - ens.y_samples) ** 2)
    assert cost == pytest.approx(2.56)
    advance(ens, 1)
    cost = np.mean((ens.x_samples - ens.y_samples) ** 2)
    assert cost == pytest.approx(2.56 * 0.64)


def test_rk4_step_matches_closed_form_to_fifth_order():
    ens = two_particle()
    advance(ens, 1, stepper="rk4")
    x_ref, y_ref = two_particle_closed_form(
        np.array([[-1.0], [1.0]]), np.array([[1.0], [-1.0]]), t=0.1
    )
    assert np.abs(ens.x_samples - x_ref).max() < 1e-5
    assert np.abs(ens.y_samples - y_ref).max() < 1e-5
    # Euler lands much farther out; RK4 must beat it by orders of magnitude
    e2 = two_particle()
    advance(e2, 1)
    assert np.abs(ens.x_samples - x_ref).max() < 1e-3 * np.abs(e2.x_samples - x_ref).max()


def test_rk4_convergence_order():
    x0 = np.array([[-1.0], [2.0]])
    y0 = np.array([[0.5], [-1.5]])
    x_ref, y_ref = two_particle_closed_form(x0, y0, t=1.0)

    def err(dt):
        ens = new_ensemble(x0, y0)
        advance(ens, int(round(1.0 / dt)), stepper="rk4", dt=dt)
        return np.abs(ens.x_samples - x_ref).max()

    # global-error regime needs enough steps; very short horizons sit in the
    # local-error regime where the ratio approaches 2^5
    ratio = err(0.1) / err(0.05)
    assert 11.0 < ratio < 21.0  # fourth order: halving dt divides error by ~16


def test_run_max_steps_zero():
    res = run(two_particle(), L2, cfg(max_steps=0))
    assert res.termination == TERM_MAX_STEPS
    assert res.final_ensemble.step_index == 0
    assert len(res.diagnostics) == 1   # the initial state is still recorded


def test_run_stops_below_gamma_when_already_paired():
    x = np.random.default_rng(0).standard_normal((10, 2))
    res = run(new_ensemble(x, x.copy()), L2, cfg())
    assert res.termination == TERM_COST_BELOW_GAMMA
    assert res.final_cost == 0.0
    assert res.final_ensemble.step_index == 0


def test_run_two_particles_converges():
    res = run(two_particle(), L2, cfg(max_steps=500))
    assert res.termination == TERM_COST_BELOW_GAMMA
    assert res.final_cost <= 0.01
    diag = res.diagnostics
    costs = [d.transport_cost for d in diag]
    assert costs[0] == pytest.approx(4.0)
    assert all(b < a for a, b in zip(costs, costs[1:]))


def test_run_stagnates_when_frozen():
    # cutoff below every gap: all balls are singletons and nothing moves
    x = np.random.default_rng(1).standard_normal((20, 1))
    y = np.random.default_rng(2).standard_normal((20, 1))
    res = run(new_ensemble(x, y), L2,
              cfg(epsilon=1e-12, stagnation_window=5, max_steps=100))
    assert res.termination == TERM_STAGNATED
    assert res.final_ensemble.step_index == 5
    np.testing.assert_array_equal(res.final_ensemble.x_samples, x)


def test_run_gaussian_shift_reaches_optimum_scale():
    # N(0,1) against N(1,1): the optimal cost is the squared mean shift
    rng = np.random.default_rng(3)
    x = rng.standard_normal((400, 1))
    y = rng.standard_normal((400, 1)) + 1.0
    res = run(new_ensemble(x, y),
              L2, SolverConfig(epsilon=0.17, dt=0.1, max_steps=600))
    # sampling noise keeps the cost creeping, so either stop is acceptable;
    # what matters is landing on the optimal scale
    assert res.termination in (TERM_STAGNATED, TERM_MAX_STEPS)
    assert res.final_cost == pytest.approx(1.0, rel=0.10)


def test_run_diagnostics_schema_and_monotone_time():
    res = run(two_particle(), L2, cfg(max_steps=3))
    assert [d.step_index for d in res.diagnostics] == [0, 1, 2, 3]
    times = [d.time for d in res.diagnostics]
    np.testing.assert_allclose(times, [0.0, 0.1, 0.2, 0.3])
    d = res.diagnostics[-1]
    assert d.cross_correlation.shape == (1, 1)
    assert np.isfinite([d.min_sym_eig, d.marginal_drift_x, d.marginal_drift_y]).all()
    assert d.n_clusters_x >= 1 and d.n_clusters_y >= 1


def test_run_preserves_marginal_moments():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 2))
    y = rng.standard_normal((300, 2)) + [1.0, 0.0]
    res = run(new_ensemble(x, y), L2,
              SolverConfig(epsilon=0.35, dt=0.1, max_steps=200))
    worst = max(max(d.marginal_drift_x, d.marginal_drift_y) for d in res.diagnostics)
    assert worst < 0.08   # a few percent of finite-N wobble is expected here


def test_run_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 2))
    y = rng.standard_normal((60, 2))
    a = run(new_ensemble(x, y), L2, SolverConfig(epsilon=0.4, max_steps=40))
    b = run(new_ensemble(x, y), L2, SolverConfig(epsilon=0.4, max_steps=40))
    np.testing.assert_array_equal(a.final_ensemble.x_samples, b.final_ensemble.x_samples)
    np.testing.assert_array_equal(a.final_ensemble.y_samples, b.final_ensemble.y_samples)
    assert a.final_cost == b.final_cost


@pytest.mark.parametrize("estimator,stepper", [("constant", "rk4"),
                                               ("linear", "euler"),
                                               ("linear", "rk4")])
def test_run_estimator_stepper_combinations(estimator, stepper):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 1))
    y = rng.standard_normal((50, 1))
    res = run(new_ensemble(x, y), L2,
              SolverConfig(epsilon=0.5, estimator=estimator, stepper=stepper,
                           max_steps=30))
    assert np.isfinite(res.final_cost)
    assert res.final_cost <= res.diagnostics[0].transport_cost + 1e-12


def test_run_rejects_non_finite_start():
    ens = two_particle()
    ens.x_samples[0, 0] = np.inf
    with pytest.raises(NonFiniteInput):
        run(ens, L2, cfg())


@pytest.mark.parametrize("epsilon", [np.inf, 1e300])
def test_divergence_raises_with_partial_diagnostics(epsilon):
    # the expanding mode of the two-particle system blows up under a huge
    # step size; the solver must fail loudly and keep what it recorded.  At
    # a huge finite epsilon the tree query overflows before the positions do.
    ens = new_ensemble(np.array([[-1.0], [1.0]]), np.array([[-2.0], [2.0]]))
    with pytest.raises(NonFiniteState) as info:
        run(ens, L2, cfg(epsilon=epsilon, dt=1e3, max_steps=2000, gamma_rel=0.0))
    assert len(info.value.partial_diagnostics) >= 1


def test_euler_position_overflow_raises_non_finite_state():
    # finite velocities times a huge step leave the float range
    ens = new_ensemble(np.array([[0.0], [1.0]]), np.array([[1e150], [-1e150]]))
    with pytest.raises(NonFiniteState, match="position is not finite") as info:
        run(ens, L2, cfg(dt=1e300))
    assert len(info.value.partial_diagnostics) == 1


def test_one_particle_records_zero_cross_correlation():
    ens = new_ensemble(np.array([[0.0]]), np.array([[1.0]]))
    result = run(ens, L2, SolverConfig(epsilon=1.0, max_steps=2, gamma_abs=0.0,
                                       gamma_rel=0.0))
    assert len(result.diagnostics) == 3
    for rec in result.diagnostics:
        np.testing.assert_array_equal(rec.cross_correlation, np.zeros((1, 1)))
        assert rec.min_sym_eig == 0.0


@pytest.mark.parametrize("epsilon", [1.0, np.inf])
def test_overflowing_initial_extent_raises_non_finite_state(epsilon):
    # finite positions whose pair distances overflow: the first transport
    # cost overflows, before any graph is built or record taken
    x = np.array([[-1e308], [1e308]])
    with pytest.raises(NonFiniteState) as info:
        run(new_ensemble(x, -x), L2, cfg(epsilon=epsilon))
    assert info.value.partial_diagnostics == []


def test_overflowing_first_graph_build_raises_non_finite_state():
    # y = x: the cost is 0, so the run stops at once, but the first record
    # needs the graphs, whose pair query overflows
    x = np.array([[-1e308], [1e308]])
    with pytest.raises(NonFiniteState, match="overflow") as info:
        run(new_ensemble(x, x), L2, cfg(epsilon=1.0))
    assert info.value.partial_diagnostics == []


# finite positions with a finite cost against y = x + 1, whose cluster
# moments p p^T overflow at eps = inf
MOMENT_OVERFLOW_X = np.array([[1e160, 1.0], [-1e160, 2.0], [3.0, 1e160]])


@pytest.mark.parametrize("epsilon_hat", [0.0, 1e-3])
def test_linear_moment_overflow_raises_non_finite_state(epsilon_hat):
    # at either ridge the linear velocity is reported as divergence, after
    # the first record and without a warning
    ens = new_ensemble(MOMENT_OVERFLOW_X, MOMENT_OVERFLOW_X + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState, match="velocity") as info:
            run(ens, L2, cfg(estimator="linear", epsilon_hat=epsilon_hat))
    assert len(info.value.partial_diagnostics) == 1


def test_ocd_velocity_raises_non_finite_result_without_a_warning():
    ens = new_ensemble(MOMENT_OVERFLOW_X, MOMENT_OVERFLOW_X + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult):
            ocd_velocity(ens, L2, cfg(estimator="linear"))


def test_overflowing_rk4_stage_raises_non_finite_state():
    # finite positions and step-start velocities (+-2e307 in the first
    # column) whose RK4 midpoint overflows: the stage's tree build rejects
    # it, and run() reports that as divergence with its one record
    x = np.array([[8e307, 0.0], [6e307, 1.0]])
    y = np.array([[8e307, 1.0], [6e307, 0.0]])
    with pytest.raises(NonFiniteState) as info:
        run(new_ensemble(x, y), L2, cfg(stepper="rk4", dt=20.0, gamma_abs=0.0))
    assert len(info.value.partial_diagnostics) == 1


def test_run_builds_step_start_graphs_only_for_a_step_or_a_record():
    # three Euler steps need three step-start graph pairs; the final state
    # needs a fourth only when it is recorded
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((20, 2)), rng.standard_normal((20, 2))
    for record, pairs in ((True, 4), (False, 3)):
        spy = mock.Mock(wraps=neighbor_csr)
        with mock.patch("ocd.dynamics.neighbor_csr", spy):
            res = run(new_ensemble(x, y), L2, cfg(epsilon=0.5, max_steps=3, gamma_abs=0.0,
                                                  gamma_rel=0.0, record_diagnostics=record))
        assert res.termination == TERM_MAX_STEPS
        assert len(res.diagnostics) == (4 if record else 0)
        assert spy.call_count == 2 * pairs


@pytest.mark.parametrize("stepper", ["euler", "rk4"])
def test_dense_step_memory_is_linear_beside_the_column_array(stepper):
    # one linear step at eps = inf holds at most two N(N-1)/2 int32 column
    # arrays (one per marginal, 2 N**2 bytes each): the step-start graphs
    # are released before the RK stages and the next step build theirs;
    # holding them doubled the peak, the pair query and its sparse sums took
    # about 8x one array, and the symmetric closed-ball graph 8.2 N**2 bytes
    n = 2048
    rng = np.random.default_rng(9)
    ens = new_ensemble(rng.standard_normal((n, 3)), rng.standard_normal((n, 3)))
    config = SolverConfig(epsilon=np.inf, estimator="linear", stepper=stepper, dt=0.1,
                          max_steps=1, gamma_abs=0.0, gamma_rel=0.0)
    tracemalloc.start()
    try:
        run(ens, L2, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ens.step_index == 1
    assert peak < 7 * n * n


def test_rk4_stages_recluster_at_stage_positions():
    # one RK4 step of run() is the step assembled from four velocities, each
    # with clusters built at its own stage positions; clusters frozen at the
    # step start would move x by up to 0.70 here
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 1))
    y = rng.standard_normal((40, 1))
    config = SolverConfig(epsilon=0.3, dt=0.5, max_steps=1, gamma_abs=0.0, gamma_rel=0.0)
    res = run(new_ensemble(x, y), L2, config)

    def velocity(px, py):
        v = ocd_velocity(new_ensemble(px, py), L2, config)
        return v.v_x, v.v_y

    dt = config.dt
    k1x, k1y = velocity(x, y)
    k2x, k2y = velocity(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y)
    k3x, k3y = velocity(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y)
    k4x, k4y = velocity(x + dt * k3x, y + dt * k3y)
    x_ref = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    y_ref = y + (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    np.testing.assert_array_equal(res.final_ensemble.x_samples, x_ref)
    np.testing.assert_array_equal(res.final_ensemble.y_samples, y_ref)
