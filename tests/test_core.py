import json

import numpy as np
import pytest

from ocd import (
    CostModel,
    InvalidConfig,
    EmptyInput,
    NonFiniteInput,
    ParseError,
    ShapeMismatch,
    SolverConfig,
    custom_cost_model,
    l2_cost_model,
    new_ensemble,
    read_manifest,
)


def test_l2_cost_values():
    m = l2_cost_model()
    assert m.cost(np.array([[0.0]]), np.array([[3.0]]))[0] == 9.0
    np.testing.assert_array_equal(
        m.grad_x(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])),
        np.array([[2.0, 0.0]]),
    )
    np.testing.assert_array_equal(
        m.grad_y(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])),
        np.array([[-2.0, 0.0]]),
    )
    assert m.kind == "l2-squared"


def test_l2_gradients_match_finite_differences():
    from oracles import central_diff

    m = l2_cost_model()
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        gx = central_diff(lambda v: m.cost(v[None], y[None])[0], x)
        np.testing.assert_allclose(m.grad_x(x[None], y[None])[0], gx, atol=1e-5)


def test_custom_cost_model_accepts_consistent_gradients():
    # quartic cost, per-pair callables
    m = custom_cost_model(
        cost=lambda x, y: np.sum((x - y) ** 4),
        grad_x=lambda x, y: 4.0 * (x - y) ** 3,
        grad_y=lambda x, y: -4.0 * (x - y) ** 3,
        dim=2,
    )
    assert m.kind == "custom"
    x = np.array([[1.0, 0.0]])
    y = np.array([[0.0, 0.0]])
    assert m.cost(x, y)[0] == pytest.approx(1.0)
    np.testing.assert_allclose(m.grad_x(x, y), [[4.0, 0.0]])


def test_custom_cost_model_vectorized_path():
    m = custom_cost_model(
        cost=lambda x, y: np.sum((x - y) ** 2, axis=-1),
        grad_x=lambda x, y: 2.0 * (x - y),
        grad_y=lambda x, y: 2.0 * (y - x),
        dim=3,
        vectorized=True,
    )
    x = np.zeros((4, 3))
    y = np.ones((4, 3))
    np.testing.assert_allclose(m.cost(x, y), np.full(4, 3.0))


def test_custom_cost_model_rejects_wrong_gradient():
    with pytest.raises(InvalidConfig):
        custom_cost_model(
            cost=lambda x, y: np.sum((x - y) ** 2),
            grad_x=lambda x, y: (x - y),       # missing the factor 2
            grad_y=lambda x, y: 2.0 * (y - x),
            dim=2,
        )


def test_custom_cost_model_rejects_bad_dim():
    with pytest.raises(InvalidConfig):
        custom_cost_model(lambda x, y: 0.0, lambda x, y: x, lambda x, y: y, dim=0)


def test_solver_config_defaults():
    cfg = SolverConfig(epsilon=0.5)
    assert cfg.dt == 0.1
    assert cfg.max_steps == 1000
    assert cfg.gamma_abs == 0.01
    assert cfg.gamma_rel == 1e-4
    assert cfg.stagnation_window == 50
    assert cfg.estimator == "linear"
    assert cfg.stepper == "rk4"
    assert cfg.epsilon_hat == 0.0
    assert cfg.seed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epsilon=0.0),
        dict(epsilon=-1.0),
        dict(epsilon=float("nan")),
        dict(epsilon=0.5, epsilon_hat=-1e-3),
        dict(epsilon=0.5, dt=0.0),
        dict(epsilon=0.5, dt=float("inf")),
        dict(epsilon=0.5, max_steps=-1),
        dict(epsilon=0.5, gamma_abs=-0.1),
        dict(epsilon=0.5, gamma_rel=-0.1),
        dict(epsilon=0.5, stagnation_window=0),
        dict(epsilon=0.5, estimator="cubic"),
        dict(epsilon=0.5, stepper="rk2"),
        dict(epsilon=0.5, seed=-1),
        dict(epsilon=0.5, gamma_abs=float("nan")),
        dict(epsilon=0.5, gamma_rel=float("nan")),
    ],
)
def test_solver_config_rejects(kwargs):
    with pytest.raises(InvalidConfig):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("route", ["constructor", "manifest"])
@pytest.mark.parametrize("field, value", [
    ("dt", "x"),
    ("stagnation_window", "5"),
    ("epsilon", "0.3"),
    ("max_steps", 2.5),
    ("seed", 1.5),
])
def test_solver_config_field_of_the_wrong_type(field, value, route, tmp_path):
    # a typed error, not a raw TypeError from a range check or a silently
    # accepted fraction; a manifest reports it as a parse error
    kwargs = {"epsilon": 0.3, field: value}
    if route == "constructor":
        with pytest.raises(InvalidConfig, match=field):
            SolverConfig(**kwargs)
    else:
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"subcommand": "solve", "config": kwargs}))
        with pytest.raises(ParseError, match=field):
            read_manifest(path)


@pytest.mark.parametrize("kwargs", [
    dict(epsilon=True),
    dict(epsilon=0.5, max_steps=True),
    dict(epsilon=0.5, estimator=1),
    dict(epsilon=0.5, record_diagnostics="yes"),
])
def test_solver_config_rejects_bools_as_numbers_and_numbers_as_names(kwargs):
    with pytest.raises(InvalidConfig):
        SolverConfig(**kwargs)


def test_solver_config_accepts_numpy_scalars():
    cfg = SolverConfig(epsilon=np.float64(0.3), dt=np.float32(0.1), max_steps=np.int64(5),
                       stagnation_window=np.int32(2), seed=np.uint8(3), gamma_abs=0,
                       record_diagnostics=np.bool_(False))
    assert cfg.max_steps == 5 and cfg.gamma_abs == 0


def test_solver_config_allows_infinite_epsilon():
    # one global cluster is a legitimate (if slow) configuration
    cfg = SolverConfig(epsilon=float("inf"))
    assert np.isinf(cfg.epsilon)


def test_new_ensemble_copies_input():
    x = np.zeros((3, 2))
    y = np.ones((3, 2))
    ens = new_ensemble(x, y)
    x[0, 0] = 99.0
    assert ens.x_samples[0, 0] == 0.0
    assert ens.n_particles == 3
    assert ens.dim == 2
    assert ens.time == 0.0
    assert ens.step_index == 0


def test_new_ensemble_validation():
    with pytest.raises(ShapeMismatch):
        new_ensemble(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ShapeMismatch):
        new_ensemble(np.zeros(3), np.zeros(3))
    with pytest.raises(EmptyInput):
        new_ensemble(np.zeros((0, 2)), np.zeros((0, 2)))
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        new_ensemble(bad, np.zeros((2, 2)))
    with pytest.raises(NonFiniteInput):
        new_ensemble(np.zeros((2, 2)), bad)


def test_ensemble_copy_is_independent():
    ens = new_ensemble(np.zeros((2, 1)), np.ones((2, 1)))
    dup = ens.copy()
    dup.x_samples[0, 0] = 5.0
    assert ens.x_samples[0, 0] == 0.0


def test_cost_model_is_plain_record():
    m = CostModel(cost=lambda x, y: None, grad_x=None, grad_y=None)
    assert m.kind == "custom"
