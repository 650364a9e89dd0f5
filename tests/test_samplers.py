import numpy as np
import pytest

from ocd import InvalidConfig, softmax_map
from ocd.samplers import (
    SAMPLERS,
    sample_banana,
    sample_funnel,
    sample_normal,
    sample_softmax_pushforward,
    sample_swiss_roll,
)


def test_sample_normal_moments():
    x = sample_normal(20000, [1.0, -2.0], [[2.0, 0.0], [0.0, 0.5]], seed=0)
    np.testing.assert_allclose(x.mean(axis=0), [1.0, -2.0], atol=0.05)
    np.testing.assert_allclose(np.cov(x.T), [[2.0, 0.0], [0.0, 0.5]], atol=0.08)


def test_sample_normal_shape_mismatch():
    with pytest.raises(InvalidConfig):
        sample_normal(10, [0.0, 0.0], [[1.0]])


@pytest.mark.parametrize("mean, cov", [
    ([np.nan, 0.0], np.eye(2)),
    ([np.inf], [[1.0]]),
    ([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]]),
])
def test_sample_normal_rejects_non_finite_moments(mean, cov):
    with pytest.raises(InvalidConfig, match="finite"):
        sample_normal(10, mean, cov)


def test_samplers_are_seed_deterministic():
    for name, fn in SAMPLERS.items():
        if name == "normal":
            a = fn(50, [0.0], [[1.0]], seed=7)
            b = fn(50, [0.0], [[1.0]], seed=7)
        else:
            a = fn(50, seed=7)
            b = fn(50, seed=7)
        np.testing.assert_array_equal(a, b, err_msg=name)
        assert a.shape[0] == 50


def test_banana_is_curved_gaussian():
    z = sample_banana(50000, seed=1)
    assert z.shape == (50000, 2)
    # removing the parabolic shift recovers an uncorrelated pair
    flat = z[:, 1] - 0.5 * (z[:, 0] ** 2 - 1.0)
    assert abs(np.corrcoef(z[:, 0], flat)[0, 1]) < 0.02
    np.testing.assert_allclose(flat.std(), 1.0, atol=0.02)


def test_funnel_dimensions():
    x = sample_funnel(100, dim=4, seed=2)
    assert x.shape == (100, 4)
    with pytest.raises(InvalidConfig):
        sample_funnel(10, dim=1)


def test_swiss_roll_is_bounded():
    pts = sample_swiss_roll(500, seed=3)
    assert pts.shape == (500, 2)
    assert np.abs(pts).max() < 2.0


def test_softmax_map_rows_sum_to_one():
    x = np.random.default_rng(4).standard_normal((30, 3))
    y = softmax_map(x)
    np.testing.assert_allclose(y.sum(axis=1), 1.0)
    assert np.all(y > 0)


def test_softmax_map_at_origin():
    np.testing.assert_allclose(softmax_map([[0.0, 0.0]]), [[0.5, 0.5]])


def test_softmax_map_shift_invariance():
    x = np.random.default_rng(5).standard_normal((10, 2))
    np.testing.assert_allclose(softmax_map(x), softmax_map(x + 100.0), atol=1e-12)


def test_softmax_pushforward_lives_on_simplex():
    y = sample_softmax_pushforward(200, dim=3, seed=6)
    assert y.shape == (200, 3)
    np.testing.assert_allclose(y.sum(axis=1), 1.0)
