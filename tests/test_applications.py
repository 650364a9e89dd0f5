import numpy as np
import pytest

from ocd import (
    AllZeroImage,
    DimensionMismatch,
    EmptyQuery,
    ImageSamples,
    InvalidConfig,
    NonFiniteInput,
    PairedMap,
    SolverConfig,
    color_transfer,
    distance_matrix,
    evaluate_map,
    fit_paired_map,
    image_to_point_samples,
    l2_cost_model,
)

CFG = SolverConfig(epsilon=0.8, dt=0.1, max_steps=60, record_diagnostics=False)


def test_evaluate_map_exact_hit_returns_paired_anchor():
    pm = PairedMap(np.array([[0.0], [1.0]]), np.array([[5.0], [7.0]]), k_neighbors=2)
    np.testing.assert_allclose(evaluate_map(pm, [[1.0]]), [[7.0]])


def test_evaluate_map_inverse_distance_weights():
    # query 0.25 between anchors 0 and 1: weights 1/0.25 and 1/0.75
    pm = PairedMap(np.array([[0.0], [1.0]]), np.array([[0.0], [10.0]]), k_neighbors=2)
    expected = (10.0 / 0.75) / (1.0 / 0.25 + 1.0 / 0.75)
    np.testing.assert_allclose(evaluate_map(pm, [[0.25]]), [[expected]])


def test_evaluate_map_k1_is_nearest_anchor():
    pm = PairedMap(np.array([[0.0], [1.0]]), np.array([[3.0], [4.0]]), k_neighbors=1)
    np.testing.assert_allclose(evaluate_map(pm, [[0.4], [0.6]]), [[3.0], [4.0]])


def test_evaluate_map_validation():
    pm = PairedMap(np.zeros((3, 2)), np.ones((3, 2)), k_neighbors=2)
    with pytest.raises(EmptyQuery):
        evaluate_map(pm, np.empty((0, 2)))
    with pytest.raises(DimensionMismatch):
        evaluate_map(pm, np.zeros((2, 3)))
    with pytest.raises(NonFiniteInput):
        evaluate_map(pm, np.array([[np.nan, 0.0]]))


def test_paired_map_validation():
    with pytest.raises(DimensionMismatch):
        PairedMap(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(InvalidConfig):
        PairedMap(np.zeros((3, 1)), np.zeros((3, 1)), k_neighbors=4)
    with pytest.raises(NonFiniteInput):
        PairedMap(np.array([[np.inf]]), np.array([[0.0]]))


def test_fit_paired_map_identity_problem():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 1))
    pm, result = fit_paired_map(x, x.copy(), l2_cost_model(), CFG, k_neighbors=3)
    assert result.final_cost == 0.0
    assert pm.k_neighbors == 3
    # the map interpolates something close to the identity on the data range
    q = np.linspace(-0.5, 0.5, 7)[:, None]
    np.testing.assert_allclose(evaluate_map(pm, q), q, atol=0.2)


def checkerboard(width, height, lo, hi):
    px = np.tile(np.array([lo, hi], dtype=float), width * height // 2 + 1)[: width * height]
    return ImageSamples(np.column_stack([px, px, px]), width, height)


def test_color_transfer_alpha_zero_copies_source():
    src = checkerboard(4, 4, 0.2, 0.4)
    tgt = checkerboard(4, 4, 0.7, 0.9)
    out = color_transfer(src, tgt, CFG, alpha=0.0, n_train=8)
    np.testing.assert_array_equal(out.pixels, src.pixels)
    assert out.pixels is not src.pixels


def test_color_transfer_moves_toward_target_palette():
    src = checkerboard(6, 6, 0.1, 0.3)
    tgt = checkerboard(6, 6, 0.6, 0.8)
    out = color_transfer(src, tgt, CFG, alpha=1.0, n_train=36)
    assert out.pixels.mean() > src.pixels.mean()
    assert out.width == 6 and out.height == 6


def test_color_transfer_is_deterministic():
    src = checkerboard(5, 4, 0.2, 0.5)
    tgt = checkerboard(5, 4, 0.5, 0.9)
    a = color_transfer(src, tgt, CFG, alpha=0.5, n_train=10)
    b = color_transfer(src, tgt, CFG, alpha=0.5, n_train=10)
    np.testing.assert_array_equal(a.pixels, b.pixels)


def test_color_transfer_validation():
    src = checkerboard(4, 4, 0.2, 0.4)
    with pytest.raises(InvalidConfig):
        color_transfer(src, src, CFG, alpha=1.5, n_train=8)
    with pytest.raises(InvalidConfig):
        color_transfer(src, src, CFG, alpha=0.5, n_train=0)
    with pytest.raises(InvalidConfig):
        color_transfer(src, src, CFG, alpha=0.5, n_train=17)


def test_image_samples_clips_to_unit_interval():
    img = ImageSamples(np.array([[-0.5, 0.5, 1.5]]), 1, 1)
    np.testing.assert_allclose(img.pixels, [[0.0, 0.5, 1.0]])


def test_distance_matrix_properties():
    rng = np.random.default_rng(1)
    sets = [rng.standard_normal((30, 1)),
            rng.standard_normal((30, 1)) + 2.0,
            rng.standard_normal((40, 1)) + 4.0]   # bigger set gets subsampled
    dm = distance_matrix(sets, CFG)
    assert dm.shape == (3, 3)
    np.testing.assert_allclose(dm, dm.T)
    np.testing.assert_allclose(np.diag(dm), 0.0)
    assert np.all(dm[np.triu_indices(3, 1)] > 0)
    # farther-apart means give larger distances
    assert dm[0, 2] > dm[0, 1]


def test_distance_matrix_threaded_matches_serial():
    rng = np.random.default_rng(2)
    sets = [rng.standard_normal((25, 2)) + shift for shift in (0.0, 1.0, 2.0)]
    np.testing.assert_array_equal(
        distance_matrix(sets, CFG, n_threads=1),
        distance_matrix(sets, CFG, n_threads=2),
    )


def test_distance_matrix_needs_two_sets():
    with pytest.raises(InvalidConfig):
        distance_matrix([np.zeros((5, 1))], CFG)
    with pytest.raises(DimensionMismatch):
        distance_matrix([np.zeros((5, 1)), np.zeros((5, 2))], CFG)


def test_distance_matrix_reports_a_failed_pair_as_nan(caplog):
    a = np.array([[0.0], [1.0]])
    config = SolverConfig(epsilon=np.inf, estimator="constant", stepper="euler", dt=1e300)
    with caplog.at_level("WARNING", logger="ocd.applications"):
        dm = distance_matrix([a, 1e150 * a], config)
    assert np.isnan(dm[0, 1]) and np.isnan(dm[1, 0])
    np.testing.assert_array_equal(np.diag(dm), 0.0)
    records = [r for r in caplog.records if r.name == "ocd.applications"]
    assert len(records) == 1 and "pair (0, 1) failed" in records[0].getMessage()


def test_image_to_point_samples_pixel_centers():
    img = np.array([[1.0, 0.0], [0.0, 1.0]])
    pts = image_to_point_samples(img, n_samples=50, seed=3)
    # only the two lit pixels can be drawn: centers (0.25,0.25) and (0.75,0.75)
    seen = {tuple(p) for p in pts}
    assert seen <= {(0.25, 0.25), (0.75, 0.75)}
    assert len(seen) == 2


def test_image_to_point_samples_deterministic():
    img = np.random.default_rng(4).random((6, 5))
    np.testing.assert_array_equal(
        image_to_point_samples(img, 80, seed=9),
        image_to_point_samples(img, 80, seed=9),
    )


def test_image_to_point_samples_validation():
    with pytest.raises(AllZeroImage):
        image_to_point_samples(np.zeros((3, 3)), 10)
    with pytest.raises(DimensionMismatch):
        image_to_point_samples(np.zeros((2, 2, 3)), 10)
    with pytest.raises(NonFiniteInput):
        image_to_point_samples(np.array([[1.0, -2.0]]), 10)
    with pytest.raises(InvalidConfig):
        image_to_point_samples(np.ones((2, 2)), 0)
