import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from ocd import (
    CurveTooShort,
    InvalidConfig,
    NoFeasibleEpsilon,
    SolverConfig,
    auto_epsilon,
    build_index,
    cluster_curve,
    count_clusters,
    default_epsilon_grid,
    epsilon_crit,
    epsilon_max,
    epsilon_rule_of_thumb,
    epsilon_sweep,
    l2_cost_model,
    new_ensemble,
    run,
)

from oracles import epsilon_max_scan


def test_count_clusters_line_example():
    report = count_clusters(np.array([[0.0], [0.1], [5.0]]), epsilon=0.2)
    assert report.n_clusters == 2
    assert list(report.cluster_labels) == [0, 0, 1]
    assert report.epsilon == 0.2


def test_count_clusters_extremes():
    pts = np.random.default_rng(0).standard_normal((40, 2))
    assert count_clusters(pts, 1e-12).n_clusters == 40
    assert count_clusters(pts, 1e12).n_clusters == 1


def test_count_clusters_rejects_nonpositive_epsilon():
    with pytest.raises(InvalidConfig):
        count_clusters(np.zeros((3, 1)), 0.0)


def test_epsilon_max_two_points():
    # ratio at 0.5 is 2/2 = 1 > beta, at 1.5 it drops to 1/2
    assert epsilon_max(np.array([[0.0], [1.0]]), beta=0.99, grid=[0.5, 1.5]) == 0.5


def test_epsilon_max_infeasible():
    with pytest.raises(NoFeasibleEpsilon):
        epsilon_max(np.array([[0.0], [0.1]]), beta=0.9, grid=[1.0, 2.0])


def test_epsilon_max_validation():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(InvalidConfig):
        epsilon_max(pts, beta=1.0, grid=[0.5])
    with pytest.raises(InvalidConfig):
        epsilon_max(pts, beta=0.9, grid=[])
    with pytest.raises(InvalidConfig):
        epsilon_max(pts, beta=0.9, grid=[1.0, 0.5])


# distances between half-integer lattice points: 0.5, sqrt(2)/2, 1, sqrt(5)/2, ...
LATTICE_TIES = [0.5 * np.sqrt(k) for k in (1, 2, 4, 5, 8, 9)]


@st.composite
def epsilon_cases(draw):
    """(points, beta, grid) with ties at grid values, duplicates or few points."""
    kind = draw(st.sampled_from(
        ["uniform", "lattice", "duplicates", "single", "pair", "collinear"]
    ))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    n = draw(st.integers(min_value=1, max_value=60))
    dim = draw(st.integers(min_value=1, max_value=3))
    if kind == "uniform":
        pts = rng.uniform(-2, 2, size=(n, dim))
    elif kind == "lattice":
        dim = draw(st.integers(min_value=1, max_value=5))
        pts = rng.integers(0, 4, size=(n, dim)) * 0.5
    elif kind == "duplicates":
        base = rng.uniform(-2, 2, size=(max(1, n // 3), dim))
        pts = base[rng.integers(0, base.shape[0], size=n)]
    elif kind == "single":
        pts = rng.uniform(-2, 2, size=(1, dim))
    elif kind == "pair":
        pts = rng.uniform(-2, 2, size=(2, dim))
    else:
        pts = np.outer(rng.uniform(-2, 2, size=n), rng.standard_normal(2))
    if kind == "lattice":
        extra = draw(st.lists(st.sampled_from([0.25, 0.6, 2.0, 3.0]), max_size=2))
        grid = sorted(set(LATTICE_TIES + extra))
    else:
        grid = np.sort(rng.uniform(0.01, 4.0, size=draw(st.integers(1, 20))))
        grid = sorted(set(grid.tolist()))
    beta = draw(st.sampled_from([0.05, 0.2, 1 / 3, 0.45, 0.5, 0.55, 0.75, 0.9, 0.99]))
    return pts, beta, grid


@settings(max_examples=300, deadline=None)
@given(epsilon_cases())
def test_epsilon_max_equals_grid_scan(case):
    pts, beta, grid = case
    try:
        expected = epsilon_max_scan(pts, beta, grid)
    except NoFeasibleEpsilon:
        with pytest.raises(NoFeasibleEpsilon):
            epsilon_max(pts, beta, grid)
    else:
        assert epsilon_max(pts, beta, grid) == expected


@settings(max_examples=150, deadline=None)
@given(epsilon_cases())
def test_cluster_curve_equals_count_per_grid_point(case):
    pts, _, grid = case
    curve = cluster_curve(build_index(pts), grid)
    assert curve.tolist() == [count_clusters(pts, e).n_clusters for e in grid]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31),
)
def test_cluster_curve_at_the_tree_distances(n, dim, seed):
    # grid points on the tree's own pair distances and one ulp either side,
    # where the rounding of each squared length decides membership
    pts = np.random.default_rng(seed).standard_normal((n, dim))
    dist = cKDTree(pts).query(pts, k=min(n, 4))[0][:, 1:].ravel()
    grid = np.unique(np.concatenate(
        [dist, np.nextafter(dist, 0.0), np.nextafter(dist, np.inf)]
    ))
    curve = cluster_curve(build_index(pts), grid)
    assert curve.tolist() == [count_clusters(pts, e).n_clusters for e in grid]


def test_cluster_curve_validation():
    index = build_index(np.zeros((3, 1)))
    for grid in ([], [0.0, 1.0], [np.nan]):
        with pytest.raises(InvalidConfig):
            cluster_curve(index, grid)


def test_default_grid_spans_data_scales():
    pts = np.random.default_rng(1).standard_normal((200, 2))
    grid = default_epsilon_grid(pts)
    assert 16 <= grid.size <= 48
    assert np.all(np.diff(grid) > 0)
    span = pts.max(axis=0) - pts.min(axis=0)
    assert grid[-1] == pytest.approx(float(np.linalg.norm(span)))
    # low end sits below the tightest gap: every point is its own cluster
    assert count_clusters(pts, grid[0]).n_clusters == 200


def test_default_grid_single_point():
    np.testing.assert_allclose(default_epsilon_grid(np.array([[3.0]])), [1.0])


def test_default_grid_tolerates_duplicates():
    pts = np.array([[0.0], [0.0], [1.0], [2.0]])
    grid = default_epsilon_grid(pts)
    assert np.all(grid > 0) and np.all(np.isfinite(grid))


def test_auto_epsilon_keeps_both_marginals_resolved():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((150, 2))
    y = rng.standard_normal((150, 2)) * 0.05   # much tighter cloud
    eps = auto_epsilon(x, y, beta=0.9)
    for pts in (x, y):
        ratio = count_clusters(pts, eps).n_clusters / 150
        assert ratio > 0.9


@st.composite
def default_grid_clouds(draw):
    """Points in d = 1..5 with duplicates, few points or a collinear 2-D cloud."""
    kind = draw(st.sampled_from(
        ["uniform", "lattice", "duplicates", "identical", "single", "pair", "collinear"]
    ))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    n = draw(st.integers(min_value=3, max_value=80))
    dim = draw(st.integers(min_value=1, max_value=5))
    if kind == "uniform":
        return rng.uniform(-2, 2, size=(n, dim))
    if kind == "lattice":
        return rng.integers(0, 4, size=(n, dim)) * 0.5
    if kind == "duplicates":
        base = rng.uniform(-2, 2, size=(max(1, n // 3), dim))
        return base[rng.integers(0, base.shape[0], size=n)]
    if kind == "identical":
        return np.repeat(rng.uniform(-2, 2, size=(1, dim)), n, axis=0)
    if kind == "single":
        return rng.uniform(-2, 2, size=(1, dim))
    if kind == "pair":
        return rng.uniform(-2, 2, size=(2, dim))
    return np.outer(rng.uniform(-2, 2, size=n), rng.standard_normal(2))


def _feasible(resolve):
    try:
        return resolve()
    except NoFeasibleEpsilon:
        return None


BETAS = st.sampled_from([0.05, 0.2, 1 / 3, 0.45, 0.5, 0.55, 0.75, 0.9, 0.99])


@settings(max_examples=300, deadline=None)
@given(default_grid_clouds(), default_grid_clouds(), BETAS)
def test_epsilon_max_default_grid_is_default_epsilon_grid(x, y, beta):
    # grid=None reads the default grid off the tree and the query of the cut;
    # the answer must be the one on the grid that default_epsilon_grid builds
    per_marginal = []
    for pts in (x, y):
        eps = _feasible(lambda: epsilon_max(pts, beta))
        assert eps == _feasible(lambda: epsilon_max(pts, beta, default_epsilon_grid(pts)))
        per_marginal.append(eps)
    if None in per_marginal:
        with pytest.raises(NoFeasibleEpsilon):
            auto_epsilon(x, y, beta)
    else:
        assert auto_epsilon(x, y, beta) == min(per_marginal)


def test_auto_epsilon_builds_one_tree_and_one_query_per_marginal(monkeypatch):
    import ocd.epsilon

    calls = []

    def counted(name):
        fn = getattr(ocd.epsilon, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_index", "knn_query"):
        monkeypatch.setattr(ocd.epsilon, name, counted(name))
    rng = np.random.default_rng(3)
    auto_epsilon(rng.standard_normal((300, 2)), rng.standard_normal((300, 2)), beta=0.3)
    assert calls == ["build_index", "knn_query"] * 2


def test_rule_of_thumb_values():
    assert epsilon_rule_of_thumb(1, 1) == 0.75
    assert epsilon_rule_of_thumb(3, 800) == pytest.approx(0.4230678479722193)
    with pytest.raises(InvalidConfig):
        epsilon_rule_of_thumb(0, 10)
    with pytest.raises(InvalidConfig):
        epsilon_rule_of_thumb(2, 0)


def test_epsilon_crit_finds_knee():
    curve = [(0.1, 100), (0.2, 100), (0.4, 100), (0.8, 13), (1.6, 2)]
    res = epsilon_crit(curve)
    assert res.epsilon == 0.4
    assert not res.low_confidence
    assert res.curvature.shape == (3,)


def test_epsilon_crit_power_law_is_low_confidence():
    curve = [(0.1, 100), (0.2, 50), (0.4, 25), (0.8, 12.5), (1.6, 6.25)]
    res = epsilon_crit(curve)
    assert res.low_confidence
    assert res.epsilon == 0.4    # mid-grid fallback


def test_epsilon_crit_validation():
    with pytest.raises(CurveTooShort):
        epsilon_crit([(0.1, 10), (0.2, 5), (0.4, 3), (0.8, 1)])
    with pytest.raises(InvalidConfig):
        epsilon_crit([(0.4, 10), (0.2, 9), (0.1, 8), (0.05, 7), (0.01, 6)])
    with pytest.raises(InvalidConfig):
        epsilon_crit([(0.1, 10), (0.2, 5), (0.4, 0), (0.8, 1), (1.6, 1)])


def test_sweep_shares_initial_reference():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 1))
    y = rng.standard_normal((30, 1)) + 1.0
    cfg = SolverConfig(epsilon=1.0, dt=0.05, max_steps=40, estimator="constant",
                       stepper="euler")
    rows = epsilon_sweep(x, y, l2_cost_model(), cfg, [0.05, 0.2])
    assert [r.epsilon for r in rows] == [0.05, 0.2]
    assert rows[0].emd_cost == rows[1].emd_cost
    for row in rows:
        assert not row.failed
        assert np.isfinite(row.final_cost) and np.isfinite(row.joint_distance)
        assert row.steps > 0 and row.wall_time_ms >= 0.0
        final = run(new_ensemble(x, y), l2_cost_model(),
                    dataclasses.replace(cfg, epsilon=row.epsilon)).final_ensemble
        assert row.n_clusters_x == count_clusters(final.x_samples, row.epsilon).n_clusters
        assert row.n_clusters_y == count_clusters(final.y_samples, row.epsilon).n_clusters


def test_sweep_records_failed_row_and_continues():
    x = np.array([[-1.0], [1.0]])
    y = np.array([[-2.0], [2.0]])
    cfg = SolverConfig(epsilon=1.0, dt=1e3, max_steps=200, stagnation_window=5,
                       estimator="constant", stepper="euler")
    rows = epsilon_sweep(x, y, l2_cost_model(), cfg, [1e-12, np.inf])
    # singleton clusters freeze the state: that row succeeds by stagnation
    assert not rows[0].failed
    # the coupled run explodes at this step size and is recorded, not raised
    assert rows[1].failed
    assert np.isnan(rows[1].final_cost) and np.isnan(rows[1].joint_distance)
    assert rows[1].message != ""
    assert np.isfinite(rows[1].emd_cost)


def test_sweep_is_deterministic_apart_from_timing():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((25, 2))
    y = rng.standard_normal((25, 2))
    cfg = SolverConfig(epsilon=1.0, dt=0.05, max_steps=25)
    grid = [0.3, 0.9]
    rows_a = epsilon_sweep(x, y, l2_cost_model(), cfg, grid)
    rows_b = epsilon_sweep(x, y, l2_cost_model(), cfg, grid)
    for a, b in zip(rows_a, rows_b):
        da = dataclasses.asdict(a)
        db = dataclasses.asdict(b)
        da.pop("wall_time_ms")
        db.pop("wall_time_ms")
        assert da == db
