import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import cKDTree

from ocd import (
    CurveTooShort,
    InvalidConfig,
    NoFeasibleEpsilon,
    NonFiniteResult,
    SolverConfig,
    auto_epsilon,
    build_index,
    cluster_count_csr,
    cluster_curve,
    count_clusters,
    default_epsilon_grid,
    epsilon_crit,
    epsilon_max,
    epsilon_rule_of_thumb,
    epsilon_sweep,
    l2_cost_model,
    neighbor_csr,
    new_ensemble,
    run,
)

from oracles import epsilon_max_scan, next_count_change


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


# a duplicate pair and a grid point whose square underflows to 0: the
# tree merges the pair there, so the ratio already fails at the first point
UNDERFLOW_CASE = (np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), 0.7, [1e-170, 1e-160, 0.5])


@settings(max_examples=300, deadline=None)
@given(epsilon_cases())
@example(UNDERFLOW_CASE)
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
@example(UNDERFLOW_CASE)
def test_cluster_curve_equals_count_per_grid_point(case):
    # the bounding-box diagonal, one ulp above it and inf: the tree decides
    # at the first two, the complete-graph shortcut at inf
    pts, _, grid = case
    diag = float(np.linalg.norm(np.ptp(pts, axis=0)))
    extra = [diag, np.nextafter(diag, np.inf)] if diag > 0 else []
    grid = sorted(set(grid + extra + [np.inf]))
    curve = cluster_curve(build_index(pts), grid)
    assert curve.tolist() == [count_clusters(pts, e).n_clusters for e in grid]


def test_cluster_curve_reads_one_graph_at_the_largest_epsilon():
    pts = np.random.default_rng(3).standard_normal((50, 2))
    index = build_index(pts)
    grid = [0.3, 0.05, 1.2, 0.6]
    with mock.patch("ocd.epsilon.neighbor_csr", wraps=neighbor_csr) as spy:
        curve = cluster_curve(index, grid)
    spy.assert_called_once_with(index, 1.2)
    assert curve.tolist() == [count_clusters(pts, e).n_clusters for e in grid]


def tree_distance_grid(pts):
    """The tree's own nearest pair distances and one ulp either side of each."""
    dist = cKDTree(pts).query(pts, k=min(pts.shape[0], 4))[0][:, 1:].ravel()
    return np.unique(np.concatenate(
        [dist, np.nextafter(dist, 0.0), np.nextafter(dist, np.inf)]
    ))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**31),
)
# the tree and a column-order sum round this pair's length to opposite
# sides of its distance
@example(n=2, dim=8, seed=208)
def test_cluster_curve_at_the_tree_distances(n, dim, seed):
    # on these grid points the rounding of each squared length decides
    # membership, and the tree's verdict is the count's
    pts = np.random.default_rng(seed).standard_normal((n, dim))
    grid = tree_distance_grid(pts)
    curve = cluster_curve(build_index(pts), grid)
    assert curve.tolist() == [count_clusters(pts, e).n_clusters for e in grid]


def test_cluster_curve_recounts_only_at_the_ties():
    # the tie grid of the example above, with one point well below and one
    # well above it: only the three tie points are recounted by neighbor_csr
    pts = np.random.default_rng(208).standard_normal((2, 8))
    ties = tree_distance_grid(pts)
    grid = [0.5 * ties[0], *ties, 2.0 * ties[-1]]
    index = build_index(pts)
    with mock.patch("ocd.epsilon.neighbor_csr", wraps=neighbor_csr) as spy:
        curve = cluster_curve(index, grid)
    assert [c.args for c in spy.call_args_list] == [(index, grid[-1])] + [
        (index, t) for t in ties]
    assert curve.tolist() == [count_clusters(pts, e).n_clusters for e in grid]


def test_cluster_curve_validation():
    index = build_index(np.zeros((3, 1)))
    for grid in ([], [0.0, 1.0], [np.nan]):
        with pytest.raises(InvalidConfig):
            cluster_curve(index, grid)


def test_default_grid_spans_data_scales():
    pts = np.random.default_rng(1).standard_normal((200, 2))
    grid = default_epsilon_grid(build_index(pts))
    assert 16 <= grid.size <= 48
    assert np.all(np.diff(grid) > 0)
    span = pts.max(axis=0) - pts.min(axis=0)
    assert grid[-1] == pytest.approx(float(np.linalg.norm(span)))
    # low end sits below the tightest gap: every point is its own cluster
    assert count_clusters(pts, grid[0]).n_clusters == 200


def test_default_grid_single_point():
    np.testing.assert_allclose(default_epsilon_grid(build_index(np.array([[3.0]]))), [1.0])


def test_default_grid_tolerates_duplicates():
    pts = np.array([[0.0], [0.0], [1.0], [2.0]])
    grid = default_epsilon_grid(build_index(pts))
    assert np.all(grid > 0) and np.all(np.isfinite(grid))


# ε rules on clouds whose squared bounding-box diagonal overflows: a rule
# raises where neighbor_csr raises at a finite ε, and the curve counts
# wherever neighbor_csr answers, ε = inf included; nothing warns
OVERFLOW_RULES = {
    "default_epsilon_grid": (lambda p: default_epsilon_grid(build_index(p)), NonFiniteResult),
    "epsilon_max": (lambda p: epsilon_max(p, 0.9), NonFiniteResult),
    "auto_epsilon": (lambda p: auto_epsilon(p, p), NonFiniteResult),
    "epsilon_max_grid": (lambda p: epsilon_max(p, 0.9, grid=[1.0, 2.0]), NonFiniteResult),
    "cluster_curve": (lambda p: cluster_curve(build_index(p), [1.0, np.inf]), [3, 1]),
}


@pytest.mark.parametrize("pts", [
    np.array([[-1e200], [1e200], [0.0]]),
    np.array([[-1e200, 0.0], [1e200, 0.0], [0.0, 1e200]]),
], ids=["1d", "2d"])
@pytest.mark.parametrize("rule", OVERFLOW_RULES)
def test_epsilon_rules_on_an_overflowing_diagonal(rule, pts):
    call, expected = OVERFLOW_RULES[rule]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is NonFiniteResult:
            with pytest.raises(NonFiniteResult):
                call(pts)
        else:
            np.testing.assert_array_equal(call(pts), expected)


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
def test_epsilon_max_is_the_exact_beta_threshold(x, y, beta):
    # grid=None answers inside the last run of radii that keep the ratio:
    # it holds there and fails from the next count change on.  A cloud
    # whose exact duplicates alone bring the ratio to beta has no answer.
    per_marginal = []
    for pts in (x, y):
        n = pts.shape[0]
        eps = _feasible(lambda: epsilon_max(pts, beta))
        per_marginal.append(eps)
        assert (eps is None) == (np.unique(pts, axis=0).shape[0] / n <= beta)
        if eps is None:
            continue
        assert count_clusters(pts, eps).n_clusters / n > beta
        if 1 / n > beta:
            # one cluster keeps the ratio: the answer is the diagonal
            assert eps == (float(np.linalg.norm(np.ptp(pts, axis=0))) or 1.0)
        else:
            beyond = next_count_change(pts, eps)
            assert count_clusters(pts, beyond).n_clusters / n <= beta
    if None in per_marginal:
        with pytest.raises(NoFeasibleEpsilon):
            auto_epsilon(x, y, beta)
    else:
        assert auto_epsilon(x, y, beta) == min(per_marginal)


def test_auto_epsilon_does_not_move_with_the_draw():
    # the answer must not step with each draw's smallest gap: snapped to
    # the default grid, these 12 draws resolve values 1.64x apart
    values = []
    for seed in range(1, 13):
        rng = np.random.default_rng(seed)
        values.append(auto_epsilon(rng.standard_normal((20000, 2)),
                                   rng.standard_normal((20000, 2))))
    assert max(values) / min(values) <= 1.05


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


@pytest.mark.parametrize("record_diagnostics", [False, True])
def test_sweep_row_counts_clusters_once_per_marginal(record_diagnostics):
    # a row reports no diagnostics, so its run records none whatever the
    # template says: the row's counts are the only component searches, one
    # per marginal at the final state
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal((30, 2))
    cfg = SolverConfig(epsilon=1.0, dt=0.05, max_steps=10, estimator="constant",
                       stepper="euler", gamma_abs=0.0, gamma_rel=0.0,
                       record_diagnostics=record_diagnostics)
    spy = mock.Mock(wraps=cluster_count_csr)
    with mock.patch("ocd.dynamics.cluster_count_csr", spy), \
            mock.patch("ocd.epsilon.cluster_count_csr", spy):
        (row,) = epsilon_sweep(x, y, l2_cost_model(), cfg, [0.5])
    assert not row.failed and row.steps == 10
    assert spy.call_count == 2


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


def test_sweep_checks_the_whole_grid_before_any_work():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal((30, 2))
    cfg = SolverConfig(epsilon=1.0, max_steps=5)
    with mock.patch("ocd.epsilon.emd") as emd_spy, mock.patch("ocd.epsilon.run") as run_spy:
        with pytest.raises(InvalidConfig):
            epsilon_sweep(x, y, l2_cost_model(), cfg, [0.5, 0.3, -1.0])
    assert emd_spy.call_count == run_spy.call_count == 0


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
