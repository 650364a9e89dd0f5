import json
import warnings

import numpy as np
import pytest

from ocd import (
    ImageSamples,
    SolverConfig,
    auto_epsilon,
    read_ppm,
    read_samples_csv,
    write_ppm,
    write_samples_csv,
)
from ocd.cli import _EPSILON_RULES, _make_config, build_parser, main
from ocd.io import SWEEP_COLUMNS


@pytest.fixture
def clouds(tmp_path):
    rng = np.random.default_rng(0)
    xp = tmp_path / "x.csv"
    yp = tmp_path / "y.csv"
    write_samples_csv(rng.standard_normal((20, 1)), xp)
    write_samples_csv(rng.standard_normal((20, 1)) + 1.0, yp)
    return xp, yp


def test_solve_writes_outputs(clouds, tmp_path, capsys):
    xp, yp = clouds
    out = tmp_path / "run"
    code = main(["solve", "--x", str(xp), "--y", str(yp), "--eps", "0.5",
                 "--max-steps", "15", "--out", str(out)])
    assert code == 0
    assert "terminated:" in capsys.readouterr().out
    pairs = read_samples_csv(out / "pairs.csv")
    assert pairs.shape == (20, 2)
    records = [json.loads(l) for l in (out / "diagnostics.jsonl").read_text().splitlines()]
    assert records[0]["step"] == 0
    assert records[-1]["step"] == len(records) - 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "solve"
    assert manifest["config"]["epsilon"] == 0.5
    assert manifest["extra"]["eps_flag"] == "0.5"


def test_solve_runs_are_byte_identical(clouds, tmp_path):
    xp, yp = clouds
    argv = ["solve", "--x", str(xp), "--y", str(yp), "--eps", "0.4",
            "--max-steps", "10"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    for name in ("pairs.csv", "diagnostics.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.fixture
def brenier_clouds(tmp_path):
    # x ~ N(0, I), y = z + z**3 / 2 with z ~ N(0, I): 200 points in d = 2
    rng = np.random.default_rng(42)
    x = rng.standard_normal((200, 2))
    z = rng.standard_normal((200, 2))
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    write_samples_csv(x, xp)
    write_samples_csv(z + z**3 / 2, yp)
    return xp, yp


def test_solve_crit_resolves_a_pinned_epsilon(brenier_clouds, tmp_path):
    # the knee of x's cluster curve on the default grid: a change to the
    # grid, the curve or the knee shows up here
    xp, yp = brenier_clouds
    out = tmp_path / "crit"
    assert main(["solve", "--x", str(xp), "--y", str(yp), "--eps", "crit",
                 "--max-steps", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extra"]["resolved_epsilon"] == 1.4112568145631053


def test_solve_crit_on_an_overflowing_cloud_is_one_typed_error(tmp_path, capsys):
    # the squared diagonal of x overflows: the grid cannot be drawn
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    write_samples_csv([[-1e200, 0.0], [1e200, 1.0], [0.0, 2.0], [1.0, 3.0], [2.0, 4.0]], xp)
    write_samples_csv(np.arange(10.0).reshape(5, 2), yp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--x", str(xp), "--y", str(yp), "--eps", "crit",
                     "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "NonFiniteResult" in err[0]


def test_solve_crit_builds_one_tree_and_one_query(brenier_clouds, tmp_path, monkeypatch):
    # the default grid and the cluster curve read the same index of x
    import ocd.cli
    import ocd.epsilon

    xp, yp = brenier_clouds
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(ocd.cli, "build_index")
    for name in ("build_index", "knn_query"):
        counted(ocd.epsilon, name)
    assert main(["solve", "--x", str(xp), "--y", str(yp), "--eps", "crit",
                 "--max-steps", "1", "--out", str(tmp_path / "crit")]) == 0
    assert [name for name, _ in calls] == ["build_index", "knn_query"]
    x = read_samples_csv(xp)
    np.testing.assert_array_equal(calls[0][1], x)
    np.testing.assert_array_equal(calls[1][1].points, x)


def test_solve_numeric_epsilon_writes_the_same_pairs_twice(brenier_clouds, tmp_path):
    xp, yp = brenier_clouds
    argv = ["solve", "--x", str(xp), "--y", str(yp), "--eps", "0.2", "--max-steps", "4"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert (a / "pairs.csv").read_bytes() == (b / "pairs.csv").read_bytes()


@pytest.mark.parametrize("eps_flag", _EPSILON_RULES)
def test_solve_named_epsilon_rules(clouds, tmp_path, eps_flag):
    xp, yp = clouds
    out = tmp_path / eps_flag
    code = main(["solve", "--x", str(xp), "--y", str(yp), "--eps", eps_flag,
                 "--max-steps", "5", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extra"]["resolved_epsilon"] > 0


def test_solve_rejects_bad_epsilon_spec(clouds, tmp_path, capsys):
    xp, yp = clouds
    code = main(["solve", "--x", str(xp), "--y", str(yp), "--eps", "tiny",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "InvalidConfig" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--gamma-abs", "--gamma-rel"])
def test_solve_rejects_nan_stopping_threshold(clouds, tmp_path, capsys, flag):
    # NaN fails every comparison, so it would switch the stopping rule off
    xp, yp = clouds
    out = tmp_path / "o"
    code = main(["solve", "--x", str(xp), "--y", str(yp), "--eps", "0.5",
                 flag, "nan", "--max-steps", "3", "--out", str(out)])
    assert code == 1
    assert "InvalidConfig" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_dist_matrix_and_color_transfer_reject_bad_epsilon_spec(clouds, tmp_path, capsys):
    xp, yp = clouds
    rng = np.random.default_rng(3)
    src, tgt = tmp_path / "s.ppm", tmp_path / "t.ppm"
    write_ppm(ImageSamples(rng.random((24, 3)), 6, 4), src)
    write_ppm(ImageSamples(rng.random((24, 3)), 6, 4), tgt)
    color = ["color-transfer", "--source", str(src), "--target", str(tgt), "--n-train", "12"]
    # at alpha 0 nothing is solved, but the spec is still read
    for argv in (["dist-matrix", "--inputs", str(xp), str(yp)], color, color + ["--alpha", "0"]):
        code = main(argv + ["--eps", "abc", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "InvalidConfig" in err and "--eps" in err


def test_dist_matrix_needs_two_inputs(clouds, tmp_path, capsys):
    xp, _ = clouds
    code = main(["dist-matrix", "--inputs", str(xp), "--eps", "auto",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "InvalidConfig" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--x", "x.csv", "--y", "y.csv"],
    ["sweep-eps", "--x", "x.csv", "--y", "y.csv", "--grid", "0.1"],
    ["dist-matrix", "--inputs", "a.csv", "b.csv"],
    ["color-transfer", "--source", "a.ppm", "--target", "b.ppm"],
])
def test_solver_flag_defaults_are_the_config_defaults(argv):
    args = build_parser().parse_args(argv)
    assert _make_config(args, 1.0) == SolverConfig(epsilon=1.0)


@pytest.mark.parametrize("argv", [
    ["solve", "--x", "nope.csv", "--y", "nope.csv", "--eps", "crit", "--dt", "-1"],
    ["solve", "--x", "nope.csv", "--y", "nope.csv", "--eps", "abc"],
    ["dist-matrix", "--inputs", "nope.csv", "nope.csv", "--dt", "-1"],
])
def test_bad_solver_flags_exit_1_before_any_input_is_read(tmp_path, monkeypatch, capsys,
                                                          argv):
    import ocd.cli

    read = ocd.cli.ocd_io.read_samples_csv
    paths = []
    monkeypatch.setattr(ocd.cli.ocd_io, "read_samples_csv",
                        lambda path: paths.append(path) or read(path))
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert "InvalidConfig" in capsys.readouterr().err
    assert paths == []


@pytest.mark.parametrize("argv", [
    ["solve", "--x", "x.csv", "--y", "y.csv", "--seed", "1"],
    ["sweep-eps", "--x", "x.csv", "--y", "y.csv", "--grid", "0.1", "--eps", "0.3"],
    ["sweep-eps", "--x", "x.csv", "--y", "y.csv", "--grid", "0.1", "--seed", "1"],
])
def test_flags_that_change_no_output_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_missing_input_exits_2(tmp_path, capsys):
    code = main(["solve", "--x", str(tmp_path / "nope.csv"),
                 "--y", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solve_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1\n1.0\nnot-a-number\n")
    code = main(["solve", "--x", str(bad), "--y", str(bad),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


def test_emd_prints_cost_and_assignment(tmp_path, capsys):
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    write_samples_csv([[0.0], [1.0]], xp)
    write_samples_csv([[2.0], [3.0]], yp)
    code = main(["emd", "--x", str(xp), "--y", str(yp), "--out", str(tmp_path)])
    assert code == 0
    assert "d2 = 4.0" in capsys.readouterr().out
    assert (tmp_path / "assignment.csv").read_text() == "index,assignment\n0,0\n1,1\n"


def test_gaussian_oracle_outputs(tmp_path, capsys):
    code = main(["gaussian-oracle", "--sigma-mu", "1.0", "--sigma-nu", "2.0",
                 "--dt", "0.001", "--t-final", "0.5", "--out", str(tmp_path)])
    assert code == 0
    assert "d2 = 1.0" in capsys.readouterr().out   # (1 - 2)^2
    lines = (tmp_path / "riccati.csv").read_text().splitlines()
    assert lines[0] == "time,j,kappa,kappa_closed_form"
    last = [float(t) for t in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.5)
    assert last[2] == pytest.approx(last[3], abs=1e-6)  # kappa tracks closed form


def test_sweep_eps_csv(clouds, tmp_path):
    xp, yp = clouds
    out = tmp_path / "sweep"
    code = main(["sweep-eps", "--x", str(xp), "--y", str(yp),
                 "--grid", "0.1,0.5", "--max-steps", "10", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    assert [l.split(",")[0] for l in lines[1:]] == ["0.1", "0.5"]


@pytest.mark.parametrize("grid", ["0.5,abc", "", "0.1;0.5"])
def test_sweep_eps_rejects_malformed_grid(clouds, tmp_path, capsys, grid):
    xp, yp = clouds
    code = main(["sweep-eps", "--x", str(xp), "--y", str(yp),
                 "--grid", grid, "--out", str(tmp_path / "sweep")])
    assert code == 1
    err = capsys.readouterr().err
    assert "InvalidConfig" in err and "--grid" in err
    assert not (tmp_path / "sweep").exists()


def test_sample_subcommand_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = main(["sample", "--dist", "softmax-pushforward", "--n", "25",
                     "--dim", "2", "--seed", "5", "--out-file", str(path),
                     "--out", str(tmp_path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    samples = read_samples_csv(a)
    assert samples.shape == (25, 2)
    np.testing.assert_allclose(samples.sum(axis=1), 1.0)


def test_sample_normal_flags(tmp_path):
    path = tmp_path / "n.csv"
    code = main(["sample", "--dist", "normal", "--n", "200", "--mean", "3,0",
                 "--cov", "1,0;0,1", "--out-file", str(path),
                 "--out", str(tmp_path)])
    assert code == 0
    samples = read_samples_csv(path)
    assert samples.shape == (200, 2)
    assert samples[:, 0].mean() == pytest.approx(3.0, abs=0.3)


@pytest.mark.parametrize("flags", [
    ["--cov", "1,0;0,1;"],          # trailing row separator
    ["--cov", "1,0;0"],             # ragged rows
    ["--mean", "0,abc"],
    ["--mean", "0;1"],              # a mean has one row
    ["--cov", "1,2;2,1"],           # not positive definite
    ["--n", "-1"],
    ["--dim", "0"],
    ["--n", "0"],                   # a header-only file no command reads
])
def test_sample_malformed_flags_exit_1(tmp_path, capsys, flags):
    path = tmp_path / "n.csv"
    code = main(["sample", "--dist", "normal", "--n", "5", *flags,
                 "--out-file", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "InvalidConfig" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("dist, flags, dim, written", [
    ("banana", [], 3, 2),
    ("swiss-roll", [], 3, 2),
    ("normal", ["--mean", "0,0,0"], 2, 3),
])
def test_sample_dim_disagreeing_with_columns_exits_1(tmp_path, capsys, dist, flags, dim,
                                                     written):
    path = tmp_path / "s.csv"
    code = main(["sample", "--dist", dist, "--n", "5", "--dim", str(dim), *flags,
                 "--out-file", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "InvalidConfig" in err
    assert f"--dim {dim}" in err and f"{written} columns" in err
    assert not path.exists()


def test_sample_manifest_records_written_dim(tmp_path):
    path = tmp_path / "n.csv"
    code = main(["sample", "--dist", "normal", "--n", "5", "--mean", "0,0,0",
                 "--out-file", str(path), "--out", str(tmp_path)])
    assert code == 0
    assert read_samples_csv(path).shape == (5, 3)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["extra"]["dim"] == 3


def test_threads_flag_only_on_dist_matrix(clouds, tmp_path):
    xp, yp = clouds
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--x", str(xp), "--y", str(yp), "--threads", "2",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_ocd_threads_is_read_only_by_dist_matrix(tmp_path, monkeypatch, capsys):
    # a malformed OCD_THREADS leaves the other subcommands alone and is a
    # usage error of the one flag it sets the default of
    monkeypatch.setenv("OCD_THREADS", "3")
    assert build_parser().parse_args(["dist-matrix", "--inputs", "a", "b"]).threads == 3
    monkeypatch.setenv("OCD_THREADS", "abc")
    path = tmp_path / "s.csv"
    assert main(["sample", "--dist", "normal", "--n", "5", "--out-file", str(path),
                 "--out", str(tmp_path)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["dist-matrix", "--inputs", str(path), str(path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_dist_matrix_subcommand(tmp_path):
    rng = np.random.default_rng(1)
    paths = []
    for i, shift in enumerate((0.0, 1.5, 3.0)):
        p = tmp_path / f"d{i}.csv"
        write_samples_csv(rng.standard_normal((15, 1)) + shift, p)
        paths.append(str(p))
    out = tmp_path / "dm"
    code = main(["dist-matrix", "--inputs", *paths, "--eps", "0.6",
                 "--max-steps", "10", "--out", str(out)])
    assert code == 0
    dm = read_samples_csv(out / "distances.csv")
    assert dm.shape == (3, 3)
    np.testing.assert_allclose(dm, dm.T)
    np.testing.assert_allclose(np.diag(dm), 0.0)


def test_color_transfer_subcommand(tmp_path):
    rng = np.random.default_rng(2)
    src, tgt = tmp_path / "s.ppm", tmp_path / "t.ppm"
    write_ppm(ImageSamples(rng.random((24, 3)), 6, 4), src)
    write_ppm(ImageSamples(rng.random((24, 3)) * 0.3 + 0.7, 6, 4), tgt)
    out = tmp_path / "ct"
    code = main(["color-transfer", "--source", str(src), "--target", str(tgt),
                 "--alpha", "0.0", "--n-train", "12", "--eps", "0.5",
                 "--out", str(out)])
    assert code == 0
    # alpha 0 keeps the source image: bytes survive the quantization round trip
    assert (out / "transferred.ppm").read_bytes() == src.read_bytes()


@pytest.fixture
def grey_pair(tmp_path):
    # 12 grey levels, each on two of the 24 pixels: no cutoff keeps 90 %
    # of either image's pixels apart
    grey = np.repeat(np.arange(12) / 11.0, 2)
    src, tgt = tmp_path / "s.ppm", tmp_path / "t.ppm"
    write_ppm(ImageSamples(np.column_stack([grey] * 3), 6, 4), src)
    write_ppm(ImageSamples(np.column_stack([grey[::-1]] * 3), 6, 4), tgt)
    return src, tgt


@pytest.mark.parametrize("eps", _EPSILON_RULES)
def test_color_transfer_at_alpha_0_resolves_no_rule(grey_pair, tmp_path, capsys, eps):
    src, tgt = grey_pair
    out = tmp_path / "ct"
    argv = ["color-transfer", "--source", str(src), "--target", str(tgt),
            "--alpha", "0", "--n-train", "24", "--eps", eps, "--out", str(out)]
    assert main(argv) == 0
    assert (out / "transferred.ppm").read_bytes() == src.read_bytes()
    # nothing was solved, so the manifest records no solver config
    assert json.loads((out / "manifest.json").read_text())["config"] is None
    # the solver flags are checked all the same
    assert main(argv + ["--dt", "-1"]) == 1
    assert "InvalidConfig" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["2", "nan", "-0.5"])
def test_color_transfer_checks_alpha_before_any_image_is_read(grey_pair, tmp_path,
                                                              monkeypatch, capsys, alpha):
    # auto finds no cutoff on these pixels: alpha is refused before it runs
    import ocd.cli

    src, tgt = grey_pair
    paths = []
    read = ocd.cli.ocd_io.read_ppm
    monkeypatch.setattr(ocd.cli.ocd_io, "read_ppm", lambda path: paths.append(path) or read(path))
    out = tmp_path / "ct"
    assert main(["color-transfer", "--source", str(src), "--target", str(tgt),
                 "--alpha", alpha, "--n-train", "24", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "InvalidConfig" in err and "alpha" in err
    assert paths == [] and not out.exists()


def test_color_transfer_resolves_epsilon_on_the_training_pixels(tmp_path):
    # 87.5 % of the target's 14400 colours are distinct, so no cutoff keeps
    # 90 % of all its pixels apart; the 2000 pixels the transport is solved
    # on are almost all distinct, and auto resolves on those
    w = h = 120
    i, j = np.divmod(np.arange(w * h), w)
    src, tgt = tmp_path / "s.ppm", tmp_path / "t.ppm"
    write_ppm(ImageSamples(np.column_stack([i, j, 255 - i]) / 255.0, w, h), src)
    write_ppm(ImageSamples(np.column_stack([255 - i, j * 7 // 8, i // 2]) / 255.0, w, h), tgt)
    out = tmp_path / "ct"
    assert main(["color-transfer", "--source", str(src), "--target", str(tgt),
                 "--max-steps", "2", "--out", str(out)]) == 0
    # the draw color_transfer makes: --n-train rows of each image from --seed
    rng = np.random.default_rng(0)
    x0 = read_ppm(src).pixels[rng.choice(w * h, size=2000, replace=False)]
    y0 = read_ppm(tgt).pixels[rng.choice(w * h, size=2000, replace=False)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epsilon"] == auto_epsilon(x0, y0)
