import json

import numpy as np
import pytest

from ocd import (
    ImageSamples,
    ParseError,
    RunManifest,
    SolverConfig,
    StepDiagnostics,
    read_manifest,
    read_pgm,
    read_ppm,
    read_samples_csv,
    write_diagnostics_jsonl,
    write_manifest,
    write_pairs_csv,
    write_pgm,
    write_ppm,
    write_samples_csv,
)
from ocd.io import SWEEP_COLUMNS, write_sweep_csv
from ocd.epsilon import SweepRow


def test_samples_csv_round_trip_is_bit_exact(tmp_path):
    m = np.random.default_rng(0).standard_normal((17, 3))
    m[0, 0] = 1e-17
    m[1, 1] = -0.0
    path = tmp_path / "m.csv"
    write_samples_csv(m, path)
    np.testing.assert_array_equal(read_samples_csv(path), m)


def test_samples_csv_column_example(tmp_path):
    path = tmp_path / "col.csv"
    path.write_text("x1\n0\n1\n")
    np.testing.assert_array_equal(read_samples_csv(path), [[0.0], [1.0]])


def test_samples_csv_tolerates_trailing_blank_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,x2\n1.5,2.5\n\n")
    np.testing.assert_array_equal(read_samples_csv(path), [[1.5, 2.5]])


def test_samples_csv_accepts_crlf(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"x1\r\n3.5\r\n")
    np.testing.assert_array_equal(read_samples_csv(path), [[3.5]])


def test_samples_csv_parse_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        read_samples_csv(empty)

    headed = tmp_path / "headed.csv"
    headed.write_text("x1,x2\n")
    with pytest.raises(ParseError, match="no data rows"):
        read_samples_csv(headed)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x1,x2\n1.0\n")
    with pytest.raises(ParseError) as info:
        read_samples_csv(ragged)
    assert info.value.line == 2

    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError) as info:
        read_samples_csv(bad)
    assert info.value.line == 3
    assert info.value.column == 2


def test_pairs_csv_header_and_values(tmp_path):
    path = tmp_path / "pairs.csv"
    write_pairs_csv([[1.0, 2.0]], [[3.0, 4.0]], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,y1,y2"
    assert lines[1] == "1.0,2.0,3.0,4.0"


def test_diagnostics_jsonl_schema(tmp_path):
    d = StepDiagnostics(
        step_index=3, time=0.3, transport_cost=1.25,
        cross_correlation=np.eye(2), min_sym_eig=0.5,
        marginal_drift_x=0.01, marginal_drift_y=0.02,
        n_clusters_x=4, n_clusters_y=5,
    )
    path = tmp_path / "diag.jsonl"
    write_diagnostics_jsonl([d, d], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert list(rec) == ["step", "time", "cost", "min_sym_eig",
                         "drift_x", "drift_y", "n_clusters_x", "n_clusters_y"]
    assert rec["step"] == 3 and rec["cost"] == 1.25


def test_manifest_round_trip(tmp_path):
    cfg = SolverConfig(epsilon=0.3, dt=0.05, max_steps=77, seed=9)
    man = RunManifest(subcommand="solve", config=cfg,
                      inputs={"x": "x.csv", "y": "y.csv"},
                      output_dir="out", seed=9, extra={"note": "hi"})
    path = tmp_path / "manifest.json"
    write_manifest(man, path)
    back = read_manifest(path)
    assert back == man
    assert back.config.epsilon == 0.3


def test_manifest_config_field_errors_are_parse_errors(tmp_path):
    # manifests of earlier versions carry the retired frozen-cluster option
    config = {"epsilon": 0.3, "epsilon_hat": 0.0, "dt": 0.1, "max_steps": 1000,
              "gamma_abs": 0.01, "gamma_rel": 0.0001, "stagnation_window": 50,
              "estimator": "linear", "stepper": "rk4", "seed": 0,
              "record_diagnostics": True, "freeze_clusters_within_step": False}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"subcommand": "solve", "config": config}))
    with pytest.raises(ParseError, match="freeze_clusters_within_step"):
        read_manifest(path)
    del config["freeze_clusters_within_step"], config["epsilon"]
    path.write_text(json.dumps({"subcommand": "solve", "config": config}))
    with pytest.raises(ParseError, match="epsilon"):
        read_manifest(path)


def test_manifest_bytes_are_stable(tmp_path):
    man = RunManifest(subcommand="emd", config=None, inputs={},
                      output_dir=".", seed=0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_manifest(man, a)
    write_manifest(man, b)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv_columns(tmp_path):
    row = SweepRow(epsilon=0.1, final_cost=1.0, emd_cost=0.9, joint_distance=0.2,
                   n_clusters_x=10, n_clusters_y=11, steps=12, wall_time_ms=34.5)
    path = tmp_path / "sweep.csv"
    write_sweep_csv([row], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert lines[1].split(",")[:4] == ["0.1", "1.0", "0.9", "0.2"]
    assert lines[1].split(",")[4:7] == ["10", "11", "12"]


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = ImageSamples(np.rint(rng.random((12, 3)) * 255) / 255.0, 4, 3)
    path = tmp_path / "img.ppm"
    write_ppm(img, path)
    back = read_ppm(path)
    assert (back.width, back.height) == (4, 3)
    np.testing.assert_allclose(back.pixels, img.pixels, atol=1e-12)


def test_ppm_ascii_round_trip(tmp_path):
    img = ImageSamples(np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.5]]), 2, 1)
    path = tmp_path / "img_ascii.ppm"
    write_ppm(img, path, ascii_format=True)
    assert path.read_bytes().startswith(b"P3\n")
    back = read_ppm(path)
    np.testing.assert_allclose(back.pixels, [[0.0, 128 / 255, 1.0],
                                             [1.0, 0.0, 128 / 255]])


def test_ppm_honors_comments(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P3\n# a comment\n1 1\n255\n10 20 30\n")
    back = read_ppm(path)
    np.testing.assert_allclose(back.pixels, [[10 / 255, 20 / 255, 30 / 255]])


def test_pgm_round_trip(tmp_path):
    img = np.rint(np.random.default_rng(2).random((5, 7)) * 255) / 255.0
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    np.testing.assert_allclose(read_pgm(path), img, atol=1e-12)


def test_pnm_parse_errors(tmp_path):
    bad_magic = tmp_path / "bad.ppm"
    bad_magic.write_bytes(b"P9\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(ParseError):
        read_ppm(bad_magic)

    bad_maxval = tmp_path / "maxval.ppm"
    bad_maxval.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
    with pytest.raises(ParseError, match="maxval"):
        read_ppm(bad_maxval)

    truncated = tmp_path / "trunc.ppm"
    truncated.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
    with pytest.raises(ParseError):
        read_ppm(truncated)

    wrong_kind = tmp_path / "gray.ppm"
    wrong_kind.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ParseError):
        read_ppm(wrong_kind)
