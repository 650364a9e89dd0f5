import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from ocd import io as ocd_io
from ocd.cli import main
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


# Tokens both parsers read, tokens only float() reads, and tokens neither reads.
_TOKENS = st.sampled_from([
    "nan", "NaN", "-nan", "+nan", "inf", "-inf", "+inf", "Infinity", "-iNfInItY",
    "1e500", "-1e-400", "2.2250738585072011e-308", "5e-324", "-0.0", "1.", ".5",
    "1_0", "１", "١", "1#2", "#", "", " ", "0x10", "1d5", "nan(1)", "--1",
])
_PADS = st.sampled_from(["", " ", "  ", "\t", "　", "\xa0"])


@st.composite
def csv_texts(draw):
    """Sample CSV texts, mostly valid, some with one defect the row loop catches."""
    n_cols = draw(st.integers(min_value=1, max_value=4))
    n_rows = draw(st.integers(min_value=0, max_value=5))
    values = draw(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        min_size=n_rows * n_cols, max_size=n_rows * n_cols,
    ))
    fmt = draw(st.sampled_from([repr, lambda v: "%.17g" % v]))
    rows = []
    for r in range(n_rows):
        fields = [fmt(v) for v in values[r * n_cols:(r + 1) * n_cols]]
        for c in draw(st.lists(st.integers(0, n_cols - 1), max_size=2)):
            fields[c] = draw(_TOKENS)
        if draw(st.booleans()):
            c = draw(st.integers(0, n_cols - 1))
            fields[c] = draw(_PADS) + fields[c] + draw(_PADS)
        rows.append(fields)
    defect = draw(st.sampled_from(["none", "none", "none", "ragged", "header", "blank"]))
    if defect == "ragged" and rows:
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1.0"]
    header_cols = n_cols + (draw(st.sampled_from([-1, 1])) if defect == "header" else 0)
    lines = [",".join(f"x{j + 1}" for j in range(header_cols))] + [",".join(f) for f in rows]
    if defect == "blank" and rows:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    trailing = draw(st.sampled_from(["", newline, newline * 2, newline + " " + newline]))
    return newline.join(lines) + trailing


def _parse_outcome(parse):
    """The matrix a parser returns, or its ParseError as (message, line, column)."""
    try:
        return parse()
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


def _same_outcome(got, ref):
    if isinstance(ref, tuple) or isinstance(got, tuple):
        return got == ref
    # bit for bit, so NaN compares equal to itself and -0.0 differs from 0.0
    return (got.dtype == ref.dtype == np.float64 and got.shape == ref.shape
            and np.array_equal(got.view(np.uint64), ref.view(np.uint64)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
def test_samples_csv_fast_path_agrees_with_the_row_loop(tmp_path, text):
    path = tmp_path / "agree.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _parse_outcome(lambda: read_samples_csv(path))
    ref = _parse_outcome(lambda: ocd_io._parse_lines(text.splitlines()))
    assert _same_outcome(got, ref), (got, ref)


def test_samples_csv_takes_the_fast_path_and_falls_back(tmp_path):
    # a file as write_samples_csv writes it, e.g. the benchmark's inputs
    m = np.random.default_rng(3).standard_normal((500, 2))
    written = tmp_path / "written.csv"
    write_samples_csv(m, written)
    rejected = {
        "underscore": "x1,x2\n1_0,2\n",
        "full-width digit": "x1,x2\n１,2\n",
        "whitespace line": "x1,x2\n1,2\n \n3,4\n",
        "hash": "x1,x2\n1,2#3\n",
        "ragged": "x1,x2\n1,2\n3\n",
        "header wider": "x1,x2,x3\n1,2\n",
        "header only": "x1,x2\n",
        "blank body": "x1,x2\n\n\n",
    }
    with mock.patch.object(ocd_io, "_parse_lines", side_effect=ocd_io._parse_lines) as spy:
        np.testing.assert_array_equal(read_samples_csv(written), m)
        assert spy.call_count == 0
        for name, text in rejected.items():
            path = tmp_path / "rejected.csv"
            path.write_text(text)
            spy.reset_mock()
            _parse_outcome(lambda: read_samples_csv(path))
            assert spy.call_count == 1, name


def test_undecodable_samples_are_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x1,x2\n1,2\n3,\xff\n")
    with pytest.raises(ParseError, match="not UTF-8") as info:
        read_samples_csv(bad)
    assert info.value.line == 3
    good = tmp_path / "good.csv"
    write_samples_csv(np.zeros((3, 2)), good)
    bom = tmp_path / "utf16.csv"
    bom.write_bytes(b"\xff\xfe")
    code = main(["solve", "--x", str(bom), "--y", str(good), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: line 1: not UTF-8") and err.count("\n") == 1


def test_pairs_csv_header_and_values(tmp_path):
    path = tmp_path / "pairs.csv"
    write_pairs_csv([[1.0, 2.0]], [[3.0, 4.0]], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,y1,y2"
    assert lines[1] == "1.0,2.0,3.0,4.0"


def test_csv_bytes_are_shortest_repr(tmp_path):
    x = np.array([[-0.0, 5e-324], [1e300, 3.0]])
    y = np.array([[-2.0, 0.1], [1e-17, -1e16]])
    samples, pairs = tmp_path / "s.csv", tmp_path / "p.csv"
    write_samples_csv(x, samples)
    write_pairs_csv(x, y, pairs)
    assert samples.read_bytes() == b"x1,x2\n-0.0,5e-324\n1e+300,3.0\n"
    assert pairs.read_bytes() == (
        b"x1,x2,y1,y2\n-0.0,5e-324,-2.0,0.1\n1e+300,3.0,1e-17,-1e+16\n"
    )


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


def test_manifest_with_null_config_reads_none(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"subcommand": "emd", "config": None}))
    assert read_manifest(path).config is None


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


def test_malformed_manifests_are_parse_errors(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(RunManifest(subcommand="emd", config=None, inputs={},
                               output_dir=".", seed=0), path)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(ParseError, match="not a JSON manifest") as info:
        read_manifest(path)
    assert info.value.line is not None and info.value.column is not None
    path.write_bytes(b'{"subcommand": "emd", "output_dir": "\xff"}')
    with pytest.raises(ParseError, match="not UTF-8"):
        read_manifest(path)
    for payload in (b"[]", b'{"seed": 1}'):
        path.write_bytes(payload)
        with pytest.raises(ParseError, match="subcommand"):
            read_manifest(path)
    path.write_bytes(b'{"subcommand": "solve", "config": 3}')
    with pytest.raises(ParseError, match="config"):
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


def test_ppm_round_trip_rounds_off_level_pixels(tmp_path):
    img = ImageSamples(np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.5]]), 2, 1)
    path = tmp_path / "img.ppm"
    write_ppm(img, path)
    assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes([0, 128, 255, 255, 0, 128])
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


@pytest.mark.parametrize("raw, match", [
    (b"P3\n2 1", "truncated image header"),
    (b"P3\n2 x\n255\n1 2 3 4 5 6\n", "non-integer image dimensions"),
    (b"P3\n0 1\n255\n", "bad image dimensions"),
    (b"P3\n2 1\n255\n1 2 3 4 5\n", "expected 6 pixel values, got 5"),
    (b"P3\n1 1\n255\n1 2.5 3\n", "non-integer pixel value"),
    (b"P3\n1 1\n255\n1 256 3\n", "outside"),
])
def test_ascii_pnm_parse_errors(tmp_path, raw, match):
    path = tmp_path / "bad.ppm"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=match):
        read_ppm(path)
