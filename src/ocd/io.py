"""File formats: sample CSV, diagnostics JSONL, manifests, sweep tables, PPM.

Floats are written with Python's shortest round-trip repr, so a write/read
cycle is bit-exact and repeated runs produce byte-identical files.  All
text files are UTF-8 with LF newlines; CRLF is accepted on input.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .applications import ImageSamples
from .core import SolverConfig
from .errors import InvalidConfig, ParseError

FORMAT_VERSION = "1"


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# sample matrices


def _write_csv(path, header: str, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in m.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def write_samples_csv(matrix, path) -> None:
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    _write_csv(path, ",".join(f"x{j + 1}" for j in range(m.shape[1])), m)


def read_samples_csv(path) -> np.ndarray:
    """Read a headered CSV of decimal values into an (N, n) matrix."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header line", line=1)
    n_cols = len(lines[0].split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue  # tolerate a trailing blank line
        fields = line.split(",")
        if len(fields) != n_cols:
            raise ParseError(
                f"line {lineno}: expected {n_cols} fields, got {len(fields)}",
                line=lineno,
            )
        row = []
        for colno, tok in enumerate(fields, start=1):
            try:
                row.append(float(tok))
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {colno}: not a number: {tok!r}",
                    line=lineno,
                    column=colno,
                ) from None
        rows.append(row)
    if not rows:
        raise ParseError("file contains a header but no data rows", line=2)
    return np.array(rows, dtype=np.float64)


def write_pairs_csv(x_samples, y_samples, path) -> None:
    """Paired rows as x1..xn,y1..yn with one header line."""
    x = np.atleast_2d(np.asarray(x_samples, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y_samples, dtype=np.float64))
    if x.shape != y.shape:
        raise InvalidConfig(f"pair halves must share shape, got {x.shape} and {y.shape}")
    n = x.shape[1]
    header = ",".join(
        [f"x{j + 1}" for j in range(n)] + [f"y{j + 1}" for j in range(n)]
    )
    _write_csv(path, header, np.hstack([x, y]))


# ---------------------------------------------------------------------------
# diagnostics and manifests


def write_diagnostics_jsonl(history, path) -> None:
    """One JSON object per recorded step."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in history:
            fh.write(
                json.dumps(
                    {
                        "step": d.step_index,
                        "time": d.time,
                        "cost": d.transport_cost,
                        "min_sym_eig": d.min_sym_eig,
                        "drift_x": d.marginal_drift_x,
                        "drift_y": d.marginal_drift_y,
                        "n_clusters_x": d.n_clusters_x,
                        "n_clusters_y": d.n_clusters_y,
                    }
                )
                + "\n"
            )


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a CLI run byte-for-byte."""

    subcommand: str
    config: SolverConfig | None
    inputs: dict
    output_dir: str
    seed: int
    format_version: str = FORMAT_VERSION
    extra: dict = field(default_factory=dict)


def write_manifest(manifest: RunManifest, path) -> None:
    payload = dataclasses.asdict(manifest)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_from_manifest(config) -> SolverConfig | None:
    if config is None:
        return None
    known = {f.name for f in dataclasses.fields(SolverConfig)}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ParseError(f"manifest config has unknown field {unknown[0]!r}")
    if "epsilon" not in config:
        raise ParseError("manifest config lacks required field 'epsilon'")
    return SolverConfig(**config)


def read_manifest(path) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return RunManifest(
        subcommand=payload["subcommand"],
        config=_config_from_manifest(payload.get("config")),
        inputs=payload.get("inputs", {}),
        output_dir=payload.get("output_dir", "."),
        seed=payload.get("seed", 0),
        format_version=payload.get("format_version", FORMAT_VERSION),
        extra=payload.get("extra", {}),
    )


SWEEP_COLUMNS = (
    "epsilon",
    "final_cost",
    "emd_cost",
    "joint_distance",
    "n_clusters_x",
    "n_clusters_y",
    "steps",
    "wall_time_ms",
)


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                ",".join(
                    [
                        _fmt(r.epsilon),
                        _fmt(r.final_cost),
                        _fmt(r.emd_cost),
                        _fmt(r.joint_distance),
                        str(r.n_clusters_x),
                        str(r.n_clusters_y),
                        str(r.steps),
                        _fmt(r.wall_time_ms),
                    ]
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# images (PPM/PGM, maxval 255)


def _read_pnm_tokens(raw: bytes, n_header_tokens: int):
    """Header tokens of a PNM file, honoring # comments; returns (tokens, offset)."""
    tokens = []
    i = 0
    while len(tokens) < n_header_tokens:
        if i >= len(raw):
            raise ParseError("truncated image header", line=1)
        ch = raw[i : i + 1]
        if ch == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            start = i
            while i < len(raw) and not raw[i : i + 1].isspace() and raw[i : i + 1] != b"#":
                i += 1
            tokens.append(raw[start:i])
    return tokens, i + 1  # single whitespace byte after maxval


def _parse_pnm(path, magics):
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens, offset = _read_pnm_tokens(raw, 4)
    magic = tokens[0].decode("ascii", errors="replace")
    if magic not in magics:
        raise ParseError(f"unsupported image magic {magic!r}", line=1)
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise ParseError("non-integer image dimensions", line=1) from None
    if maxval != 255:
        raise ParseError(f"only maxval 255 is supported, got {maxval}", line=1)
    if width < 1 or height < 1:
        raise ParseError(f"bad image dimensions {width}x{height}", line=1)
    channels = 3 if magic in ("P3", "P6") else 1
    count = width * height * channels
    if magic in ("P6", "P5"):
        if len(raw) - offset < count:
            raise ParseError(f"expected {count} pixel bytes, got {len(raw) - offset}")
        data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=offset)
    else:
        body = raw[offset - 1 :].split()
        if len(body) < count:
            raise ParseError(f"expected {count} pixel values, got {len(body)}")
        try:
            data = np.array([int(t) for t in body[:count]], dtype=np.int64)
        except ValueError:
            raise ParseError("non-integer pixel value") from None
        if data.min() < 0 or data.max() > 255:
            raise ParseError("pixel value outside [0, 255]")
    if data.size < count:
        raise ParseError(f"expected {count} pixel bytes, got {data.size}")
    return data.astype(np.float64) / 255.0, width, height, channels


def read_ppm(path) -> ImageSamples:
    data, width, height, _ = _parse_pnm(path, ("P3", "P6"))
    return ImageSamples(pixels=data.reshape(-1, 3), width=width, height=height)


def write_ppm(image: ImageSamples, path, ascii_format: bool = False) -> None:
    quantized = np.clip(np.rint(image.pixels * 255.0), 0, 255).astype(np.uint8)
    header = f"{'P3' if ascii_format else 'P6'}\n{image.width} {image.height}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if ascii_format:
            lines = [" ".join(str(v) for v in row) for row in quantized]
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
        else:
            fh.write(quantized.tobytes())


def read_pgm(path) -> np.ndarray:
    """Grayscale image as an (H, W) intensity matrix in [0, 1]."""
    data, width, height, _ = _parse_pnm(path, ("P2", "P5"))
    return data.reshape(height, width)


def write_pgm(image, path) -> None:
    img = np.asarray(image, dtype=np.float64)
    quantized = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(quantized.tobytes())
