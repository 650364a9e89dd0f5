"""Downstream uses of the solver: map evaluation, color transfer, distances.

The solver pairs samples; everything here turns those pairs into something
a user wants (a transport map at new points, a recolored image, a distance
matrix over datasets).  Map fitting is a k-nearest-neighbor regressor so
the package stays dependency-light; the paired samples can be exported for
any external regression model.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import CostModel, SolverConfig, l2_cost_model, new_ensemble
from .dynamics import run
from .errors import (
    AllZeroImage,
    DimensionMismatch,
    EmptyQuery,
    InvalidConfig,
    NonFiniteInput,
    OcdError,
)
from .neighbors import build_index, knn_query

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PairedMap:
    """Stationary sample pairs plus the k used for interpolation."""

    x_anchors: np.ndarray
    y_anchors: np.ndarray
    k_neighbors: int = 8

    def __post_init__(self):
        x = np.ascontiguousarray(self.x_anchors, dtype=np.float64)
        y = np.ascontiguousarray(self.y_anchors, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2 or x.shape != y.shape:
            raise DimensionMismatch(
                f"anchor matrices must share shape, got {x.shape} and {y.shape}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise NonFiniteInput("anchors contain NaN or Inf")
        if not 1 <= self.k_neighbors <= x.shape[0]:
            raise InvalidConfig(
                f"k_neighbors must lie in [1, {x.shape[0]}], got {self.k_neighbors}"
            )
        object.__setattr__(self, "x_anchors", x)
        object.__setattr__(self, "y_anchors", y)


@dataclass(frozen=True)
class ImageSamples:
    """Flat RGB pixel matrix in [0,1], row-major."""

    pixels: np.ndarray  # (W*H, 3)
    width: int
    height: int

    def __post_init__(self):
        px = np.ascontiguousarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.shape[1] != 3:
            raise DimensionMismatch(f"pixels must be (W*H, 3), got {px.shape}")
        if px.shape[0] != self.width * self.height:
            raise DimensionMismatch(
                f"pixel count {px.shape[0]} != width*height {self.width * self.height}"
            )
        object.__setattr__(self, "pixels", np.clip(px, 0.0, 1.0))


def evaluate_map(paired_map: PairedMap, query) -> np.ndarray:
    """Transport map at new points by inverse-distance weighting.

    Each query point gets the weighted average of the y-anchors of its k
    nearest x-anchors; a query that lands exactly on an anchor returns
    that anchor's paired y.
    """
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    if q.shape[0] == 0:
        raise EmptyQuery("query matrix has no rows")
    if q.shape[1] != paired_map.x_anchors.shape[1]:
        raise DimensionMismatch(
            f"query dim {q.shape[1]} != anchor dim {paired_map.x_anchors.shape[1]}"
        )
    if not np.isfinite(q).all():
        raise NonFiniteInput("query contains NaN or Inf")
    index = build_index(paired_map.x_anchors)
    dist, nn = knn_query(index, q, k=paired_map.k_neighbors)
    out = np.empty_like(q)
    exact = dist[:, 0] == 0.0
    if exact.any():
        out[exact] = paired_map.y_anchors[nn[exact, 0]]
    rest = ~exact
    if rest.any():
        w = 1.0 / dist[rest]
        w /= w.sum(axis=1, keepdims=True)
        out[rest] = np.einsum("mk,mkn->mn", w, paired_map.y_anchors[nn[rest]])
    return out


def fit_paired_map(x0, y0, cost: CostModel, config: SolverConfig, k_neighbors: int = 8):
    """Run the solver and wrap the stationary pairs as a PairedMap."""
    result = run(new_ensemble(x0, y0), cost, config)
    final = result.final_ensemble
    return PairedMap(final.x_samples, final.y_samples, k_neighbors), result


def _training_pixels(source: ImageSamples, target: ImageSamples, n_train: int, seed: int):
    """The n_train source and target pixels, drawn from seed, that color_transfer solves on."""
    n_px = min(source.pixels.shape[0], target.pixels.shape[0])
    if not 1 <= n_train <= n_px:
        raise InvalidConfig(f"n_train must lie in [1, {n_px}], got {n_train}")
    rng = np.random.default_rng(seed)
    x0 = source.pixels[rng.choice(source.pixels.shape[0], size=n_train, replace=False)]
    y0 = target.pixels[rng.choice(target.pixels.shape[0], size=n_train, replace=False)]
    return x0, y0


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise InvalidConfig(f"alpha must lie in [0, 1], got {alpha}")


def color_transfer(
    source: ImageSamples,
    target: ImageSamples,
    config: SolverConfig,
    alpha: float,
    n_train: int,
) -> ImageSamples:
    """Push source pixel colors toward the target palette.

    Transport is solved on an n_train subsample of RGB triples; all source
    pixels are then mapped and blended as (1-alpha)*x + alpha*map(x).
    """
    _check_alpha(alpha)
    x0, y0 = _training_pixels(source, target, n_train, config.seed)
    if alpha == 0.0:
        return ImageSamples(source.pixels.copy(), source.width, source.height)
    paired, _ = fit_paired_map(x0, y0, l2_cost_model(), config,
                               k_neighbors=min(8, n_train))
    mapped = evaluate_map(paired, source.pixels)
    blended = (1.0 - alpha) * source.pixels + alpha * mapped
    return ImageSamples(blended, source.width, source.height)


def _pair_cost(a: np.ndarray, b: np.ndarray, config: SolverConfig, seed: int) -> float:
    n = min(a.shape[0], b.shape[0])
    rng = np.random.default_rng(seed)
    x0 = a if a.shape[0] == n else a[rng.choice(a.shape[0], size=n, replace=False)]
    y0 = b if b.shape[0] == n else b[rng.choice(b.shape[0], size=n, replace=False)]
    result = run(new_ensemble(x0, y0), l2_cost_model(), config)
    return result.final_cost


def distance_matrix(datasets, config: SolverConfig, n_threads: int = 1) -> np.ndarray:
    """Pairwise squared transport distances between sample sets.

    Each unordered pair is solved in both orientations and averaged (the
    particle estimate is not exactly symmetric at finite N).  Unequal-size
    pairs are subsampled to the smaller count, seeded from the config.  A
    failed pair is logged and reported as NaN.
    """
    data = [np.ascontiguousarray(d, dtype=np.float64) for d in datasets]
    if len(data) < 2:
        raise InvalidConfig(f"need at least 2 datasets, got {len(data)}")
    dims = {d.shape[1] if d.ndim == 2 else -1 for d in data}
    if len(dims) != 1 or -1 in dims:
        raise DimensionMismatch("datasets must all be 2-D with equal dimensionality")
    m = len(data)
    out = np.zeros((m, m))
    tasks = [(a, b) for a in range(m) for b in range(a + 1, m)]

    def solve_pair(ab):
        a, b = ab
        try:
            fwd = _pair_cost(data[a], data[b], config, config.seed)
            rev = _pair_cost(data[b], data[a], config, config.seed + 1)
            return 0.5 * (fwd + rev)
        except OcdError as exc:
            logger.warning("distance_matrix pair (%d, %d) failed: %s", a, b, exc)
            return float("nan")

    # one worker runs the pairs in order, as a serial loop would
    with ThreadPoolExecutor(max_workers=max(1, n_threads)) as pool:
        values = list(pool.map(solve_pair, tasks))
    for (a, b), value in zip(tasks, values):
        out[a, b] = out[b, a] = value
    return out


def image_to_point_samples(image, n_samples: int, seed: int = 0) -> np.ndarray:
    """Turn a grayscale image into 2-D point samples.

    Pixel centers (normalized to the unit square) are drawn with
    probability proportional to intensity.  Output columns are (x, y)
    with x along the width and y along the height, top row at y near 0.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionMismatch(f"image must be a 2-D intensity matrix, got {img.shape}")
    if n_samples < 1:
        raise InvalidConfig(f"n_samples must be >= 1, got {n_samples}")
    if np.any(img < 0) or not np.isfinite(img).all():
        raise NonFiniteInput("intensities must be finite and non-negative")
    total = img.sum()
    if total == 0.0:
        raise AllZeroImage("image has no mass to sample from")
    h, w = img.shape
    rng = np.random.default_rng(seed)
    flat = rng.choice(h * w, size=n_samples, p=(img / total).ravel())
    row, col = np.divmod(flat, w)
    return np.column_stack([(col + 0.5) / w, (row + 0.5) / h])
