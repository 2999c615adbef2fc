"""Synthetic corpora and desk-scale studies.

Shapes stand in for clinical datasets: smooth radial blobs, rotated
ellipses, and dumbbells (two overlapping discs, the known hard case for
radial representations). All generation and noise flows from explicit
seeds so every study is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fitting
from . import mask as mask_ops
from .errors import DegenerateShapeError, EmptyMaskError, _integer
# trace_boundary is not called here but stays a name of this module:
# bench/workloads.py binds a span to it in its traced sweep
from .mask import (BoundaryTrace, polygon_to_mask, rasterize_polygon,  # noqa: F401
                   trace_boundary)

_SEED_STEP = 0x9E3779B9  # odd constant so perturbed retry seeds never collide
_STACK_BYTES = 4 * 2 ** 20  # bytes of bool frames per polygon_to_mask call in a sweep


@dataclass
class ShapeSpec:
    kind: str            # blob | ellipse | dumbbell
    width: int = 256
    height: int = 256
    seed: int = 0
    scale: float = 0.6   # object size as a fraction of the frame

    def __post_init__(self):
        self.width, self.height = _integer(self.width, "width"), _integer(self.height, "height")
        self.seed = _integer(self.seed, "seed")
        if self.kind not in ("blob", "ellipse", "dumbbell"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")


@dataclass
class FidelityResult:
    miou: float
    siou: float
    mean_residual: float       # over all arcs of all encoded masks
    ious: np.ndarray
    skipped: int


@dataclass
class SensitivityCurve:
    deltas: np.ndarray
    miou_bezier: np.ndarray
    miou_polygon: np.ndarray
    trials: int


def generate_shape(spec: ShapeSpec) -> np.ndarray:
    """Deterministic single-component mask for the spec; retries with a
    perturbed seed if a draw comes out empty or disconnected."""
    for attempt in range(100):
        rng = np.random.default_rng(spec.seed + attempt * _SEED_STEP)
        poly_sets = _draw_polygons(spec, rng)
        out = np.zeros((spec.height, spec.width), dtype=bool)
        for poly in poly_sets:
            out |= rasterize_polygon(poly, spec.width, spec.height)
        if mask_ops._component_count(out) == 1:
            return out
    raise DegenerateShapeError(f"could not generate a valid {spec.kind} mask")


def _draw_polygons(spec: ShapeSpec, rng) -> list:
    w, h = spec.width, spec.height
    half = spec.scale * min(w, h) / 2.0
    center = np.array([w / 2.0, h / 2.0]) + rng.uniform(-0.05, 0.05, 2) * min(w, h)
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)

    if spec.kind == "blob":
        r = np.full_like(theta, half)
        for k in range(2, 7):
            a = rng.uniform(-0.08, 0.08)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            r = r + half * a * np.cos(k * theta + phi)
        return [center + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)]

    if spec.kind == "ellipse":
        a = half * rng.uniform(0.6, 1.0)
        b = half * rng.uniform(0.6, 1.0)
        rot = rng.uniform(0.0, np.pi)
        x = a * np.cos(theta)
        y = b * np.sin(theta)
        xr = x * np.cos(rot) - y * np.sin(rot)
        yr = x * np.sin(rot) + y * np.cos(rot)
        return [center + np.stack([xr, yr], axis=1)]

    # dumbbell: two overlapping discs along a random axis
    r1 = half * 0.5 * rng.uniform(0.8, 1.1)
    r2 = half * 0.5 * rng.uniform(0.8, 1.1)
    sep = 0.75 * (r1 + r2)  # strictly below r1+r2, so the discs overlap
    axis = rng.uniform(0.0, np.pi)
    offset = 0.5 * sep * np.array([np.cos(axis), np.sin(axis)])
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return [center - offset + r1 * ring, center + offset + r2 * ring]


def blob_corpus(count: int, seed: int = 0) -> list:
    """count 256 x 256 blobs at scale 0.6, with seeds seed, seed + 1, ..."""
    return [generate_shape(ShapeSpec("blob", seed=seed + i)) for i in range(_integer(count, "count"))]


def fidelity_study(masks, degree: int = 5,
                   samples_per_segment: int = fitting.DEFAULT_SAMPLES,
                   smooth_radius: int = 0) -> FidelityResult:
    """Encode -> decode -> rasterize each mask and score IoU vs the source."""
    ious, residuals = [], []
    skipped = 0
    for m in masks:
        try:
            contour, report = fitting.encode_mask(m, degree, smooth_radius)
        except (DegenerateShapeError, EmptyMaskError):
            skipped += 1
            continue
        poly = fitting.decode_contour(contour, samples_per_segment)
        ious.append(_ious([poly], np.asarray(m, dtype=bool))[0])
        residuals.append(report.residuals)
    if not ious:
        raise DegenerateShapeError("every mask in the corpus was degenerate")
    ious = np.array(ious)
    return FidelityResult(float(ious.mean()), float(ious.std()),
                          float(np.mean(residuals)), ious, skipped)


def degree_sweep(masks, degrees=(3, 5, 7, 9)) -> dict:
    """Mean per-arc fit residual for each degree, tracing each mask once.
    An empty corpus raises DegenerateShapeError."""
    traced = [(mask_ops.trace_object(m), np.shape(m)) for m in masks]
    if not traced:
        raise DegenerateShapeError("the corpus holds no mask")
    out = {}
    for degree in degrees:
        res = [fitting.encode_trace(trace, degree, w, h)[1].residuals
               for trace, (h, w) in traced]
        out[degree] = float(np.mean(res))
    return out


def perturb_contour(contour: fitting.PiecewiseContour, delta: float,
                    seed: int) -> fitting.PiecewiseContour:
    """Add i.i.d. Gaussian noise (std delta, pixels) to all 20 points.

    Noise is applied through the 40-vector layout, so each shared
    junction gets a single draw and closure is preserved.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    rng = np.random.default_rng(seed)
    vec = fitting.flatten(contour) + rng.normal(0.0, delta, 40)
    return fitting.unflatten(vec, contour.width, contour.height)


def polygon_baseline(trace: BoundaryTrace, k: int = 20) -> np.ndarray:
    """k evenly indexed trace points, the fixed-budget polygon baseline."""
    m, k = len(trace), _integer(k, "k")
    if k < 3:
        raise ValueError("polygon needs k >= 3")
    if m < k:
        raise DegenerateShapeError(f"trace of {m} points cannot supply {k} vertices")
    idx = np.round(np.arange(k) * m / k).astype(int)
    return trace.points[idx].copy()


def sensitivity_sweep(masks, deltas, trials: int, seed: int = 0,
                      samples_per_segment: int = fitting.DEFAULT_SAMPLES,
                      points: int = 20) -> SensitivityCurve:
    """Noise robustness of the Bezier encoding vs the k-point polygon.

    For every mask, noise level and trial, both representations get
    identically distributed Gaussian noise on their defining points; the
    perturbed shape is rasterized and scored against the clean mask.
    Each mask is traced once, on its largest component, and that trace
    feeds both the Bezier fit and the polygon baseline. All of a mask's
    noisy contours are drawn first and rasterized as (B, n, 2) stacks of
    at most as many frames as fit in 4 MiB of bool pixels (one at least),
    so memory stays linear in frame area. Deltas must be finite and
    non-negative, and trials an integer (TypeError otherwise) of at least
    1; anything else raises ValueError.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size == 0 or not np.all(np.isfinite(deltas) & (deltas >= 0)):
        raise ValueError("deltas must be finite, non-negative and non-empty")
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sum_b = np.zeros(len(deltas))
    sum_p = np.zeros(len(deltas))
    n_scored = 0
    for i, m in enumerate(masks):
        m = np.asarray(m, dtype=bool)
        trace = mask_ops.trace_object(m)
        h, w = m.shape
        if len(trace) < points:
            continue
        contour, _ = fitting.encode_trace(trace, 5, w, h)
        poly20 = polygon_baseline(trace, points)
        n_scored += 1
        bezier, polygon = [], []
        for di, delta in enumerate(deltas):
            for t in range(trials):
                # the two children SeedSequence(key).spawn(2) would give
                key = [seed, i, di, t]
                s_bez = np.random.SeedSequence(key, spawn_key=(0,))
                s_poly = np.random.SeedSequence(key, spawn_key=(1,))
                noisy = perturb_contour(contour, delta, s_bez)
                bezier.append(fitting.decode_contour(noisy, samples_per_segment))
                rng = np.random.default_rng(s_poly)
                polygon.append(poly20 + rng.normal(0.0, delta, poly20.shape))
        # summed per trial in (delta, trial) order, as one IoU at a time
        for total, polys in ((sum_b, bezier), (sum_p, polygon)):
            ious = _ious(polys, m).reshape(len(deltas), trials)
            for t in range(trials):
                total += ious[:, t]
    if n_scored == 0:
        raise DegenerateShapeError("no mask in the corpus was usable")
    denom = n_scored * trials
    return SensitivityCurve(deltas, sum_b / denom, sum_p / denom, trials)


def _ious(polys: list, m: np.ndarray) -> np.ndarray:
    """IoU of polygon_to_mask(poly) with the non-empty mask m for each of
    the equal-sized polygons in polys, rasterized in stacks of at most
    _STACK_BYTES of frames."""
    h, w = m.shape
    per_stack = max(1, _STACK_BYTES // (h * w))
    area = np.count_nonzero(m)
    out = []
    for k in range(0, len(polys), per_stack):
        for raster in polygon_to_mask(np.stack(polys[k:k + per_stack]), w, h):
            tp = np.count_nonzero(raster & m)
            out.append(tp / (np.count_nonzero(raster) + area - tp))
    return np.array(out)
