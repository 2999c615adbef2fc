"""The bounding-box pixel passes, the boundary and counts on packed rows,
the labelling of row runs, the crack trace of those runs, the k-d tree
Hausdorff distance, the run-length polygon fill, the array contour
codec, the stacked noise sweep, the loss's cached sampling operator, its
smooth L1 and the PGM header grammar against the code they replaced.

The oracles below are the earlier implementations (full-frame passes
with ndimage.label, a Moore walk on (pixel, backtrack) tuples, the
box-local XOR fill, contours as lists of BezierSegments fitted on arcs
cut point by point, a sweep that rasterizes and scores one polygon at a
time, a loss that rebuilds its operator on every call, a smooth L1 built
from where and sign, a token loop over the PGM header), kept verbatim in
substance: every output must be equal bit for bit (values, dtype and
shape), and every error of the same type. The exceptions are inputs that
the old code loaded wrongly or rejected wrongly; the tests that hold
them say which.
"""

import json
import math
import random
import re
import struct
import sys
from dataclasses import FrozenInstanceError, dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial.distance import cdist, directed_hausdorff

from beziermask import (BezierMaskError, BezierSegment, ConfusionCounts, ContourFormatError, boundary_points, compare_masks,
                        confusion, contour_from_json, contour_to_json, fp_fn_rates, iou, mcc,
                        decode_contour, decode_points, degree_sweep, encode_mask,
                        find_extreme_points, fit_arc, flatten, hausdorff, largest_component, morphological_smooth,
                        perturb_contour, polygon_baseline, polygon_to_mask, rasterize_polygon,
                        sample_parameters, scale_contour, sensitivity_sweep,
                        trace_boundary, trace_object, unflatten)
from beziermask import SampleSet, contour_loss, decode_jacobian, decoder, load_pgm, smooth_l1
from beziermask.bezier import MAX_DEGREE, basis_matrix
from beziermask.decoder import _loss_samples
from beziermask.errors import DegenerateShapeError, EmptyMaskError, PgmFormatError, UndefinedMetricError
from beziermask.fitting import RCOND, encode_trace
from beziermask.experiments import ShapeSpec, generate_shape
from beziermask import metrics
from beziermask.mask import _component_count, _disc

_STRUCT_8 = np.ones((3, 3), dtype=bool)
_MOORE = [(0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)]


# ---------------------------------------------------------------- oracles

def full_largest_component(mask):
    mask = np.asarray(mask, dtype=bool)
    labels, count = ndimage.label(mask, structure=_STRUCT_8)
    if count == 0:
        return np.zeros_like(mask)
    sizes = np.bincount(labels.ravel())[1:]
    return labels == int(np.argmax(sizes)) + 1


def full_morphological_smooth(mask, radius):
    """Opening then closing of the whole frame padded by the radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    mask = np.asarray(mask, dtype=bool)
    if radius == 0:
        return mask.copy()
    disc = _disc(radius)
    padded = np.pad(mask, radius)
    out = ndimage.binary_opening(padded, structure=disc)
    out = ndimage.binary_closing(out, structure=disc)
    return out[radius:-radius, radius:-radius]


def full_trace_boundary(mask):
    """(m, 2) points of the tuple-state Moore walk on the whole frame."""
    mask = np.asarray(mask, dtype=bool)
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        raise EmptyMaskError("cannot trace an empty mask")
    _, ncomp = ndimage.label(mask, structure=_STRUCT_8)
    if ncomp != 1:
        raise DegenerateShapeError(f"expected one component, found {ncomp}")
    r0 = int(rows.min())
    c0 = int(cols[rows == r0].min())
    if rows.size == 1:
        return np.array([[c0 + 0.5, r0 + 0.5]])
    h, w = mask.shape

    def fg(r, c):
        return 0 <= r < h and 0 <= c < w and mask[r, c]

    cur, back = (r0, c0), (r0, c0 - 1)
    pixels = [cur]
    seen_states = {(cur, back)}
    for _ in range(16 * rows.size + 16):
        bi = _MOORE.index((back[0] - cur[0], back[1] - cur[1]))
        nxt = None
        back_cand = back
        for k in range(1, 9):
            dr, dc = _MOORE[(bi + k) % 8]
            cand = (cur[0] + dr, cur[1] + dc)
            if fg(*cand):
                nxt = cand
                break
            back_cand = cand
        if nxt is None:
            break
        cur, back = nxt, back_cand
        if (cur, back) in seen_states:
            break
        seen_states.add((cur, back))
        pixels.append(cur)
    out = []
    for p in dict.fromkeys(pixels):
        out.append((p[1] + 0.5, p[0] + 0.5))
    return np.array(out, dtype=float)


def full_trace_object(mask, smooth_radius=0):
    """What encode_mask traced: largest component, optional smoothing, checks."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise EmptyMaskError("cannot encode an empty mask")
    work = full_largest_component(mask)
    if smooth_radius > 0:
        smoothed = full_largest_component(full_morphological_smooth(work, smooth_radius))
        if smoothed.any():
            work = smoothed
    if work.sum() < 4:
        raise DegenerateShapeError("object smaller than 4 pixels")
    points = full_trace_boundary(work)
    if len(points) < 4:
        raise DegenerateShapeError("boundary shorter than 4 points")
    return points


def full_boundary_points(mask):
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    rows, cols = np.nonzero(mask & ~interior)
    return np.stack([cols + 0.5, rows + 0.5], axis=1)


def _crossings(vertices, width, height):
    """(rows, cols) of every crossing, as both XOR fills find them."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[0] < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if width < 1 or height < 1:
        raise ValueError("frame must be at least 1x1")
    x1, y1 = vertices[:, 0], vertices[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    ys = np.arange(height) + 0.5
    first = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    last = np.searchsorted(ys, np.maximum(y1, y2), side="left")
    counts = last - first
    edges = np.repeat(np.arange(len(counts)), counts)
    rows = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - first, counts)
    dy = y2 - y1
    t = (ys[rows] - y1[edges]) / dy[edges]
    xs = x1[edges] + t * (x2 - x1)[edges]
    cols = np.searchsorted(np.arange(width) + 0.5, xs, side="left")
    return rows, cols


def full_rasterize_polygon(vertices, width, height):
    """Running XOR of the crossing marks over a (height, width + 1) frame."""
    rows, cols = _crossings(vertices, width, height)
    flips = np.zeros((height, width + 1), dtype=np.uint8)
    np.bitwise_xor.at(flips, (rows, cols), 1)
    flips = np.bitwise_xor.accumulate(flips, axis=1)
    return flips[:, :width].astype(bool)


def box_xor_rasterize_polygon(vertices, width, height):
    """Running XOR of the crossing marks over the crossings' box; a row
    crossed an odd number of times is filled to the frame's right edge."""
    rows, cols = _crossings(vertices, width, height)
    out = np.zeros((height, width), dtype=bool)
    if rows.size == 0:
        return out
    r0, c0 = int(rows.min()), int(cols.min())
    flips = np.zeros((int(rows.max()) + 1 - r0, int(cols.max()) + 1 - c0), dtype=np.uint8)
    np.bitwise_xor.at(flips, (rows - r0, cols - c0), 1)
    flips = np.bitwise_xor.accumulate(flips, axis=1)
    r1, c1 = r0 + flips.shape[0], min(c0 + flips.shape[1], width)
    out[r0:r1, c0:c1] = flips[:, :c1 - c0]
    out[np.flatnonzero(flips[:, -1]) + r0, c1:] = True
    return out


def box_xor_polygon_to_mask(vertices, width, height):
    """The box XOR fill plus the clipped 0.5-px outline sampling."""
    out = box_xor_rasterize_polygon(vertices, width, height)
    a = np.asarray(vertices, dtype=float)
    step = np.roll(a, -1, axis=0) - a
    lengths = np.hypot(*step.T)
    long_edges = np.nonzero((lengths > 0.5) & (lengths < 2.0 ** 52))[0]
    n = np.ceil(lengths[long_edges] / 0.5)
    first, stop = np.ones_like(n), n
    widened = np.array([width, height]) + 1.0
    if not np.all((a >= -1.0) & (a <= widened)):
        a0, d = a[long_edges], step[long_edges]
        with np.errstate(divide="ignore", invalid="ignore"):
            s1, s2 = (-1.0 - a0) / d, (widened - a0) / d
        lo = np.fmax(*np.fmin(s1, s2).T)
        hi = np.fmin(*np.fmax(s1, s2).T)
        first = np.clip(np.floor(lo * n) - 1, 1, n)
        stop = np.clip(np.ceil(hi * n) + 2, first, n)
    first, stop = first.astype(int), stop.astype(int)
    counts = stop - first
    edges = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - first, counts)
    frac = k / n[edges]
    e = long_edges[edges]
    pts = np.concatenate([a, a[e] + frac[:, None] * step[e]])
    x, y = pts.T
    keep = (x >= 0) & (x < width) & (y >= 0) & (y < height)
    out[np.floor(y[keep]).astype(int), np.floor(x[keep]).astype(int)] = True
    return out


def full_confusion(pred, gt):
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return (int(np.sum(pred & gt)), int(np.sum(~pred & ~gt)),
            int(np.sum(pred & ~gt)), int(np.sum(~pred & gt)))


def cdist_hausdorff(a, b):
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    if len(a) == 0 or len(b) == 0:
        raise UndefinedMetricError("Hausdorff distance needs non-empty sets")
    # the all-pairs matrix, 2048 rows at a time, so that boundaries of
    # large frames fit in memory
    near_a, near_b = np.empty(len(a)), np.full(len(b), np.inf)
    for i in range(0, len(a), 2048):
        d = cdist(a[i:i + 2048], b)
        near_a[i:i + 2048] = d.min(axis=1)
        np.minimum(near_b, d.min(axis=0), out=near_b)
    hd = float(max(near_a.max(), near_b.max()))
    top = max(np.abs(a).max(), np.abs(b).max())
    if 0.0 < top < 2.0 ** -500 or hd == math.inf:
        # squares would leave the doubles' range: scale by a power of two
        k = 1 - math.frexp(top)[1]
        return cdist_hausdorff(np.ldexp(a, k), np.ldexp(b, k)) * 2.0 ** -k
    return hd


def directed_hausdorff_both(a, b):
    """scipy's early-break directed_hausdorff both ways: exact (a sum of
    squares per pair, like cdist's) and with no tree, for boundaries too
    large for the all-pairs matrix."""
    return float(max(directed_hausdorff(a, b)[0], directed_hausdorff(b, a)[0]))


def full_compare_masks(pred, gt, distance=cdist_hausdorff):
    counts = ConfusionCounts(*full_confusion(pred, gt))
    try:
        hd = distance(full_boundary_points(pred), full_boundary_points(gt))
    except UndefinedMetricError:
        hd = 0.0 if not (np.any(pred) or np.any(gt)) else math.nan
    fp_rate, fn_rate = fp_fn_rates(counts)
    return iou(counts), hd, mcc(counts), fp_rate, fn_rate


# ---------------------------------------------------------------- contour oracles

@dataclass
class SegmentContour:
    """A contour as a list of 4 BezierSegments, validated segment by segment."""

    segments: list
    width: int
    height: int

    def __post_init__(self):
        if len(self.segments) != 4:
            raise ContourFormatError("a contour has exactly 4 segments")
        if len({s.degree for s in self.segments}) != 1:
            raise ContourFormatError("all segments must share one degree")
        for k in range(4):
            a = self.segments[k].control_points[-1]
            b = self.segments[(k + 1) % 4].control_points[0]
            if not np.array_equal(a, b):
                raise ContourFormatError(f"segments {k} and {(k + 1) % 4} are not chained")

    @property
    def degree(self):
        return self.segments[0].degree


def list_split_boundary(trace, idx):
    """The 4 arcs of a closed trace, point by point: arc k runs from
    extreme idx[k] to extreme idx[k+1], both ends included, indices
    wrapping."""
    pts, m = trace.points, len(trace.points)
    arcs = []
    for k in range(4):
        i, arc = idx[k], [pts[idx[k]]]
        while i != idx[(k + 1) % 4]:
            i = (i + 1) % m
            arc.append(pts[i])
        arcs.append(np.array(arc))
    return arcs


def list_fit_arc(arc, degree):
    arc = np.asarray(arc, dtype=float)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    m = len(arc)
    if m == 0:
        raise ValueError("arc must contain at least one point")
    if m == 1:
        return BezierSegment(np.repeat(arc, degree + 1, axis=0)), 0.0
    p0, pn = arc[0], arc[-1]
    ts = np.arange(m) / (m - 1.0)
    B = basis_matrix(degree, ts)
    if m < degree + 1:
        r = np.linspace(0.0, 1.0, degree + 1)[:, None]
        cp = p0 + r * (pn - p0)
        cp[0], cp[-1] = p0, pn
    else:
        rhs = arc - np.outer(B[:, 0], p0) - np.outer(B[:, degree], pn)
        interior, *_ = np.linalg.lstsq(B[:, 1:degree], rhs, rcond=RCOND)
        cp = np.vstack([p0, interior, pn])
    resid = float(np.sqrt(np.mean(np.sum((B @ cp - arc) ** 2, axis=1))))
    return BezierSegment(cp), resid


def list_encode_trace(trace, degree, width, height):
    """(contour, residuals, arc lengths) from four separate fits."""
    idx = find_extreme_points(trace)
    arcs = list_split_boundary(trace, idx)
    segments, residuals = [], np.zeros(4)
    for k, arc in enumerate(arcs):
        seg, residuals[k] = list_fit_arc(arc, degree)
        cp = seg.control_points.copy()
        cp[0] = trace.points[idx[k]]
        cp[-1] = trace.points[idx[(k + 1) % 4]]
        segments.append(BezierSegment(cp))
    return (SegmentContour(segments, width, height), residuals,
            np.array([len(a) for a in arcs]))


def list_decode_contour(contour, k):
    if k < 2:
        raise ValueError("samples_per_segment must be >= 2")
    B = basis_matrix(contour.degree, np.linspace(0.0, 1.0, k))
    return np.concatenate([(B @ seg.control_points)[:-1] for seg in contour.segments])


def list_flatten(contour):
    if contour.degree != 5:
        raise ContourFormatError("flatten requires a degree-5 contour")
    out = np.empty(40)
    for k in range(4):
        out[2 * k:2 * k + 2] = contour.segments[k].control_points[0]
    for k in range(4):
        out[8 + 8 * k:16 + 8 * k] = contour.segments[k].control_points[1:5].ravel()
    return out


def list_unflatten(vec, width, height):
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (40,):
        raise ContourFormatError(f"expected 40 values, got shape {vec.shape}")
    extremes = vec[:8].reshape(4, 2)
    segments = []
    for k in range(4):
        cp = np.empty((6, 2))
        cp[0] = extremes[k]
        cp[1:5] = vec[8 + 8 * k:16 + 8 * k].reshape(4, 2)
        cp[5] = extremes[(k + 1) % 4]
        segments.append(BezierSegment(cp))
    return SegmentContour(segments, width, height)


def list_perturb_contour(contour, delta, seed):
    if delta < 0:
        raise ValueError("delta must be >= 0")
    rng = np.random.default_rng(seed)
    vec = list_flatten(contour) + rng.normal(0.0, delta, 40)
    return list_unflatten(vec, contour.width, contour.height)


def list_scale_contour(contour, width, height):
    sx = width / contour.width
    sy = height / contour.height
    return SegmentContour([BezierSegment(s.control_points * [sx, sy]) for s in contour.segments],
                          width, height)


def list_contour_to_json(contour):
    return json.dumps({
        "version": 1, "width": contour.width, "height": contour.height,
        "degree": contour.degree,
        "segments": [{"control_points": [[float(x), float(y)] for x, y in s.control_points]}
                     for s in contour.segments],
    })


def list_contour_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ContourFormatError(f"invalid JSON: {e}") from e
    try:
        if doc["version"] != 1:
            raise ContourFormatError(f"unsupported version {doc['version']}")
        segments = [BezierSegment(np.array(s["control_points"], dtype=float))
                    for s in doc["segments"]]
        return SegmentContour(segments, int(doc["width"]), int(doc["height"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ContourFormatError(f"bad contour document: {e}") from e


def list_decode_points(contour, samples):
    """Points gathered from the 40-vector, summed in Bernstein order."""
    rows = np.array([[k, *range(4 + 4 * k, 8 + 4 * k), (k + 1) % 4] for k in range(4)])
    points = list_flatten(contour).reshape(20, 2)[rows[samples.segment_ids]]
    return np.matmul(basis_matrix(5, samples.ts)[:, None, :], points)[:, 0]


# ---------------------------------------------------------------- comparison

def outcome(fn, *args):
    """The result, or the type of the error raised."""
    try:
        return fn(*args)
    except (ValueError, BezierMaskError) as e:
        return type(e)


def assert_same(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    if hasattr(got, "points"):
        got = got.points
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want, equal_nan=True)
    else:
        assert type(got) is type(want) and got == want
        if isinstance(want, tuple):
            assert [type(v) for v in got] == [type(v) for v in want]


# ---------------------------------------------------------------- inputs

def random_masks(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        h, w = (int(v) for v in rng.integers(1, 40, 2))
        m = rng.random((h, w)) < rng.uniform(0.05, 0.95)
        if rng.random() < 0.3:    # one filled box, sometimes on the border
            m = np.zeros((h, w), dtype=bool)
            r, c = int(rng.integers(0, h)), int(rng.integers(0, w))
            m[r:int(rng.integers(r, h + 1)), c:int(rng.integers(c, w + 1))] = True
        out.append(m)
    return out


def ring(h, w):
    m = np.ones((h, w), dtype=bool)
    m[1:-1, 1:-1] = False
    return m


def disc(h, w, cx, cy, r):
    yy, xx = np.mgrid[0:h, 0:w]
    return (xx + 0.5 - cx) ** 2 + (yy + 0.5 - cy) ** 2 <= r * r


def two_specks():
    m = disc(30, 30, 15, 15, 8)
    m[0, 29] = m[29, 0] = True
    return m


def tied_squares():
    m = np.zeros((12, 12), dtype=bool)
    m[7:10, 1:4] = m[1:4, 7:10] = True    # equal sizes: the scan-first one wins
    return m


def disc_in_ring_hole():
    """A 1-px ring around a larger disc in its hole, and a speck beside."""
    m = np.pad(ring(30, 30) | disc(30, 30, 15, 15, 10), ((0, 2), (0, 3)))
    m[31, 32] = True
    return m


def spiral(n):
    """A square spiral of 1-px arms 1 px apart, walked in from a corner:
    most rows cross many arms, which meet only through the turns."""
    m = np.zeros((n, n), dtype=bool)
    r = c = 0
    m[r, c] = True
    legs = [n - 1] * 3 + [k for k in range(n - 3, 0, -2) for _ in (0, 1)]
    for i, leg in enumerate(legs):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        for _ in range(leg):
            r, c = r + dr, c + dc
            m[r, c] = True
    return m


def tied_three():
    """Three 6-px components; the scan-first one is not the leftmost, and
    the leftmost starts before the scan-first one's second row."""
    m = np.zeros((9, 12), dtype=bool)
    m[1:3, 8:11] = True
    m[2:5, 1:3] = True
    m[6, 3:9] = True
    return m


def staircase():
    """Bars whose ends touch only diagonally: one 8-connected component,
    and 4-connected components of 2, 3, 5, 3 and 5 px."""
    m = np.zeros((6, 20), dtype=bool)
    col = 0
    for row, length in enumerate((2, 3, 5, 3, 5)):
        m[row, col:col + length] = True
        col += length
    return m


def dashes(n):
    """A random 1 x n line of dashes."""
    return (np.random.default_rng(n).random(n) < 0.7)[None, :]


SHAPED = {
    "whole_frame": np.ones((5, 7), dtype=bool),
    "ring_on_border": ring(9, 6),
    "disc_cut_by_left_border": disc(20, 20, 2, 10, 7),
    "disc_cut_by_corner": disc(20, 20, 19, 19, 9),
    "generated_blob_touching_border": generate_shape(ShapeSpec("blob", 48, 40, 3, 1.0)),
    "one_by_one_on": np.ones((1, 1), dtype=bool),
    "one_by_one_off": np.zeros((1, 1), dtype=bool),
    "one_by_n": np.array([[0, 1, 1, 1, 0, 1, 1, 0]], dtype=bool),
    "one_by_n_full": np.ones((1, 9), dtype=bool),
    "n_by_one": np.array([[1], [1], [0], [1], [1], [1]], dtype=bool),
    "empty": np.zeros((6, 4), dtype=bool),
    "two_specks": two_specks(),
    "tied_squares": tied_squares(),
    "diagonal": np.eye(7, dtype=bool),
    "plus": np.add.outer(np.arange(7) == 3, np.arange(7) == 3),
    "one_px_L": np.pad(np.array([[1, 0, 0], [1, 0, 0], [1, 1, 1]], dtype=bool), 2),
    "checkerboard": (np.add.outer(np.arange(6), np.arange(5)) % 2).astype(bool),
    "disc_in_ring_hole": disc_in_ring_hole(),
    "spiral": spiral(25),
    "tied_three": tied_three(),
    "staircase": staircase(),
    "one_by_4096": dashes(4096),
    "4096_by_one": dashes(4096).T.copy(),
}


def from_rows(*rows):
    return np.array([[c == "#" for c in row] for row in rows])


def with_holes(m, *holes):
    m = m.copy()
    for r, c, h, w in holes:
        m[r:r + h, c:c + w] = False
    return m


# cases for the crack trace, after the random masks in MASKS so that the
# tests pairing MASKS by index keep their earlier pairs
CRACK_CASES = {
    # diagonal touches: a run above ends at the column where a run below
    # starts, the reverse, both in one column, and four around a hole
    "tie_above_ends_where_below_starts": from_rows("###....", "...####"),
    "tie_below_ends_where_above_starts": from_rows("...####", "###...."),
    "ties_zigzag": from_rows("#.", ".#", "#.", ".#", "#."),
    "ties_around_a_hole": from_rows(".#.", "#.#", ".#."),
    "ties_x": np.eye(7, dtype=bool) | np.eye(7, dtype=bool)[::-1],
    # 1-px lines and spurs, whose pixels the walk visits twice
    "line_across": from_rows(".....", "#####", "....."),
    "line_down": from_rows("..#..", "..#..", "..#..", "..#.."),
    "antidiagonal": np.eye(6, dtype=bool)[::-1].copy(),
    "t_junction": from_rows("#######", "...#...", "...#...", "...#..."),
    "block_with_spurs": from_rows("...#...", "...#...", ".####..", ".#####.", "#####..",
                                  "..###..", "...#...", "...#..."),
    "hook": from_rows("####.", "...#.", ".#.#.", ".###."),
    # holes: only the outer contour is traced
    "thick_ring": with_holes(np.ones((7, 8), dtype=bool), (2, 2, 3, 4)),
    "ring_with_speck_in_hole": ring(9, 9) | from_rows(*["." * 9] * 4, "....#....", *["." * 9] * 4),
    "blob_with_holes": with_holes(disc(24, 26, 13, 12, 10), (6, 8, 3, 3), (14, 13, 4, 2), (11, 5, 1, 1)),
    # objects on all four borders
    "cross_to_every_border": np.add.outer(np.abs(np.arange(9) - 4) < 2, np.abs(np.arange(11) - 5) < 2),
    "disc_cut_by_every_border": disc(12, 14, 7, 6, 8),
    "frame_without_corners": with_holes(np.ones((6, 7), dtype=bool), (0, 0, 1, 1), (0, 6, 1, 1),
                                        (5, 0, 1, 1), (5, 6, 1, 1)),
}


def dense_random_masks():
    """Random masks 60 to 200 px wide and of density 0.3 to 0.9, so most
    rows hold runs that cross a 64-bit word edge or end at one."""
    rng = np.random.default_rng(29)
    return {f"dense_{w}": rng.random((int(rng.integers(6, 14)), w)) < rng.uniform(0.3, 0.9)
            for w in (60, 64, 65, 100, 128, 137, 200)}


def last_above_first(width):
    """Rows whose last pixel is set, each directly above a row whose first
    pixel is set: each pair is two components unless a row wraps."""
    m = np.zeros((6, width), dtype=bool)
    m[0, -3:] = m[1, :2] = m[2, -1] = m[3, 0] = m[4, -1] = m[5, :] = True
    return m


def word_rows(width):
    """Full rows, every other row full, and columns striped two ways."""
    cols = np.arange(width)
    return {f"full_{width}": np.ones((3, width), dtype=bool),
            f"every_other_row_{width}": (np.arange(5) % 2 == 0)[:, None] & np.ones(width, dtype=bool),
            f"column_stripes_{width}": np.tile(cols % 2 == 0, (4, 1)),
            f"diagonal_stripes_{width}": (cols + np.arange(5)[:, None]) % 3 == 0}


# runs on the edges of 64-bit words, after CRACK_CASES in MASKS for the
# same reason
WORD_CASES = {
    **dense_random_masks(),
    **{f"last_above_first_{w}": last_above_first(w) for w in (63, 64, 65, 128)},
    **{k: m for w in (63, 64, 65, 127, 128, 129) for k, m in word_rows(w).items()},
}
MASKS = (list(SHAPED.values()) + random_masks(400, seed=1) + list(CRACK_CASES.values())
         + list(WORD_CASES.values()))


# ---------------------------------------------------------------- tests

def message(fn, *args):
    """The text of the error fn raises, or None."""
    try:
        fn(*args)
    except (ValueError, BezierMaskError) as e:
        return str(e)
    return None


def check_trace_boundary(m):
    for mask in (m, full_largest_component(m)):
        assert_same(outcome(trace_boundary, mask), outcome(full_trace_boundary, mask))
        assert message(trace_boundary, mask) == message(full_trace_boundary, mask)


@pytest.mark.parametrize("connectivity", [8])  # foreground is 8-connected only
def test_largest_component(connectivity):
    for m in MASKS:
        assert_same(largest_component(m), full_largest_component(m))


def test_trace_boundary():
    for m in MASKS:
        check_trace_boundary(m)


@pytest.mark.parametrize("smooth_radius", [0, 1, 2])
def test_trace_object(smooth_radius):
    for m in MASKS:
        assert_same(outcome(trace_object, m, smooth_radius),
                    outcome(full_trace_object, m, smooth_radius))


def every_mask(h, w):
    """All 2 ** (h * w) masks of shape (h, w)."""
    bits = np.arange(1 << h * w)[:, None] >> np.arange(h * w) & 1
    return bits.astype(bool).reshape(-1, h, w)


def small_random_masks(count, seed):
    """Masks of 1 to 16 rows and columns, of density 0.1 to 0.95."""
    rng = np.random.default_rng(seed)
    return [rng.random(tuple(int(v) for v in rng.integers(1, 17, 2))) < rng.uniform(0.1, 0.95)
            for _ in range(count)]


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (1, 8), (8, 1)])
def test_crack_trace_every_small_mask(shape):
    for m in every_mask(*shape):
        assert_same(outcome(trace_boundary, m), outcome(full_trace_boundary, m))
        assert_same(outcome(trace_object, m), outcome(full_trace_object, m))


def test_crack_trace_random_small_masks():
    for m in small_random_masks(300, seed=3):
        check_trace_boundary(m)
        assert_same(outcome(trace_object, m), outcome(full_trace_object, m))


def bench_workloads():
    """The benchmark's workloads module and its tracer that records nothing."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import spans
        import workloads
    finally:
        sys.path.pop(0)
    return workloads, spans.NullTracer()


def bench_encode_corpus():
    """The masks of the benchmark's encode-256 workload at seed 1, with specks."""
    workloads, tracer = bench_workloads()
    return [m for _, m in workloads.WORKLOADS["encode-256"].make_inputs(1, tracer)]


def speckled_2048():
    """encode-256's masks made at 2048^2: a blob, an ellipse and a
    dumbbell at its three scales, each with its specks."""
    workloads, tracer = bench_workloads()
    return [workloads.add_specks(workloads.generate(tracer, kind, 2048, scale, 1000 + i),
                                 np.random.default_rng([1, i]))
            for i, (kind, scale) in enumerate(zip(workloads.KINDS, (0.3, 0.6, 0.9)))]


SPECKLED = {"encode_256": bench_encode_corpus, "encode_style_2048": speckled_2048}


@pytest.mark.parametrize("case", sorted(SPECKLED))
def test_labelling_speckled(case):
    """Labelling, the single-component check and tracing on the
    benchmark's kind of input: generated shapes with specks beside."""
    for m in SPECKLED[case]():
        assert_same(largest_component(m), full_largest_component(m))
        check_trace_boundary(m)
        for smooth_radius in (0, 1, 2):
            assert_same(outcome(trace_object, m, smooth_radius),
                        outcome(full_trace_object, m, smooth_radius))


def comb(teeth, height):
    """Teeth 1 px wide and 1 px apart: the top of every tooth is a root
    (a run touching no run above), and the teeth meet only in the bottom
    row."""
    m = np.zeros((height, 2 * teeth - 1), dtype=bool)
    m[:, ::2] = True
    m[-1] = True
    return m


def serpentine(depth):
    """Bars 1 px wide and 1 px apart, joined in pairs at their tops and,
    alternately, at the bottom row, into one path. Its roots are the
    tops, and the row of each is a rank: `depth` levels deep, larger
    ranks sit between the path's minima. A hooking round merges only
    roots that are not minima among their neighbours, so joining the
    path takes `depth` rounds."""
    ranks = [0, 1]
    for _ in range(depth - 1):
        wider = list(range(2 * len(ranks) - 1))
        wider[::2], wider[1::2] = ranks, range(len(ranks), len(wider))
        ranks = wider
    k = len(ranks)
    m = np.zeros((k + 2, 4 * k - 3), dtype=bool)
    m[ranks[0]:, 0] = True
    for j in range(1, k):
        c = 4 * j - 2    # bars 2j - 1 and 2j
        m[ranks[j]:, c:c + 3:2] = True
        m[ranks[j], c:c + 3] = True
        m[-1, c - 2:c + 1] = True
    return m


def concentric_rings(count):
    """Square rings 1 px wide and 1 px apart around a centre pixel: each
    ring is its own component, the outermost the largest."""
    r = np.abs(np.arange(-2 * count, 2 * count + 1))
    return np.maximum.outer(r, r) % 2 == 0


def tied_with_block(m):
    """m beside a block of as many pixels that starts one row lower: the
    scan-first component is m, although most of m's roots come after
    the block's one root."""
    h, (q, r) = m.shape[0], divmod(int(m.sum()), m.shape[0] - 1)
    block = np.zeros((h, q + 1), dtype=bool)
    block[1:, :q] = True
    block[1:1 + r, q] = True
    return np.hstack([m, np.zeros((h, 1), dtype=bool), block])


ADVERSARIAL = {
    **{f"noise_{p}": np.random.default_rng(p).random((256, 256)) < p / 100 for p in (30, 45, 60)},
    "comb": comb(64, 48),
    "serpentine": serpentine(6),
    "serpentine_tied_with_block": tied_with_block(serpentine(6)),
    "concentric_rings": concentric_rings(20),
    "inverted_comb": comb(64, 48)[::-1].copy(),    # one root fanning out
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_labelling_adversarial(case):
    """Labelling where it is hardest: many roots, long merges, nesting."""
    m = ADVERSARIAL[case]
    assert_same(largest_component(m), full_largest_component(m))
    assert_same(_component_count(m), ndimage.label(m, structure=_STRUCT_8)[1])
    check_trace_boundary(m)


def test_boundary_points():
    for m in MASKS:
        assert_same(boundary_points(m), full_boundary_points(m))


def test_confusion():
    others = random_masks(len(MASKS), seed=2)
    for m, other in zip(MASKS, others):
        for pred, gt in ((m, m), (m, ~m), (m, np.zeros_like(m)), (m, other)):
            got = outcome(lambda p, g: tuple(vars(confusion(p, g)).values()), pred, gt)
            assert_same(got, outcome(full_confusion, pred, gt))


def report_bits(fn, pred, gt):
    """The types and float64 bytes of the five report fields (so NaN
    matches NaN and nothing else), or the type of the error raised."""
    got = outcome(fn, pred, gt)
    if isinstance(got, type):
        return got
    fields = tuple(got) if isinstance(got, tuple) else tuple(vars(got).values())
    return tuple(map(type, fields)), struct.pack("5d", *fields)


def boxes(shape, *corners):
    """A mask holding one filled box per (r0, r1, c0, c1)."""
    m = np.zeros(shape, dtype=bool)
    for r0, r1, c0, c1 in corners:
        m[r0:r1, c0:c1] = True
    return m


def report_pairs():
    others = random_masks(len(MASKS), seed=2)
    for m, other in zip(MASKS, others):
        yield from ((m, m), (m, ~m), (m, np.zeros_like(m)), (m, other))
    corner, far = boxes((20, 30), (0, 5, 0, 7)), boxes((20, 30), (14, 20, 22, 30))
    outer, inner = boxes((20, 30), (2, 18, 3, 27)), boxes((20, 30), (6, 12, 9, 15))
    holed = outer & ~inner
    yield from ((corner, far), (far, corner), (outer, inner), (inner, outer), (holed, inner),
                (holed, outer), (corner, np.zeros_like(corner)), (np.zeros((4, 9), bool),) * 2)
    # every border: a full frame, a ring and a cross that spans it
    cross = boxes((9, 12), (4, 5, 0, 12), (0, 9, 6, 7))
    for a, b in ((ring(9, 12), cross), (np.ones((9, 12), bool), cross), (ring(9, 12), ~cross)):
        yield from ((a, b), (b, a))
    rng = np.random.default_rng(3)
    for shape in ((1, 17), (17, 1), (1, 1)):
        for _ in range(6):
            yield rng.random(shape) < 0.5, rng.random(shape) < 0.5
    yield np.ones((1, 1), bool), np.zeros((1, 1), bool)
    yield (outer * np.uint8(255), holed * np.uint8(255))
    yield outer, outer[:, :-1]


def test_compare_masks():
    for pred, gt in report_pairs():
        assert_same(report_bits(compare_masks, pred, gt), report_bits(full_compare_masks, pred, gt))


# widths around the edges of a packed byte and of a 64-bit word
WORD_EDGES = (1, 7, 8, 9, 63, 64, 65, 127, 128, 129)


def packed_masks():
    """Masks for the packed rows: every width from 1 to 130, so every
    residue of w % 8 and of w % 64; objects on each frame border, the
    right one in the last byte, which packbits pads; boxes across each
    word edge; one-row and one-column frames; transposed and strided
    views and 0/255 uint8 masks."""
    rng = np.random.default_rng(5)
    for w in range(1, 131):
        h = 1 + w % 5
        yield rng.random((h, w)) < 0.7
        yield np.ones((h, w), bool)
        yield boxes((h + 2, w), (0, h + 2, 0, 1))          # left border column
        yield boxes((h + 2, w), (0, h + 2, w - 1, w))      # right border column
    for w in WORD_EDGES:
        yield boxes((6, w + 3), (1, 5, max(w - 2, 0), w + 1))  # across the edge
        yield boxes((4, w), (0, 1, 0, w), (3, 4, 0, w))        # top and bottom rows
        yield boxes((5, w + 2), (2, 3, w, w + 1))              # one pixel past the edge
        yield np.ones((1, w), bool)
        yield np.ones((w, 1), bool)
        yield rng.random((1, w)) < 0.5
        yield rng.random((w, 1)) < 0.5
        yield (rng.random((w, 5)) < 0.7).T
        yield (rng.random((9, 3 * w)) < 0.7)[::2, ::3]
        yield (rng.random((4, w)) < 0.7) * np.uint8(255)


def test_packed_boundary_points():
    for m in packed_masks():
        assert_same(boundary_points(m), full_boundary_points(m))


def test_packed_compare_masks():
    rng = np.random.default_rng(6)
    for m in packed_masks():
        other = rng.random(m.shape) < 0.5
        for pred, gt in ((m, m), (m, other), (other, m), (m, np.zeros_like(m)),
                         (np.zeros_like(m), m), (m, m == 0)):
            assert_same(report_bits(compare_masks, pred, gt), report_bits(full_compare_masks, pred, gt))


@pytest.mark.parametrize("seed", range(4))
def test_rasterize_polygon(seed):
    rng = np.random.default_rng(seed)
    for i in range(150):
        w, h = (int(v) for v in rng.integers(1, 30, 2))
        if i % 10 == 0:
            w = 1
        elif i % 10 == 1:
            h = 1
        verts = rng.uniform(-12.0, 42.0, (int(rng.integers(3, 13)), 2))
        if i % 2:
            verts = np.round(verts * 2.0) / 2.0    # half-integer: crossings on centres
        if i % 7 == 0:
            verts[int(rng.integers(len(verts))), int(rng.integers(2))] = np.nan
        assert_same(outcome(rasterize_polygon, verts, w, h),
                    outcome(full_rasterize_polygon, verts, w, h))
    for bad in ([(0.0, 0.0), (1.0, 1.0)], np.zeros((3, 2))):
        for w, h in ((5, 5), (0, 5), (5, 0)):
            assert_same(outcome(rasterize_polygon, bad, w, h),
                        outcome(full_rasterize_polygon, bad, w, h))


def thick_ring(h, w, t):
    """A frame-filling ring t px thick around its hole."""
    m = np.ones((h, w), dtype=bool)
    m[t:-t, t:-t] = False
    return m


def small_disc_and_speck():
    """A disc of radius 3 that a disc of radius 5 or 8 does not fit into,
    and a speck in the corner."""
    m = np.pad(disc(9, 9, 4.5, 4.5, 3), 6)
    m[0, -1] = True
    return m


# rings with holes, objects on each border, 1 x N and N x 1 frames, and
# objects that the disc of radius 5 or 8 does not fit into
SMOOTHING = {
    "thick_ring_with_hole": np.pad(thick_ring(80, 90, 18), 3),
    "thin_ring_on_border": thick_ring(30, 24, 4),
    "rings_with_holes": concentric_rings(8),
    "disc_with_holes": disc(60, 60, 30, 30, 27) & ~disc(60, 60, 20, 30, 7) & ~disc(60, 60, 40, 34, 5),
    "on_top_border": disc(60, 70, 35, -4, 24),
    "on_bottom_border": disc(60, 70, 35, 64, 24),
    "on_left_border": disc(60, 70, -4, 30, 24),
    "on_right_border": disc(60, 70, 74, 30, 24),
    "on_every_border": ~disc(50, 56, 28, 25, 14),
    "one_by_n": dashes(64),
    "n_by_one": dashes(64).T.copy(),
    "one_by_n_full": np.ones((1, 30), dtype=bool),
    "n_by_one_full": np.ones((30, 1), dtype=bool),
    "small_disc_and_speck": small_disc_and_speck(),
}


def test_morphological_smooth():
    for i, m in enumerate(MASKS):
        for radius in (i % 4, 1 + i % 3):
            assert_same(morphological_smooth(m, radius), full_morphological_smooth(m, radius))
    for m in SMOOTHING.values():
        for radius in (0, 1, 2, 3, 5, 8):
            assert_same(morphological_smooth(m, radius), full_morphological_smooth(m, radius))
            assert_same(outcome(trace_object, m, radius), outcome(full_trace_object, m, radius))
    assert_same(outcome(morphological_smooth, MASKS[0], -1),
                outcome(full_morphological_smooth, MASKS[0], -1))


def nan_y(polygons, rng):
    """A NaN y on every third polygon: the NaN vertex's two edges cross no
    row, which can leave rows crossed an odd number of times."""
    out = []
    for i, (verts, w, h) in enumerate(polygons):
        verts = np.array(verts, dtype=float)
        if i % 3 == 0:
            verts[int(rng.integers(len(verts))), 1] = np.nan
        out.append((verts, w, h))
    return out


def random_polygons():
    rng = np.random.default_rng(11)
    polygons = []
    for i in range(300):
        w, h = (int(v) for v in rng.integers(2, 40, 2))
        verts = rng.uniform(-12.0, 52.0, (int(rng.integers(3, 14)), 2))
        if i % 2:
            verts = np.round(verts * 2.0) / 2.0    # half-integer: crossings on centres
        polygons.append((verts, w, h))
    return nan_y(polygons, rng)


def right_of_frame():
    # vertices up to 6 px either side of the right edge, so the crossings'
    # box reaches column `width` for some polygons and stops short for others
    rng = np.random.default_rng(12)
    polygons = []
    for i in range(300):
        w, h = (int(v) for v in rng.integers(1, 30, 2))
        k = int(rng.integers(3, 10))
        verts = np.stack([rng.uniform(w - 6.0, w + 6.0, k), rng.uniform(-3.0, h + 3.0, k)], axis=1)
        if i % 2:
            verts = np.round(verts * 2.0) / 2.0
        polygons.append((verts, w, h))
    return nan_y(polygons, rng)


def thin_frames():
    rng = np.random.default_rng(13)
    polygons = []
    for i in range(300):
        n = int(rng.integers(1, 40))
        w, h = ((1, n), (n, 1), (1, 1))[i // 3 % 3]    # each with and without NaN
        verts = rng.uniform(-4.0, n + 4.0, (int(rng.integers(3, 10)), 2))
        if i % 2:
            verts = np.round(verts * 2.0) / 2.0
        polygons.append((verts, w, h))
    return nan_y(polygons, rng)


def decoded(size):
    """Contours encoded from generated shapes, with noise up to 40 px."""
    rng = np.random.default_rng(size)
    polygons = []
    for i, kind in enumerate(("blob", "ellipse", "dumbbell")):
        contour, _ = encode_mask(generate_shape(ShapeSpec(kind, size, size, i, 0.6)))
        for delta in (0.0, 2.0, 10.0, 40.0):
            poly = decode_contour(perturb_contour(contour, delta, i), 128)
            polygons.append((poly, size, size))
    return nan_y(polygons, rng)


def small_on_large():
    """Contours of small generated shapes on large frames, with noise up
    to 40 px: crossings that cover a small part of the frame."""
    rng = np.random.default_rng(14)
    polygons = []
    for size in (2048, 4096):
        for i, (kind, scale) in enumerate((("blob", 0.02), ("ellipse", 0.05), ("dumbbell", 0.1))):
            contour, _ = encode_mask(generate_shape(ShapeSpec(kind, size, size, i, scale)))
            for delta in (0.0, 2.0, 10.0, 40.0):
                poly = decode_contour(perturb_contour(contour, delta, i), 128)
                polygons.append((poly, size, size))
    return nan_y(polygons, rng)


POLYGON_CASES = {
    "random_half_integer_off_frame": random_polygons,
    "right_of_frame": right_of_frame,
    "thin_frames": thin_frames,
    "decoded_256": lambda: decoded(256),
    "decoded_2048": lambda: decoded(2048),
    "small_on_large": small_on_large,
}


@pytest.mark.parametrize("case", sorted(POLYGON_CASES))
def test_run_length_fill(case):
    for verts, w, h in POLYGON_CASES[case]():
        assert_same(outcome(rasterize_polygon, verts, w, h),
                    outcome(box_xor_rasterize_polygon, verts, w, h))
        assert_same(outcome(polygon_to_mask, verts, w, h),
                    outcome(box_xor_polygon_to_mask, verts, w, h))


def test_hausdorff():
    rng = np.random.default_rng(5)
    for i in range(500):
        scale = float(rng.choice([1e-3, 1.0, 64.0, 1e4]))
        a = rng.normal(0.0, scale, (int(rng.integers(1, 150)), 2))
        b = rng.normal(0.0, scale, (int(rng.integers(1, 150)), 2))
        if i % 5 == 0:
            b = np.concatenate([b, a[:3]])    # shared and repeated points
        assert_same(hausdorff(a, b), cdist_hausdorff(a, b))
    for a, b in ((np.empty((0, 2)), np.zeros((1, 2))), (np.zeros((1, 2)), np.empty((0, 2)))):
        assert_same(outcome(hausdorff, a, b), outcome(cdist_hausdorff, a, b))
    for a, b in roundtrip_boundaries() + unprunable_pairs() + extreme_magnitudes():
        assert_same(hausdorff(a, b), cdist_hausdorff(a, b))
        assert_same(hausdorff(b, a), cdist_hausdorff(b, a))


def roundtrip_pair(kind, size, seed):
    """(the encode -> decode -> polygon_to_mask raster of a shape, the shape)"""
    m = generate_shape(ShapeSpec(kind, size, size, seed, 0.7))
    contour, _ = encode_mask(m)
    return polygon_to_mask(decode_contour(contour, 128), size, size), m


def raster_hausdorff_pairs():
    """Mask pairs for the Hausdorff distance on boundary pixels: round
    trips, where row bands answer every query; noise and dissimilar
    shapes, where they hold too many points and the k-d tree takes over;
    identical masks, where no point is queried; and lines, single pixels,
    objects on the frame border and a frame wider than 65,536 pixels,
    where the (x, y) order's 16-bit columns merge neighbouring ones."""
    for size in (64, 256, 2048):
        for i, kind in enumerate(("blob", "ellipse", "dumbbell")):
            yield f"roundtrip-{kind}-{size}", roundtrip_pair(kind, size, 1000 + i)
    rng = np.random.default_rng(12)
    for density in (0.05, 0.3):
        yield f"noise-{density}", (rng.random((512, 512)) < density, rng.random((512, 512)) < density)
    yield "blob-dumbbell", (generate_shape(ShapeSpec("blob", 2048, 2048, 1000, 0.7)),
                            generate_shape(ShapeSpec("dumbbell", 2048, 2048, 1002, 0.7)))
    m = generate_shape(ShapeSpec("blob", 256, 256, 1000, 0.7))
    yield "rolled", (m, np.roll(m, 100, axis=1))
    yield "identical", (m, m.copy())
    row, column = boxes((40, 50), (20, 21, 5, 45)), boxes((40, 50), (2, 38, 25, 26))
    yield "lines", (row, column)
    yield "line-diagonal", (row, np.eye(40, 50, dtype=bool))
    pixel, far_pixel = boxes((30, 30), (3, 4, 5, 6)), boxes((30, 30), (20, 21, 27, 28))
    yield "pixels", (pixel, far_pixel)
    yield "pixel-disc", (pixel, disc(30, 30, 15, 15, 8))
    yield "border", (boxes((30, 40), (0, 30, 0, 3), (0, 2, 0, 40)),
                     boxes((30, 40), (27, 30, 0, 40), (0, 30, 37, 40)))
    yield "wide", (rng.random((1, 70000)) < 0.01, rng.random((1, 70000)) < 0.01)


def test_raster_hausdorff(monkeypatch):
    """compare_masks's distance on its raster-ordered boundaries and the
    public hausdorff's on the same points, in any order, have the oracle's
    bits, and the pairs take each branch from both callers: bands only,
    the k-d tree, and a direction with no point left to query."""
    trees, seen = [0], []
    real_tree, real_farthest = metrics._tree_nearest, metrics._farthest

    def tree_nearest(points, other):
        nearest = real_tree(points, other)

        def counted(idx, bound):
            trees[0] += 1
            return nearest(idx, bound)
        return counted

    def farthest(bound, low, nearest):
        calls, before = [], trees[0]
        out = real_farthest(bound, low, lambda idx, b: calls.append(len(idx)) or nearest(idx, b))
        seen.append("none" if not calls else "bands" if trees[0] == before else "tree")
        return out

    monkeypatch.setattr(metrics, "_tree_nearest", tree_nearest)
    monkeypatch.setattr(metrics, "_farthest", farthest)
    branches, public = {}, {}
    rng = np.random.default_rng(13)
    for name, (pred, gt) in raster_hausdorff_pairs():
        # 78,000 points a side: the all-pairs matrix would take minutes
        distance = directed_hausdorff_both if name == "noise-0.3" else cdist_hausdorff
        del seen[:]
        report = compare_masks(pred, gt)
        assert_same(report_bits(lambda p, g: report, pred, gt),
                    report_bits(lambda p, g: full_compare_masks(p, g, distance), pred, gt)), name
        branches.update(dict.fromkeys(seen, name))
        a, b = boundary_points(pred), boundary_points(gt)
        del seen[:]
        assert_same(hausdorff(a, b), report.hausdorff)
        public.update(dict.fromkeys(seen, name))
        # out of raster order, hausdorff sorts by y itself
        assert_same(hausdorff(rng.permutation(a), rng.permutation(b)), report.hausdorff)
        if name == "noise-0.05":  # the early-break oracle agrees where both run
            assert_same(directed_hausdorff_both(a, b), cdist_hausdorff(a, b))
    assert branches.keys() == {"none", "bands", "tree"}
    assert public.keys() == {"none", "bands", "tree"}


def roundtrip_boundaries():
    """Boundary pixels of generated masks and of their encode -> decode ->
    polygon_to_mask rasters, the pairs that eval scores."""
    pairs = []
    for size in (64, 128, 256):
        for i, kind in enumerate(("blob", "ellipse", "dumbbell")):
            m = generate_shape(ShapeSpec(kind, size, size, size + i, 0.7))
            contour, _ = encode_mask(m)
            raster = polygon_to_mask(decode_contour(contour, 128), size, size)
            pairs.append((boundary_points(raster), boundary_points(m)))
    return pairs


def unprunable_pairs():
    """Sets on which the bracketing bounds prune less than on boundaries:
    two clusters 1000 px apart, a set and its 45 degree diagonal offset, a
    set against one point, and two uniform clouds over one square, where
    the neighbours in key order are far from the nearest (about half of
    the points are queried)."""
    rng = np.random.default_rng(8)
    cluster = rng.integers(0, 40, (300, 2)) + 0.5
    ring = 50 * np.stack([np.cos(np.arange(400) * 0.0157), np.sin(np.arange(400) * 0.0157)], axis=1)
    return [(cluster, cluster + 1000.0), (cluster, rng.normal(0.0, 20.0, (250, 2)) + [700.0, -700.0]),
            (ring, ring + 3.0), (cluster, cluster + [5.0, 5.0]),
            (cluster, cluster[:1]), (ring, np.zeros((1, 2))), (cluster[:1] + 1e3, cluster),
            (rng.random((300, 2)) * 100, rng.random((300, 2)) * 100)]


def extreme_magnitudes():
    """Coordinates of magnitude 1e-300 to 1e300, where keys, bounds or
    squared distances overflow or underflow."""
    rng = np.random.default_rng(9)
    pairs = []
    for exp in (-300, -150, 150, 300):
        scale = 10.0 ** exp
        a = rng.normal(0.0, scale, (60, 2))
        pairs += [(a, rng.normal(0.0, scale, (40, 2))), (a, a[::-1] + scale * 1e-3),
                  (a + 3 * scale, a[:5]), (np.array([[scale, -scale]]), a)]
    return pairs


def band_edge_pairs():
    """Sets at the edges of the row bands' reach and of the two bracket
    orders: ys one ulp apart; a dy that rounds toward 0; coordinates near
    2^-499 whose differences lie below about 2^-537, so that their squares
    underflow or round to a few subnormal units; coordinate ranges that
    overflow; every point on one column, and on one row; and sets wider
    than 65,536 columns, whose 16-bit columns merge."""
    rng = np.random.default_rng(14)
    pairs = []
    for y in (1.0, 1e6, 2.0 ** 52):
        xs = rng.integers(0, 50, (2, 80)) + 0.5
        up = np.nextafter(y, math.inf)
        pairs += [(np.stack([xs[0], np.full(80, y)], axis=1), np.stack([xs[1], np.full(80, up)], axis=1)),
                  (np.stack([xs[0], np.where(xs[0] < 25, y, up)], axis=1),
                   np.stack([xs[1], np.where(xs[1] < 25, up, y)], axis=1))]
    # dy = -0.9 - (2^53 + 2) rounds to -(2^53 + 2), short of the exact one
    pairs.append((np.array([[0.0, 2.0 ** 53 + 2]]), np.array([[0.0, -0.9]])))
    # beside 2^-499 a step is 2^-551, and a square below 2^-1074 underflows;
    # 25378 steps square to 2.4 units of 2^-1074, rounded down to 2, so dy
    # lies outside the root of its own squared distance
    tiny, step = 2.0 ** -499, 2.0 ** -551
    pairs.append((np.array([[tiny, tiny]]), np.array([[tiny, tiny + 25378 * step]])))
    for x_steps, y_steps in ((0, 2 ** 14), (2 ** 10, 2 ** 14), (2 ** 12, 2 ** 16), (2 ** 21, 2 ** 16)):
        a, b = (np.stack([tiny + rng.integers(0, x_steps + 1, 200) * step,
                          tiny + rng.integers(0, y_steps, 200) * step], axis=1) for _ in range(2))
        pairs.append((a, b))
    big = 1.7e308
    a = rng.uniform(-1.0, 1.0, (50, 2)) * big
    pairs += [(a, rng.uniform(-1.0, 1.0, (40, 2)) * big), (np.array([[big, 0.0], [-big, 1.0]]), a),
              (np.array([[-big, -big]]), np.array([[big, big]]))]
    u, v = rng.normal(0.0, 30.0, (2, 120))

    def column(ys):
        return np.stack([np.full(120, 7.5), ys], axis=1)

    def row(xs):
        return np.stack([xs, np.full(120, -3.0)], axis=1)

    pairs += [(column(u), column(v)), (row(u), row(v)), (column(u), row(v))]
    for width in (70000, 10 ** 7):
        pairs.append(tuple(np.stack([rng.integers(0, width, 500) + 0.5, rng.integers(0, 3, 500) + 0.5], axis=1)
                           for _ in range(2)))
    return pairs


def test_hausdorff_band_edges():
    for a, b in band_edge_pairs():
        assert_same(hausdorff(a, b), cdist_hausdorff(a, b))
        assert_same(hausdorff(b, a), cdist_hausdorff(b, a))


# ---------------------------------------------------------------- contour codec

def assert_same_contour(got, want):
    """The array contour holds the list contour's points, bit for bit."""
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert (got.width, got.height) == (want.width, want.height)
    expected = np.stack([s.control_points for s in want.segments])
    cp = got.control_points
    assert (cp.dtype, cp.shape) == (expected.dtype, expected.shape)
    assert cp.tobytes() == expected.tobytes()
    assert contour_to_json(got) == list_contour_to_json(want)


def short_arc_masks():
    """1-px lines in four directions and 2 x 2 squares, alone in their frame
    or padded: every arc, or all but one, is shorter than degree + 1."""
    masks = []
    for n in range(4, 13):
        line = np.zeros((n, n), dtype=bool)
        line[n // 2] = True
        diagonal = np.eye(n, dtype=bool)
        masks += [line, line.T, diagonal, diagonal[::-1]]
    square = np.ones((2, 2), dtype=bool)
    return masks + [square, np.pad(square, 1), np.pad(square, ((0, 3), (2, 1)))]


ENCODE_CASES = {
    "oracle_masks": lambda: [(m, d) for m in MASKS for d in (1, 3, 5, 9, MAX_DEGREE)],
    "encode_256": lambda: [(m, 5) for m in bench_encode_corpus()],
    "short_arcs": lambda: [(m, d) for m in short_arc_masks() for d in (1, 5, MAX_DEGREE)],
}


@pytest.mark.parametrize("case", sorted(ENCODE_CASES))
def test_encode_trace(case):
    """Contours, residuals and arc lengths, and every arc's fit_arc."""
    encoded = 0
    for m, degree in ENCODE_CASES[case]():
        trace = outcome(trace_object, m)
        if isinstance(trace, type):
            continue
        h, w = m.shape
        got = outcome(encode_trace, trace, degree, w, h)
        want = outcome(list_encode_trace, trace, degree, w, h)
        if isinstance(want, type):
            assert got is want
            continue
        encoded += 1
        contour, report = got
        assert_same_contour(contour, want[0])
        assert_same(report.residuals, want[1])
        assert_same(report.arc_lengths, want[2])
        arcs = list_split_boundary(trace, find_extreme_points(trace))
        for arc in arcs + [trace.points[:m] for m in (1, 2, degree, degree + 1)]:
            seg, resid = fit_arc(arc, degree)
            want_seg, want_resid = list_fit_arc(arc, degree)
            assert seg.control_points.tobytes() == want_seg.control_points.tobytes()
            assert_same(resid, want_resid)
    assert encoded > 30


def codec_contours():
    """(array contour, list contour) pairs: random 40-vectors, including
    points far outside the frame, and encoded masks of several degrees."""
    rng = np.random.default_rng(31)
    pairs = []
    for i in range(300):
        vec = rng.uniform(-50.0, 300.0, 40) * (1e6 if i % 50 == 0 else 1.0)
        w, h = (int(v) for v in rng.integers(1, 400, 2))
        pairs.append((unflatten(vec, w, h), list_unflatten(vec, w, h)))
    for i, m in enumerate(MASKS[::8]):
        trace = outcome(trace_object, m)
        if not isinstance(trace, type):
            h, w = m.shape
            degree = (1, 3, 5, 9)[i % 4]
            pairs.append((encode_trace(trace, degree, w, h)[0],
                          list_encode_trace(trace, degree, w, h)[0]))
    return pairs


def test_vector_codec():
    """flatten, unflatten, decode_contour, decode_points, perturb_contour,
    scale_contour and the JSON codec on the same contours."""
    samples = sample_parameters(72, 0)
    for i, (got, want) in enumerate(codec_contours()):
        assert_same_contour(got, want)
        for k in (2, 5, 128, 500):
            assert_same(outcome(decode_contour, got, k), outcome(list_decode_contour, want, k))
        for size in ((1, 1), (2 * got.width, 3), (777, 2048)):
            assert_same_contour(scale_contour(got, *size), list_scale_contour(want, *size))
        text = contour_to_json(got)
        assert_same_contour(contour_from_json(text), list_contour_from_json(text))
        vec = outcome(flatten, got)
        assert_same(vec, outcome(list_flatten, want))
        if isinstance(vec, type):
            continue
        assert_same_contour(unflatten(vec, got.width, got.height), want)
        assert_same(decode_points(got, samples), list_decode_points(want, samples))
        for delta in (0.0, 2.0, 40.0):
            assert_same_contour(perturb_contour(got, delta, i), list_perturb_contour(want, delta, i))


def malformed(doc, edit):
    doc = json.loads(doc)
    edit(doc)
    return json.dumps(doc)


def set_point(doc, segment, index, xy):
    doc["segments"][segment]["control_points"][index] = xy


MALFORMED = {
    "three_segments": lambda d: d["segments"].pop(),
    "five_segments": lambda d: d["segments"].append(d["segments"][0]),
    "mixed_degrees": lambda d: d["segments"][2]["control_points"].insert(2, [1.0, 2.0]),
    "degree_zero": lambda d: [s.update(control_points=s["control_points"][:1]) for s in d["segments"]],
    "three_coordinates": lambda d: [p.append(0.0) for s in d["segments"] for p in s["control_points"]],
    "unchained_junction": lambda d: set_point(d, 1, -1, [0.25, 0.5]),
    "nan_interior": lambda d: set_point(d, 0, 2, [float("nan"), 1.0]),
    "infinite_junction": lambda d: [set_point(d, 0, -1, [float("inf"), 1.0]),
                                    set_point(d, 1, 0, [float("inf"), 1.0])],
    "missing_width": lambda d: d.pop("width"),
    "segments_not_a_list": lambda d: d.update(segments=5),
    "version_2": lambda d: d.update(version=2),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents(name):
    text = malformed(contour_to_json(unflatten(np.arange(40.0), 64, 48)), MALFORMED[name])
    got = outcome(contour_from_json, text)
    assert got is ContourFormatError
    assert got is outcome(list_contour_from_json, text)


@pytest.mark.parametrize("frame", [(0, 48), (64, 0), (64, -3), (-5, -5)])
def test_zero_size_frame_is_rejected(frame):
    """The list contour loaded these; decoding or scaling them then divided
    by zero or allocated a negative shape."""
    good = contour_to_json(unflatten(np.arange(40.0), 64, 48))
    text = malformed(good, lambda d: d.update(width=frame[0], height=frame[1]))
    assert not isinstance(outcome(list_contour_from_json, text), type)
    assert outcome(contour_from_json, text) is ContourFormatError
    assert outcome(unflatten, np.arange(40.0), *frame) is ContourFormatError
    assert outcome(scale_contour, contour_from_json(good), *frame) is ContourFormatError


INEXACT_FIELDS = {"width_64.9": {"width": 64.9}, "height_47.5": {"height": 47.5},
                  "width_true": {"width": True}, "width_string": {"width": "64"},
                  "degree_3": {"degree": 3}, "version_true": {"version": True}}


@pytest.mark.parametrize("name", sorted(INEXACT_FIELDS))
def test_inexact_fields_are_rejected(name):
    """The list contour loaded these as another frame size, another degree
    or version 1."""
    good = contour_to_json(unflatten(np.arange(40.0), 64, 48))
    text = malformed(good, lambda d: d.update(INEXACT_FIELDS[name]))
    assert not isinstance(outcome(list_contour_from_json, text), type)
    assert outcome(contour_from_json, text) is ContourFormatError


@pytest.mark.parametrize("size", [64, 64.0])
def test_whole_frame_sizes_load(size):
    good = contour_to_json(unflatten(np.arange(40.0), 64, 48))
    text = malformed(good, lambda d: d.update(width=size, degree=5.0))
    assert_same_contour(contour_from_json(text), list_contour_from_json(text))


# ---------------------------------------------------------------- sweep

def per_polygon_sweep(masks, deltas, trials, seed=0, samples_per_segment=128, points=20):
    """The (bezier, polygon) curves of sensitivity_sweep as it was: one
    polygon_to_mask and one full-frame confusion per noisy contour and
    per noisy baseline."""
    deltas = np.asarray(deltas, dtype=float)
    sum_b = np.zeros(len(deltas))
    sum_p = np.zeros(len(deltas))
    n_scored = 0
    for i, m in enumerate(masks):
        h, w = m.shape
        trace = trace_object(m)
        contour, _ = encode_trace(trace, 5, w, h)
        if len(trace) < points:
            continue
        poly20 = polygon_baseline(trace, points)
        n_scored += 1
        for di, delta in enumerate(deltas):
            for t in range(trials):
                s = np.random.SeedSequence([seed, i, di, t])
                s_bez, s_poly = s.spawn(2)
                noisy = perturb_contour(contour, delta, s_bez)
                poly = decode_contour(noisy, samples_per_segment)
                rb = polygon_to_mask(poly, w, h)
                sum_b[di] += iou(confusion(rb, m))

                rng = np.random.default_rng(s_poly)
                verts = poly20 + rng.normal(0.0, delta, poly20.shape)
                rp = polygon_to_mask(verts, w, h)
                sum_p[di] += iou(confusion(rp, m))
    denom = n_scored * trials
    return sum_b / denom, sum_p / denom


@pytest.fixture(scope="module")
def sweep_masks():
    """sensitivity-256's masks at seed 1, half of them again with specks,
    one as a uint8 map of 0 and 2, a 4 x 4 square whose 12-point trace is
    too short for the 20-point baseline, and two 700^2 shapes, whose nine
    noisy contours per kind at three deltas and three trials take a stack
    of eight frames and one of one."""
    workloads, tracer = bench_workloads()
    masks = [m for m, _ in workloads.WORKLOADS["sensitivity-256"].make_inputs(1, tracer)]
    rng = np.random.default_rng(3)
    masks += [workloads.add_specks(m.copy(), rng) for m in masks[::2]]
    square = np.zeros((32, 32), dtype=bool)
    square[10:14, 20:24] = True
    masks += [masks[1].astype(np.uint8) * 2, square]
    return masks + [generate_shape(ShapeSpec(kind, 700, 700, 5, 0.5))
                    for kind in ("blob", "dumbbell")]


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_sensitivity_sweep(sweep_masks, trials):
    for seed, deltas in ((1, [0.0, 1.0, 4.0]), (2, [3.0, 0.0])):
        curve = sensitivity_sweep(sweep_masks, deltas, trials, seed)
        bezier, polygon = per_polygon_sweep(sweep_masks, deltas, trials, seed)
        assert_same(curve.miou_bezier, bezier)
        assert_same(curve.miou_polygon, polygon)


# ---------------------------------------------------------------- degree sweep

def per_arc_degree_sweep(masks, degrees):
    """degree_sweep as it was: every arc of every traced mask fitted on
    its own by fit_arc, the residuals averaged in mask-then-arc order."""
    arcs_per_mask = []
    for m in masks:
        trace = trace_object(m)
        arcs_per_mask.append(list_split_boundary(trace, find_extreme_points(trace)))
    out = {}
    for degree in degrees:
        res = [fit_arc(arc, degree)[1] for arcs in arcs_per_mask for arc in arcs]
        out[degree] = float(np.mean(res))
    return out


def test_degree_sweep():
    """Blobs, ellipses and dumbbells in square and 200 x 150 frames, one
    with a speck beside it, and 16^2 shapes whose arcs are shorter than
    degree + 1 at the high degrees."""
    masks = [generate_shape(ShapeSpec(kind, w, h, seed, scale))
             for kind in ("blob", "ellipse", "dumbbell")
             for seed, w, h, scale in ((0, 128, 128, 0.6), (1, 200, 150, 0.4), (2, 16, 16, 0.8))]
    masks[0][0, 0] = True
    degrees = (1, 2, 3, 5, 9, 12)
    got = degree_sweep(masks, degrees)
    want = per_arc_degree_sweep(masks, degrees)
    assert list(got) == list(degrees)
    assert [type(v) for v in got.values()] == [float] * len(degrees)
    assert got == want


# ---------------------------------------------------------------- loss operator

LOSS_KEYS = [(n, seed) for n in (1, 12, 72, 500) for seed in (0, 1, 7)]


def rebuilt_operator(samples):
    """The (n, 20) operator rebuilt from basis_matrix, one sample at a time."""
    B = basis_matrix(5, samples.ts)
    A = np.zeros((len(B), 20))
    for j, k in enumerate(samples.segment_ids):
        A[j, [k, 4 + 4 * k, 5 + 4 * k, 6 + 4 * k, 7 + 4 * k, (k + 1) % 4]] = B[j]
    return A


def rebuilt_loss(pred, gt, n, seed):
    """contour_loss with its operator rebuilt on every call and J = kron(A, I_2)."""
    J = np.kron(rebuilt_operator(sample_parameters(n, seed)), np.eye(2))
    scale = np.tile([1.0 / pred.width, 1.0 / pred.height], 20)
    fp, fg = flatten(pred) * scale, flatten(gt) * scale
    l_ce, g_ce = smooth_l1(fp, fg)
    l_match, g_match = smooth_l1(J @ fp, J @ fg)
    return l_ce + l_match, l_ce, l_match, (g_ce + J.T @ g_match) * scale


def loss_pairs(seed):
    """(pred, gt) pairs whose errors fall in both regions of smooth L1."""
    rng = np.random.default_rng([seed, 12])
    gt = unflatten(rng.uniform(10.0, 240.0, 40), 256, 200)
    return [(unflatten(flatten(gt) + rng.normal(0.0, sigma, 40), 256, 200), gt)
            for sigma in (0.5, 60.0)]


def test_loss_operator():
    """Two rounds over 12 (n, seed) keys: the first fills the loss's cache,
    the second hits it; every output equals the rebuilt one bit for bit."""
    for _ in range(2):
        for n, seed in LOSS_KEYS:
            samples = sample_parameters(n, seed)
            A = rebuilt_operator(samples)
            assert_same(samples.operator, A)
            for pred, gt in loss_pairs(n + seed):
                for s in (samples, _loss_samples(n, seed)):
                    J = decode_jacobian(pred, s)
                    assert J.flags.writeable and J.tobytes() == np.kron(A, np.eye(2)).tobytes()
                got = contour_loss(pred, gt, n=n, seed=seed)
                total, l_ce, l_match, gradient = rebuilt_loss(pred, gt, n, seed)
                assert_same((got.total, got.l_ce, got.l_matching), (total, l_ce, l_match))
                assert_same(got.gradient, gradient)
                assert got.gradient.tobytes() == gradient.tobytes()


def test_writing_the_loss_operator_leaves_the_loss_alone():
    pred, gt = loss_pairs(3)[1]
    before = contour_loss(pred, gt, n=72, seed=0)
    samples = _loss_samples(72, 0)
    decode_jacobian(pred, samples)[:] = 7.0
    with pytest.raises(ValueError):
        samples.operator[:] = 7.0
    after = contour_loss(pred, gt, n=72, seed=0)
    assert (after.total, after.l_ce, after.l_matching) == (before.total, before.l_ce, before.l_matching)
    assert after.gradient.tobytes() == before.gradient.tobytes()


def test_sample_set_is_immutable():
    ts, ids = np.array([0.1, 0.9, 0.5, 0.0]), np.array([0, 3, 2, 1])
    built, lazy = SampleSet(ts, ids), SampleSet(ts, ids)
    expected = rebuilt_operator(built)
    A = built.operator
    ts[:], ids[:] = 0.7, 1
    assert built.operator is A and lazy.operator is lazy.operator
    for s in (built, lazy):
        assert_same(s.operator, expected)
        assert s.ts.tolist() == [0.1, 0.9, 0.5, 0.0] and s.segment_ids.tolist() == [0, 3, 2, 1]
        for a in (s.ts, s.segment_ids, s.operator):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        with pytest.raises(FrozenInstanceError):
            s.ts = ts


def where_smooth_l1(pred, target):
    """smooth_l1 with its gradient as where(|d| < 1, d, sign(d)) and its loss
    as a mean."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    d = pred - target
    quad = np.abs(d) < 1.0
    loss = np.where(quad, 0.5 * d * d, np.abs(d) - 0.5)
    grad = np.where(quad, d, np.sign(d))
    return float(loss.mean()), grad / d.size


SMOOTH_L1_SPECIALS = np.array([s * v for v in (0.0, 0.5, 1.0, np.nextafter(1.0, 0.0), np.inf, 5e-324, 1e308)
                               for s in (1.0, -1.0)] + [np.nan])


@pytest.mark.parametrize("shape", [(), (1,), (40,), (144,), (20, 2)])
def test_smooth_l1(shape):
    """Random differences on both sides of |d| = 1, with every special value
    mixed into either argument, in both argument orders, and differences
    that are all one signed zero or all NaN."""
    rng = np.random.default_rng([len(shape), *shape])
    pairs = []
    for _ in range(200):
        a, b = rng.normal(0.0, 1.5, shape), rng.normal(0.0, 1.5, shape)
        for x in (a, b):
            x[...] = np.where(rng.random(shape) < 0.3, rng.choice(SMOOTH_L1_SPECIALS, shape), x)
        pairs += [(a, b), (b, a)]
    # differences all +0, all -0 and all NaN, from inf - inf with its sign bit set
    pairs += [(np.full(shape, p), np.full(shape, t)) for p, t in ((0.0, 0.0), (-0.0, 0.0), (np.inf, np.inf))]
    for pred, target in pairs:
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = smooth_l1(pred, target), where_smooth_l1(pred, target)
        assert type(got[0]) is type(want[0]) is float
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert type(got[1]) is type(want[1])
        assert_same(np.asarray(got[1]), np.asarray(want[1]))
        assert np.asarray(got[1]).tobytes() == np.asarray(want[1]).tobytes()


def test_cache_hit_evaluates_no_basis(monkeypatch):
    pred, gt = loss_pairs(5)[0]
    first = contour_loss(pred, gt, n=72, seed=0)
    calls = []

    def counting_basis(*args):
        calls.append(args)
        return basis_matrix(*args)

    monkeypatch.setattr(decoder, "basis_matrix", counting_basis)
    second = contour_loss(pred, gt, n=72, seed=0)
    assert calls == []
    assert second.gradient.tobytes() == first.gradient.tobytes()
    SampleSet([0.5], [0]).operator
    assert len(calls) == 1


# ---------------------------------------------------------------- PGM header

def list_load_pgm(data: bytes) -> np.ndarray:
    """load_pgm as it was: a token loop over the header."""
    if not data.startswith(b"P5"):
        raise PgmFormatError("not a binary PGM (missing P5 magic)")
    # Header tokens may be separated by whitespace and '#' comments.
    pos = 2
    fields = []
    while len(fields) < 3:
        m = re.compile(rb"\s*(?:#[^\n]*\n)*\s*(\d+)").match(data, pos)
        if m is None:
            raise PgmFormatError("truncated or malformed PGM header")
        fields.append(int(m.group(1)))
        pos = m.end()
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmFormatError(f"bad dimensions {width}x{height}")
    if maxval <= 0 or maxval > 255:
        raise PgmFormatError(f"only 8-bit PGM supported, maxval={maxval}")
    if pos < len(data) and not data[pos:pos + 1].isspace():
        raise PgmFormatError("maxval must be followed by one whitespace byte")
    pos += 1
    if len(data) - pos < width * height:
        raise PgmFormatError("truncated pixel data")
    grid = np.frombuffer(data, np.uint8, count=width * height, offset=pos).reshape(height, width)
    # a uint8 never exceeds a maxval of 255
    if maxval < 255 and grid.max() > maxval:
        raise PgmFormatError(f"pixel value {grid.max()} above maxval {maxval}")
    # for integer values, value * 255 > 127 * maxval exactly when
    # value > floor(127 * maxval / 255)
    return grid > 127 * maxval // 255


def random_pgms(count, seed):
    """P5 files and near misses: every whitespace byte and '#' comments as
    separators, leading zeros, a digit right after the magic, other
    magics, other bytes after maxval, short or long pixel data and
    truncated headers. Separators are drawn from a pool built first.
    Yields each file with its three separators."""
    rng = random.Random(seed)
    whitespace = [bytes([c]) for c in b" \t\n\r\x0b\x0c"]

    def separator():
        items = []
        for _ in range(rng.choices((0, 1, 2, 3, 4), (3, 50, 25, 12, 10))[0]):
            if rng.random() < 0.75:
                items.append(rng.choice(whitespace))
            else:
                items.append(b"#" + bytes(rng.choices(b"ab #\t09", k=rng.randrange(6))) + b"\n")
        return b"".join(items)

    separators = [separator() for _ in range(2000)]
    magics = [b"P5"] * 92 + [b"P6"] * 3 + [b"P2", b"P2", b"p5", b"p5", b"P"]
    ends = whitespace * 2 + [b"", b"#c\n", b"X", b"\n\n"]
    maxvals = (0, 1, 2, 127, 254, 255, 255, 255, 256, 65535)
    zeros = [b""] * 8 + [b"0", b"00"]
    for _ in range(count):
        width, height, maxval = rng.randrange(6), rng.randrange(6), rng.choice(maxvals)
        s, z = rng.choices(separators, k=3), rng.choices(zeros, k=3)
        data = b"".join([rng.choice(magics), s[0], z[0], b"%d" % width, s[1], z[1], b"%d" % height,
                         s[2], z[2], b"%d" % maxval, rng.choice(ends)])
        size = max(0, width * height + rng.choice((0, 0, 0, 0, -1, 1, 3)))
        if maxval < 255 and rng.random() < 0.7:
            data += bytes(rng.choices(range(maxval + 1), k=size))
        else:
            data += rng.randbytes(size)
        yield (data[:rng.randrange(len(data))] if rng.random() < 0.05 else data), s


# the separator the token loop takes: whitespace, comments, whitespace
LOOP_SEPARATOR = re.compile(rb"\s*(?:#[^\n]*\n)*\s*")


def test_pgm_header_fuzz():
    """One grammar against the token loop on 100,000 random files. Where
    both load, the masks are equal; where both raise, they raise one type.
    Only the loop loads a digit right after P5; only the grammar loads a
    header whose comments and whitespace interleave, which the loop's
    whitespace-comments-whitespace separator (LOOP_SEPARATOR) rejects."""
    counts = {"both load": 0, "both raise": 0, "loop only": 0, "grammar only": 0}
    for data, separators in random_pgms(100_000, seed=20):
        got, want = outcome(load_pgm, data), outcome(list_load_pgm, data)
        if isinstance(got, type) == isinstance(want, type):
            assert_same(got, want)
            counts["both raise" if isinstance(got, type) else "both load"] += 1
        elif isinstance(got, type):
            assert got is PgmFormatError and data[2:3].isdigit()
            counts["loop only"] += 1
        else:
            assert want is PgmFormatError
            assert not all(LOOP_SEPARATOR.fullmatch(s) for s in separators)
            counts["grammar only"] += 1
    assert min(counts.values()) > 0
