"""The bounding-box pixel passes and the k-d tree Hausdorff distance
against the full-frame code they replaced.

The oracles below are the earlier full-frame implementations, kept
verbatim in substance: every output must be equal bit for bit (values,
dtype and shape), and every error of the same type.
"""

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial.distance import cdist

from beziermask import (BezierMaskError, boundary_points, confusion, hausdorff,
                        largest_component, morphological_smooth, rasterize_polygon,
                        trace_boundary, trace_object)
from beziermask.errors import DegenerateShapeError, EmptyMaskError, UndefinedMetricError
from beziermask.experiments import ShapeSpec, generate_shape

_STRUCT_8 = np.ones((3, 3), dtype=bool)
_STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_MOORE = [(0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)]


# ---------------------------------------------------------------- oracles

def full_largest_component(mask, connectivity=8):
    mask = np.asarray(mask, dtype=bool)
    structure = _STRUCT_8 if connectivity == 8 else _STRUCT_4
    labels, count = ndimage.label(mask, structure=structure)
    if count == 0:
        return np.zeros_like(mask)
    sizes = np.bincount(labels.ravel())[1:]
    return labels == int(np.argmax(sizes)) + 1


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
        smoothed = full_largest_component(morphological_smooth(work, smooth_radius))
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


def full_rasterize_polygon(vertices, width, height):
    """Running XOR of the crossing marks over a (height, width + 1) frame."""
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
    flips = np.zeros((height, width + 1), dtype=np.uint8)
    np.bitwise_xor.at(flips, (rows, cols), 1)
    flips = np.bitwise_xor.accumulate(flips, axis=1)
    return flips[:, :width].astype(bool)


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
    d = cdist(a, b)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


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
}
MASKS = list(SHAPED.values()) + random_masks(400, seed=1)


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("connectivity", [8, 4])
def test_largest_component(connectivity):
    for m in MASKS:
        assert_same(largest_component(m, connectivity), full_largest_component(m, connectivity))


def test_trace_boundary():
    for m in MASKS:
        assert_same(outcome(trace_boundary, m), outcome(full_trace_boundary, m))
        kept = full_largest_component(m)
        assert_same(outcome(trace_boundary, kept), outcome(full_trace_boundary, kept))


@pytest.mark.parametrize("smooth_radius", [0, 1])
def test_trace_object(smooth_radius):
    for m in MASKS:
        assert_same(outcome(trace_object, m, smooth_radius),
                    outcome(full_trace_object, m, smooth_radius))


def test_boundary_points():
    for m in MASKS:
        assert_same(boundary_points(m), full_boundary_points(m))


def test_confusion():
    others = random_masks(len(MASKS), seed=2)
    for m, other in zip(MASKS, others):
        for pred, gt in ((m, m), (m, ~m), (m, np.zeros_like(m)), (m, other)):
            got = outcome(lambda p, g: tuple(vars(confusion(p, g)).values()), pred, gt)
            assert_same(got, outcome(full_confusion, pred, gt))


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
