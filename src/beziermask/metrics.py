"""Segmentation quality metrics on mask pairs and point sets."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError
from .mask import _as_2d, _boundary, _expand, _packed


@dataclass
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int


@dataclass
class MetricsReport:
    iou: float
    hausdorff: float
    mcc: float
    fp_rate: float
    fn_rate: float


@dataclass
class DatasetSummary:
    miou: float
    mean_hausdorff: float
    mean_mcc: float
    mean_fp_rate: float
    mean_fn_rate: float


def confusion(pred: np.ndarray, gt: np.ndarray) -> ConfusionCounts:
    """Pixelwise confusion counts; foreground is the positive class.
    Masks of different shapes raise ValueError."""
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    tp = int(np.count_nonzero(pred & gt))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(gt)) - tp
    return ConfusionCounts(tp, pred.size - tp - fp - fn, fp, fn)


def iou(counts: ConfusionCounts) -> float:
    """tp / (tp + fp + fn); 1 when both masks are empty."""
    denom = counts.tp + counts.fp + counts.fn
    return counts.tp / denom if denom else 1.0


def mcc(counts: ConfusionCounts) -> float:
    """Matthews correlation coefficient; 0 when any marginal is empty."""
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)  # exact int product
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def fp_fn_rates(counts: ConfusionCounts):
    """(fp / (fp + tn), fn / (fn + tp)); 0 for empty denominators."""
    fp_rate = counts.fp / (counts.fp + counts.tn) if counts.fp + counts.tn else 0.0
    fn_rate = counts.fn / (counts.fn + counts.tp) if counts.fn + counts.tp else 0.0
    return fp_rate, fn_rate


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two finite point sets, each
    an (N, 2) array of (x, y) as floats: every distance taken equals the
    all-pairs matrix's (_hausdorff). Another shape, a NaN or an inf
    raises ValueError, and an empty set UndefinedMetricError.

    Squared distances must stay within the doubles: sets whose largest
    |coordinate| is below 2^-500, and sets whose distance overflows, are
    scaled by the power of two that brings that coordinate into [1, 2),
    and the distance is scaled back, exactly. Every other input takes the
    unscaled path. Tiny distances hidden by huge coordinates stay
    inexact: beside a coordinate above 2^-500, a distance below about
    2^-537 reads as 0 (1e-200 beside 1e300, say).
    """
    a, b = (np.asarray(p, dtype=float) for p in (a, b))
    if a.shape[1:] != (2,) or b.shape[1:] != (2,):
        raise ValueError(f"point sets must be (N, 2) arrays, not shapes {a.shape} and {b.shape}")
    if len(a) == 0 or len(b) == 0:
        raise UndefinedMetricError("Hausdorff distance needs non-empty sets")
    top = np.max([np.abs(a).max(), np.abs(b).max()])
    if not np.isfinite(top):
        raise ValueError("Hausdorff distance needs finite coordinates")
    a, b = (p[np.argsort(p[:, 1], kind="stable")] for p in (a, b))  # the row bands need ascending y
    if top == 0.0 or top >= 2.0 ** -500:
        d = _hausdorff(a, b)
        if d < math.inf:
            return d
    k = 1 - math.frexp(top)[1]
    return _hausdorff(np.ldexp(a, k), np.ldexp(b, k)) * 2.0 ** -k


def _hausdorff(a, b) -> float:
    """The Hausdorff distance of two non-empty sets of finite points, each
    in ascending y, or inf if a squared distance overflows.

    Upper bounds on the points' nearest distances skip each query that
    cannot raise the maximum (after Taha & Hanbury, TPAMI 2015); the rest
    are answered on row bands, or by a k-d tree where the bands hold too
    many points. Time O((N + M) log), memory O(N + M).

    The bounds are _bracket's in two orders of both sets. The (y, x) order
    is a stable sort of y * (x range + 2) + x: exact for pixel centres, and
    a merge of two sorted runs for two raster-ordered sets (_boundary's).
    The (x, y) order is one stable radix sort of that order by column
    quantised to uint16, exact for pixel centres fewer than 65,536 columns
    apart. On other inputs either may order ties loosely, and any order
    still gives upper bounds. The queries are _band_nearest's.
    """
    n = len(a)
    x, y = np.concatenate([a, b]).T.copy()
    p, q = (x[:n], y[:n]), (x[n:], y[n:])
    # an inf or NaN key (a span of 0, inf or below 2^-1008) only loosens
    # an order, an inf bound costs a query, and an overflowed distance
    # leads to the scaled retry
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lo = x.min()
        span = x.max() - lo
        by_row = np.argsort(y * (span + 2) + x, kind="stable")
        col = ((x.take(by_row) - lo) * (65535 / span)).astype(np.uint16)
        by_col = by_row.take(np.argsort(col, kind="stable"))
        bound = np.minimum(_bracket(x, y, by_row, n), _bracket(x, y, by_col, n))
        low = _farthest(bound[:n], 0.0, _band_nearest(p, q, _tree_nearest(a, b)))
        return float(_farthest(bound[n:], low, _band_nearest(q, p, _tree_nearest(b, a))))


def _bracket(x, y, order, n: int) -> np.ndarray:
    """Squared distance, summed as dx*dx + dy*dy like the k-d tree's, from
    each point (coordinates x and y) to the nearer of the two of the other
    set (the first n, or the rest) that bracket it in `order`."""
    bound = np.empty(len(order))
    mine = order < n
    for sel in (mine, ~mine):
        at = np.flatnonzero(sel)
        me, other = order.take(at), order[~sel]
        before = at - np.arange(at.size)  # the other set's points before each
        px, py = x.take(me), y.take(me)
        d = []
        for near in (other.take(before - 1, mode="clip"), other.take(before, mode="clip")):
            dx, dy = x.take(near) - px, y.take(near) - py
            d.append(dx * dx + dy * dy)
        bound[me] = np.minimum(*d)
    return bound


def _farthest(bound, low: float, nearest) -> float:
    """The larger of `low` and the nearest distances of the points whose
    bound on the squared one has a root > low; nearest(idx, bound[idx]) is
    the largest of points idx."""
    far = np.flatnonzero(~(np.sqrt(bound) <= low))
    if far.size > 8:  # the 8 largest bounds give a low that skips most points
        top = far[np.argpartition(bound[far], -8)[-8:]]
        low = max(low, nearest(top, bound[top]))
        bound[top] = 0.0
        far = far[~(np.sqrt(bound[far]) <= low)]
    return max(low, nearest(far, bound[far])) if far.size else low


def _tree_nearest(points, other):
    """nearest(idx, bound) for _farthest: the largest k-d tree distance from
    points[idx] to `other`, the tree built on the first call."""
    @functools.cache
    def tree():
        from scipy.spatial import cKDTree  # loaded only when a distance is taken
        # a nearest distance does not depend on the tree's shape: midpoint
        # splits build faster, and the queries keep their tight node boxes
        return cKDTree(other, balanced_tree=False)

    return lambda idx, bound: tree().query(points[idx])[0].max()


# The crossover of the bands and the k-d tree in _band_nearest, measured on
# boundary pairs from 64^2 to 2048^2 and on noise masks (CHANGES.md).
_BAND_CUTOFF = 8


def _band_nearest(p, q, tree):
    """nearest(idx, bound) for _farthest on points p and q, each a pair of
    x and y arrays, q in ascending y: the exact minimum over the band of
    q's rows that each bound allows, or tree(idx, bound) if the bands hold
    more than _BAND_CUTOFF * len(q) points."""
    (qx, qy), m = q, len(q[0])

    def nearest(idx, bound):
        # the nearest point has |dy| <= sqrt(u) but for the roundings of
        # dy, its square and the root, which the factor covers, and a
        # square that underflows, which the added 2^-530 covers
        reach = np.sqrt(bound) * (1 + 2.0 ** -32) + 2.0 ** -530
        px, py = p[0].take(idx), p[1].take(idx)
        lo = np.searchsorted(qy, py - reach)
        count = np.searchsorted(qy, py + reach, "right") - lo
        if count.sum() > _BAND_CUTOFF * m:
            return tree(idx, bound)
        owner, at = _expand(lo, lo + count)
        dx, dy = qx.take(at) - px.take(owner), qy.take(at) - py.take(owner)
        # no band is empty: each holds the point that gave its bound
        return math.sqrt(np.minimum.reduceat(dx * dx + dy * dy, np.cumsum(count) - count).max())

    return nearest


def compare_masks(pred: np.ndarray, gt: np.ndarray) -> MetricsReport:
    """All per-pair metrics of two masks of one shape. Hausdorff is taken
    between their boundary pixel sets (boundary_points), by _hausdorff.

    If either mask is empty the Hausdorff entry is NaN, and 0 if both
    are (the other metrics keep their conventional degenerate values).
    The counts are taken with np.bitwise_count on the words of _packed.
    Masks of different shapes, or not 2-D, raise ValueError.
    """
    pred, gt = _as_2d(pred), _as_2d(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    # every pixel outside the box of both foregrounds is a true negative
    grid, box = _packed(pred, gt)
    tp = int(np.bitwise_count(grid[0] & grid[1]).sum())
    fp, fn = (int(ones) - tp for ones in np.bitwise_count(grid).sum(axis=(1, 2)))
    counts = ConfusionCounts(tp, pred.size - tp - fp - fn, fp, fn)
    if not (tp + fp and tp + fn):  # a mask is empty
        hd = math.nan if fp or fn else 0.0
    else:
        hd = _hausdorff(*_boundary(grid, box))
    fp_rate, fn_rate = fp_fn_rates(counts)
    return MetricsReport(iou(counts), hd, mcc(counts), fp_rate, fn_rate)


def summarize(reports) -> DatasetSummary:
    """Arithmetic means of the per-pair metrics; ValueError for no reports."""
    reports = list(reports)
    if not reports:
        raise ValueError("summarize needs at least one report")
    return DatasetSummary(
        miou=float(np.mean([r.iou for r in reports])),
        mean_hausdorff=float(np.mean([r.hausdorff for r in reports])),
        mean_mcc=float(np.mean([r.mcc for r in reports])),
        mean_fp_rate=float(np.mean([r.fp_rate for r in reports])),
        mean_fn_rate=float(np.mean([r.fn_rate for r in reports])),
    )


def csv_rows(ids, reports, summary: DatasetSummary) -> list:
    """The rows of the eval metrics CSV: a header, one row per image and a
    trailing summary row."""
    rows = [["image_id", "iou", "hausdorff", "mcc", "fp_rate", "fn_rate"]]
    rows += [[image_id, r.iou, r.hausdorff, r.mcc, r.fp_rate, r.fn_rate]
             for image_id, r in zip(ids, reports)]
    rows.append(["__summary__", summary.miou, summary.mean_hausdorff,
                 summary.mean_mcc, summary.mean_fp_rate, summary.mean_fn_rate])
    return rows
