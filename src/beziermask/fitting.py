"""Encoding masks as closed piecewise quintic Bezier contours.

The boundary is split at its four extreme points (top, leftmost,
bottom, rightmost) into four arcs; each arc is fitted with a fixed-
endpoint Bezier curve by linear least squares. A degree-5 contour has
4 extreme points + 16 interior control points = 40 free reals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import mask as mask_ops
from .bezier import BezierSegment, basis_matrix
from .errors import ContourFormatError, DegenerateShapeError
from .mask import BoundaryTrace

# Singular values below this fraction of the largest are treated as
# zero when solving the fit system (robust pseudo-inverse for short arcs).
RCOND = 1e-10


@dataclass
class ExtremePoints:
    top: np.ndarray
    leftmost: np.ndarray
    bottom: np.ndarray
    rightmost: np.ndarray
    indices: tuple  # positions in the source trace, same order

    def as_list(self):
        return [self.top, self.leftmost, self.bottom, self.rightmost]


@dataclass
class PiecewiseContour:
    """Closed chain of 4 equal-degree segments over a width x height frame.

    Junction k is shared exactly: segments[k] ends where
    segments[(k+1) % 4] starts, and the four junctions are the extreme
    points in top -> leftmost -> bottom -> rightmost order.
    """

    segments: list
    width: int
    height: int

    def __post_init__(self):
        if len(self.segments) != 4:
            raise ContourFormatError("a contour has exactly 4 segments")
        degs = {s.degree for s in self.segments}
        if len(degs) != 1:
            raise ContourFormatError("all segments must share one degree")
        for k in range(4):
            a = self.segments[k].control_points[-1]
            b = self.segments[(k + 1) % 4].control_points[0]
            if not np.array_equal(a, b):
                raise ContourFormatError(f"segments {k} and {(k + 1) % 4} are not chained")

    @property
    def degree(self) -> int:
        return self.segments[0].degree


@dataclass
class FitReport:
    residuals: np.ndarray   # per-arc RMS distance at the assigned ts, pixels
    arc_lengths: np.ndarray  # number of boundary points per arc


def find_extreme_points(trace: BoundaryTrace) -> ExtremePoints:
    """Four extremal trace points with corner tie-breaking.

    top: min y then min x; leftmost: min x then max y; bottom: max y
    then max x; rightmost: max x then min y (i.e. the top-left,
    bottom-left, bottom-right and top-right corner on ties).
    """
    pts = trace.points
    if len(pts) < 4:
        raise DegenerateShapeError("trace shorter than 4 points")
    x, y = pts[:, 0], pts[:, 1]

    def pick(primary, secondary):
        best = np.flatnonzero(primary == primary.min())
        return int(best[np.argmin(secondary[best])])

    i_top = pick(y, x)
    i_left = pick(x, -y)
    i_bottom = pick(-y, -x)
    i_right = pick(-x, y)
    idx = (i_top, i_left, i_bottom, i_right)
    return ExtremePoints(pts[i_top].copy(), pts[i_left].copy(),
                         pts[i_bottom].copy(), pts[i_right].copy(), idx)


def split_boundary(trace: BoundaryTrace, extremes: ExtremePoints) -> list:
    """Cut the closed trace into 4 arcs at the extreme points.

    Arc k runs from extreme k to extreme k+1 (cyclic), both endpoints
    included, following the trace orientation.
    """
    pts = trace.points
    m = len(pts)
    idx = extremes.indices
    arcs = []
    for k in range(4):
        i, j = idx[k], idx[(k + 1) % 4]
        if i == j:
            arcs.append(pts[i:i + 1].copy())
        elif j > i:
            arcs.append(pts[i:j + 1].copy())
        else:
            arcs.append(np.concatenate([pts[i:], pts[:j + 1]]))
    return arcs


def fit_arc(arc: np.ndarray, degree: int):
    """Least-squares Bezier fit of an arc with fixed endpoints.

    Boundary point i gets parameter t_i = i / (m - 1). The first and
    last control points are the arc endpoints; the interior ones solve
    the linear system with the endpoint columns moved to the right-hand
    side. Returns (BezierSegment, RMS residual in pixels).

    Arcs with fewer than degree+1 points skip the solve: interior
    control points are placed uniformly along the endpoint chord (the
    zero-information prior). A 1-point arc collapses to a point.
    """
    arc = np.asarray(arc, dtype=float)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    m = len(arc)
    if m == 0:
        raise ValueError("arc must contain at least one point")
    if m == 1:
        cp = np.repeat(arc, degree + 1, axis=0)
        return BezierSegment(cp), 0.0

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
    seg = BezierSegment(cp)
    resid = float(np.sqrt(np.mean(np.sum((B @ cp - arc) ** 2, axis=1))))
    return seg, resid


def encode_trace(trace: BoundaryTrace, degree: int, width: int, height: int):
    """Fit a closed piecewise contour to an already-traced boundary."""
    extremes = find_extreme_points(trace)
    arcs = split_boundary(trace, extremes)
    segments = []
    residuals = np.zeros(4)
    for k, arc in enumerate(arcs):
        seg, resid = fit_arc(arc, degree)
        cp = seg.control_points.copy()
        # copy the shared junction coordinates so closure is exact
        cp[0] = extremes.as_list()[k]
        cp[-1] = extremes.as_list()[(k + 1) % 4]
        segments.append(BezierSegment(cp))
        residuals[k] = resid
    contour = PiecewiseContour(segments, width, height)
    report = FitReport(residuals, np.array([len(a) for a in arcs]))
    return contour, report


def encode_mask(mask: np.ndarray, degree: int = 5, smooth_radius: int = 0):
    """Full pipeline: mask -> traced boundary -> fitted piecewise contour.

    Keeps the largest component, optionally smooths the boundary
    morphologically, traces it (mask.trace_object) and fits one Bezier
    arc per quadrant. Returns (PiecewiseContour, FitReport).
    """
    mask = np.asarray(mask, dtype=bool)
    trace = mask_ops.trace_object(mask, smooth_radius)
    h, w = mask.shape
    return encode_trace(trace, degree, w, h)


def decode_contour(contour: PiecewiseContour, samples_per_segment: int) -> np.ndarray:
    """Sample the contour into a closed polygon of 4*(k-1) vertices.

    Each segment is sampled at k uniform parameters; the duplicate
    junction point between consecutive segments is dropped.
    """
    k = samples_per_segment
    if k < 2:
        raise ValueError("samples_per_segment must be >= 2")
    ts = np.linspace(0.0, 1.0, k)
    B = basis_matrix(contour.degree, ts)
    parts = [B @ seg.control_points for seg in contour.segments]
    return np.concatenate([p[:-1] for p in parts])


def flatten(contour: PiecewiseContour) -> np.ndarray:
    """Fixed 40-real layout of a degree-5 contour.

    [top xy, leftmost xy, bottom xy, rightmost xy] followed by the 4
    interior control points of each segment in chain order, x then y.
    """
    if contour.degree != 5:
        raise ContourFormatError("flatten requires a degree-5 contour")
    out = np.empty(40)
    for k in range(4):
        out[2 * k:2 * k + 2] = contour.segments[k].control_points[0]
    for k in range(4):
        out[8 + 8 * k:16 + 8 * k] = contour.segments[k].control_points[1:5].ravel()
    return out


def unflatten(vec: np.ndarray, width: int, height: int) -> PiecewiseContour:
    """Inverse of flatten."""
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
    return PiecewiseContour(segments, width, height)


def contour_to_json(contour: PiecewiseContour) -> str:
    """Interchange JSON, version 1. Full double precision is preserved."""
    doc = {
        "version": 1,
        "width": contour.width,
        "height": contour.height,
        "degree": contour.degree,
        "segments": [
            {"control_points": [[float(x), float(y)] for x, y in seg.control_points]}
            for seg in contour.segments
        ],
    }
    return json.dumps(doc)


def contour_from_json(text: str) -> PiecewiseContour:
    """Parse and validate interchange JSON (closure enforced on read)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ContourFormatError(f"invalid JSON: {e}") from e
    try:
        if doc["version"] != 1:
            raise ContourFormatError(f"unsupported version {doc['version']}")
        segments = [BezierSegment(np.array(s["control_points"], dtype=float))
                    for s in doc["segments"]]
        return PiecewiseContour(segments, int(doc["width"]), int(doc["height"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ContourFormatError(f"bad contour document: {e}") from e


def scale_contour(contour: PiecewiseContour, width: int, height: int) -> PiecewiseContour:
    """Rescale control points to a new frame without refitting."""
    sx = width / contour.width
    sy = height / contour.height
    segments = [BezierSegment(seg.control_points * [sx, sy])
                for seg in contour.segments]
    return PiecewiseContour(segments, width, height)
