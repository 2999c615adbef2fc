"""Encoding masks as closed piecewise quintic Bezier contours.

The boundary is split at its four extreme points (top, leftmost,
bottom, rightmost) into four arcs; each arc is fitted with a fixed-
endpoint Bezier curve by linear least squares. A degree-5 contour has
4 extreme points + 16 interior control points = 40 free reals.

A contour is one (4, d+1, 2) array of control points plus its frame;
`PiecewiseContour.segments` derives BezierSegment views of its rows.
flatten and unflatten are gathers between that array and the 40-vector,
and decode_contour is one matmul of a cached basis over the four
segments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import mask as mask_ops
from .bezier import BezierSegment, basis_matrix
from .errors import ContourFormatError, DegenerateShapeError
from .mask import BoundaryTrace

# Singular values below this fraction of the largest are treated as
# zero when solving the fit system (robust pseudo-inverse for short arcs).
RCOND = 1e-10

# flatten-layout indices of segment k's points: extreme k, 4 interior, extreme k+1
_SEGMENT_POINTS = np.array([[k, *range(4 + 4 * k, 8 + 4 * k), (k + 1) % 4] for k in range(4)])
# rows of control_points.reshape(24, 2) that flatten reads: the start of
# each segment, then each segment's interior points
_FLAT_ROWS = np.r_[0:24:6, [6 * k + j for k in range(4) for j in range(1, 5)]]
_NEXT = np.array([1, 2, 3, 0])


@dataclass
class PiecewiseContour:
    """Closed chain of 4 equal-degree segments over a width x height frame.

    control_points is one (4, d+1, 2) array: row k holds segment k's
    d+1 (x, y) points. Junction k is shared exactly: segment k ends where
    segment (k+1) % 4 starts, and the four junctions are the extreme
    points in top -> leftmost -> bottom -> rightmost order. The shape,
    d >= 1, finite values, the chained junctions and a frame of at least
    1 x 1 are checked once, here; `segments` derives BezierSegment views
    of the rows.
    """

    control_points: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        if cp.ndim != 3 or cp.shape[0] != 4 or cp.shape[2] != 2:
            raise ContourFormatError(
                f"a contour is 4 segments of (x, y) points, got shape {cp.shape}")
        if cp.shape[1] < 2:
            raise ContourFormatError("segment degree must be >= 1")
        if not np.isfinite(cp).all():
            raise ContourFormatError("control points must be finite")
        chained = cp[:, -1] == cp[_NEXT, 0]
        if not chained.all():
            k = int(np.argmin(chained.all(axis=1)))
            raise ContourFormatError(f"segments {k} and {(k + 1) % 4} are not chained")
        if self.width < 1 or self.height < 1:
            raise ContourFormatError(
                f"frame must be at least 1 x 1, got {self.width} x {self.height}")
        self.control_points = cp

    @property
    def degree(self) -> int:
        return self.control_points.shape[1] - 1

    @property
    def segments(self) -> list:
        """The four segments as BezierSegments sharing this contour's memory."""
        return [BezierSegment(cp) for cp in self.control_points]


@dataclass
class FitReport:
    residuals: np.ndarray   # per-arc RMS distance at the assigned ts, pixels
    arc_lengths: np.ndarray  # number of boundary points per arc


def find_extreme_points(trace: BoundaryTrace) -> tuple:
    """Trace indices of the four extremal points with corner tie-breaking.

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

    return pick(y, x), pick(x, -y), pick(-y, -x), pick(-x, y)


def split_boundary(trace: BoundaryTrace, idx) -> list:
    """Cut the closed trace into 4 arcs at the trace indices idx of the
    extreme points.

    Arc k runs from extreme k to extreme k+1 (cyclic), both endpoints
    included, following the trace orientation.
    """
    m = len(trace.points)
    return [trace.points.take(np.arange(i, i + (j - i) % m + 1), axis=0, mode="wrap")
            for i, j in zip(idx, [*idx[1:], idx[0]])]


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
    if len(arc) == 0:
        raise ValueError("arc must contain at least one point")
    cp, resid = _fit(arc, basis_matrix(degree, _arc_params(len(arc))), degree)
    return BezierSegment(cp), resid


def _arc_params(m: int) -> np.ndarray:
    """t_i = i / (m - 1) for an m-point arc; [0] for a single point."""
    return np.arange(m) / max(m - 1.0, 1.0)


def _fit(arc: np.ndarray, B: np.ndarray, degree: int):
    """(degree+1, 2) control points and RMS residual of one arc, given
    the basis rows B of its parameters."""
    p0, pn = arc[0], arc[-1]
    if len(arc) < degree + 1:
        r = np.linspace(0.0, 1.0, degree + 1)[:, None]
        cp = p0 + r * (pn - p0)
        cp[0], cp[-1] = p0, pn
    else:
        rhs = arc - np.outer(B[:, 0], p0) - np.outer(B[:, degree], pn)
        interior, *_ = np.linalg.lstsq(B[:, 1:degree], rhs, rcond=RCOND)
        cp = np.vstack([p0, interior, pn])
    resid = float(np.sqrt(np.mean(np.sum((B @ cp - arc) ** 2, axis=1))))
    return cp, resid


def encode_trace(trace: BoundaryTrace, degree: int, width: int, height: int):
    """Fit a closed piecewise contour to an already-traced boundary.

    One basis is evaluated over the four arcs' parameters; each arc
    keeps its own least-squares solve. Arc k starts and ends on extreme
    points k and k+1, so the junctions chain by construction.
    """
    arcs = split_boundary(trace, find_extreme_points(trace))
    lengths = np.array([len(a) for a in arcs])
    B = basis_matrix(degree, np.concatenate([_arc_params(m) for m in lengths]))
    cp = np.empty((4, degree + 1, 2))
    residuals = np.zeros(4)
    for k, (arc, rows) in enumerate(zip(arcs, np.split(B, np.cumsum(lengths[:-1])))):
        cp[k], residuals[k] = _fit(arc, rows, degree)
    return PiecewiseContour(cp, width, height), FitReport(residuals, lengths)


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


# samples per segment wherever the CLI or a study decodes without being told
DEFAULT_SAMPLES = 128


@lru_cache(maxsize=32)
def _decode_basis(degree: int, k: int) -> np.ndarray:
    """Read-only (k, degree+1) basis at k uniform parameters."""
    if k < 2:
        raise ValueError("samples_per_segment must be >= 2")
    B = basis_matrix(degree, np.linspace(0.0, 1.0, k))
    B.setflags(write=False)
    return B


def decode_contour(contour: PiecewiseContour, samples_per_segment: int) -> np.ndarray:
    """Sample the contour into a closed polygon of 4*(k-1) vertices.

    Each segment is sampled at k uniform parameters; the duplicate
    junction point between consecutive segments is dropped. One matmul
    of the cached (k, d+1) basis over all four segments.
    """
    B = _decode_basis(contour.degree, samples_per_segment)
    return np.matmul(B, contour.control_points)[:, :-1].reshape(-1, 2)


def flatten(contour: PiecewiseContour) -> np.ndarray:
    """Fixed 40-real layout of a degree-5 contour.

    [top xy, leftmost xy, bottom xy, rightmost xy] followed by the 4
    interior control points of each segment in chain order, x then y.
    Junction k is read from the start of segment k.
    """
    if contour.degree != 5:
        raise ContourFormatError("flatten requires a degree-5 contour")
    return contour.control_points.reshape(24, 2)[_FLAT_ROWS].ravel()


def unflatten(vec: np.ndarray, width: int, height: int) -> PiecewiseContour:
    """Inverse of flatten: one gather, closed by construction."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (40,):
        raise ContourFormatError(f"expected 40 values, got shape {vec.shape}")
    return PiecewiseContour(vec.reshape(20, 2)[_SEGMENT_POINTS], width, height)


def contour_to_json(contour: PiecewiseContour) -> str:
    """Interchange JSON, version 1. Full double precision is preserved."""
    return json.dumps({
        "version": 1,
        "width": contour.width,
        "height": contour.height,
        "degree": contour.degree,
        "segments": [{"control_points": cp} for cp in contour.control_points.tolist()],
    })


def contour_from_json(text: str) -> PiecewiseContour:
    """Parse and validate interchange JSON (closure enforced on read)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ContourFormatError(f"invalid JSON: {e}") from e
    try:
        if doc["version"] != 1:
            raise ContourFormatError(f"unsupported version {doc['version']}")
        cp = np.array([s["control_points"] for s in doc["segments"]], dtype=float)
        return PiecewiseContour(cp, int(doc["width"]), int(doc["height"]))
    except (KeyError, TypeError, ValueError) as e:
        raise ContourFormatError(f"bad contour document: {e}") from e


def scale_contour(contour: PiecewiseContour, width: int, height: int) -> PiecewiseContour:
    """Rescale control points to a new frame without refitting."""
    scale = [width / contour.width, height / contour.height]
    return PiecewiseContour(contour.control_points * scale, width, height)
