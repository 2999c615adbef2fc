"""Encoding masks as closed piecewise quintic Bezier contours.

The boundary is split at its four extreme points (top, leftmost,
bottom, rightmost) into four arcs; each arc is fitted with a fixed-
endpoint Bezier curve by linear least squares. The arcs are gathered
from the trace in one take and share one basis and one right-hand
side; each keeps its own lstsq. A degree-5 contour has 4 extreme
points + 16 interior control points = 40 free reals.

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
from .errors import ContourFormatError, DegenerateShapeError, _integer
from .mask import BoundaryTrace

# Singular values below this fraction of the largest are treated as
# zero when solving the fit system (robust pseudo-inverse for short arcs).
RCOND = 1e-10

# flatten-layout indices of segment k's points: extreme k, 4 interior, extreme k+1
_SEGMENT_POINTS = np.array([[k, *range(4 + 4 * k, 8 + 4 * k), (k + 1) % 4] for k in range(4)])
# flat indices into a degree-5 control_points array that flatten reads:
# the start of each segment, then each segment's interior points, x then y
_FLAT_INDEX = (2 * np.r_[0:24:6, [6 * k + j for k in range(4) for j in range(1, 5)]][:, None]
               + [0, 1]).ravel()
_NEXT = np.array([1, 2, 3, 0])


@dataclass
class PiecewiseContour:
    """Closed chain of 4 equal-degree segments over a width x height frame.

    control_points is one (4, d+1, 2) array: row k holds segment k's
    d+1 (x, y) points. Junction k is shared exactly: segment k ends where
    segment (k+1) % 4 starts, and the four junctions are the extreme
    points in top -> leftmost -> bottom -> rightmost order. The shape,
    d >= 1, finite values, the chained junctions and a frame of at least
    1 x 1 are checked once, here, and width and height are stored as
    ints (see _whole); `segments` derives BezierSegment views of the rows.
    """

    control_points: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        self.width, self.height = _whole(self.width, "width"), _whole(self.height, "height")
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
    bottom-left, bottom-right and top-right corner on ties). A NaN
    coordinate raises DegenerateShapeError naming the non-finite points.
    """
    if len(trace.points) < 4:
        raise DegenerateShapeError("trace shorter than 4 points")
    pts = np.ascontiguousarray(trace.points, dtype=float)
    if np.isnan(pts).any():
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1)).tolist()
        raise DegenerateShapeError(f"trace has non-finite points at indices {bad}")
    # complex numbers order by real part, then imaginary part, and argmin
    # and argmax take the first of equals: with w = y + ix and z = x - iy,
    # each corner's two keys are one complex key
    w = pts[:, ::-1].copy().view(complex)[:, 0]
    z = np.conj(pts.view(complex)[:, 0])
    return int(np.argmin(w)), int(np.argmin(z)), int(np.argmax(w)), int(np.argmax(z))


def fit_arc(arc: np.ndarray, degree: int):
    """Least-squares Bezier fit of an arc with fixed endpoints.

    Boundary point i gets parameter t_i = i / (m - 1). The first and
    last control points are the arc endpoints; the interior ones solve
    the linear system with the endpoint columns moved to the right-hand
    side. Returns (BezierSegment, RMS residual in pixels): encode_trace's
    fit, with its one lstsq, on one arc.

    Arcs with fewer than degree+1 points skip the solve: interior
    control points are placed uniformly along the endpoint chord (the
    zero-information prior). A 1-point arc collapses to a point.
    """
    arc = np.asarray(arc, dtype=float)
    if arc.ndim != 2 or arc.shape[1] != 2 or len(arc) == 0:
        raise ValueError(f"arc must be an (m, 2) array with m >= 1, got shape {arc.shape}")
    cp, resid = _fit_arcs(arc, np.zeros(1, dtype=int), np.array([len(arc)]), degree)
    return BezierSegment(cp[0]), float(resid[0])


def _fit_arcs(points: np.ndarray, starts: np.ndarray, lengths: np.ndarray, degree: int):
    """(K, degree+1, 2) control points and (K,) RMS residuals of the K arcs
    points[starts[k]:starts[k] + lengths[k]], indices wrapping.

    One gather of the arcs' points, one basis over all their parameters
    and one right-hand side. Each arc keeps its own lstsq, or the chord
    prior when shorter than degree+1 points, and its own mean, as one
    batched solve or sum would change the last bits; it writes its
    curve's points into one residual array.
    """
    ends = np.cumsum(lengths)
    firsts = ends - lengths
    local = np.arange(ends[-1]) - np.repeat(firsts, lengths)
    P = points.take(local + np.repeat(starts, lengths), axis=0, mode="wrap")
    B = basis_matrix(degree, local / np.repeat(np.maximum(lengths - 1.0, 1.0), lengths))
    cp = np.empty((len(lengths), degree + 1, 2))
    cp[:, 0], cp[:, -1] = P[firsts], P[ends - 1]
    rhs = (P - B[:, :1] * np.repeat(cp[:, 0], lengths, axis=0)
           - B[:, degree:] * np.repeat(cp[:, -1], lengths, axis=0))
    fitted = np.empty_like(P)
    for k, (i, j) in enumerate(zip(firsts, ends)):
        if j - i < degree + 1:
            r = np.linspace(0.0, 1.0, degree + 1)[1:-1, None]
            cp[k, 1:-1] = cp[k, 0] + r * (cp[k, -1] - cp[k, 0])
        else:
            cp[k, 1:-1] = np.linalg.lstsq(B[i:j, 1:degree], rhs[i:j], rcond=RCOND)[0]
        np.matmul(B[i:j], cp[k], out=fitted[i:j])
    fitted -= P
    fitted *= fitted
    sq = fitted.sum(axis=1)
    return cp, np.sqrt([np.add.reduce(sq[i:j]) for i, j in zip(firsts, ends)] / lengths)


def encode_trace(trace: BoundaryTrace, degree: int, width: int, height: int):
    """Fit a closed piecewise contour to an already-traced boundary.

    The four arcs are gathered from the trace in one take and share one
    basis; each arc keeps its own lstsq. Arc k starts and ends on
    extreme points k and k+1, so the junctions chain by construction.
    """
    starts = np.array(find_extreme_points(trace))
    lengths = (starts[_NEXT] - starts) % len(trace.points) + 1
    cp, residuals = _fit_arcs(trace.points, starts, lengths, degree)
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
    B = _decode_basis(contour.degree, _integer(samples_per_segment, "samples_per_segment"))
    return np.matmul(B, contour.control_points)[:, :-1].reshape(-1, 2)


def flatten(contour: PiecewiseContour) -> np.ndarray:
    """Fixed 40-real layout of a degree-5 contour.

    [top xy, leftmost xy, bottom xy, rightmost xy] followed by the 4
    interior control points of each segment in chain order, x then y.
    Junction k is read from the start of segment k.
    """
    if contour.degree != 5:
        raise ContourFormatError("flatten requires a degree-5 contour")
    return contour.control_points.take(_FLAT_INDEX)


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


def _whole(v, key: str) -> int:
    """v as an int if it is a whole number: 64, 64.0 or np.int64(64), not 64.9 or True."""
    if (type(v) is int or isinstance(v, np.integer)
            or isinstance(v, (float, np.floating)) and v.is_integer()):
        return int(v)
    raise ContourFormatError(f"{key} must be a whole number, got {v!r}")


def contour_from_json(text: str) -> PiecewiseContour:
    """Parse and validate interchange JSON (closure enforced on read):
    version, width, height and degree are whole numbers, and degree
    matches the points per segment."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ContourFormatError(f"invalid JSON: {e}") from e
    try:
        if _whole(doc["version"], "version") != 1:
            raise ContourFormatError(f"unsupported version {doc['version']}")
        cp = np.array([s["control_points"] for s in doc["segments"]], dtype=float)
        contour = PiecewiseContour(cp, doc["width"], doc["height"])
        if _whole(doc["degree"], "degree") != contour.degree:
            raise ContourFormatError(
                f"degree {doc['degree']} but {contour.degree + 1} points per segment")
        return contour
    except (KeyError, TypeError, ValueError) as e:
        raise ContourFormatError(f"bad contour document: {e}") from e


def scale_contour(contour: PiecewiseContour, width: int, height: int) -> PiecewiseContour:
    """Rescale control points to a new frame without refitting. A frame
    that is not whole raises ContourFormatError before any arithmetic."""
    width, height = _whole(width, "width"), _whole(height, "height")
    scale = [width / contour.width, height / contour.height]
    return PiecewiseContour(contour.control_points * scale, width, height)
