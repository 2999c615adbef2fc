"""Core Bezier curve mathematics.

A curve of degree n is stored as its n+1 control points and sampled as
`basis_matrix(n, ts) @ points`, in double precision on (x, y) pairs; the
image convention (y grows downward) is irrelevant at this layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import _integer

MAX_DEGREE = 20

# Exact integer binomial rows for every supported degree.
_BINOM = {n: np.array([comb(n, i) for i in range(n + 1)], dtype=float)
          for n in range(1, MAX_DEGREE + 1)}


@dataclass
class BezierSegment:
    """One Bezier curve given by an (n+1, 2) array of control points."""

    control_points: np.ndarray

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        if cp.ndim != 2 or cp.shape[1] != 2 or cp.shape[0] < 2:
            raise ValueError("control_points must be an (n+1, 2) array with n >= 1")
        if not np.all(np.isfinite(cp)):
            raise ValueError("control points must be finite")
        self.control_points = cp

    @property
    def degree(self) -> int:
        return self.control_points.shape[0] - 1


def basis_matrix(degree: int, ts: np.ndarray) -> np.ndarray:
    """Rows b_{n,i}(t) = binom(n, i) (1-t)^(n-i) t^i, one per t: (len(ts), n+1)."""
    degree = _integer(degree, "degree")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree must be <= {MAX_DEGREE}, got {degree}")
    ts = np.asarray(ts, dtype=float)
    if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):
        raise ValueError("all parameters must lie in [0, 1]")
    # Two power ladders as contiguous rows: t^i ascending and (1-t)^(n-i)
    # descending. Keeps every factor a plain product, stable at t near 0 or 1.
    s = 1.0 - ts
    tp = np.ones((degree + 1, ts.size))
    sp = np.ones((degree + 1, ts.size))
    for i in range(1, degree + 1):
        tp[i] = tp[i - 1] * ts
        sp[degree - i] = sp[degree - i + 1] * s
    return np.ascontiguousarray((_BINOM[degree][:, None] * sp * tp).T)


def eval_de_casteljau(segment: BezierSegment, t: float) -> np.ndarray:
    """Evaluate B(t) by repeated t:(1-t) linear interpolation, an oracle
    for basis_matrix that shares none of its arithmetic."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"parameter t must lie in [0, 1], got {t}")
    pts = segment.control_points.copy()
    while len(pts) > 1:
        pts = (1.0 - t) * pts[:-1] + t * pts[1:]
    return pts[0]
