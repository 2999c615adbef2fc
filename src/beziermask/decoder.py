"""Differentiable decoding of piecewise contours and the training loss.

Decoding is linear: the (n, 20) operator A of `sampling_matrix` holds in
row j the degree-5 Bernstein basis of t_j in the columns of its
segment's six control points, and the (2n, 40) Jacobian is kron(A, I_2).
contour_loss caches its samples, read-only, per (n, seed), and decodes
and differentiates through that Jacobian: about 0.1 ms at n = 72.

Both loss terms use smooth L1 on coordinates normalized by the frame
size (x / width, y / height) with beta = 1, and are averaged over
elements so the two terms are balanced at weight 1 each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index

import numpy as np

from .bezier import basis_matrix
from .fitting import PiecewiseContour, flatten

DEFAULT_NUM_SAMPLES = 72


@dataclass
class SampleSet:
    ts: np.ndarray           # (n,) parameters in [0, 1]
    segment_ids: np.ndarray  # (n,) ints in {0..3}

    def __post_init__(self):
        ids = np.asarray(self.segment_ids)
        if ids.size and not (0 <= ids.min() and ids.max() <= 3):
            raise ValueError("segment ids must lie in 0..3")


@dataclass
class LossValue:
    total: float
    l_ce: float        # control/extreme point regression term
    l_matching: float  # decoded point matching term
    gradient: np.ndarray  # d total / d flatten(pred), pixel units, (40,)


def sample_parameters(n: int, seed: int) -> SampleSet:
    """n uniform ts, each paired with a uniform segment id. Deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, 1.0, n)
    ids = rng.integers(0, 4, n)
    return SampleSet(ts, ids)


# flatten-layout indices of segment k's points: extreme k, 4 interior, extreme k+1
_SEGMENT_POINTS = np.array([[k, *range(4 + 4 * k, 8 + 4 * k), (k + 1) % 4] for k in range(4)])


def sampling_matrix(ts: np.ndarray, segment_ids: np.ndarray) -> np.ndarray:
    """The (n, 20) operator A with decode_points = A @ flatten(c).reshape(20, 2)."""
    ts = np.asarray(ts, dtype=float)
    A = np.zeros((ts.size, 20))
    A[np.arange(ts.size)[:, None], _SEGMENT_POINTS[segment_ids]] = basis_matrix(5, ts)
    return A


@lru_cache(maxsize=16)
def _loss_samples(n: int, seed: int) -> SampleSet:
    samples = sample_parameters(n, seed)
    samples.ts.setflags(write=False)
    samples.segment_ids.setflags(write=False)
    return samples


def decode_points(contour: PiecewiseContour, samples: SampleSet) -> np.ndarray:
    """Evaluate each sampled (segment, t) pair; returns (n, 2) points,
    each summed over its segment's six control points in Bernstein order."""
    if contour.degree != 5:
        raise ValueError("decoder requires a degree-5 contour")
    points = flatten(contour).reshape(20, 2)[_SEGMENT_POINTS[samples.segment_ids]]
    return np.matmul(basis_matrix(5, samples.ts)[:, None, :], points)[:, 0]


def decode_jacobian(contour: PiecewiseContour, samples: SampleSet) -> np.ndarray:
    """Exact Jacobian of decode_points wrt flatten(contour), shape (2n, 40).

    kron(A, I_2): row 2j (x_j) touches only even columns, row 2j+1 only odd.
    """
    A = sampling_matrix(samples.ts, samples.segment_ids)
    J = np.zeros((len(A), 2, 20, 2))
    J[:, 0, :, 0] = J[:, 1, :, 1] = A
    return J.reshape(-1, 40)


def smooth_l1(pred: np.ndarray, target: np.ndarray, beta: float = 1.0):
    """Mean smooth L1 over elements: 0.5 d^2/beta inside |d| < beta, |d| - beta/2 outside.

    Returns (loss, gradient wrt pred).
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    d = pred - target
    quad = np.abs(d) < beta
    loss = np.where(quad, 0.5 * d * d / beta, np.abs(d) - 0.5 * beta)
    grad = np.where(quad, d / beta, np.sign(d))
    return float(loss.mean()), grad / d.size


def contour_loss(pred: PiecewiseContour, gt: PiecewiseContour,
                 n: int = DEFAULT_NUM_SAMPLES, seed: int = 0,
                 beta: float = 1.0,
                 weight_ce: float = 1.0, weight_matching: float = 1.0) -> LossValue:
    """Combined regression + point-matching loss with its analytic gradient.

    The same (segment, t) set, fixed per (n, seed), is applied to both
    contours, so the matching term compares corresponding points; its
    gradient is the Jacobian's transpose times the points' gradient.
    """
    if pred.degree != 5 or gt.degree != 5:
        raise ValueError("loss requires degree-5 contours")
    if (pred.width, pred.height) != (gt.width, gt.height):
        raise ValueError("contours must share one frame")

    scale = np.tile([1.0 / pred.width, 1.0 / pred.height], 20)
    fp, fg = flatten(pred) * scale, flatten(gt) * scale
    l_ce, g_ce = smooth_l1(fp, fg, beta)

    # decoding does not mix x and y, so it commutes with the frame scaling
    J = decode_jacobian(pred, _loss_samples(n, index(seed)))
    l_match, g_match = smooth_l1(J @ fp, J @ fg, beta)

    total = weight_ce * l_ce + weight_matching * l_match
    grad = (weight_ce * g_ce + weight_matching * (J.T @ g_match)) * scale
    return LossValue(float(total), float(l_ce), float(l_match), grad)
