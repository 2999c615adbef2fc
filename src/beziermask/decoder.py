"""Differentiable decoding of piecewise contours and the training loss.

Decoding is linear: the (n, 20) operator A of a SampleSet holds in row j
the degree-5 Bernstein basis of t_j in the columns of its segment's six
control points, and the (2n, 40) Jacobian J is kron(A, I_2). A SampleSet
is immutable and builds A and J once, on first use; contour_loss caches
the SampleSet of each of its 16 most recent (n, seed) pairs, and the
frame scale of each of its 16 most recent frames, so a call only copies
the cached J, decodes and differentiates through it and takes two
smooth L1s of 8 numpy passes each: about 0.026 ms at n = 72.

Both loss terms use smooth L1 on coordinates normalized by the frame
size (x / width, y / height) with beta = 1, and are averaged over
elements so the two terms are balanced at weight 1 each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bezier import basis_matrix
from .errors import _integer
from .fitting import _SEGMENT_POINTS, PiecewiseContour, flatten

DEFAULT_NUM_SAMPLES = 72


@dataclass(frozen=True, eq=False)
class SampleSet:
    """n (segment, t) pairs at which a degree-5 contour is decoded.

    Keeps read-only copies of its arrays, checked once here: both 1-D
    and of one length, ids of an integer dtype in 0..3 and every t in
    [0, 1]. Anything else raises ValueError.
    """

    ts: np.ndarray           # (n,) parameters in [0, 1]
    segment_ids: np.ndarray  # (n,) ints in {0..3}

    def __post_init__(self):
        ts = np.array(self.ts, dtype=float)
        ids = np.array(self.segment_ids)
        if ts.ndim != 1 or ts.shape != ids.shape:
            raise ValueError("ts and segment ids must be 1-D of one length, "
                             f"got shapes {ts.shape} and {ids.shape}")
        if ids.dtype.kind not in "iu":
            raise ValueError(f"segment ids must be integers, got dtype {ids.dtype}")
        if ids.size and not (ids.min() >= 0 and ids.max() <= 3):
            raise ValueError("segment ids must lie in 0..3")
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):
            raise ValueError("all parameters must lie in [0, 1]")
        for name, a in (("ts", ts), ("segment_ids", ids)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def operator(self) -> np.ndarray:
        """The read-only (n, 20) operator A; A @ flatten(c).reshape(20, 2) are c's n points."""
        n = self.ts.size
        A = np.zeros((n, 20))
        A[np.arange(n)[:, None], _SEGMENT_POINTS[self.segment_ids]] = basis_matrix(5, self.ts)
        A.setflags(write=False)
        return A

    @cached_property
    def jacobian(self) -> np.ndarray:
        """The read-only (2n, 40) Jacobian kron(A, I_2), as two strided copies of A."""
        A = self.operator
        J = np.zeros((len(A), 2, 20, 2))
        J[:, 0, :, 0] = J[:, 1, :, 1] = A
        J = J.reshape(-1, 40)
        J.setflags(write=False)
        return J


@dataclass
class LossValue:
    total: float
    l_ce: float        # control/extreme point regression term
    l_matching: float  # decoded point matching term
    gradient: np.ndarray  # d total / d flatten(pred), pixel units, (40,)


def sample_parameters(n: int, seed: int) -> SampleSet:
    """n uniform ts, each paired with a uniform segment id. Deterministic per
    seed; n and seed must be integers (TypeError otherwise)."""
    n, seed = _integer(n, "n"), _integer(seed, "seed")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, 1.0, n)
    ids = rng.integers(0, 4, n)
    return SampleSet(ts, ids)


@lru_cache(maxsize=16)
def _frame_scale(width: int, height: int) -> np.ndarray:
    """Read-only (1/width, 1/height) repeated over the 40-vector's 20 points."""
    scale = np.array([1.0 / width, 1.0 / height] * 20)
    scale.setflags(write=False)
    return scale


# typed: n = 64.0 or seed = 0.0 must miss the entry of 64 or 0, so that
# sample_parameters refuses it whatever the cache holds
@lru_cache(maxsize=16, typed=True)
def _loss_samples(n: int, seed: int) -> SampleSet:
    return sample_parameters(n, seed)


def decode_points(contour: PiecewiseContour, samples: SampleSet) -> np.ndarray:
    """Evaluate each sampled (segment, t) pair; returns (n, 2) points,
    each summed over its segment's six control points in Bernstein order."""
    if contour.degree != 5:
        raise ValueError("decoder requires a degree-5 contour")
    points = contour.control_points[samples.segment_ids]
    return np.matmul(basis_matrix(5, samples.ts)[:, None, :], points)[:, 0]


def decode_jacobian(contour: PiecewiseContour, samples: SampleSet) -> np.ndarray:
    """Exact Jacobian of decode_points wrt flatten(contour), shape (2n, 40).

    kron(A, I_2): row 2j (x_j) touches only even columns, row 2j+1 only odd.
    A fresh, writable copy of samples.jacobian.
    """
    if contour.degree != 5:
        raise ValueError("decoder requires a degree-5 contour")
    return samples.jacobian.copy()


def smooth_l1(pred: np.ndarray, target: np.ndarray):
    """Mean smooth L1 over elements with beta = 1: 0.5 d^2 inside |d| < 1,
    |d| - 0.5 outside.

    Returns (loss, gradient wrt pred). Empty inputs raise ValueError.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("smooth_l1 needs at least one element")
    d = pred - target
    # c = d clipped to [-1, 1] is the gradient, where(|d| < 1, d, sign(d))
    # for every double, NaN included. c * (d - 0.5 c) is 0.5 d^2 inside and
    # |d| - 0.5 outside, bit for bit, except that it is -0.0 at d = -0.0 and
    # keeps a NaN's sign: abs of the sum restores the +0.0 and the positive
    # NaN of the formula
    c = np.minimum(np.maximum(d, -1.0), 1.0)
    total = np.add.reduce(c * (d - 0.5 * c), axis=None)
    c /= d.size
    return abs(float(total)) / d.size, c


def contour_loss(pred: PiecewiseContour, gt: PiecewiseContour,
                 n: int = DEFAULT_NUM_SAMPLES, seed: int = 0) -> LossValue:
    """Combined regression + point-matching loss with its analytic gradient.

    The same (segment, t) set, fixed per (n, seed), is applied to both
    contours, so the matching term compares corresponding points; its
    gradient is the Jacobian's transpose times the points' gradient.
    """
    if pred.degree != 5 or gt.degree != 5:
        raise ValueError("loss requires degree-5 contours")
    if (pred.width, pred.height) != (gt.width, gt.height):
        raise ValueError("contours must share one frame")

    scale = _frame_scale(pred.width, pred.height)
    fp, fg = flatten(pred) * scale, flatten(gt) * scale
    l_ce, g_ce = smooth_l1(fp, fg)

    # decoding does not mix x and y, so it commutes with the frame scaling
    J = decode_jacobian(pred, _loss_samples(n, seed))
    l_match, g_match = smooth_l1(J @ fp, J @ fg)

    grad = J.T @ g_match
    grad += g_ce
    grad *= scale
    return LossValue(float(l_ce + l_match), float(l_ce), float(l_match), grad)
