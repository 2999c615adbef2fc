"""Reference kernels that track how fast this machine runs right now.

On a shared machine the same item can take twice as long from one
minute to the next while the process holds its CPU the whole time: the
core itself slows, so CPU time drifts with wall time. A kernel that
never changes, run between items, slows with it. Each workload weighs
the kernels by how its own items slowed with them (bench/README.md),
and its times are reported at reference speed: the measured time
divided by the weighted slowdown of the kernels nearby in time, where
a slowdown of 1 means each kernel took its REFERENCE_MS.
"""

import gc
import statistics
import time

import numpy as np
from scipy import ndimage

_rng = np.random.default_rng(0)
_GRID = _rng.random((256, 256)) > 0.4
_FLOATS = _rng.random(1 << 19)
_PLANE = _rng.random((1024, 1024)) > 0.4


def interpreter():
    """Tuple, set and list work in bytecode, like a boundary walk."""
    seen, out = set(), []
    r = c = 0
    for _ in range(2000):
        r, c = (r * 31 + 7) % 251, (c * 17 + 3) % 241
        if (r, c) not in seen:
            seen.add((r, c))
            out.append((c + 0.5, r + 0.5))


def small_arrays():
    """Numpy calls on 24 elements, where call overhead is the cost."""
    x = np.arange(24.0)
    for _ in range(150):
        x = np.sort(x * 1.0001 + 0.5)[::-1].copy()


def labels():
    ndimage.label(_GRID)


def large_arrays():
    """Passes over a 4 MB float array and a 1 MB mask."""
    np.cumsum(_FLOATS).sum()
    np.sort(_FLOATS[:100_000])
    p = _PLANE
    for axis in (0, 1):
        p = p ^ np.roll(p, 1, axis=axis)


KERNELS = {"interpreter": interpreter, "small_arrays": small_arrays,
           "labels": labels, "large_arrays": large_arrays}
# each kernel's time at reference speed: its median on the benchmark
# machine (see bench/README.md); this only fixes the unit of the reports
REFERENCE_MS = {"interpreter": 1.06, "small_arrays": 0.45, "labels": 0.97,
                "large_arrays": 3.5}


class Calibrator:
    """Slowdown samples, taken between items and never inside one."""

    def __init__(self, weights):
        total = sum(weights.values())
        self.weights = {k: w / total for k, w in weights.items()}

    def sample(self):
        """Weighted slowdown of the kernels against REFERENCE_MS, now."""
        gc.disable()   # garbage left by the program is not the kernels' cost
        try:
            slowdown = 0.0
            for name, weight in self.weights.items():
                t0 = time.perf_counter_ns()
                KERNELS[name]()
                slowdown += weight * (time.perf_counter_ns() - t0) / 1e6 / REFERENCE_MS[name]
            return slowdown
        finally:
            gc.enable()

    def samples(self, count):
        return [self.sample() for _ in range(count)]


def local_slowdowns(positions, slowdowns, items, radius=5):
    """For each item index, the median slowdown of the 2 * radius + 1
    samples taken nearest to it; positions[i] is the number of items
    done when sample i was taken."""
    order = np.asarray(positions)
    out = []
    for item in items:
        k = int(np.searchsorted(order, item, side="right"))
        lo = max(0, min(k - radius, len(slowdowns) - 2 * radius - 1))
        out.append(statistics.median(slowdowns[lo:lo + 2 * radius + 1]))
    return np.array(out)
