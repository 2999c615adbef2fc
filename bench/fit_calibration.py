"""Fit a workload's reference-kernel weights (Workload.calibration).

    python3 bench/fit_calibration.py --workload encode-256 --seconds 180

Runs the workload's items (seed 1, untraced) in turn with every kernel of
calibrate.py for --seconds. Each row holds the fastest of three runs of
each kernel over its REFERENCE_MS, and the mean time of the items run
after them, at least 20 ms of item time. Then for every mix of integer
weights 0-10 over the kernels it divides each row's item time by the
mix's weighted slowdown, takes the median of each 2-second window, and
scores the mix by the spread (q3 - q1) / median of those window
medians. It prints the raw spread, the steadiest mixes, and each
kernel's median time, which is what REFERENCE_MS holds for a calm
machine. The machine's drift differs from one fit to the next, so a
refit finds mixes about as steady as the checked-in ones, not always
the same integers.
"""

import argparse
import itertools
import statistics
import sys
import time

import numpy as np

from run import import_program

WINDOW_S = 2.0
ITEM_MS_PER_ROW = 20.0


def collect(wl, seconds):
    from calibrate import KERNELS, REFERENCE_MS
    from spans import NullTracer

    inputs = wl.make_inputs(1, NullTracer())
    wl.run(inputs[0])
    rows, at, item = [], [], 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        row = []
        for name, kernel in KERNELS.items():
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter_ns()
                kernel()
                best = min(best, time.perf_counter_ns() - t0)
            row.append(best / 1e6 / REFERENCE_MS[name])
        spent, count = 0, 0
        while spent < ITEM_MS_PER_ROW * 1e6:
            t0 = time.perf_counter_ns()
            wl.run(inputs[item % len(inputs)])
            spent += time.perf_counter_ns() - t0
            item += 1
            count += 1
        row.append(spent / 1e6 / count)
        rows.append(row)
        at.append(time.perf_counter())
    return np.array(rows), np.array(at) - at[0]


def window_spread(ratios, window):
    """Spread of the per-window medians, one per column of ratios."""
    medians = np.array([np.median(ratios[window == w], axis=0) for w in np.unique(window)])
    q1, q3 = np.percentile(medians, [25, 75], axis=0)
    return (q3 - q1) / np.median(medians, axis=0)


def mix_spreads(item, slow, mixes, window):
    """window_spread of item time over each mix's weighted slowdown."""
    return window_spread(item[:, None] / (slow @ mixes.T / mixes.sum(axis=1)), window)


def main():
    from calibrate import KERNELS, REFERENCE_MS
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=180)
    ap.add_argument("--show", type=int, default=5)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    rows, at = collect(wl, args.seconds)
    slow, item = rows[:, :-1], rows[:, -1]
    window = (at // WINDOW_S).astype(int)
    mixes = np.array([m for m in itertools.product(range(11), repeat=len(KERNELS)) if any(m)],
                     dtype=float)
    scores = np.concatenate([mix_spreads(item, slow, chunk, window)
                             for chunk in np.array_split(mixes, max(1, len(mixes) // 500))])
    names = list(KERNELS)
    current = np.array([[wl.calibration.get(n, 0) for n in names]], dtype=float)

    print(f"{args.workload}: {len(rows)} rows in {len(np.unique(window))} windows")
    print(f"raw spread of {WINDOW_S:g} s window medians: "
          f"{window_spread(item[:, None], window)[0]:.3f}")
    print(f"checked-in mix {current[0].astype(int).tolist()}: spread "
          f"{mix_spreads(item, slow, current, window)[0]:.3f}")
    print("steadiest mixes (" + ", ".join(names) + "):")
    for i in np.argsort(scores)[:args.show]:
        print(f"  {mixes[i].astype(int).tolist()}  spread {scores[i]:.3f}")
    print("median kernel ms (REFERENCE_MS on a calm machine):")
    for k, name in enumerate(names):
        print(f"  {name}: {statistics.median(slow[:, k]) * REFERENCE_MS[name]:.3f}")
    return 0


if __name__ == "__main__":
    import_program()
    sys.exit(main())
