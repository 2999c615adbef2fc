"""Benchmark of the beziermask codec, one workload per process.

    python3 bench/run.py --workload encode-256 --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1

A run sets up its inputs from --seed in fresh processes (see set_up),
then times items one at a time (closed loop) for at least --seconds
(default: run_seconds of BENCHMARK.json) of timed work, in whole rounds
of its inputs and no fewer than the workload's minimum item count. Every
output is checked: the first output for each input fully (see
checks.py), every repeat against that first output. The last line of
standard output is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics from spans with --trace 1. A traced run also writes
its spans to bench/out/. `--workload all` runs every workload untraced
and then traced, each in its own process, one at a time.
"""

import argparse
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5
CALIBRATE_EVERY_NS = 50e6   # of timed item work between slowdown samples
MAX_WALL_S = 90        # stop at the next whole round after this much wall time

END_TO_END = {"setup_s": "s", "items_per_s": "items/s", "item_ms_p50": "ms",
              "item_ms_tail": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "mask.load_pgm.ms": "ms", "mask.largest_component.ms": "ms",
    "mask.trace_boundary.ms": "ms", "mask.trace_boundary.points": "count",
    "fitting.encode_trace.ms": "ms", "fitting.arc_points": "count",
    "fitting.contour_to_json.ms": "ms", "fitting.contour_from_json.ms": "ms",
    "mask.polygon_to_mask.ms": "ms", "mask.rasterize_polygon.ms": "ms",
    "fitting.decode_contour.ms": "ms", "experiments.sensitivity_sweep.ms": "ms",
    "experiments.sensitivity_sweep.rasterizations": "count",
    "experiments.perturb_contour.ms": "ms",
    "mask.polygon_to_mask.peak_mb": "MB", "metrics.hausdorff.peak_mb": "MB",
    "metrics.confusion.ms": "ms", "mask.boundary_points.ms": "ms",
    "metrics.hausdorff.ms": "ms", "metrics.hausdorff.pairs": "count",
    "decoder.contour_loss.ms": "ms", "decoder.decode_points.ms": "ms",
    "decoder.decode_jacobian.ms": "ms", "decoder.smooth_l1.ms": "ms",
    "experiments.generate_shape.ms": "ms",
}


def import_program():
    """beziermask from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import beziermask
    except ImportError as e:
        sys.exit(f"bench: cannot import beziermask from {SRC}: {e}")
    if Path(beziermask.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: beziermask resolved to {beziermask.__file__}, not {SRC}")
    return beziermask


def make_inputs(name, seed, trace, send):
    """The set-up that set_up times, run in a fresh process: import the
    program (done by main), generate the inputs, run one item. Then say
    so on stdout, with each generate_shape time when traced, and, if
    send, pickle the inputs to stdout one at a time."""
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    tr = Tracer() if trace else NullTracer()
    inputs = wl.make_inputs(seed, tr)
    wl.run(inputs[0])
    ready = {"generate_shape_ms": tr.setup_ms("experiments.generate_shape") if trace else []}
    out = sys.stdout.buffer
    out.write(json.dumps(ready).encode() + b"\n")
    out.flush()
    if send:
        pickle.dump(len(inputs), out)
        for inp in inputs:
            pickle.dump(inp, out, protocol=pickle.HIGHEST_PROTOCOL)
        out.flush()


def set_up(name, seed, trace, cal):
    """SETUP_REPEATS set-ups, each in a fresh process (make_inputs),
    timed from starting the process until its first item could begin.
    The last one hands its inputs over, one at a time, so this process
    holds the inputs but none of the memory that made them. Returns the
    median time at reference speed, the median slowdown, the inputs and
    every generate_shape time in ms."""
    samples, slowdowns, shape_ms = [], [], []
    for k in range(SETUP_REPEATS):
        send = k == SETUP_REPEATS - 1
        before = cal.samples(3)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--trace", str(trace), "--make-inputs", str(int(send))],
            stdout=subprocess.PIPE)
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            if send and line:
                inputs = [pickle.load(proc.stdout) for _ in range(pickle.load(proc.stdout))]
        if proc.returncode != 0 or not line:
            sys.exit(f"bench: {name}: set-up process exited {proc.returncode}")
        shape_ms += json.loads(line)["generate_shape_ms"]
        slowdowns.append(statistics.median(before + cal.samples(3)))
        samples.append(elapsed / slowdowns[-1])
    return statistics.median(samples), statistics.median(slowdowns), inputs, shape_ms


def tail_ms(ms, pct):
    """The pct-th percentile of the item times in each stretch of
    consecutive items just long enough to leave ten items beyond it,
    median over the stretches. One burst of interference then moves one
    stretch, not the run's figure."""
    stretch = 1000 // (100 - pct)
    return float(statistics.median(np.percentile(part, pct) for part in
                                   np.array_split(ms, max(1, len(ms) // stretch))))


def measure(name, seed, seconds, trace):
    from beziermask.errors import BezierMaskError
    from checks import CheckFailed
    from calibrate import Calibrator, local_slowdowns
    from spans import NullTracer, Tracer, median
    from workloads import EXTRA_SPANS, WORKLOADS

    wl = WORKLOADS[name]
    tr = Tracer() if trace else NullTracer()
    cal = Calibrator(wl.calibration)
    setup_s, setup_slowdown, inputs, shape_ms = set_up(name, seed, trace, cal)
    wl.run(inputs[0])    # warms this process; already timed in set-up
    step = (lambda inp: wl.run_traced(inp, tr)) if trace else wl.run
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n = len(inputs)
    times, done, wrong = [], [], []
    first, peaks = {}, {}
    attempted = failed = spent = since = 0
    cal_at, slowdowns = [0], [cal.sample()]
    start = time.perf_counter()
    while (spent < seconds * 1e9 or attempted < wl.min_items or attempted % n) and not (
            attempted % n == 0 and time.perf_counter() - start > MAX_WALL_S):
        j = attempted % n
        tr.item = attempted
        t0 = time.perf_counter_ns()
        try:
            out = step(inputs[j])
        except BezierMaskError as e:
            out = e
        dt = time.perf_counter_ns() - t0
        tr.item = None
        attempted += 1
        spent += dt
        since += dt
        if isinstance(out, BezierMaskError):
            failed += 1
            print(f"bench: {name}: input {j} failed: {type(out).__name__}: {out}",
                  file=sys.stderr)
            continue
        times.append(dt)
        done.append(attempted - 1)
        try:
            if j not in first:
                if trace:
                    if wl.fingerprint(out) != wl.fingerprint(wl.run(inputs[j])):
                        raise CheckFailed("traced steps differ from the composite call")
                    peaks[j] = wl.peaks(inputs[j], out)
                wl.check(inputs[j], out)
                first[j] = wl.fingerprint(out)
            elif wl.fingerprint(out) != first[j]:
                raise CheckFailed("output differs from the first output for this input")
        except CheckFailed as e:
            wrong.append(j)
            print(f"bench: {name}: input {j}: {e}", file=sys.stderr)
        if since >= CALIBRATE_EVERY_NS:
            cal_at.append(attempted)
            slowdowns.append(cal.sample())
            since = 0
    cal_at.append(attempted)
    slowdowns.append(cal.sample())

    raw_ms = np.array(times) / 1e6
    factor = local_slowdowns(cal_at, slowdowns, done)
    ms = raw_ms / factor
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"bench: {name}: {len(times)} items, wall p50 {np.median(raw_ms):.4f} ms, "
          f"{len(times) / (raw_ms.sum() / 1e3):.4f} items/s; slowdown median "
          f"{statistics.median(slowdowns):.3f} over {len(slowdowns)} samples, "
          f"set-up {setup_slowdown:.3f}; peak RSS {setup_rss_mb:.1f} MB before the "
          f"timed items, {peak_rss_mb:.1f} MB after", file=sys.stderr)
    result = {"correct": not wrong,
              "attempted": attempted, "failed": failed}
    if not trace:
        values = {
            "setup_s": setup_s,
            "items_per_s": len(times) / (ms.sum() / 1e3),
            "item_ms_p50": float(np.median(ms)),
            "item_ms_tail": tail_ms(ms, wl.tail_pct),
            "peak_rss_mb": peak_rss_mb,
        }
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        return result

    parts = np.array(tr.top_level_ms(done, exclude=EXTRA_SPANS))
    every = np.array(tr.top_level_ms(done))
    values = {}
    for key in PER_LAYER:
        if key == "experiments.generate_shape.ms":
            values[key] = median(shape_ms) / setup_slowdown
        elif key.endswith(".ms"):
            values[key] = median(list(tr.per_item_ms(key[:-3], done) / factor))
        elif key.endswith(".peak_mb"):
            values[key] = median([peaks.get(j % n, {}).get(key, 0.0) for j in done])
        else:
            values[key] = median(tr.per_item_count(key, done))
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    summary = {"workload": name, "seed": seed, "items": len(done),
               "item_ms_p50": float(np.median(ms)),
               "parts_ms_p50": median(list(parts / factor)),
               "extra_ms_p50": median(list((every - parts) / factor))}
    print("bench: traced " + json.dumps(summary), file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-seed{seed}.json", "w") as f:
        json.dump({"summary": summary, **tr.dump()}, f)
    return result


def launch(name, seed, seconds, trace):
    """One workload in its own process; returns its result object."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed, seconds):
    from workloads import WORKLOADS
    results = {}
    for trace in (0, 1):
        for name in WORKLOADS:
            res = launch(name, seed, seconds, trace)
            results[f"{name}{' traced' if trace else ''}"] = res
            print(f"{name}{' (traced)' if trace else ''}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for key, m in res["metrics"].items():
                if m["value"]:
                    print(f"  {key:46s} {m['value']:12.4f} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"all-seed{seed}.json", "w") as f:
        json.dump(results, f, indent=1)
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "results": results}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-inputs", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    import_program()
    if args.make_inputs is not None:
        make_inputs(args.workload, args.seed, args.trace, args.make_inputs)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
