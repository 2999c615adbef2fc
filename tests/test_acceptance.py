"""Top-level acceptance checks for the whole codec.

Each test covers one headline guarantee, prints a single PASS/FAIL line,
and enforces a runtime budget.
"""

import math
import subprocess
import sys
import time

import numpy as np

from beziermask import contour_loss, fidelity_study, sensitivity_sweep
from beziermask.bezier import BezierSegment, basis_matrix, eval_de_casteljau
from beziermask.experiments import blob_corpus, degree_sweep
from beziermask.fitting import fit_arc, flatten, unflatten
from beziermask.metrics import confusion, fp_fn_rates, hausdorff, iou, mcc


def report(capsys, number: int, name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} [{name}]: {status} "
              f"({elapsed:.2f}s / budget {budget:.0f}s)", flush=True)
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_1_bezier_evaluation_agreement(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    pairs = 0
    for _ in range(100):
        degree = int(rng.integers(1, 11))
        seg = BezierSegment(rng.uniform(-100.0, 100.0, (degree + 1, 2)))
        ts = rng.uniform(0.0, 1.0, 100)
        B = basis_matrix(degree, ts)
        casteljau = np.array([eval_de_casteljau(seg, t) for t in ts])
        worst = max(worst, np.abs(B @ seg.control_points - casteljau).max())
        pairs += len(ts)
        assert np.abs(B.sum(axis=1) - 1.0).max() < 1e-12
    elapsed = time.perf_counter() - t0
    report(capsys, 1, "bezier math", pairs == 10_000 and worst < 1e-10, elapsed, 1.0)


def test_2_fit_recovers_exact_segments(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ts = np.linspace(0.0, 1.0, 50)
    worst = 0.0
    for _ in range(500):
        cps = rng.uniform(-50.0, 50.0, (6, 2))
        pts = basis_matrix(5, ts) @ cps
        fitted, _ = fit_arc(pts, degree=5)
        worst = max(worst, np.abs(fitted.control_points - cps).max())
    elapsed = time.perf_counter() - t0
    report(capsys, 2, "fit round trip", worst < 1e-9, elapsed, 5.0)


def test_3_fit_is_a_least_squares_minimum(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(100):
        cps = rng.uniform(-50.0, 50.0, (6, 2))
        m = int(rng.integers(20, 80))
        ts = np.linspace(0.0, 1.0, m)
        pts = basis_matrix(5, ts) @ cps + rng.normal(0.0, 1.0, (m, 2))
        fitted, _ = fit_arc(pts, degree=5)
        B = basis_matrix(5, ts)

        def ssr(control_points):
            return float(np.sum((B @ control_points - pts) ** 2))

        base = ssr(fitted.control_points)
        for i in range(1, 5):          # interior control points only
            for axis in range(2):
                for step in (0.1, -0.1):
                    bumped = fitted.control_points.copy()
                    bumped[i, axis] += step
                    if ssr(bumped) < base:
                        ok = False
    elapsed = time.perf_counter() - t0
    report(capsys, 3, "least-squares optimality", ok, elapsed, 10.0)


def test_4_representation_fidelity(capsys):
    t0 = time.perf_counter()
    masks = blob_corpus(200, seed=0)
    res = fidelity_study(masks, degree=5)
    sweep = degree_sweep(masks[:50], degrees=(3, 5, 7, 9))
    monotone = sweep[3] >= sweep[5] >= sweep[7] >= sweep[9]
    elapsed = time.perf_counter() - t0
    report(capsys, 4, "representation fidelity",
           res.skipped == 0 and res.miou >= 0.95 and monotone, elapsed, 120.0)


def test_5_loss_gradient_matches_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for pair in range(100):
        gt = unflatten(rng.uniform(10.0, 240.0, 40), 256, 256)
        pred = unflatten(flatten(gt) + rng.normal(0.0, 5.0, 40), 256, 256)
        lv = contour_loss(pred, gt, n=72, seed=pair)
        vec = flatten(pred)
        eps = 1e-4
        fd = np.empty(40)
        for col in range(40):
            vp, vm = vec.copy(), vec.copy()
            vp[col] += eps
            vm[col] -= eps
            fd[col] = (contour_loss(unflatten(vp, 256, 256), gt, n=72, seed=pair).total
                       - contour_loss(unflatten(vm, 256, 256), gt, n=72, seed=pair).total) / (2 * eps)
        rel = np.linalg.norm(lv.gradient - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(capsys, 5, "loss gradients", worst < 1e-5, elapsed, 30.0)


def test_6_noise_sensitivity_vs_polygon(capsys):
    t0 = time.perf_counter()
    masks = blob_corpus(100, seed=0)
    mean_area = float(np.mean([m.sum() for m in masks]))
    curve = sensitivity_sweep(masks, deltas=[2.0, 5.0, 10.0, 15.0, 20.0],
                              trials=20, seed=0)
    dominates = bool(np.all(curve.miou_bezier >= curve.miou_polygon))
    elapsed = time.perf_counter() - t0
    report(capsys, 6, "noise sensitivity",
           mean_area >= 1e4 and dominates and curve.miou_bezier[-1] > 0.6,
           elapsed, 300.0)


def test_7_metrics_match_brute_force(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        h, w = rng.integers(1, 65, 2)
        pred = rng.random((h, w)) > rng.uniform(0.2, 0.8)
        gt = rng.random((h, w)) > rng.uniform(0.2, 0.8)
        c = confusion(pred, gt)
        tp = int(np.count_nonzero(pred & gt))
        tn = int(np.count_nonzero(~pred & ~gt))
        fp = int(np.count_nonzero(pred & ~gt))
        fn = int(np.count_nonzero(~pred & gt))
        ok &= (c.tp, c.tn, c.fp, c.fn) == (tp, tn, fp, fn)
        denom = tp + fp + fn
        ok &= iou(c) == (tp / denom if denom else 1.0)
        prod = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        ok &= mcc(c) == ((tp * tn - fp * fn) / math.sqrt(prod) if prod else 0.0)
        ok &= fp_fn_rates(c) == (fp / (fp + tn) if fp + tn else 0.0,
                                 fn / (fn + tp) if fn + tp else 0.0)
    for _ in range(1000):
        a = rng.uniform(0.0, 64.0, (int(rng.integers(1, 201)), 2))
        b = rng.uniform(0.0, 64.0, (int(rng.integers(1, 201)), 2))
        d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        brute = max(d.min(axis=1).max(), d.min(axis=0).max())
        ok &= hausdorff(a, b) == brute
    elapsed = time.perf_counter() - t0
    report(capsys, 7, "metric oracles", ok, elapsed, 30.0)


def test_8_cli_is_deterministic_across_jobs(tmp_path, capsys):
    t0 = time.perf_counter()

    def cli(*args):
        r = subprocess.run([sys.executable, "-m", "beziermask", *map(str, args)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return r

    masks = tmp_path / "masks"
    cli("gen-synthetic", "--count", "6", "--seed", "3", "--out", masks)
    masks2 = tmp_path / "masks2"
    cli("gen-synthetic", "--count", "6", "--seed", "3", "--out", masks2)

    runs = []
    for label, jobs in [("a", 1), ("b", 2), ("c", 4), ("d", 2)]:
        out = tmp_path / f"enc_{label}"
        cli("encode", masks, "--out", out, "--jobs", jobs)
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = all(r == runs[0] for r in runs[1:])
    ok &= all((masks / p.name).read_bytes() == p.read_bytes()
              for p in masks2.iterdir())

    sens = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for path in sens:
        cli("sensitivity", "--count", "2", "--deltas", "2,5", "--trials", "2",
            "--seed", "1", "--out", path)
    ok &= sens[0].read_bytes() == sens[1].read_bytes()
    elapsed = time.perf_counter() - t0
    report(capsys, 8, "determinism", bool(ok), elapsed, 120.0)
