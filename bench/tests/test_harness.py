"""Tests of the benchmark: every workload runs to its end, and every
correctness check rejects a deliberately wrong output.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from beziermask import decoder, experiments, fitting, mask as mask_ops, metrics  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def blob():
    return experiments.generate_shape(experiments.ShapeSpec("blob", 96, 96, 5, 0.6))


@pytest.fixture(scope="module")
def contour(blob):
    return fitting.encode_mask(blob)[0]


def shifted(contour, dx):
    return fitting.unflatten(fitting.flatten(contour) + np.tile([dx, 0.0], 20),
                             contour.width, contour.height)


# ---------------------------------------------------------------- workloads

@pytest.fixture
def short_runs(monkeypatch):
    """One set-up and one round of inputs per run."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for wl in WORKLOADS.values():
        monkeypatch.setattr(wl, "min_items", 1)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks(name, trace, short_runs):
    res = run.measure(name, seed=7, seconds=0.01, trace=trace)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] % len(WORKLOADS[name].make_inputs(7, NullTracer())) == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_composites_restore_their_steps():
    steps = (experiments.polygon_to_mask, experiments.perturb_contour, fitting.decode_contour,
             mask_ops.trace_boundary, decoder.smooth_l1, decoder.decode_jacobian)
    tr = Tracer()
    for name in ("sensitivity-256", "loss-grad"):
        wl = WORKLOADS[name]
        inp = wl.make_inputs(7, NullTracer())[0]
        assert wl.fingerprint(wl.run_traced(inp, tr)) == wl.fingerprint(wl.run(inp))
    assert steps == (experiments.polygon_to_mask, experiments.perturb_contour,
                     fitting.decode_contour, mask_ops.trace_boundary, decoder.smooth_l1,
                     decoder.decode_jacobian)
    names = {span[1] for span in tr.spans}
    assert {"mask.polygon_to_mask", "experiments.perturb_contour", "decoder.decode_jacobian",
            "decoder.smooth_l1", "mask.rasterize_polygon"} <= names


def test_tail_is_the_median_of_stretch_percentiles():
    ms = np.tile(np.arange(1.0, 101.0), 5)    # five stretches of 100 for p90
    ms[:100] *= 10                            # one slow stretch
    assert run.tail_ms(ms, 90) == pytest.approx(np.percentile(np.arange(1.0, 101.0), 90))
    assert run.tail_ms(ms[:150], 90) == np.percentile(ms[:150], 90)


def test_changed_repeat_output_is_wrong(short_runs, monkeypatch):
    wl = WORKLOADS["loss-grad"]
    plain = wl.run
    calls = []

    def drifting(inp):
        out = plain(inp)
        calls.append(1)
        if len(calls) > 64:    # second round onward
            out.gradient[0] += 1e-9
        return out

    monkeypatch.setattr(wl, "run", drifting)
    monkeypatch.setattr(wl, "min_items", 65)
    assert run.measure("loss-grad", seed=7, seconds=0.01, trace=0)["correct"] is False


def test_command_prints_result_last():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "loss-grad",
                           "--seed", "2", "--seconds", "0.5", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= WORKLOADS["loss-grad"].min_items


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "encode-256",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------- references

def test_even_odd_fill_of_a_square():
    square = np.array([[2.0, 1.0], [6.0, 1.0], [6.0, 4.0], [2.0, 4.0]])
    want = np.zeros((6, 8), dtype=bool)
    want[1:4, 2:6] = True   # centers (2.5..5.5, 1.5..3.5)
    assert np.array_equal(checks.even_odd_fill(square, 8, 6), want)


def test_extreme_pixels_break_ties_toward_corners():
    m = np.zeros((7, 7), dtype=bool)
    m[2:6, 2:6] = True
    m[0, 0] = True          # a speck: not part of the largest component
    got = checks.extreme_pixels(m) - 0.5
    assert got.tolist() == [[2, 2], [2, 5], [5, 5], [5, 2]]


def test_checks_accept_right_outputs(blob, contour):
    checks.check_extremes(contour, blob)
    checks.check_json_roundtrip(contour, fitting.contour_from_json(fitting.contour_to_json(contour)))
    poly = fitting.decode_contour(contour, 128)
    checks.check_fidelity(poly, blob)
    raster = mask_ops.polygon_to_mask(poly, 96, 96)
    checks.check_raster(raster, poly, blob)
    checks.check_metrics(metrics.compare_masks(raster, blob), raster, blob)


# ---------------------------------------------------------------- wrong outputs

def test_shifted_contour_fails_extreme_points(blob, contour):
    with pytest.raises(CheckFailed, match="extreme pixels"):
        checks.check_extremes(shifted(contour, 1.0), blob)


def test_one_ulp_fails_json_round_trip(contour):
    parsed = fitting.contour_from_json(fitting.contour_to_json(contour))
    cp = parsed.segments[2].control_points
    cp[1, 0] = np.nextafter(cp[1, 0], np.inf)
    with pytest.raises(CheckFailed, match="round trip"):
        checks.check_json_roundtrip(contour, parsed)


def test_shifted_contour_fails_fidelity(blob, contour):
    poly = fitting.decode_contour(shifted(contour, 12.0), 128)
    with pytest.raises(CheckFailed, match="below"):
        checks.check_fidelity(poly, blob)


@pytest.fixture(scope="module")
def drawn(contour):
    poly = fitting.decode_contour(contour, 128)
    return poly, mask_ops.polygon_to_mask(poly, 96, 96)


def test_raster_without_outline_fails(blob, drawn):
    poly, _ = drawn
    with pytest.raises(CheckFailed, match="vertex"):
        checks.check_raster(mask_ops.rasterize_polygon(poly, 96, 96), poly, blob)


def test_raster_shifted_by_a_pixel_fails(blob, drawn):
    poly, raster = drawn
    for axis in (0, 1):
        with pytest.raises(CheckFailed, match="inside the polygon"):
            checks.check_raster(np.roll(raster, 1, axis=axis), poly, blob)


def test_full_raster_fails(blob, drawn):
    poly, raster = drawn
    with pytest.raises(CheckFailed, match="off the polygon"):
        checks.check_raster(np.ones_like(raster), poly, blob)


def test_one_stray_pixel_fails(blob, drawn):
    poly, raster = drawn
    stray = raster.copy()
    stray[0, 0] = True
    with pytest.raises(CheckFailed, match="off the polygon"):
        checks.check_raster(stray, poly, blob)


def test_sweep_without_outline_fails(monkeypatch):
    """The sweep's delta-0 entries are compared with rasters the raster
    check has passed, so a rasterizer that drops its outline fails."""
    wl = WORKLOADS["sensitivity-256"]
    inp = wl.make_inputs(7, NullTracer())[0]
    monkeypatch.setattr(experiments, "polygon_to_mask", mask_ops.rasterize_polygon)
    monkeypatch.setattr(mask_ops, "polygon_to_mask", mask_ops.rasterize_polygon)
    with pytest.raises(CheckFailed, match="vertex"):
        wl.check(inp, wl.run(inp))


def test_flipped_pixel_fails_metrics(blob, contour):
    raster = mask_ops.polygon_to_mask(fitting.decode_contour(contour, 128), 96, 96)
    report = metrics.compare_masks(raster, blob)
    flipped = raster.copy()
    flipped[0, 0] = ~flipped[0, 0]
    with pytest.raises(CheckFailed, match="IoU"):
        checks.check_metrics(report, flipped, blob)


def test_wrong_hausdorff_fails_metrics(blob, contour):
    raster = mask_ops.polygon_to_mask(fitting.decode_contour(contour, 128), 96, 96)
    report = metrics.compare_masks(raster, blob)
    report.hausdorff = np.nextafter(report.hausdorff, np.inf) + 1e-9
    with pytest.raises(CheckFailed, match="Hausdorff"):
        checks.check_metrics(report, raster, blob)


def test_sweep_value_off_fails_delta_zero(blob):
    deltas = (0.0, 2.0)
    curve = experiments.sensitivity_sweep([blob], deltas, 1, seed=3)
    clean_b, clean_p = curve.miou_bezier[0], curve.miou_polygon[0]
    checks.check_sweep_at_zero(curve, deltas, clean_b, clean_p)
    curve.miou_bezier[0] -= 1e-6
    with pytest.raises(CheckFailed, match="delta 0"):
        checks.check_sweep_at_zero(curve, deltas, clean_b, clean_p)


@pytest.fixture(scope="module")
def loss_pair(contour):
    rng = np.random.default_rng(1)
    pred = fitting.unflatten(fitting.flatten(contour) + rng.normal(0.0, 2.0, 40),
                             contour.width, contour.height)
    samples = decoder.sample_parameters(72, 0)
    return pred, contour, samples.ts, samples.segment_ids


def test_loss_checks_accept_and_reject(loss_pair):
    pred, gt, ts, ids = loss_pair
    value = decoder.contour_loss(pred, gt, n=72)
    checks.check_loss(value, pred, gt, ts, ids)
    checks.check_gradient(value.gradient, pred, gt, ts, ids)
    checks.check_zero_loss(decoder.contour_loss(gt, gt, n=72))
    value.total *= 1 + 1e-6
    with pytest.raises(CheckFailed, match="loss terms"):
        checks.check_loss(value, pred, gt, ts, ids)


def test_perturbed_gradient_entry_fails(loss_pair):
    pred, gt, ts, ids = loss_pair
    grad = decoder.contour_loss(pred, gt, n=72).gradient.copy()
    grad[13] += 1e-3 * np.linalg.norm(grad)
    with pytest.raises(CheckFailed, match="finite differences"):
        checks.check_gradient(grad, pred, gt, ts, ids)


def test_nonzero_self_loss_fails(contour):
    value = decoder.contour_loss(contour, contour, n=72)
    value.gradient[5] = 1e-300
    with pytest.raises(CheckFailed, match="loss\\(gt, gt\\)"):
        checks.check_zero_loss(value)
