"""Tests for segmentation metrics against brute-force oracles."""

import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beziermask import (ConfusionCounts, MetricsReport, compare_masks,
                        confusion, fp_fn_rates, hausdorff, iou, mcc,
                        summarize)
from beziermask.cli import _write_csv_atomic
from beziermask.errors import UndefinedMetricError
from beziermask.experiments import ShapeSpec, generate_shape
from beziermask.fitting import decode_contour, encode_mask
from beziermask.mask import polygon_to_mask
from beziermask.metrics import csv_rows


def brute_confusion(pred, gt):
    """Double-loop confusion counts used as an oracle."""
    tp = tn = fp = fn = 0
    for r in range(pred.shape[0]):
        for c in range(pred.shape[1]):
            if pred[r, c] and gt[r, c]:
                tp += 1
            elif pred[r, c]:
                fp += 1
            elif gt[r, c]:
                fn += 1
            else:
                tn += 1
    return tp, tn, fp, fn


def brute_hausdorff(a, b):
    """Direct max-min double loop from the definition."""
    d_ab = max(min(math.dist(p, q) for q in b) for p in a)
    d_ba = max(min(math.dist(q, p) for p in a) for q in b)
    return max(d_ab, d_ba)


class TestConfusion:
    def test_hand_example(self):
        pred = np.array([[1, 1], [0, 0]], dtype=bool)
        gt = np.array([[1, 0], [1, 0]], dtype=bool)
        c = confusion(pred, gt)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.zeros((2, 2), bool), np.zeros((3, 3), bool))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            pred = rng.random((12, 9)) > 0.5
            gt = rng.random((12, 9)) > 0.5
            c = confusion(pred, gt)
            assert (c.tp, c.tn, c.fp, c.fn) == brute_confusion(pred, gt)


class TestIou:
    def test_examples(self):
        assert iou(ConfusionCounts(3, 10, 1, 2)) == pytest.approx(0.5)
        assert iou(ConfusionCounts(0, 10, 0, 0)) == 1.0
        assert iou(ConfusionCounts(0, 10, 5, 0)) == 0.0

    def test_identical_masks_give_one(self):
        m = np.random.default_rng(1).random((8, 8)) > 0.5
        assert iou(confusion(m, m)) == 1.0


class TestMcc:
    def test_perfect_and_inverted(self):
        assert mcc(ConfusionCounts(5, 5, 0, 0)) == pytest.approx(1.0)
        assert mcc(ConfusionCounts(0, 0, 5, 5)) == pytest.approx(-1.0)

    def test_zero_on_empty_marginal(self):
        assert mcc(ConfusionCounts(0, 10, 0, 0)) == 0.0
        assert mcc(ConfusionCounts(10, 0, 0, 0)) == 0.0

    def test_hand_value(self):
        # tp=6 tn=3 fp=1 fn=2 -> (18-2)/sqrt(7*8*4*5)
        assert mcc(ConfusionCounts(6, 3, 1, 2)) == pytest.approx(16 / math.sqrt(1120))

    def test_no_overflow_on_large_counts(self):
        # products of counts near 2^31 stay exact with Python ints
        big = 3_000_000
        v = mcc(ConfusionCounts(big, big, 1, 1))
        assert 0.999 < v <= 1.0


class TestRates:
    def test_examples(self):
        assert fp_fn_rates(ConfusionCounts(3, 6, 2, 1)) == (0.25, 0.25)
        assert fp_fn_rates(ConfusionCounts(0, 0, 0, 0)) == (0.0, 0.0)


class TestHausdorff:
    def test_three_four_five(self):
        assert hausdorff(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0

    def test_identity_is_zero(self):
        pts = np.random.default_rng(2).random((30, 2)) * 10
        assert hausdorff(pts, pts) == 0.0

    def test_symmetry_and_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.random((rng.integers(1, 15), 2)) * 20
            b = rng.random((rng.integers(1, 15), 2)) * 20
            d = hausdorff(a, b)
            assert d == pytest.approx(hausdorff(b, a))
            assert d == pytest.approx(brute_hausdorff(a.tolist(), b.tolist()))

    def test_empty_set_rejected(self):
        with pytest.raises(UndefinedMetricError):
            hausdorff(np.empty((0, 2)), np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # checked before any arithmetic, so no RuntimeWarning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                hausdorff(np.array([[bad, 0.0]]), np.zeros((2, 2)))
            for side, value in ((0, bad), (1, -bad)):
                sets = [np.arange(40.0).reshape(20, 2), np.arange(60.0).reshape(30, 2) + 0.5]
                sets[side][7, 1] = value
                with pytest.raises(ValueError, match="finite"):
                    hausdorff(*sets)

    @pytest.mark.parametrize("a, b, want", [
        ([[1e300, 0], [0, 1e300]], [[-1e300, 5]], math.inf),           # squares overflow
        ([[1e300, 0], [1e300, 1]], [[1e300, 3]], 3.0),
        ([[-1e300, 1e154]], [[-1e300, 0], [-1e300, 1e154]], 1e154),
        ([[1e-300, 0]], [[0, 0], [0, 1e-300]], 0.0),                   # squares underflow
        ([[0, 0]], [[3, 4]], 5.0),                                     # 1-point sets
        ([[0, 0]], [[3, 4], [0, 1], [6, 8]], 10.0),
        ([[1, 1]] * 5 + [[4, 5]], [[1, 1]] * 3, 5.0),                  # duplicates
        ([[2, 2]] * 12, [[2, 2]] * 9, 0.0),
    ])
    def test_finite_inputs_warn_nothing(self, a, b, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hausdorff(a, b) == hausdorff(b, a) == want

    @given(hnp.arrays(float, (5, 2), elements=st.floats(-50, 50)),
           hnp.arrays(float, (7, 2), elements=st.floats(-50, 50)),
           hnp.arrays(float, (1, 2), elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance(self, a, b, shift):
        assert hausdorff(a + shift, b + shift) == pytest.approx(
            hausdorff(a, b), abs=1e-9)


class TestCompareMasks:
    def test_full_report_on_disc(self, disc_mask):
        rep = compare_masks(disc_mask, disc_mask)
        assert rep.iou == 1.0 and rep.hausdorff == 0.0
        assert rep.mcc == pytest.approx(1.0)
        assert rep.fp_rate == 0.0 and rep.fn_rate == 0.0

    def test_both_empty(self):
        z = np.zeros((5, 5), bool)
        rep = compare_masks(z, z)
        assert rep.iou == 1.0 and rep.hausdorff == 0.0

    def test_one_empty_gives_nan_hausdorff(self):
        z = np.zeros((5, 5), bool)
        m = z.copy()
        m[2, 2] = True
        rep = compare_masks(m, z)
        assert math.isnan(rep.hausdorff)
        assert rep.iou == 0.0

    def test_shifted_squares(self):
        a = np.zeros((10, 10), bool)
        b = np.zeros((10, 10), bool)
        a[2:6, 2:6] = True
        b[2:6, 4:8] = True  # shift right by 2 columns
        rep = compare_masks(a, b)
        assert rep.iou == pytest.approx(8 / 24)
        assert rep.hausdorff == pytest.approx(2.0)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 3), ()])
    def test_mask_not_2d_rejected(self, shape):
        m = np.ones(shape, bool)
        with pytest.raises(ValueError, match="mask must be 2-D"):
            compare_masks(m, m)

    def test_encode_eval_memory_is_linear_in_frame_area(self):
        # encode -> decode -> raster -> metrics on a 4096^2 blob; an
        # all-pairs Hausdorff matrix alone would need about 1.8 GB here
        size = 4096
        gt = generate_shape(ShapeSpec("blob", size, size, 1, 0.6))
        tracemalloc.start()
        try:
            contour, _ = encode_mask(gt)
            pred = polygon_to_mask(decode_contour(contour, 128), size, size)
            rep = compare_masks(pred, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.iou > 0.95
        assert peak < 8 * size * size


def test_compare_masks_memory_follows_the_boxes():
    # counts and boundaries work on the foreground boxes (the union box
    # is about 0.36 of this frame); a frame-sized pred & gt alone would
    # take 1 B per frame pixel
    size = 4096
    gt = generate_shape(ShapeSpec("blob", size, size, 1, 0.6))
    contour, _ = encode_mask(gt)
    pred = polygon_to_mask(decode_contour(contour, 128), size, size)
    tracemalloc.start()
    try:
        rep = compare_masks(pred, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.iou > 0.95
    assert peak < size * size


class TestSummarize:
    def test_mean_and_population_std(self):
        reps = [MetricsReport(0.4, 1.0, 0.5, 0.1, 0.2),
                MetricsReport(0.6, 3.0, 0.7, 0.3, 0.4)]
        s = summarize(reps)
        assert s.miou == pytest.approx(0.5)
        assert s.mean_hausdorff == pytest.approx(2.0)
        assert s.mean_mcc == pytest.approx(0.6)
        assert s.mean_fp_rate == pytest.approx(0.2)
        assert s.mean_fn_rate == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


def test_write_metrics_csv(tmp_path):
    reps = [MetricsReport(0.9, 1.5, 0.8, 0.01, 0.02)]
    path = tmp_path / "m.csv"
    _write_csv_atomic(path, csv_rows(["img0"], reps, summarize(reps)))
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "image_id"
    assert rows[1][0] == "img0" and float(rows[1][1]) == 0.9
    assert rows[2][0] == "__summary__"
