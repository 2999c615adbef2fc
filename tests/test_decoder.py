"""Tests for the differentiable decoder and its loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beziermask import (LossValue, SampleSet, contour_loss, decode_jacobian,
                        decode_points, sample_parameters, smooth_l1)
from beziermask.bezier import basis_matrix
from beziermask.decoder import _loss_samples
from beziermask.fitting import encode_mask, flatten, unflatten


def random_contour(seed, width=256, height=256):
    rng = np.random.default_rng(seed)
    vec = rng.uniform(10.0, 240.0, 40)
    return unflatten(vec, width, height)


# (ts, segment_ids) pairs that SampleSet must reject up front
MALFORMED_SAMPLES = {
    "-1": [([0.5], [-1]), (np.full(3, 0.5), np.array([0, 3, -1]))],
    "4": [([0.5], [4]), (np.full(3, 0.5), np.array([0, 3, 4]))],
    "length_mismatch": [(np.full(3, 0.5), np.array([0, 1, 2, 3])),
                        (np.full(4, 0.5), np.array([0, 1, 2]))],
    "float_ids": [([0.5, 0.5], [0.5, 1.0]), (np.full(2, 0.5), np.array([0.0, 1.0]))],
    "bool_ids": [([0.5, 0.5], [True, False])],
    "2d_ts": [(np.full((2, 2), 0.5), np.array([0, 1])),
              (np.full((2, 2), 0.5), np.zeros((2, 2), dtype=int))],
    "nan_t": [([0.5, np.nan], [0, 1]), ([np.nan], [2])],
    "infinite_t": [([np.inf], [0]), ([0.5, -np.inf], [0, 1])],
    "t_outside_0_1": [([1.5], [0]), ([0.5, -0.1], [0, 1])],
}


class TestSampleParameters:
    def test_shapes_and_ranges(self):
        s = sample_parameters(72, seed=0)
        assert s.ts.shape == (72,) and s.segment_ids.shape == (72,)
        assert np.all((s.ts >= 0.0) & (s.ts < 1.0))
        assert np.all((s.segment_ids >= 0) & (s.segment_ids <= 3))

    def test_deterministic_per_seed(self):
        a = sample_parameters(50, seed=7)
        b = sample_parameters(50, seed=7)
        assert np.array_equal(a.ts, b.ts)
        assert np.array_equal(a.segment_ids, b.segment_ids)
        c = sample_parameters(50, seed=8)
        assert not np.array_equal(a.ts, c.ts)

    def test_uniform_mean(self):
        # 1e6 uniform draws: mean is 0.5 +- ~5 sigma/sqrt(n) ~ 0.0015
        s = sample_parameters(10**6, seed=3)
        assert 0.499 < s.ts.mean() < 0.501
        counts = np.bincount(s.segment_ids, minlength=4)
        assert np.all(counts > 0.24 * 10**6)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_parameters(0, seed=0)

    @pytest.mark.parametrize("cases", MALFORMED_SAMPLES.values(), ids=MALFORMED_SAMPLES.keys())
    def test_rejects_segment_ids_out_of_range(self, cases):
        for ts, ids in cases:
            with pytest.raises(ValueError):
                SampleSet(ts=ts, segment_ids=ids)


class TestDecodePoints:
    def test_matches_direct_segment_evaluation(self):
        contour = random_contour(1)
        samples = sample_parameters(40, seed=2)
        pts = decode_points(contour, samples)
        for j in range(40):
            seg = contour.segments[int(samples.segment_ids[j])]
            B_pt = basis_matrix(seg.degree, [samples.ts[j]])[0] @ seg.control_points
            assert np.allclose(pts[j], B_pt, atol=1e-12)

    def test_endpoints_hit_extremes(self):
        contour = random_contour(2)
        samples = SampleSet(ts=np.zeros(4), segment_ids=np.arange(4))
        pts = decode_points(contour, samples)
        starts = np.array([s.control_points[0] for s in contour.segments])
        assert np.allclose(pts, starts, atol=1e-12)

    def test_constant_contour_decodes_to_constant(self):
        vec = np.tile([30.0, 40.0], 20)
        contour = unflatten(vec, 64, 64)
        pts = decode_points(contour, sample_parameters(64, seed=0))
        assert np.allclose(pts, [30.0, 40.0], atol=1e-12)


class TestJacobian:
    def test_rows_sum_to_one(self):
        # partition of unity: moving every x control point by c moves x by c
        contour = random_contour(3)
        samples = sample_parameters(30, seed=1)
        J = decode_jacobian(contour, samples)
        x_rows = J[0::2]
        y_rows = J[1::2]
        assert np.allclose(x_rows[:, 0::2].sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(y_rows[:, 1::2].sum(axis=1), 1.0, atol=1e-12)
        # x rows never touch y columns and vice versa
        assert np.all(x_rows[:, 1::2] == 0.0)
        assert np.all(y_rows[:, 0::2] == 0.0)

    def test_locality(self):
        # a sample on segment k only depends on that segment's control points
        contour = random_contour(4)
        samples = SampleSet(ts=np.array([0.3]), segment_ids=np.array([1]))
        J = decode_jacobian(contour, samples)
        touched = set(np.nonzero(J[0])[0] // 2)
        assert touched <= {1, 2, 8, 9, 10, 11}

    def test_linearity_of_decode(self):
        # decode(flatten) is linear, so J @ delta predicts the change exactly
        contour = random_contour(5)
        samples = sample_parameters(25, seed=9)
        J = decode_jacobian(contour, samples)
        rng = np.random.default_rng(0)
        delta = rng.normal(0.0, 3.0, 40)
        moved = unflatten(flatten(contour) + delta, contour.width, contour.height)
        before = decode_points(contour, samples).ravel()
        after = decode_points(moved, samples).ravel()
        assert np.allclose(after - before, J @ delta, atol=1e-10)

    @pytest.mark.parametrize("degree", [3, 9])
    def test_rejects_other_degrees(self, degree):
        mask = np.zeros((64, 64), dtype=bool)
        mask[12:50, 8:40] = True
        contour, _ = encode_mask(mask, degree)
        assert contour.degree == degree
        with pytest.raises(ValueError, match="degree-5"):
            decode_jacobian(contour, sample_parameters(12, seed=0))

    def test_finite_difference_check(self):
        contour = random_contour(6)
        samples = sample_parameters(12, seed=4)
        J = decode_jacobian(contour, samples)
        vec = flatten(contour)
        eps = 1e-6
        for col in range(40):
            vp, vm = vec.copy(), vec.copy()
            vp[col] += eps
            vm[col] -= eps
            fp = decode_points(unflatten(vp, 256, 256), samples).ravel()
            fm = decode_points(unflatten(vm, 256, 256), samples).ravel()
            fd = (fp - fm) / (2 * eps)
            assert np.allclose(J[:, col], fd, atol=1e-8)


def loop_jacobian(samples):
    """The (2n, 40) Jacobian built sample by sample, one segment's six
    control points at a time, in the flatten layout."""
    n = len(samples.ts)
    J = np.zeros((2 * n, 40))
    B = basis_matrix(5, samples.ts)
    for j in range(n):
        k = int(samples.segment_ids[j])
        points = [k, 4 + 4 * k, 5 + 4 * k, 6 + 4 * k, 7 + 4 * k, (k + 1) % 4]
        for b, p in zip(B[j], points):
            J[2 * j, 2 * p] += b
            J[2 * j + 1, 2 * p + 1] += b
    return J


class TestSamplingMatrix:
    @pytest.mark.parametrize("n, seed", [(1, 0), (12, 4), (72, 0), (500, 3)])
    def test_jacobian_equals_the_per_sample_loop(self, n, seed):
        samples = sample_parameters(n, seed)
        J = decode_jacobian(random_contour(seed), samples)
        assert J.shape == (2 * n, 40)
        assert np.array_equal(J, loop_jacobian(samples))

    def test_endpoints_and_junctions(self):
        samples = SampleSet(ts=np.array([0.0, 1.0, 1.0, 0.0]),
                            segment_ids=np.array([0, 0, 3, 3]))
        assert np.array_equal(samples.operator, np.eye(20)[[0, 1, 0, 3]])

    def test_operator_decodes_the_points(self):
        contour = random_contour(13)
        samples = sample_parameters(200, seed=6)
        A = samples.operator
        np.testing.assert_allclose(A @ flatten(contour).reshape(20, 2),
                                   decode_points(contour, samples), rtol=0, atol=1e-12)

    def test_cached_samples_are_read_only(self):
        samples = _loss_samples(72, 0)
        for a in (samples.ts, samples.segment_ids):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        assert _loss_samples(72, 0) is samples
        ref = sample_parameters(72, 0)
        assert np.array_equal(samples.ts, ref.ts)
        assert np.array_equal(samples.segment_ids, ref.segment_ids)

    def test_writing_the_jacobian_leaves_the_loss_alone(self):
        gt = random_contour(14)
        pred = unflatten(flatten(gt) + 1.5, 256, 256)
        before = contour_loss(pred, gt, n=72, seed=0)
        J = decode_jacobian(pred, sample_parameters(72, 0))
        J[:] = 7.0
        after = contour_loss(pred, gt, n=72, seed=0)
        assert after.total == before.total
        assert np.array_equal(after.gradient, before.gradient)

    @pytest.mark.parametrize("n", [1, 12, 72, 500])
    def test_cached_jacobian_is_the_read_only_kron(self, n):
        samples = sample_parameters(n, seed=n)
        J = samples.jacobian
        assert samples.jacobian is J
        assert not J.flags.writeable
        with pytest.raises(ValueError):
            J[0, 0] = 7.0
        assert J.tobytes() == np.kron(samples.operator, np.eye(2)).tobytes()

    def test_decode_jacobian_returns_fresh_copies(self):
        contour = random_contour(15)
        samples = sample_parameters(72, seed=2)
        first = decode_jacobian(contour, samples)
        second = decode_jacobian(contour, samples)
        for J in (first, second):
            assert J.flags.writeable
            assert not np.shares_memory(J, samples.jacobian)
        assert not np.shares_memory(first, second)
        first[:] = 7.0
        third = decode_jacobian(contour, samples)
        assert third.tobytes() == second.tobytes() == samples.jacobian.tobytes()


class TestSmoothL1:
    def test_quadratic_region(self):
        loss, grad = smooth_l1(np.array([0.5]), np.array([0.0]))
        assert loss == pytest.approx(0.125)
        assert grad[0] == pytest.approx(0.5)

    def test_linear_region(self):
        loss, grad = smooth_l1(np.array([1.5]), np.array([0.0]))
        assert loss == pytest.approx(1.0)
        assert grad[0] == pytest.approx(1.0)

    def test_mean_over_elements(self):
        loss, grad = smooth_l1(np.array([0.5, 1.5]), np.zeros(2))
        assert loss == pytest.approx((0.125 + 1.0) / 2)
        assert np.allclose(grad, [0.25, 0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            smooth_l1(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("shape", [(0,), (0, 2), (3, 0)])
    def test_empty_inputs_rejected(self, shape):
        with pytest.raises(ValueError, match="at least one element"):
            smooth_l1(np.zeros(shape), np.zeros(shape))

    @given(st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_gradient_matches_finite_difference(self, d):
        eps = 1e-7
        f = lambda v: smooth_l1(np.array([v]), np.array([0.0]))[0]
        fd = (f(d + eps) - f(d - eps)) / (2 * eps)
        _, grad = smooth_l1(np.array([d]), np.array([0.0]))
        assert grad[0] == pytest.approx(fd, abs=1e-6)


class TestContourLoss:
    def test_zero_at_ground_truth(self):
        contour = random_contour(7)
        for n in (1, 72, 1000):
            lv = contour_loss(contour, contour, n=n, seed=n)
            assert isinstance(lv, LossValue)
            assert lv.total == 0.0 and lv.l_ce == 0.0 and lv.l_matching == 0.0
            # +0.0, not -0.0, by its bytes
            assert [np.float64(v).tobytes() for v in (lv.total, lv.l_ce, lv.l_matching)] == \
                [np.float64(0.0).tobytes()] * 3
            assert not np.any(lv.gradient)

    def test_seeds_draw_different_samples(self):
        # the cached samples are keyed by seed as well as n
        gt = random_contour(16)
        pred = unflatten(flatten(gt) + np.random.default_rng(3).normal(0, 3, 40), 256, 256)
        a = contour_loss(pred, gt, n=72, seed=0)
        b = contour_loss(pred, gt, n=72, seed=1)
        assert a.l_matching != b.l_matching
        assert a.l_ce == b.l_ce
        assert contour_loss(pred, gt, n=72, seed=0).l_matching == a.l_matching

    @pytest.mark.parametrize("seed", [None, 1.5, np.random.default_rng(0)])
    def test_seed_must_be_an_int(self, seed):
        gt = random_contour(16)
        with pytest.raises(TypeError):
            contour_loss(gt, gt, seed=seed)
        contour_loss(gt, gt, seed=np.int64(3))

    def test_positive_off_ground_truth(self):
        gt = random_contour(8)
        pred = unflatten(flatten(gt) + 2.0, 256, 256)
        lv = contour_loss(pred, gt)
        assert lv.total > 0.0
        assert lv.total == pytest.approx(lv.l_ce + lv.l_matching)

    def test_translation_invariance_of_value(self):
        # shifting pred and gt together leaves both terms unchanged
        gt = random_contour(9)
        pred = unflatten(flatten(gt) + np.random.default_rng(1).normal(0, 2, 40),
                         256, 256)
        shift = np.tile([5.0, -3.0], 20)
        lv = contour_loss(pred, gt)
        lv2 = contour_loss(unflatten(flatten(pred) + shift, 256, 256),
                           unflatten(flatten(gt) + shift, 256, 256))
        assert lv2.total == pytest.approx(lv.total, rel=1e-12)

    def test_seed_changes_matching_term_only_slightly(self):
        gt = random_contour(10)
        pred = unflatten(flatten(gt) + 3.0, 256, 256)
        a = contour_loss(pred, gt, seed=0)
        b = contour_loss(pred, gt, seed=0)
        assert a.total == b.total and np.array_equal(a.gradient, b.gradient)
        assert a.l_ce == contour_loss(pred, gt, seed=1).l_ce

    def test_gradient_matches_finite_difference(self):
        gt = random_contour(11)
        pred = unflatten(flatten(gt) + np.random.default_rng(2).normal(0, 4, 40),
                         256, 256)
        lv = contour_loss(pred, gt, n=72, seed=5)
        vec = flatten(pred)
        eps = 1e-5
        fd = np.empty(40)
        for col in range(40):
            vp, vm = vec.copy(), vec.copy()
            vp[col] += eps
            vm[col] -= eps
            fd[col] = (contour_loss(unflatten(vp, 256, 256), gt, n=72, seed=5).total
                       - contour_loss(unflatten(vm, 256, 256), gt, n=72, seed=5).total) / (2 * eps)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(lv.gradient - fd) / denom < 1e-6

    def test_frame_mismatch_rejected(self):
        a = random_contour(12, 256, 256)
        b = random_contour(12, 128, 128)
        with pytest.raises(ValueError):
            contour_loss(a, b)
