import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beziermask import (BezierMaskError, BezierSegment, ContourFormatError,
                        DegenerateShapeError, EmptyMaskError, basis_matrix, contour_from_json,
                        contour_to_json, decode_contour, encode_mask,
                        find_extreme_points, fit_arc, flatten, polygon_to_mask,
                        scale_contour, split_boundary, trace_boundary,
                        unflatten)
from beziermask.experiments import ShapeSpec, generate_shape
from beziermask.fitting import PiecewiseContour


def square_mask():
    m = np.zeros((8, 8), bool)
    m[2:6, 2:6] = True
    return m


def mask_iou(a, b):
    union = np.sum(a | b)
    return np.sum(a & b) / union if union else 1.0


def random_contour(rng, width=256, height=256):
    return unflatten(rng.uniform(16, width - 16, 40), width, height)


class TestExtremePoints:
    def test_square_corner_tie_breaks(self):
        tr = trace_boundary(square_mask())
        top, leftmost, bottom, rightmost = tr.points[list(find_extreme_points(tr))]
        np.testing.assert_array_equal(top, [2.5, 2.5])        # top-left
        np.testing.assert_array_equal(leftmost, [2.5, 5.5])   # bottom-left
        np.testing.assert_array_equal(bottom, [5.5, 5.5])     # bottom-right
        np.testing.assert_array_equal(rightmost, [5.5, 2.5])  # top-right

    def test_unique_extremes_on_disc(self, disc_mask):
        tr = trace_boundary(disc_mask)
        pts = tr.points
        top, leftmost, bottom, rightmost = pts[list(find_extreme_points(tr))]
        assert top[1] == pts[:, 1].min()
        assert leftmost[0] == pts[:, 0].min()
        assert bottom[1] == pts[:, 1].max()
        assert rightmost[0] == pts[:, 0].max()

    def test_matches_exhaustive_scan(self):
        for seed in range(10):
            m = generate_shape(ShapeSpec("blob", 80, 80, seed, 0.6))
            pts = trace_boundary(m).points
            top, leftmost, bottom, rightmost = pts[list(find_extreme_points(trace_boundary(m)))]
            by = sorted(map(tuple, pts), key=lambda p: (p[1], p[0]))
            bx = sorted(map(tuple, pts), key=lambda p: (p[0], -p[1]))
            assert tuple(top) == by[0]
            assert tuple(bottom) == max(map(tuple, pts),
                                        key=lambda p: (p[1], p[0]))
            assert tuple(leftmost) == bx[0]
            assert tuple(rightmost) == max(map(tuple, pts),
                                           key=lambda p: (p[0], -p[1]))

    def test_short_trace_raises(self):
        from beziermask.mask import BoundaryTrace
        with pytest.raises(DegenerateShapeError):
            find_extreme_points(BoundaryTrace(np.array([[1.0, 1.0], [2.0, 1.0]])))


class TestSplitBoundary:
    def test_square_sides(self):
        tr = trace_boundary(square_mask())
        arcs = split_boundary(tr, find_extreme_points(tr))
        assert [len(a) for a in arcs] == [4, 4, 4, 4]
        np.testing.assert_array_equal(arcs[0][:, 0], 2.5)  # left side
        np.testing.assert_array_equal(arcs[1][:, 1], 5.5)  # bottom side

    def test_arc_endpoints_are_extremes(self):
        tr = trace_boundary(square_mask())
        idx = find_extreme_points(tr)
        arcs = split_boundary(tr, idx)
        chain = tr.points[list(idx)]
        for k, arc in enumerate(arcs):
            np.testing.assert_array_equal(arc[0], chain[k])
            np.testing.assert_array_equal(arc[-1], chain[(k + 1) % 4])

    def test_counting_identity(self):
        for seed in range(10):
            m = generate_shape(ShapeSpec("blob", 96, 96, 50 + seed, 0.6))
            tr = trace_boundary(m)
            arcs = split_boundary(tr, find_extreme_points(tr))
            assert sum(len(a) - 1 for a in arcs) == len(tr)


class TestFitArc:
    def test_collinear_points_exact(self):
        arc = np.stack([np.linspace(0, 10, 11), np.zeros(11)], axis=1)
        seg, resid = fit_arc(arc, 5)
        np.testing.assert_allclose(
            seg.control_points,
            [[0, 0], [2, 0], [4, 0], [6, 0], [8, 0], [10, 0]], atol=1e-9)
        assert resid < 1e-10

    def test_roundtrip_recovers_control_points(self):
        rng = np.random.default_rng(12)
        ts = np.linspace(0, 1, 50)
        for _ in range(20):
            seg = BezierSegment(rng.uniform(0, 200, (6, 2)))
            arc = basis_matrix(5, ts) @ seg.control_points
            got, resid = fit_arc(arc, 5)
            assert np.abs(got.control_points - seg.control_points).max() < 1e-9
            assert resid < 1e-9

    def test_degree_five_beats_degree_three_on_noisy_semicircle(self):
        rng = np.random.default_rng(13)
        theta = np.linspace(0, np.pi, 80)
        arc = np.stack([50 * np.cos(theta), 50 * np.sin(theta)], axis=1)
        arc += rng.normal(0, 0.5, arc.shape)
        _, r5 = fit_arc(arc, 5)
        _, r3 = fit_arc(arc, 3)
        assert r5 < r3

    def test_short_arc_chord_fallback(self):
        arc = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 2.0]])
        seg, _ = fit_arc(arc, 5)
        np.testing.assert_array_equal(seg.control_points[0], arc[0])
        np.testing.assert_array_equal(seg.control_points[-1], arc[-1])
        chord = arc[-1] - arc[0]
        np.testing.assert_allclose(seg.control_points,
                                   arc[0] + np.linspace(0, 1, 6)[:, None] * chord)

    def test_single_point_collapses(self):
        seg, resid = fit_arc(np.array([[3.0, 4.0]]), 5)
        np.testing.assert_array_equal(seg.control_points, np.full((6, 2), [3.0, 4.0]))
        assert resid == 0.0

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(14)
        theta = np.linspace(0, np.pi, 60)
        arc = np.stack([40 * np.cos(theta), 30 * np.sin(theta)], axis=1)
        arc += rng.normal(0, 0.4, arc.shape)
        seg, _ = fit_arc(arc, 5)
        base = _ssr(seg.control_points, arc)
        for i in range(1, 5):
            for axis in (0, 1):
                for sign in (-0.1, 0.1):
                    cp = seg.control_points.copy()
                    cp[i, axis] += sign
                    assert _ssr(cp, arc) >= base - 1e-9


def _ssr(cp, arc):
    ts = np.arange(len(arc)) / (len(arc) - 1.0)
    fitted = basis_matrix(len(cp) - 1, ts) @ cp
    return float(np.sum((fitted - arc) ** 2))


class TestEncodeDecode:
    def test_disc_roundtrip_iou(self, disc_mask):
        contour, report = encode_mask(disc_mask, degree=5)
        poly = decode_contour(contour, 128)
        raster = polygon_to_mask(poly, 64, 64)
        assert mask_iou(raster, disc_mask) >= 0.97
        assert np.all(report.residuals >= 0)

    def test_reencode_near_idempotent(self, disc_mask):
        contour, _ = encode_mask(disc_mask, degree=5)
        raster = polygon_to_mask(decode_contour(contour, 128), 64, 64)
        contour2, _ = encode_mask(raster, degree=5)
        raster2 = polygon_to_mask(decode_contour(contour2, 128), 64, 64)
        assert mask_iou(raster2, raster) >= 0.97

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMaskError):
            encode_mask(np.zeros((16, 16), bool))

    def test_tiny_object_raises(self):
        m = np.zeros((16, 16), bool)
        m[4, 4] = m[4, 5] = True
        with pytest.raises(DegenerateShapeError):
            encode_mask(m)

    def test_closure_invariant(self, blob_masks):
        for m in blob_masks:
            contour, _ = encode_mask(m)
            for k in range(4):
                a = contour.segments[k].control_points[-1]
                b = contour.segments[(k + 1) % 4].control_points[0]
                np.testing.assert_array_equal(a, b)

    def test_translation_equivariance(self):
        m = generate_shape(ShapeSpec("blob", 128, 128, 3, 0.4))
        contour, _ = encode_mask(m)
        shifted = np.roll(np.roll(m, 5, axis=0), 9, axis=1)
        contour2, _ = encode_mask(shifted)
        for s1, s2 in zip(contour.segments, contour2.segments):
            np.testing.assert_allclose(s2.control_points - s1.control_points,
                                       [[9.0, 5.0]] * 6, atol=1e-8)

    def test_residual_monotone_in_degree(self, blob_masks):
        from beziermask.experiments import degree_sweep
        res = degree_sweep(blob_masks[:4], degrees=(3, 5, 7, 9))
        assert res[3] >= res[5] >= res[7] >= res[9]

    def test_smoothing_flag_still_encodes(self, blob_masks):
        contour, _ = encode_mask(blob_masks[0], smooth_radius=1)
        raster = polygon_to_mask(decode_contour(contour, 128), 256, 256)
        assert mask_iou(raster, blob_masks[0]) >= 0.9


@st.composite
def adversarial_masks(draw):
    """(mask, smooth_radius): frames down to 1 x N and N x 1 holding 1-px
    lines, objects of 1-4 px, rectangles that may touch the border or
    have a hole, and scattered pixels, in any overlap."""
    w, h = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    w, h = draw(st.sampled_from([(w, h), (1, h), (w, 1)]))
    m = np.zeros((h, w), bool)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["row", "column", "diagonal", "speck",
                                     "rect", "ring", "pixels"]))
        y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        y1 = draw(st.sampled_from([draw(st.integers(y0, h - 1)), h - 1]))
        x1 = draw(st.sampled_from([draw(st.integers(x0, w - 1)), w - 1]))
        if kind == "row":
            m[y0, x0:x1 + 1] = True
        elif kind == "column":
            m[y0:y1 + 1, x0] = True
        elif kind == "diagonal":
            k = np.arange(min(y1 - y0, x1 - x0) + 1)
            m[y0 + k, x0 + k] = True
        elif kind == "speck":      # 1-4 px within a 2 x 2 box, clipped
            for dy, dx in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                                        min_size=1, max_size=4)):
                m[min(y0 + dy, h - 1), min(x0 + dx, w - 1)] = True
        elif kind == "rect":
            m[y0:y1 + 1, x0:x1 + 1] = True
        elif kind == "ring":       # a hole whenever the box is 3 x 3 or more
            m[y0:y1 + 1, x0:x1 + 1] = True
            m[y0 + 1:y1, x0 + 1:x1] = False
        else:
            for y, x in draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)),
                                      max_size=12)):
                m[y, x] = True
    return m, draw(st.integers(0, 2))


class TestAdversarialMasks:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(adversarial_masks())
    def test_encodes_exactly_or_raises_a_typed_error(self, case):
        m, radius = case
        h, w = m.shape
        try:
            contour, report = encode_mask(m, smooth_radius=radius)
        except BezierMaskError:
            return
        assert (contour.width, contour.height) == (w, h)
        assert np.all(np.isfinite(report.residuals))
        text = contour_to_json(contour)
        back = contour_from_json(text)
        np.testing.assert_array_equal(back.control_points, contour.control_points)
        assert contour_to_json(back) == text
        again = unflatten(flatten(contour), w, h)
        np.testing.assert_array_equal(again.control_points, contour.control_points)
        raster = polygon_to_mask(decode_contour(contour, 16), w, h)
        assert raster.shape == (h, w) and raster.dtype == bool


class TestDecodeContour:
    def test_two_samples_gives_extreme_quadrilateral(self, disc_mask):
        contour, _ = encode_mask(disc_mask)
        poly = decode_contour(contour, 2)
        assert poly.shape == (4, 2)
        for k in range(4):
            np.testing.assert_array_equal(poly[k],
                                          contour.segments[k].control_points[0])

    def test_vertex_count(self, disc_mask):
        contour, _ = encode_mask(disc_mask)
        for k in (2, 5, 128):
            assert decode_contour(contour, k).shape == (4 * (k - 1), 2)

    def test_doubling_samples_stable_iou(self, disc_mask):
        contour, _ = encode_mask(disc_mask)
        ref = polygon_to_mask(decode_contour(contour, 1024), 64, 64)
        prev = None
        for k in (8, 16, 32, 64):
            r = polygon_to_mask(decode_contour(contour, k), 64, 64)
            score = mask_iou(r, ref)
            if prev is not None:
                assert score >= prev - 0.01
            prev = score

    def test_invalid_sample_count(self, disc_mask):
        contour, _ = encode_mask(disc_mask)
        with pytest.raises(ValueError):
            decode_contour(contour, 1)


class TestFlatten:
    def test_roundtrip(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            c = random_contour(rng)
            back = unflatten(flatten(c), c.width, c.height)
            for s1, s2 in zip(c.segments, back.segments):
                np.testing.assert_array_equal(s1.control_points, s2.control_points)

    def test_layout(self, disc_mask):
        contour, _ = encode_mask(disc_mask)
        vec = flatten(contour)
        assert vec.shape == (40,)
        top = contour.segments[0].control_points[0]
        assert vec[0] == top[0] and vec[1] == top[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        for i in (0, 9):    # a junction, an interior point
            vec = np.arange(40.0)
            vec[i] = bad
            with pytest.raises(ContourFormatError):
                unflatten(vec, 64, 64)

    def test_degree_mismatch(self, disc_mask):
        contour, _ = encode_mask(disc_mask, degree=3)
        with pytest.raises(ContourFormatError):
            flatten(contour)


class TestContourJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(21)
        c = random_contour(rng)
        back = contour_from_json(contour_to_json(c))
        assert (back.width, back.height, back.degree) == (256, 256, 5)
        for s1, s2 in zip(c.segments, back.segments):
            np.testing.assert_array_equal(s1.control_points, s2.control_points)

    def test_closure_enforced_on_read(self):
        rng = np.random.default_rng(22)
        doc = contour_to_json(random_contour(rng))
        import json
        broken = json.loads(doc)
        broken["segments"][0]["control_points"][5][0] += 1.0
        with pytest.raises(ContourFormatError):
            contour_from_json(json.dumps(broken))

    def test_invalid_json(self):
        with pytest.raises(ContourFormatError):
            contour_from_json("{not json")
        with pytest.raises(ContourFormatError):
            contour_from_json('{"version": 2}')


def test_scale_contour_preserves_closure():
    rng = np.random.default_rng(23)
    c = random_contour(rng)
    s = scale_contour(c, 512, 128)
    assert isinstance(s, PiecewiseContour)
    np.testing.assert_allclose(flatten(s)[0::2], flatten(c)[0::2] * 2.0)
    np.testing.assert_allclose(flatten(s)[1::2], flatten(c)[1::2] * 0.5)
