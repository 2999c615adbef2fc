import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import beziermask
from beziermask import (DegenerateShapeError, EmptyMaskError, PgmFormatError,
                        boundary_points, encode_mask, largest_component, load_pgm,
                        morphological_smooth, polygon_to_mask, rasterize_polygon,
                        save_pgm, sensitivity_sweep, trace_boundary, trace_object)
from beziermask.experiments import ShapeSpec, generate_shape
from beziermask.mask import _component_count
from beziermask.metrics import ConfusionCounts, MetricsReport, compare_masks, confusion


def pgm_bytes(grid):
    grid = np.asarray(grid, dtype=np.uint8)
    h, w = grid.shape
    return f"P5\n{w} {h}\n255\n".encode() + grid.tobytes()


class TestPgm:
    def test_all_foreground(self):
        m = load_pgm(pgm_bytes(np.full((4, 4), 255)))
        assert m.all() and m.shape == (4, 4)

    def test_all_background(self):
        assert not load_pgm(pgm_bytes(np.zeros((4, 4)))).any()

    def test_threshold_is_strict(self):
        m = load_pgm(pgm_bytes(np.full((2, 2), 127)))
        assert not m.any()

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        m = rng.random((13, 7)) > 0.5
        np.testing.assert_array_equal(load_pgm(save_pgm(m)), m)

    def test_maxval_one_label_map(self):
        grid = np.zeros((4, 4), np.uint8)
        grid[1:4, 0:3] = 1
        data = b"P5\n4 4\n1\n" + grid.tobytes()
        np.testing.assert_array_equal(load_pgm(data), grid == 1)

    def test_maxval_scales_threshold(self):
        data = b"P5\n3 1\n2\n" + bytes([0, 1, 2])
        assert load_pgm(data).tolist() == [[False, True, True]]

    @pytest.mark.parametrize("threshold", [127])  # the one cut-off, 127/255 of maxval
    def test_maxval_255_is_a_plain_threshold(self, threshold):
        grid = np.arange(256, dtype=np.uint8).reshape(16, 16)
        np.testing.assert_array_equal(load_pgm(pgm_bytes(grid)), grid > threshold)

    def test_header_comment(self):
        data = b"P5\n# a comment\n3 2\n255\n" + bytes(6)
        assert load_pgm(data).shape == (2, 3)

    @pytest.mark.parametrize("header", [b"P5\n# a\n\n# b\n3 2\n255\n",
                                        b"P5\n# a\n  # b\n3 2\n255\n",
                                        b"P5 3#c\n2 255\n",
                                        b"P5\t#\n\x0b3\r\n# c\n\x0c2 #\n 255\r"],
                             ids=["blank-line-between-comments", "indented-comment",
                                  "comment-alone", "every-kind"])
    def test_separators_interleave(self, header):
        """Whitespace and comments separate the fields in any order."""
        grid = np.array([[0, 200, 0], [255, 0, 128]], np.uint8)
        np.testing.assert_array_equal(load_pgm(header + grid.tobytes()), grid > 127)

    @pytest.mark.parametrize("data", [b"P6\n2 2\n255\n" + bytes(4),
                                      b"P5\n2 2\n255\n\x00",
                                      b"P5\n2\n255\n" + bytes(4),
                                      b"P5\n2 2\n65535\n" + bytes(8),
                                      b"P5\n2 1\n255X" + bytes([255, 255]),
                                      b"P5\n2 1\n1\n" + bytes([1, 200]),
                                      b"P52 1\n255\n\x00\xff",
                                      b"P5\n2 1\n255#c\n" + bytes(2),
                                      pytest.param(b"P5 " + b"0" * 5000 + b"1 1 255\n\x00",
                                                   id="5000-digit-width")])
    def test_malformed(self, data):
        with pytest.raises(PgmFormatError):
            load_pgm(data)

    @pytest.mark.parametrize("data", [pgm_bytes(np.zeros((3, 5)))[:-1],
                                      b"P5\n5 3\n255\n",
                                      b"P5\n5 3\n255"])
    def test_truncated_pixels(self, data):
        """One byte short, or a header with no pixels after it."""
        with pytest.raises(PgmFormatError, match="^truncated pixel data$"):
            load_pgm(data)

    def test_bytes_after_the_pixels_are_ignored(self):
        grid = np.arange(15, dtype=np.uint8).reshape(3, 5) * 17
        np.testing.assert_array_equal(load_pgm(pgm_bytes(grid) + b"\xff" * 7), grid > 127)

    @pytest.mark.parametrize("view", [lambda m: m, lambda m: m[::2, ::3], lambda m: m[:1],
                                      lambda m: m.T,
                                      lambda m: (m.view(np.uint8) * np.uint8(255)).view(bool)],
                             ids=["contiguous", "strided", "1xN", "transposed", "bytes-0-255"])
    def test_save_bytes(self, view):
        """save_pgm writes what the cast-and-concatenate formula wrote, also
        for a bool array whose bytes are not 0 and 1."""
        m = view(np.random.default_rng(3).random((9, 14)) > 0.5)
        h, w = m.shape
        assert save_pgm(m) == f"P5\n{w} {h}\n255\n".encode() + (m.astype(np.uint8) * 255).tobytes()

    def test_save_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            save_pgm(np.ones(5, bool))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_save_rejects_zero_size(self, shape):
        # load_pgm rejects the header such a mask would get
        with pytest.raises(ValueError, match=r"mask must be at least 1x1, got shape \("):
            save_pgm(np.zeros(shape, bool))


class TestLargestComponent:
    def test_keeps_bigger_blob(self):
        m = np.zeros((8, 8), bool)
        m[1, 1:6] = True         # 5 px
        m[5, 1:4] = True         # 3 px
        out = largest_component(m)
        assert out[1].sum() == 5 and not out[5].any()

    def test_single_blob_identity(self):
        m = np.zeros((5, 5), bool)
        m[1:3, 1:3] = True
        np.testing.assert_array_equal(largest_component(m), m)

    def test_empty(self):
        m = np.zeros((4, 4), bool)
        assert not largest_component(m).any()

    def test_tie_breaks_by_scan_order(self):
        m = np.zeros((6, 6), bool)
        m[0, 0:2] = True
        m[4, 4:6] = True
        out = largest_component(m)
        assert out[0, 0] and not out[4, 4]

    def test_subset_of_input(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.random((16, 16)) > 0.6
            out = largest_component(m)
            assert not np.any(out & ~m)


def naive_dilate(mask, disc):
    r = disc.shape[0] // 2
    h, w = mask.shape
    out = np.zeros_like(mask)
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    if disc[di + r, dj + r] and 0 <= i + di < h and 0 <= j + dj < w:
                        out[i + di, j + dj] = True
    return out


def naive_erode(mask, disc):
    r = disc.shape[0] // 2
    h, w = mask.shape
    out = np.zeros_like(mask)
    for i in range(h):
        for j in range(w):
            ok = True
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    if not disc[di + r, dj + r]:
                        continue
                    ii, jj = i + di, j + dj
                    if not (0 <= ii < h and 0 <= jj < w and mask[ii, jj]):
                        ok = False
                        break
                if not ok:
                    break
            out[i, j] = ok
    return out


class TestMorphologicalSmooth:
    def test_radius_zero_identity(self):
        rng = np.random.default_rng(3)
        m = rng.random((10, 10)) > 0.5
        np.testing.assert_array_equal(morphological_smooth(m, 0), m)

    def test_removes_spike(self):
        m = np.zeros((14, 14), bool)
        m[2:12, 2:12] = True
        m[1, 6] = True  # 1-pixel spike on the top edge
        out = morphological_smooth(m, 1)
        assert not out[1, 6]
        assert out[3:11, 3:11].all()

    def test_matches_naive_morphology(self):
        # oracle works on a padded grid: the operators act on the whole
        # plane and the result is cropped back to the frame
        from beziermask.mask import _disc
        rng = np.random.default_rng(4)
        disc = _disc(1)
        for _ in range(10):
            m = ndimage.binary_dilation(rng.random((20, 20)) > 0.85)
            p = np.pad(m, 1)
            want = naive_dilate(naive_erode(p, disc), disc)          # opening
            want = naive_erode(naive_dilate(want, disc), disc)       # closing
            np.testing.assert_array_equal(morphological_smooth(m, 1),
                                          want[1:-1, 1:-1])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = ndimage.binary_dilation(rng.random((24, 24)) > 0.8)
            once = morphological_smooth(m, 1)
            np.testing.assert_array_equal(morphological_smooth(once, 1), once)

    def test_never_grows_beyond_dilation(self):
        from beziermask.mask import _disc
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = rng.random((16, 16)) > 0.7
            out = morphological_smooth(m, 1)
            grown = naive_dilate(m, _disc(1))
            assert not np.any(out & ~grown)


class TestTraceBoundary:
    def test_square_block_clockwise_from_top_left(self):
        m = np.zeros((4, 4), bool)
        m[1:3, 1:3] = True
        tr = trace_boundary(m)
        np.testing.assert_array_equal(
            tr.points, [[1.5, 1.5], [1.5, 2.5], [2.5, 2.5], [2.5, 1.5]])

    def test_single_pixel(self):
        m = np.zeros((3, 3), bool)
        m[1, 1] = True
        tr = trace_boundary(m)
        np.testing.assert_array_equal(tr.points, [[1.5, 1.5]])

    def test_object_on_border(self):
        m = np.ones((3, 3), bool)
        tr = trace_boundary(m)
        assert len(tr) == 8  # every pixel except the center

    def test_empty_raises(self):
        with pytest.raises(EmptyMaskError):
            trace_boundary(np.zeros((4, 4), bool))

    def test_multiple_components_raise(self):
        m = np.zeros((5, 5), bool)
        m[0, 0] = m[4, 4] = True
        with pytest.raises(DegenerateShapeError):
            trace_boundary(m)

    def test_points_unique(self):
        for seed in range(10):
            m = generate_shape(ShapeSpec("blob", 64, 64, seed, 0.6))
            pts = trace_boundary(m).points
            assert len(np.unique(pts, axis=0)) == len(pts)

    def test_matches_boundary_set_oracle(self):
        # traced pixel set == {foreground with bg 4-neighbor or on border}
        for seed in range(25):
            m = generate_shape(ShapeSpec("blob", 96, 96, 100 + seed, 0.7))
            got = set(map(tuple, trace_boundary(m).points))
            want = set(map(tuple, boundary_points(m)))
            assert got == want

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 3), ()])
    def test_boundary_points_rejects_masks_not_2d(self, shape):
        with pytest.raises(ValueError, match="mask must be 2-D"):
            boundary_points(np.ones(shape, bool))

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 3), (), (0,)])
    @pytest.mark.parametrize("name", ["largest_component", "morphological_smooth", "trace_boundary",
                                      "trace_object", "encode_mask", "sensitivity_sweep"])
    def test_mask_steps_reject_masks_not_2d(self, name, shape):
        call = {"largest_component": largest_component,
                "morphological_smooth": lambda m: morphological_smooth(m, 1),
                "trace_boundary": trace_boundary,
                "trace_object": trace_object,
                "encode_mask": encode_mask,
                "sensitivity_sweep": lambda m: sensitivity_sweep([m], [0.0], 1)}[name]
        with pytest.raises(ValueError, match=r"mask must be 2-D, got shape \("):
            call(np.ones(shape, bool))

    @pytest.mark.parametrize("name", ["trace_object", "encode_mask"])
    def test_negative_smoothing_radius_is_rejected(self, name):
        # the same error as morphological_smooth's
        call = {"trace_object": trace_object,
                "encode_mask": lambda m, r: encode_mask(m, smooth_radius=r)}[name]
        m = generate_shape(ShapeSpec("blob", 64, 64, 1, 0.6))
        with pytest.raises(ValueError, match="radius must be >= 0"):
            call(m, -1)

    @pytest.mark.parametrize("name", ["trace_object", "morphological_smooth", "encode_mask"])
    def test_smoothing_radius_must_be_an_integer(self, name):
        # rejected at the entry, naming the radius, and not inside the
        # smoothing's integer arithmetic
        call = {"trace_object": trace_object,
                "morphological_smooth": morphological_smooth,
                "encode_mask": lambda m, r: encode_mask(m, 5, r)}[name]
        m = generate_shape(ShapeSpec("blob", 64, 64, 1, 0.6))
        with pytest.raises(TypeError, match="^radius must be an integer, not float$"):
            call(m, 1.5)

    def test_numpy_integer_radius_keeps_outputs(self):
        m = generate_shape(ShapeSpec("blob", 64, 64, 1, 0.6))
        for r in (0, 1, 2):
            got, want = trace_object(m, np.int64(r)).points, trace_object(m, r).points
            assert got.dtype == want.dtype and np.array_equal(got, want)
            got, want = morphological_smooth(m, np.int64(r)), morphological_smooth(m, r)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_trace_object_memory_is_a_few_bytes_of_the_box(self):
        # labelling and the trace work on the runs found on the frame's
        # rows packed 64 pixels to a word: the packed rows and their
        # change words, one bit per frame pixel each, are the peak, about
        # 0.28 B per frame pixel; int32 labels of the foreground's
        # bounding box (0.36 of this frame) alone would take 1.44
        size = 4096
        m = generate_shape(ShapeSpec("blob", size, size, 1, 0.6))
        tracemalloc.start()
        try:
            trace = trace_object(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) > 1000
        assert peak < 1.5 * size * size

    @pytest.mark.parametrize("speck, bound", [(False, 1.0), (True, 1.0)], ids=["blob", "corner-speck"])
    def test_trace_object_walks_one_grid(self, speck, bound):
        # the trace follows the cracks of the kept runs alone, in
        # O(runs + boundary) bytes, so the peak is the packed rows and
        # their change words, one bit per frame pixel each, about 0.28 B
        # per frame pixel; the speck widens the foreground's bounding box
        # from 0.36 to 0.67 of this frame, which must not cost memory
        size = 4096
        m = generate_shape(ShapeSpec("blob", size, size, 1, 0.6))
        if speck:
            assert not m[:6, :6].any()
            m[2:4, 2:4] = True
        tracemalloc.start()
        try:
            trace = trace_object(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) > 1000
        assert peak < bound * size * size


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (1, 1), (3, 4)])
def test_all_background_outcomes(shape):
    """Empty and zero-size masks: empty frames of the mask's shape, no
    components, no boundary, EmptyMaskError from the traces and the
    degenerate scores of an empty pair."""
    m = np.zeros(shape, bool)
    for out in [largest_component(m)] + [morphological_smooth(m, r) for r in range(3)]:
        assert out.dtype == bool and out.shape == shape and not out.any()
    assert _component_count(m) == 0
    points = boundary_points(m)
    assert points.dtype == np.float64 and points.shape == (0, 2)
    with pytest.raises(EmptyMaskError, match="^cannot trace an empty mask$"):
        trace_boundary(m)
    with pytest.raises(EmptyMaskError, match="^cannot encode an empty mask$"):
        trace_object(m)
    assert compare_masks(m, m) == MetricsReport(iou=1.0, hausdorff=0.0, mcc=0.0,
                                                 fp_rate=0.0, fn_rate=0.0)
    assert confusion(m, m) == ConfusionCounts(tp=0, tn=m.size, fp=0, fn=0)


def point_in_polygon(px, py, verts):
    # ray cast to the left, half-open on vertices
    inside = False
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        if min(y1, y2) <= py < max(y1, y2):
            x = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if x <= px:
                inside = not inside
    return inside


class TestRasterizePolygon:
    def test_axis_aligned_square(self):
        square = [(1, 1), (5, 1), (5, 5), (1, 5)]
        out = rasterize_polygon(square, 8, 8)
        assert out.sum() == 16
        assert out[1:5, 1:5].all()

    def test_polygon_outside_frame(self):
        out = rasterize_polygon([(20, 20), (30, 20), (25, 30)], 8, 8)
        assert not out.any()

    def test_full_frame_rectangle(self):
        out = rasterize_polygon([(0, 0), (8, 0), (8, 6), (0, 6)], 8, 6)
        assert out.all()

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            rasterize_polygon([(0, 0), (1, 1)], 4, 4)

    def test_matches_point_in_polygon_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = rng.integers(3, 8)
            verts = rng.uniform(-2, 18, (k, 2))
            out = rasterize_polygon(verts, 16, 16)
            for r in range(16):
                for c in range(16):
                    assert out[r, c] == point_in_polygon(c + 0.5, r + 0.5, verts)

    def test_convex_blob_roundtrip_iou(self, disc_mask):
        tr = trace_boundary(disc_mask)
        out = rasterize_polygon(tr.points, 64, 64)
        inter = np.sum(out & disc_mask)
        union = np.sum(out | disc_mask)
        assert inter / union >= 0.9


def outline_pixels(verts, width, height):
    """Pixels under every vertex and under the 0.5-px sampling of each
    edge: an edge of length L > 0.5 gets n - 1 interior points at
    fractions k / n, n = ceil(L / 0.5)."""
    verts = np.asarray(verts, dtype=float)
    out = np.zeros((height, width), bool)
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        pts = [a]
        length = math.hypot(*(b - a))
        if length > 0.5:
            n = math.ceil(length / 0.5)
            pts += [a + (k / n) * (b - a) for k in range(1, n)]
        for x, y in pts:
            c, r = math.floor(x), math.floor(y)
            if 0 <= c < width and 0 <= r < height:
                out[r, c] = True
    return out


def oracle_fill(verts, width, height):
    return np.array([[point_in_polygon(c + 0.5, r + 0.5, verts)
                      for c in range(width)] for r in range(height)])


# Half-integer vertices with power-of-two rises put crossings exactly on
# pixel centers in exact arithmetic, so the half-open rules decide.
POLYGONS = {
    "diamond_on_centers": [(4.5, 0.5), (8.5, 4.5), (4.5, 8.5), (0.5, 4.5)],
    "rectangle_on_centers": [(1.5, 2.5), (7.5, 2.5), (7.5, 6.5), (1.5, 6.5)],
    "triangle_horizontal_edge": [(1.5, 1.5), (9.5, 1.5), (5.5, 9.5)],
    "integer_staircase": [(1, 1), (5, 1), (5, 3), (3, 3), (3, 6), (1, 6)],
    "bow_tie": [(0.5, 0.5), (8.5, 8.5), (8.5, 0.5), (0.5, 8.5)],
    "pentagram": [(5 + 4.5 * math.sin(4 * math.pi * k / 5),
                   5 - 4.5 * math.cos(4 * math.pi * k / 5)) for k in range(5)],
    "off_frame_diamond": [(-3.5, 4.5), (4.5, -3.5), (12.5, 4.5), (4.5, 12.5)],
    "covers_frame": [(-20.0, -20.0), (40.0, -19.0), (10.0, 45.0)],
    "outside_frame": [(20.0, 20.0), (30.0, 20.0), (25.0, 30.0)],
    "degenerate_edges": [(2.0, 2.0), (2.0, 2.0), (2.3, 2.2), (7.0, 2.0), (4.0, 8.0)],
    # long edges that cross the frame at shallow angles, and an edge lying
    # on x = -1, the border of the frame widened by one pixel
    "far_vertices": [(3.5, 2.5), (4000.3, 5.5), (6.5, -3000.7), (-2500.2, 7.25)],
    "on_widened_border": [(-1.0, -5.0), (-1.0, 30.0), (4.5, 4.5)],
}
FRAMES = [(10, 10), (1, 10), (10, 1), (1, 1), (13, 7)]


class TestPolygonToMask:
    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("name", sorted(POLYGONS))
    def test_matches_oracles(self, name, frame):
        verts = POLYGONS[name]
        w, h = frame
        fill = oracle_fill(verts, w, h)
        np.testing.assert_array_equal(rasterize_polygon(verts, w, h), fill)
        got = polygon_to_mask(verts, w, h)
        assert got.dtype == bool and got.shape == (h, w)
        np.testing.assert_array_equal(got, fill | outline_pixels(verts, w, h))

    @pytest.mark.parametrize("fn", [rasterize_polygon, polygon_to_mask])
    @pytest.mark.parametrize("shape", [(3, 3), (3, 1)])
    def test_vertices_must_be_n_by_2(self, fn, shape):
        verts = np.arange(np.prod(shape), dtype=float).reshape(shape)
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            fn(verts, 8, 8)

    def test_random_polygons_match_oracles(self):
        rng = np.random.default_rng(9)
        for w, h in [(16, 16), (1, 24), (24, 1), (9, 30)]:
            for _ in range(8):
                verts = rng.uniform(-3, max(w, h) + 3, (rng.integers(3, 10), 2))
                want = oracle_fill(verts, w, h) | outline_pixels(verts, w, h)
                np.testing.assert_array_equal(polygon_to_mask(verts, w, h), want)

    def test_decoded_contour_matches_oracles(self, blob_masks):
        from beziermask.fitting import decode_contour, encode_mask, scale_contour
        contour, _ = encode_mask(blob_masks[0])
        poly = decode_contour(scale_contour(contour, 48, 40), 16)
        want = oracle_fill(poly, 48, 40) | outline_pixels(poly, 48, 40)
        np.testing.assert_array_equal(polygon_to_mask(poly, 48, 40), want)

    def test_memory_stays_flat(self):
        # a 1024^2 blob; the frame-sized work arrays are single bytes
        size = 1024
        theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        r = 300.0 + 40.0 * np.cos(5 * theta)
        verts = 512.0 + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        tracemalloc.start()
        try:
            out = polygon_to_mask(verts, size, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.sum() > 0.2 * size * size
        assert peak < 4 * size * size
        # the fill writes its output frames directly, so besides them it
        # holds only O(crossings) bytes, alone and as a stack
        for stack in (verts, np.stack([verts] * 3)):
            tracemalloc.start()
            try:
                out = rasterize_polygon(stack, size, size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * out.size

    def test_far_vertices_cost_what_the_frame_costs(self):
        # unclipped, these 1e12-px edges would need 4e12 outline points; in
        # the frame the outline runs along row 2 and up column 3
        verts = [(3.5, 2.5), (1e12, 5.5), (6.5, -1e12)]
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = polygon_to_mask(verts, 10, 10)
                polygon_to_mask(POLYGONS["on_widened_border"], 10, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = oracle_fill(verts, 10, 10)
        want[2, 3:] = want[:3, 3] = True
        np.testing.assert_array_equal(got, want)
        assert peak < 10**5

    def test_subnormal_edge_step_warns_nothing(self):
        # the slab clip divides by the 1e-310 x step of the first edge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = polygon_to_mask([[1e-310, 1], [0, 30], [100, 10]], 8, 8)
        assert got.sum() == 56


@st.composite
def polygon_stacks(draw):
    """(stack, width, height): frames down to 1 x N and N x 1, and stacks
    that mix polygons inside the frame widened by one pixel with polygons
    reaching far outside it, with vertices on that widened border and NaN."""
    w, h = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    w, h = draw(st.sampled_from([(w, h), (1, h), (w, 1)]))
    count, n = draw(st.integers(1, 4)), draw(st.integers(3, 7))
    special = st.sampled_from([-1.0, w + 1.0, h + 1.0, np.nan])
    inside = st.one_of(st.floats(-1.0, min(w, h) + 1.0), special)
    anywhere = st.one_of(st.floats(-4.0 * max(w, h), 4.0 * max(w, h)),
                         st.floats(-1e9, 1e9), special)
    stack = [draw(st.lists(draw(st.sampled_from([inside, anywhere])),
                           min_size=2 * n, max_size=2 * n)) for _ in range(count)]
    return np.array(stack).reshape(count, n, 2), w, h


class TestPolygonStacks:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(polygon_stacks())
    def test_slices_equal_single_calls(self, case):
        stack, w, h = case
        for fn in (rasterize_polygon, polygon_to_mask):
            got = fn(stack, w, h)
            assert got.dtype == bool and got.shape == (len(stack), h, w)
            for raster, verts in zip(got, stack):
                np.testing.assert_array_equal(raster, fn(verts, w, h))

    @pytest.mark.parametrize("fn", [rasterize_polygon, polygon_to_mask])
    def test_stack_shapes_are_checked(self, fn):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            fn(np.zeros((4, 2, 2)), 8, 8)
        for shape in [(4, 5, 3), (1, 4, 5, 2)]:
            with pytest.raises(ValueError, match=r"\(B, n, 2\)"):
                fn(np.zeros(shape), 8, 8)
        assert fn(np.zeros((0, 3, 2)), 8, 5).shape == (0, 5, 8)

    @pytest.mark.parametrize("fn", [rasterize_polygon, polygon_to_mask])
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
    @pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["+inf", "-inf"])
    def test_infinite_vertices_are_rejected(self, fn, stacked, axis, value):
        # unchecked, the fill meets inf - inf and a NaN crossing shapes the raster
        verts = np.array([(1.0, 1.0), (6.0, 1.0), (6.0, 6.0), (1.0, 6.0)])
        verts[3, axis] = value
        if stacked:
            verts = np.stack([verts + 0.5, verts])
        with pytest.raises(ValueError, match="vertices must not be infinite"):
            fn(verts, 8, 8)


def test_import_leaves_out_scipy_sparse_graphs():
    """Labelling needs no graph library: importing scipy.sparse.csgraph
    also loads scipy.sparse.linalg, about 3 MB of RSS in every process."""
    env = dict(os.environ, PYTHONPATH=str(Path(beziermask.__file__).parents[1]))
    code = ("import sys, beziermask; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert "scipy.sparse.csgraph" not in out and "scipy.sparse.linalg" not in out


def test_import_leaves_out_scipy():
    """Encoding, decoding and the command line need numpy only: scipy's
    k-d tree is imported by a Hausdorff distance whose row bands hold too
    many points (noise, dissimilar sets), when it is first taken."""
    env = dict(os.environ, PYTHONPATH=str(Path(beziermask.__file__).parents[1]))
    code = ("import sys, beziermask, beziermask.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def integer_calls():
    """(name, call(value)) for every entry that takes an integer count or
    size, each given the value in that argument and valid others; each
    call returns an array of its output."""
    from beziermask.bezier import basis_matrix
    from beziermask.decoder import contour_loss, sample_parameters
    from beziermask.experiments import blob_corpus, polygon_baseline
    from beziermask.fitting import decode_contour, fit_arc
    m = generate_shape(ShapeSpec("blob", 64, 64, 1, 0.6))
    contour, other = encode_mask(m)[0], encode_mask(generate_shape(ShapeSpec("ellipse", 64, 64, 2, 0.6)))[0]
    triangle = np.array([(1.0, 1.0), (6.0, 1.0), (3.0, 6.0)])
    trace = trace_boundary(m)
    return [
        ("degree", lambda v: encode_mask(m, v)[0].control_points),
        ("degree", lambda v: fit_arc(trace.points[:20], v)[0].control_points),
        ("degree", lambda v: basis_matrix(v, np.linspace(0.0, 1.0, 7))),
        ("samples_per_segment", lambda v: decode_contour(contour, v)),
        ("width", lambda v: rasterize_polygon(triangle, v, 8)),
        ("height", lambda v: polygon_to_mask(triangle, 8, v)),
        ("n", lambda v: sample_parameters(v, 0).ts),
        ("n", lambda v: contour_loss(other, contour, n=v).gradient),
        ("k", lambda v: polygon_baseline(trace, v)),
        ("width", lambda v: generate_shape(ShapeSpec("blob", v, 16, 1))),
        ("height", lambda v: generate_shape(ShapeSpec("blob", 16, v, 1))),
        ("seed", lambda v: generate_shape(ShapeSpec("blob", 16, 16, v))),
        ("count", lambda v: np.array(blob_corpus(v, 0))),
        ("trials", lambda v: sensitivity_sweep([m], [0.5], v).miou_bezier),
        ("seed", lambda v: sample_parameters(8, v).ts),
        ("seed", lambda v: contour_loss(other, contour, seed=v).gradient),
    ]


@pytest.mark.parametrize("value", [2.5, 2.0, "8"])
def test_integer_arguments_are_checked_at_the_entry(value):
    # one rule (errors._integer), naming the argument, and not an error
    # from inside numpy's shape or sampling code
    for name, call in integer_calls():
        with pytest.raises(TypeError, match=f"^{name} must be an integer, not {type(value).__name__}$"):
            call(value)


def test_numpy_integer_arguments_keep_outputs():
    sizes = {"degree": 3, "samples_per_segment": 16, "width": 8, "height": 8, "n": 24, "k": 6,
             "seed": 5, "count": 2, "trials": 2}
    for name, call in integer_calls():
        got, want = call(np.int64(sizes[name])), call(sizes[name])
        assert got.dtype == want.dtype and np.array_equal(got, want), name
