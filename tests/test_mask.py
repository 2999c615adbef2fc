import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import ndimage

from beziermask import (DegenerateShapeError, EmptyMaskError, PgmFormatError,
                        boundary_points, largest_component, load_pgm,
                        morphological_smooth, polygon_to_mask,
                        rasterize_polygon, save_pgm, trace_boundary)
from beziermask.experiments import ShapeSpec, generate_shape


def pgm_bytes(grid):
    grid = np.asarray(grid, dtype=np.uint8)
    h, w = grid.shape
    return f"P5\n{w} {h}\n255\n".encode() + grid.tobytes()


class TestPgm:
    def test_all_foreground(self):
        m = load_pgm(pgm_bytes(np.full((4, 4), 255)), threshold=127)
        assert m.all() and m.shape == (4, 4)

    def test_all_background(self):
        assert not load_pgm(pgm_bytes(np.zeros((4, 4)))).any()

    def test_threshold_is_strict(self):
        m = load_pgm(pgm_bytes(np.full((2, 2), 127)), threshold=127)
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
        assert load_pgm(data, threshold=127).tolist() == [[False, True, True]]
        assert load_pgm(data, threshold=128).tolist() == [[False, False, True]]

    @pytest.mark.parametrize("threshold", [0, 1, 127, 200, 254])
    def test_maxval_255_is_a_plain_threshold(self, threshold):
        grid = np.arange(256, dtype=np.uint8).reshape(16, 16)
        np.testing.assert_array_equal(load_pgm(pgm_bytes(grid), threshold),
                                      grid > threshold)

    def test_header_comment(self):
        data = b"P5\n# a comment\n3 2\n255\n" + bytes(6)
        assert load_pgm(data).shape == (2, 3)

    @pytest.mark.parametrize("data", [b"P6\n2 2\n255\n" + bytes(4),
                                      b"P5\n2 2\n255\n\x00",
                                      b"P5\n2\n255\n" + bytes(4),
                                      b"P5\n2 2\n65535\n" + bytes(8)])
    def test_malformed(self, data):
        with pytest.raises(PgmFormatError):
            load_pgm(data)


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
        assert tr.closed

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
