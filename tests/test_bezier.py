import numpy as np
import pytest
from hypothesis import given, strategies as st

from beziermask import BezierSegment, basis_matrix, eval_de_casteljau
from beziermask.bezier import MAX_DEGREE

CUBIC = BezierSegment([[0, 0], [0, 1], [1, 1], [1, 0]])


def test_basis_endpoints():
    np.testing.assert_array_equal(basis_matrix(5, [0.0])[0], [1, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(basis_matrix(5, [1.0])[0], [0, 0, 0, 0, 0, 1])


def test_basis_cubic_midpoint():
    np.testing.assert_allclose(basis_matrix(3, [0.5])[0],
                               [0.125, 0.375, 0.375, 0.125], atol=0)


@given(st.integers(min_value=1, max_value=9),
       st.floats(min_value=0.0, max_value=1.0))
def test_basis_partition_of_unity(n, t):
    b = basis_matrix(n, [t])[0]
    assert np.all(b >= 0)
    assert abs(b.sum() - 1.0) <= 1e-12


def test_basis_rejects_bad_args():
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        basis_matrix(0, [0.5])
    with pytest.raises(ValueError):
        basis_matrix(3, [1.5])
    with pytest.raises(ValueError):
        basis_matrix(3, [-0.1])
    with pytest.raises(ValueError, match="degree must be <= 20, got 21"):
        basis_matrix(21, [0.5])
    for ts in ([np.nan], [0.5, np.nan, 0.25]):
        with pytest.raises(ValueError):
            basis_matrix(3, np.array(ts))


def test_basis_is_a_row_of_the_basis_matrix():
    # one formula serves scalars and batches, bitwise, also at t near 0 and 1
    ts = np.array([0.0, 1e-300, 0.25, 0.5, 1.0 - 1e-16, 1.0])
    for degree in range(1, MAX_DEGREE + 1):
        rows = basis_matrix(degree, ts)
        for t, row in zip(ts, rows):
            assert np.array_equal(basis_matrix(degree, [t])[0], row), (degree, t)


def test_eval_cubic_midpoint():
    np.testing.assert_allclose(basis_matrix(3, [0.5]) @ CUBIC.control_points, [(0.5, 0.75)])


def test_eval_endpoint_interpolation():
    rng = np.random.default_rng(0)
    seg = BezierSegment(rng.uniform(-50, 50, (6, 2)))
    ends = basis_matrix(5, [0.0, 1.0]) @ seg.control_points
    np.testing.assert_array_equal(ends, seg.control_points[[0, -1]])


def test_linear_precision():
    # evenly spaced collinear control points reproduce the uniform line
    pts = np.stack([np.linspace(0, 10, 6), np.zeros(6)], axis=1)
    seg = BezierSegment(pts)
    np.testing.assert_allclose(basis_matrix(5, [0.3]) @ seg.control_points, [(3.0, 0.0)],
                               atol=1e-12)


def test_de_casteljau_matches_bernstein():
    np.testing.assert_allclose(eval_de_casteljau(CUBIC, 0.5), (0.5, 0.75))
    rng = np.random.default_rng(7)
    for _ in range(20):
        seg = BezierSegment(rng.uniform(-100, 100, (6, 2)))
        for t in rng.uniform(0, 1, 100):
            d = eval_de_casteljau(seg, t) - basis_matrix(5, [t])[0] @ seg.control_points
            assert np.abs(d).max() < 1e-10


def test_de_casteljau_degree_one():
    seg = BezierSegment([[0, 0], [4, 2]])
    np.testing.assert_allclose(eval_de_casteljau(seg, 0.25), (1.0, 0.5))


def test_sample_endpoints_and_order():
    out = basis_matrix(3, [0.0, 1.0]) @ CUBIC.control_points
    np.testing.assert_array_equal(out[0], CUBIC.control_points[0])
    np.testing.assert_array_equal(out[1], CUBIC.control_points[-1])
    assert (basis_matrix(3, []) @ CUBIC.control_points).shape == (0, 2)


def test_sample_degenerate_segment():
    seg = BezierSegment(np.full((4, 2), 3.0))
    out = basis_matrix(3, np.linspace(0, 1, 10)) @ seg.control_points
    np.testing.assert_allclose(out, 3.0)


def test_sample_cubic_midpoint_of_uniform_grid():
    ts = np.linspace(0, 1, 129)
    out = basis_matrix(3, ts) @ CUBIC.control_points
    np.testing.assert_allclose(out[64], (0.5, 0.75))


def test_convex_hull_property():
    from scipy.spatial import ConvexHull
    rng = np.random.default_rng(3)
    for _ in range(10):
        seg = BezierSegment(rng.uniform(-10, 10, (6, 2)))
        hull = ConvexHull(seg.control_points)
        pts = basis_matrix(5, rng.uniform(0, 1, 50)) @ seg.control_points
        for eq in hull.equations:
            assert np.all(pts @ eq[:2] + eq[2] <= 1e-9)


def test_segment_validation():
    with pytest.raises(ValueError):
        BezierSegment([[0, 0]])
    with pytest.raises(ValueError):
        BezierSegment([[0, 0], [np.nan, 1]])
