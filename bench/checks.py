"""Correctness checks for the benchmark's outputs.

Every reference here is computed apart from beziermask, from numpy and
scipy directly: the component scan, the even-odd point test, the pixel
IoU, the cKDTree Hausdorff distance, the de Casteljau loss and its
finite differences. A check raises CheckFailed with a reason.
"""

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

# Decoded contours must cover their source object at least this well,
# scored by the center-inside test, which drops the half-pixel rim the
# program's outline restores. The lowest on seeds 1-20 of the 256²
# corpora is 0.933.
FIDELITY_FLOOR = 0.88
# A pixel counts as under an edge if the edge passes within this of its
# closed square, so a sample that rounding puts on the far side of a
# pixel corner the edge runs through is still under the edge.
EDGE_SLACK = 1e-9
FD_STEP = 1e-5
FD_TOLERANCE = 1e-5   # relative norm error of the analytic gradient
LOSS_RTOL = 1e-9

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


class CheckFailed(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- pixels

def largest_component(mask):
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    expect(count > 0, "source mask is empty")
    sizes = np.bincount(labels.ravel())[1:]
    return labels == int(np.argmax(sizes)) + 1


def extreme_pixels(mask):
    """Top, leftmost, bottom, rightmost pixel centers of the largest
    component, ties broken toward the top-left, bottom-left,
    bottom-right and top-right corner."""
    rows, cols = np.nonzero(largest_component(mask))
    r = rows.min()
    top = (cols[rows == r].min(), r)
    c = cols.min()
    left = (c, rows[cols == c].max())
    r = rows.max()
    bottom = (cols[rows == r].max(), r)
    c = cols.max()
    right = (c, rows[cols == c].min())
    return np.array([top, left, bottom, right], dtype=float) + 0.5


def even_odd_fill(poly, width, height):
    """Pixels whose center a rightward ray leaves the polygon from an
    odd number of times (crossing-number test, one row at a time)."""
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    centers = np.arange(width) + 0.5
    out = np.zeros((height, width), dtype=bool)
    for r in range(height):
        y = r + 0.5
        hit = (y1 > y) != (y2 > y)
        if not hit.any():
            continue
        xs = np.sort(x1[hit] + (y - y1[hit]) * (x2[hit] - x1[hit]) / (y2[hit] - y1[hit]))
        right_of = xs.size - np.searchsorted(xs, centers, side="right")
        out[r] = right_of % 2 == 1
    return out


def edge_cells(poly, width, height):
    """In-frame pixels that the closed polygon's edges pass through or
    touch. Each edge is cut where it crosses a pixel row or column line;
    the midpoint of every piece and, nudged by EDGE_SLACK each way, every
    cut point and vertex are floored to their pixel."""
    a = np.asarray(poly, dtype=float)
    b = np.roll(a, -1, axis=0)
    nudges = np.array([[0.0, 0.0], [1, 1], [1, -1], [-1, 1], [-1, -1]]) * EDGE_SLACK
    pts = []
    for p, q in zip(a, b):
        d = q - p
        ts = [np.array([0.0, 1.0])]
        for axis in (0, 1):
            if d[axis]:
                lo, hi = sorted((p[axis], q[axis]))
                ts.append((np.arange(np.ceil(lo), np.floor(hi) + 1) - p[axis]) / d[axis])
        t = np.unique(np.clip(np.concatenate(ts), 0.0, 1.0))
        cuts = p + t[:, None] * d
        pts.append((cuts[:, None, :] + nudges).reshape(-1, 2))
        pts.append(p + ((t[:-1] + t[1:]) / 2)[:, None] * d)
    pts = np.floor(np.concatenate(pts)).astype(int)
    keep = (pts[:, 0] >= 0) & (pts[:, 0] < width) & (pts[:, 1] >= 0) & (pts[:, 1] < height)
    out = np.zeros((height, width), dtype=bool)
    out[pts[keep, 1], pts[keep, 0]] = True
    return out


def pixel_iou(a, b):
    union = np.count_nonzero(a | b)
    return np.count_nonzero(a & b) / union if union else 1.0


def boundary_centers(mask):
    """Foreground pixel centers with a background 4-neighbour or on the frame edge."""
    edge = mask & ~ndimage.binary_erosion(mask, structure=_CROSS, border_value=0)
    rows, cols = np.nonzero(edge)
    return np.stack([cols + 0.5, rows + 0.5], axis=1)


def kdtree_hausdorff(a, b):
    return max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())


# ---------------------------------------------------------------- contours

def junctions(contour):
    return np.array([seg.control_points[0] for seg in contour.segments])


def check_extremes(contour, mask):
    got, want = junctions(contour), extreme_pixels(mask)
    expect(np.array_equal(got, want),
           f"junctions {got.tolist()} are not the extreme pixels {want.tolist()}")


def check_json_roundtrip(contour, parsed):
    expect((parsed.width, parsed.height, parsed.degree)
           == (contour.width, contour.height, contour.degree),
           "JSON changed the frame or degree")
    for a, b in zip(contour.segments, parsed.segments):
        expect(a.control_points.tobytes() == b.control_points.tobytes(),
               "JSON round trip changed a control point")


def check_fidelity(poly, mask):
    """IoU of the decoded polygon's own even-odd fill against the object."""
    h, w = mask.shape
    score = pixel_iou(even_odd_fill(poly, w, h), largest_component(mask))
    expect(score >= FIDELITY_FLOOR,
           f"decoded contour IoU {score:.4f} below {FIDELITY_FLOOR}")
    return score


def check_raster(raster, poly, source=None):
    """polygon_to_mask(poly) is the polygon's even-odd fill plus the
    pixels its outline passes through: every pixel whose center is
    inside is set, every pixel holding a vertex is set, and every other
    set pixel lies under an edge. With a source mask, the raster must
    also cover the source's object to FIDELITY_FLOOR."""
    h, w = raster.shape
    fill = even_odd_fill(poly, w, h)
    expect(not np.any(fill & ~raster), f"raster misses {np.count_nonzero(fill & ~raster)} "
           "pixels whose centers are inside the polygon")
    vertices = np.floor(np.asarray(poly, dtype=float)).astype(int)
    inside = ((vertices[:, 0] >= 0) & (vertices[:, 0] < w)
              & (vertices[:, 1] >= 0) & (vertices[:, 1] < h))
    missing = ~raster[vertices[inside, 1], vertices[inside, 0]]
    expect(not missing.any(), f"raster leaves out {np.count_nonzero(missing)} "
           "pixels that hold a polygon vertex")
    stray = raster & ~fill & ~edge_cells(poly, w, h)
    expect(not stray.any(), f"raster sets {np.count_nonzero(stray)} pixels "
           "off the polygon and its edges")
    if source is not None:
        score = pixel_iou(raster, largest_component(source))
        expect(score >= FIDELITY_FLOOR, f"raster IoU {score:.4f} below {FIDELITY_FLOOR}")


def check_metrics(report, pred, gt):
    want = pixel_iou(pred, gt)
    expect(report.iou == want, f"IoU {report.iou!r} != pixel count {want!r}")
    hd = kdtree_hausdorff(boundary_centers(pred), boundary_centers(gt))
    expect(np.isclose(report.hausdorff, hd, rtol=1e-12, atol=1e-12),
           f"Hausdorff {report.hausdorff!r} != cKDTree {hd!r}")


def check_sweep_at_zero(curve, deltas, clean_bezier, clean_polygon):
    """The delta-0 entries score the clean round trip and the clean polygon."""
    zero = int(np.flatnonzero(np.asarray(deltas) == 0)[0])
    for got, want, what in ((curve.miou_bezier[zero], clean_bezier, "bezier"),
                            (curve.miou_polygon[zero], clean_polygon, "polygon")):
        expect(np.isclose(got, want, rtol=1e-12, atol=0.0),
               f"{what} IoU at delta 0 is {got!r}, clean round trip gives {want!r}")
    for values in (curve.miou_bezier, curve.miou_polygon):
        expect(values.shape == (len(deltas),) and np.all((values >= 0) & (values <= 1)),
               "sweep IoUs outside [0, 1]")


# ---------------------------------------------------------------- loss

def vector(contour):
    """The 40-vector: 4 extreme points, then each segment's 4 interior points."""
    cps = [seg.control_points for seg in contour.segments]
    return np.concatenate([np.ravel([c[0] for c in cps])]
                          + [c[1:5].ravel() for c in cps])


def control_points(vec):
    vec = np.asarray(vec, dtype=float)
    ext = vec[:8].reshape(4, 2)
    cps = np.empty((4, 6, 2))
    for k in range(4):
        cps[k, 0], cps[k, 5] = ext[k], ext[(k + 1) % 4]
        cps[k, 1:5] = vec[8 + 8 * k:16 + 8 * k].reshape(4, 2)
    return cps


def _smooth_l1(d):
    a = np.abs(d)
    return np.where(a < 1.0, 0.5 * d * d, a - 0.5).mean()


def reference_loss(pred_vec, gt_vec, ts, ids, width, height):
    """contour_loss recomputed by de Casteljau evaluation (beta = 1, unit weights)."""
    scale = np.array([1.0 / width, 1.0 / height])
    l_ce = _smooth_l1((pred_vec - gt_vec).reshape(-1, 2) * scale)
    pts = []
    for vec in (pred_vec, gt_vec):
        p = control_points(vec)[ids]
        t = ts[:, None, None]
        while p.shape[1] > 1:
            p = (1.0 - t) * p[:, :-1] + t * p[:, 1:]
        pts.append(p[:, 0])
    l_match = _smooth_l1((pts[0] - pts[1]) * scale)
    return l_ce + l_match, l_ce, l_match


def check_loss(value, pred, gt, ts, ids):
    got = (value.total, value.l_ce, value.l_matching)
    want = reference_loss(vector(pred), vector(gt), ts, ids, pred.width, pred.height)
    expect(np.allclose(got, want, rtol=LOSS_RTOL, atol=0.0),
           f"loss terms {got} != reference {want}")


def check_gradient(gradient, pred, gt, ts, ids):
    """Analytic gradient against central differences of the reference loss."""
    base, target = vector(pred), vector(gt)
    fd = np.empty(40)
    for i in range(40):
        hi, lo = base.copy(), base.copy()
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        fd[i] = (reference_loss(hi, target, ts, ids, pred.width, pred.height)[0]
                 - reference_loss(lo, target, ts, ids, pred.width, pred.height)[0]) / (2 * FD_STEP)
    err = np.linalg.norm(gradient - fd) / max(np.linalg.norm(fd), 1e-300)
    expect(err < FD_TOLERANCE, f"gradient relative error {err:.2e} vs finite differences")


def check_zero_loss(value):
    expect(value.total == 0.0 and not np.any(value.gradient),
           f"loss(gt, gt) = {value.total!r} with gradient norm "
           f"{np.linalg.norm(value.gradient):.3g}")
