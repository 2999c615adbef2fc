"""Pixel-domain operations on binary masks.

Masks are boolean numpy arrays of shape (height, width), True for
foreground. Continuous coordinates use the pixel-center convention:
pixel (row r, col c) sits at (x = c + 0.5, y = r + 0.5), with y growing
downward. Foreground is 8-connected, background 4-connected.

Labelling, tracing and boundary extraction work on the bounding box of
the foreground, found by two any() reductions over the frame, so their
cost follows the object rather than the frame.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DegenerateShapeError, EmptyMaskError, PgmFormatError

_STRUCT_8 = np.ones((3, 3), dtype=bool)
_STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass
class BoundaryTrace:
    """Ordered boundary pixel centers of a single object.

    points: (m, 2) array of (x, y); closed traces wrap implicitly.
    """

    points: np.ndarray
    closed: bool = True

    def __len__(self):
        return len(self.points)


def load_pgm(data: bytes, threshold: int = 127) -> np.ndarray:
    """Parse a binary (P5) 8-bit PGM into a boolean mask.

    threshold is on the 0-255 scale: a pixel is foreground iff
    value / maxval > threshold / 255, so a 0/1 label map (maxval 1)
    loads like a 0/255 one.
    """
    if not data.startswith(b"P5"):
        raise PgmFormatError("not a binary PGM (missing P5 magic)")
    # Header tokens may be separated by whitespace and '#' comments.
    pos = 2
    fields = []
    while len(fields) < 3:
        m = re.compile(rb"\s*(?:#[^\n]*\n)*\s*(\d+)").match(data, pos)
        if m is None:
            raise PgmFormatError("truncated or malformed PGM header")
        fields.append(int(m.group(1)))
        pos = m.end()
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmFormatError(f"bad dimensions {width}x{height}")
    if maxval <= 0 or maxval > 255:
        raise PgmFormatError(f"only 8-bit PGM supported, maxval={maxval}")
    pos += 1  # single whitespace byte after maxval
    pixels = data[pos:pos + width * height]
    if len(pixels) < width * height:
        raise PgmFormatError("truncated pixel data")
    grid = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)
    # for integer values, value * 255 > threshold * maxval exactly when
    # value > floor(threshold * maxval / 255)
    return grid > threshold * maxval // 255


def save_pgm(mask: np.ndarray) -> bytes:
    """Serialize a boolean mask as binary PGM, foreground = 255."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    header = f"P5\n{w} {h}\n255\n".encode()
    return header + (mask.astype(np.uint8) * 255).tobytes()


def _bbox(mask: np.ndarray):
    """(rows, cols) slices of the smallest box holding every foreground
    pixel, or None for an empty mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(mask[r0:r1].any(axis=0))
    return slice(r0, r1), slice(int(cols[0]), int(cols[-1]) + 1)


def _largest(mask: np.ndarray, structure: np.ndarray):
    """(box, component) of the largest component, the component as a
    crop of the box, labelled on that box only; None for an empty mask."""
    box = _bbox(mask)
    if box is None:
        return None
    labels, count = ndimage.label(mask[box], structure=structure)
    if count == 1:  # the crop is the component; skips a bincount of the box
        return box, mask[box]
    sizes = np.bincount(labels.ravel())[1:]
    # labels are assigned in raster order, so argmax ties pick the
    # component whose first pixel comes earliest in scan order
    return box, labels == int(np.argmax(sizes)) + 1


def largest_component(mask: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """Keep only the largest foreground component (first in scan order on ties).

    Labels the foreground's bounding box only: O(bounding box) time and
    memory besides the zeroed output frame.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    mask = np.asarray(mask, dtype=bool)
    out = np.zeros(mask.shape, dtype=bool)
    found = _largest(mask, _STRUCT_8 if connectivity == 8 else _STRUCT_4)
    if found is not None:
        box, component = found
        out[box] = component
    return out


def morphological_smooth(mask: np.ndarray, radius: int) -> np.ndarray:
    """Opening followed by closing with a disc of the given radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    mask = np.asarray(mask, dtype=bool)
    if radius == 0:
        return mask.copy()
    disc = _disc(radius)
    # pad so the closing's dilation is not clipped at the frame border;
    # this realizes the unbounded-plane operators, which keeps the
    # open-then-close filter idempotent
    padded = np.pad(mask, radius)
    out = ndimage.binary_opening(padded, structure=disc)
    out = ndimage.binary_closing(out, structure=disc)
    return out[radius:-radius, radius:-radius]


def _disc(radius: int) -> np.ndarray:
    # half-pixel slack so radius 1 covers the full 3x3 neighborhood;
    # a strict-radius disc degenerates to a plus and leaves 1-px spikes
    r = np.arange(-radius, radius + 1)
    dx, dy = np.meshgrid(r, r)
    return dx * dx + dy * dy <= (radius + 0.5) ** 2


# Moore neighborhood in counterclockwise screen order (y down), so a
# trace from the top-left-most pixel heads down the object's left side
# first: top -> leftmost -> bottom -> rightmost.
_MOORE = [(0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1)]


def trace_boundary(mask: np.ndarray) -> BoundaryTrace:
    """Moore-neighbor boundary trace of a single 8-connected object.

    Starts at the top-left-most foreground pixel. Returned pixel centers
    are unique; spur pixels walked twice are kept at first occurrence.
    The single-component check labels the bounding box only, so the
    cost is O(bounding box) plus the walk.
    """
    mask = np.asarray(mask, dtype=bool)
    box = _bbox(mask)
    if box is None:
        raise EmptyMaskError("cannot trace an empty mask")
    crop = mask[box]
    _, ncomp = ndimage.label(crop, structure=_STRUCT_8)
    if ncomp != 1:
        raise DegenerateShapeError(f"expected one component, found {ncomp}")
    return _moore_walk(crop, box)


def trace_object(mask: np.ndarray, smooth_radius: int = 0) -> BoundaryTrace:
    """The boundary encode_mask fits: of the largest component, after an
    optional morphological smoothing (whose own largest component
    replaces it unless empty). The component is labelled once and walked
    without a second labelling. O(bounding box) plus the walk; smoothing
    works on the whole frame.

    Raises EmptyMaskError on an empty mask and DegenerateShapeError when
    the object has fewer than 4 pixels or its boundary fewer than 4 points.
    """
    mask = np.asarray(mask, dtype=bool)
    found = _largest(mask, _STRUCT_8)
    if found is None:
        raise EmptyMaskError("cannot encode an empty mask")
    box, component = found
    if smooth_radius > 0:
        work = np.zeros(mask.shape, dtype=bool)
        work[box] = component
        smoothed = _largest(morphological_smooth(work, smooth_radius), _STRUCT_8)
        if smoothed is not None:
            box, component = smoothed
    if np.count_nonzero(component) < 4:
        raise DegenerateShapeError("object smaller than 4 pixels")
    trace = _moore_walk(component, box)
    if len(trace) < 4:
        raise DegenerateShapeError("boundary shorter than 4 points")
    return trace


def _moore_walk(component: np.ndarray, box) -> BoundaryTrace:
    """Moore walk around `component`, one 8-connected object given as a
    crop of the frame to the slices `box`.

    The crop is padded by one background pixel and walked as bytes with
    flat neighbour offsets; every quantity in the loop is a Python int.
    The walk is a deterministic map on (pixel, backtrack direction)
    states and stops at the first repeated state, kept as one bit per
    direction in a byte per pixel.
    """
    w = component.shape[1]
    stride = w + 2
    grid = np.pad(component, 1).tobytes()
    offsets = [dr * stride + dc for dr, dc in _MOORE]
    # raster-first pixel, i.e. the top-left-most; west of it is background
    r, c = divmod(int(np.argmax(component)), w)
    cur = (r + 1) * stride + c + 1
    back = 0
    seen = bytearray(len(grid))
    seen[cur] = 1
    pixels = [cur]
    while True:
        for k in range(1, 9):
            d = (back + k) & 7
            if grid[cur + offsets[d]]:
                break
        else:
            break  # an isolated pixel is its own trace
        cur += offsets[d]
        # the last background candidate lies in direction d - 1 of the old
        # pixel, which from the new pixel is direction (d & 6) + 6 (mod 8)
        back = ((d & 6) + 6) & 7
        if seen[cur] >> back & 1:
            break
        seen[cur] |= 1 << back
        pixels.append(cur)
    rows, cols = np.divmod(np.fromiter(dict.fromkeys(pixels), dtype=np.intp), stride)
    points = np.stack([cols + (box[1].start - 1), rows + (box[0].start - 1)], axis=1) + 0.5
    return BoundaryTrace(points, closed=True)


def boundary_points(mask: np.ndarray) -> np.ndarray:
    """Centers of foreground pixels with a background 4-neighbor or on the border.

    Computed on the foreground's bounding box: O(bounding box).
    """
    mask = np.asarray(mask, dtype=bool)
    box = _bbox(mask)
    if box is None:
        return np.empty((0, 2))
    crop = mask[box]
    padded = np.pad(crop, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    rows, cols = np.divmod(np.flatnonzero(crop & ~interior), crop.shape[1])
    return np.stack([cols + box[1].start + 0.5, rows + box[0].start + 0.5], axis=1)


def rasterize_polygon(vertices: np.ndarray, width: int, height: int) -> np.ndarray:
    """Even-odd scanline fill of a closed polygon into a width x height mask.

    A pixel is foreground iff its center lies inside; vertices outside
    the frame are fine (the fill clips naturally). Each edge crosses the
    rows whose center y lies in [ymin, ymax), so a shared vertex is
    counted once and horizontal edges never. A crossing at x flips the
    parity of every pixel in its row whose center is >= x (column
    `width` for crossings right of the frame): it is marked once in an
    array spanning the crossings' rows and columns, and a running XOR
    along each row turns the marks into the fill. Every row is crossed
    an even number of times, so the parity outside that box is 0. Time
    is O(crossings + their bounding box) besides zeroing the output
    frame, memory O(H*W) bytes.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 2 or vertices.shape[0] < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if width < 1 or height < 1:
        raise ValueError("frame must be at least 1x1")

    x1, y1 = vertices[:, 0], vertices[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    ys = np.arange(height) + 0.5

    # rows first..last-1 are those with ymin <= ys < ymax (half-open)
    first = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    last = np.searchsorted(ys, np.maximum(y1, y2), side="left")
    edges, rows = _expand(first, last)
    dy = y2 - y1
    t = (ys[rows] - y1[edges]) / dy[edges]
    xs = x1[edges] + t * (x2 - x1)[edges]
    # first pixel center >= xs; column `width` flips nothing in the frame
    cols = np.searchsorted(np.arange(width) + 0.5, xs, side="left")

    out = np.zeros((height, width), dtype=bool)
    if rows.size == 0:
        return out
    # outside the crossings' rows and columns the parity is 0, since each
    # row is crossed an even number of times: run the XOR over that box
    r0, c0 = int(rows.min()), int(cols.min())
    flips = np.zeros((int(rows.max()) + 1 - r0, int(cols.max()) + 1 - c0), dtype=np.uint8)
    np.bitwise_xor.at(flips, (rows - r0, cols - c0), 1)
    flips = np.bitwise_xor.accumulate(flips, axis=1)  # rebinding frees the marks
    r1, c1 = r0 + flips.shape[0], min(c0 + flips.shape[1], width)
    out[r0:r1, c0:c1] = flips[:, :c1 - c0]
    # a NaN vertex can leave a row crossed an odd number of times, whose
    # parity then stays 1 up to the frame's right edge
    out[np.flatnonzero(flips[:, -1]) + r0, c1:] = True
    return out


def _expand(starts: np.ndarray, stops: np.ndarray):
    """(owner, value) of every value in each range(starts[i], stops[i])."""
    counts = stops - starts
    owner = np.repeat(np.arange(len(counts)), counts)
    value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - starts, counts)
    return owner, value


def polygon_to_mask(vertices: np.ndarray, width: int, height: int) -> np.ndarray:
    """Even-odd fill plus the pixels the polygon outline passes through.

    Decoded contours interpolate the centers of boundary pixels, which
    were foreground in the source mask; a bare center-inside fill would
    systematically lose that half-pixel rim, so outline pixels are
    foreground too. The outline is every vertex plus, on each edge
    longer than 0.5 px, the n - 1 interior points at fractions k / n
    (n = ceil(length / 0.5)); each marks the pixel it falls in. Only
    the k whose points can land in the frame are generated: each edge
    is clipped to the frame widened by one pixel, and one more k is
    taken on each side, so the work is bounded by the frame and not by
    the coordinates. Time is O(H*W + crossings + perimeter in the
    frame), memory O(H*W) bytes.
    """
    out = rasterize_polygon(vertices, width, height)
    a = np.asarray(vertices, dtype=float)
    step = np.roll(a, -1, axis=0) - a
    lengths = np.hypot(*step.T)
    # k and n must be exact in float64: longer edges get no interior points
    long_edges = np.nonzero((lengths > 0.5) & (lengths < 2.0 ** 52))[0]
    n = np.ceil(lengths[long_edges] / 0.5)
    first, stop = np.ones_like(n), n
    widened = np.array([width, height]) + 1.0
    if not np.all((a >= -1.0) & (a <= widened)):
        # slab clip: a + s * step lies in the widened frame for s in [lo, hi];
        # fmin/fmax drop the 0/0 of an edge lying on the widened border
        a0, d = a[long_edges], step[long_edges]
        with np.errstate(divide="ignore", invalid="ignore"):
            s1, s2 = (-1.0 - a0) / d, (widened - a0) / d
        lo = np.fmax(*np.fmin(s1, s2).T)
        hi = np.fmin(*np.fmax(s1, s2).T)
        first = np.clip(np.floor(lo * n) - 1, 1, n)
        stop = np.clip(np.ceil(hi * n) + 2, first, n)
    edges, k = _expand(first.astype(int), stop.astype(int))
    frac = k / n[edges]
    e = long_edges[edges]
    pts = np.concatenate([a, a[e] + frac[:, None] * step[e]])
    x, y = pts.T
    keep = (x >= 0) & (x < width) & (y >= 0) & (y < height)
    out[np.floor(y[keep]).astype(int), np.floor(x[keep]).astype(int)] = True
    return out
