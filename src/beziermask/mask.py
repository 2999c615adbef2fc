"""Pixel-domain operations on binary masks.

Masks are boolean numpy arrays of shape (height, width), True for
foreground. Continuous coordinates use the pixel-center convention:
pixel (row r, col c) sits at (x = c + 0.5, y = r + 0.5), with y growing
downward. Foreground is 8-connected, background 4-connected.
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


def largest_component(mask: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """Keep only the largest foreground component (first in scan order on ties)."""
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    mask = np.asarray(mask, dtype=bool)
    structure = _STRUCT_8 if connectivity == 8 else _STRUCT_4
    labels, count = ndimage.label(mask, structure=structure)
    if count == 0:
        return np.zeros_like(mask)
    sizes = np.bincount(labels.ravel())[1:]
    # labels are assigned in raster order, so argmax ties pick the
    # component whose first pixel comes earliest in scan order
    keep = int(np.argmax(sizes)) + 1
    return labels == keep


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
    """
    mask = np.asarray(mask, dtype=bool)
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        raise EmptyMaskError("cannot trace an empty mask")
    _, ncomp = ndimage.label(mask, structure=_STRUCT_8)
    if ncomp != 1:
        raise DegenerateShapeError(f"expected one component, found {ncomp}")

    r0 = int(rows.min())
    c0 = int(cols[rows == r0].min())
    if rows.size == 1:
        return BoundaryTrace(np.array([[c0 + 0.5, r0 + 0.5]]), closed=True)

    h, w = mask.shape

    def fg(r, c):
        return 0 <= r < h and 0 <= c < w and mask[r, c]

    start = (r0, c0)
    cur, back = start, (r0, c0 - 1)  # west of the raster-first pixel is background
    pixels = [start]
    seen_states = {(cur, back)}
    limit = 16 * rows.size + 16
    for _ in range(limit):
        bi = _MOORE.index((back[0] - cur[0], back[1] - cur[1]))
        nxt = None
        back_cand = back
        for k in range(1, 9):
            dr, dc = _MOORE[(bi + k) % 8]
            cand = (cur[0] + dr, cur[1] + dc)
            if fg(*cand):
                nxt = cand
                break
            back_cand = cand
        if nxt is None:  # isolated pixel, handled above; defensive
            break
        cur, back = nxt, back_cand
        # the walk is a deterministic map on (pixel, backtrack) states, so
        # the first repeated state closes the loop
        if (cur, back) in seen_states:
            break
        seen_states.add((cur, back))
        pixels.append(cur)

    seen = set()
    out = []
    for p in pixels:
        if p not in seen:
            seen.add(p)
            out.append((p[1] + 0.5, p[0] + 0.5))
    return BoundaryTrace(np.array(out, dtype=float), closed=True)


def boundary_points(mask: np.ndarray) -> np.ndarray:
    """Centers of foreground pixels with a background 4-neighbor or on the border."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.pad(mask, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    rows, cols = np.nonzero(mask & ~interior)
    return np.stack([cols + 0.5, rows + 0.5], axis=1)


def rasterize_polygon(vertices: np.ndarray, width: int, height: int) -> np.ndarray:
    """Even-odd scanline fill of a closed polygon into a width x height mask.

    A pixel is foreground iff its center lies inside; vertices outside
    the frame are fine (the fill clips naturally). Each edge crosses the
    rows whose center y lies in [ymin, ymax), so a shared vertex is
    counted once and horizontal edges never. A crossing at x flips the
    parity of every pixel in its row whose center is >= x: it is marked
    once in a (height, width + 1) array, and a running XOR along each
    row turns the marks into the fill. Time is O(H*W + crossings),
    memory O(H*W) bytes.
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

    flips = np.zeros((height, width + 1), dtype=np.uint8)
    np.bitwise_xor.at(flips, (rows, cols), 1)
    flips = np.bitwise_xor.accumulate(flips, axis=1)  # rebinding frees the marks
    return flips[:, :width].astype(bool)


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
    (n = ceil(length / 0.5)); each marks the pixel it falls in. Time is
    O(H*W + crossings + perimeter), memory O(H*W) bytes.
    """
    out = rasterize_polygon(vertices, width, height)
    a = np.asarray(vertices, dtype=float)
    step = np.roll(a, -1, axis=0) - a
    lengths = np.hypot(*step.T)
    long_edges = np.nonzero(lengths > 0.5)[0]
    n = np.ceil(lengths[long_edges] / 0.5).astype(int)
    edges, k = _expand(np.ones_like(n), n)
    frac = k / n[edges]
    e = long_edges[edges]
    pts = np.concatenate([a, a[e] + frac[:, None] * step[e]])
    cols = np.floor(pts[:, 0]).astype(int)
    rows = np.floor(pts[:, 1]).astype(int)
    keep = (cols >= 0) & (cols < width) & (rows >= 0) & (rows < height)
    out[rows[keep], cols[keep]] = True
    return out
