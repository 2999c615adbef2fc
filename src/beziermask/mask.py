"""Pixel-domain operations on binary masks.

A mask is a bool numpy array of shape (height, width), True for
foreground; every function here that takes a mask raises ValueError
when it is not 2-D. Pixel (row r, col c) has its center at
(x = c + 0.5, y = r + 0.5), with y growing downward. Foreground is
8-connected, background 4-connected.

Labelling, smoothing and tracing work on the foreground's row runs
(_runs, _label, _smooth, _run_trace). Polygons are filled from their
crossings of the pixel-center rows (_fill), and boundary pixels are
found on rows packed 64 pixels to a word (_boundary).
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShapeError, EmptyMaskError, PgmFormatError, _integer


@dataclass
class BoundaryTrace:
    """Ordered boundary pixel centers of a single object.

    points: (m, 2) array of (x, y); the trace wraps implicitly from the
    last point back to the first.
    """

    points: np.ndarray

    def __len__(self):
        return len(self.points)


_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"(?:\s|\Z)")


def load_pgm(data: bytes) -> np.ndarray:
    """Parse a binary (P5) 8-bit PGM into a boolean mask.

    The header (_PGM_HEADER) is `P5`, then width, height and maxval, each
    after one or more whitespace bytes or '#' comments (each through the
    next newline) in any order, then one whitespace byte before the
    pixels. A digit right after `P5`, a comment right after maxval, a
    field longer than int()'s digit limit and a pixel value above maxval
    raise PgmFormatError. A pixel is foreground iff value / maxval >
    127 / 255, so a 0/1 label map loads like 0/255.
    """
    m = _PGM_HEADER.match(data)
    if m is None:
        raise PgmFormatError("not a binary PGM with a well-formed P5 header")
    try:
        width, height, maxval = map(int, m.groups())
    except ValueError as e:  # a field longer than int()'s digit limit
        raise PgmFormatError(f"header field too long: {e}") from None
    if width < 1 or height < 1:
        raise PgmFormatError(f"bad dimensions {width}x{height}")
    if maxval <= 0 or maxval > 255:
        raise PgmFormatError(f"only 8-bit PGM supported, maxval={maxval}")
    pos = m.end()
    if len(data) - pos < width * height:
        raise PgmFormatError("truncated pixel data")
    grid = np.frombuffer(data, np.uint8, count=width * height, offset=pos).reshape(height, width)
    # a uint8 never exceeds a maxval of 255
    if maxval < 255 and grid.max() > maxval:
        raise PgmFormatError(f"pixel value {grid.max()} above maxval {maxval}")
    # for integer values, value * 255 > 127 * maxval exactly when
    # value > floor(127 * maxval / 255)
    return grid > 127 * maxval // 255


def save_pgm(mask: np.ndarray) -> bytes:
    """Serialize a 2-D boolean mask as binary PGM, foreground = 255, its
    pixels in C order even for a transposed mask. A mask with no rows or
    no columns raises ValueError, as load_pgm rejects its header."""
    mask = _as_2d(mask)
    h, w = mask.shape
    if h < 1 or w < 1:
        raise ValueError(f"mask must be at least 1x1, got shape {mask.shape}")
    header = f"P5\n{w} {h}\n255\n".encode()
    return b"".join([header, np.multiply(mask, np.uint8(255), dtype=np.uint8, order="C")])


def _bbox(mask: np.ndarray):
    """(rows, cols) slices of the smallest box holding every nonzero entry
    of a 2-D array, both slice(0, 0) when it has none: for rows packed by
    _packed, the bytes holding the foreground."""
    rows = np.flatnonzero(np.bitwise_or.reduce(mask, axis=1))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(np.bitwise_or.reduce(mask[r0:r1], axis=0))
    return slice(r0, r1), slice(int(cols[0]), int(cols[-1]) + 1)


def _runs(mask: np.ndarray):
    """(starts, stops, stride) of the foreground's row runs, in raster
    order: [starts[i], stops[i]) is the i-th run in flat bit positions of
    the frame's rows packed into 64-bit words, `stride` bits a row, pixel
    (r, c) at r * stride + c; none for an empty mask. At least one zero
    bit after each row ends every run in its row.

    Bit k of a change word is set where pixel k differs from the pixel
    before it, bit 63 of the previous word at k = 0: the changes are the
    starts and stops in turn. One packbits pass and one pass over the
    words find them (_set_bits), so past the packing the cost follows
    the runs. The packed rows and the change words, one bit per frame
    pixel each, are the largest arrays held, whatever the foreground's
    extent.
    """
    height, width = mask.shape
    words = width // 64 + 1
    grid = np.zeros((height, words), dtype="<u8")
    grid.view(np.uint8)[:, :(width + 7) // 8] = np.packbits(mask, axis=1, bitorder="little")
    flat = grid.ravel()
    change = flat << 1
    change ^= flat
    # the carries overwrite the packed words, which are not read again
    change[1:] ^= np.right_shift(flat[:-1], 63, out=flat[:-1])
    edges = _set_bits(change)
    return edges[0::2], edges[1::2], 64 * words


def _set_bits(words: np.ndarray) -> np.ndarray:
    """Ascending flat positions 64 * i + k of the set bits k of the 1-D
    little-endian 64-bit words[i]; only the nonzero words are unpacked,
    found on a bool array, as flatnonzero is several times slower on the
    words themselves."""
    at = np.flatnonzero(words != 0)
    bits = np.flatnonzero(np.unpackbits(words[at].view(np.uint8), bitorder="little").view(bool))
    return at[bits >> 6] << 6 | bits & 63


def _label(starts: np.ndarray, stops: np.ndarray, stride: int):
    """(count, labels) of the 8-connected components of the runs of _runs,
    with rows of `stride` bits; labels[i] is the component of run i.

    Runs in adjacent rows touch when their columns overlap after widening
    each by one column. The runs of the next row that touch run i form
    the range lo[i]:hi[i]. The runs are joined by a union after Shiloach
    and Vishkin. Each run hangs from
    the first run above that touches it; a run that touches none is a
    root, and runs with one root are one component. Otherwise the trees
    are joined in rounds over the touching pairs left out so far: compress
    every path by pointer jumping, then hang the larger root of each pair
    that joins two trees from the smaller root, until no pair does. A run
    only ever hangs from a smaller run, so the forest stays acyclic and
    each component's root is its first run; components are numbered in
    that order. Besides the two searchsorted calls, each round is a few
    O(runs) array passes.
    """
    lo = np.searchsorted(stops, starts + (stride - 1), side="right")
    hi = np.searchsorted(starts, stops + (stride + 1), side="left")
    runs = np.arange(len(starts))
    # hi never decreases, so the first run i with hi[i] > j is the first
    # that can touch run j, and it does iff lo[i] <= j
    gaps = hi.copy()
    gaps[1:] -= hi[:-1]
    first = np.repeat(runs, gaps)
    below = runs[:first.size]
    parent = runs.copy()
    parent[:first.size] = np.where(lo[first] <= below, first, below)
    if np.count_nonzero(parent == runs) == 1:
        return 1, np.zeros(len(runs), dtype=np.intp)
    # the only touching pairs left out: runs i - 1 and i of one row are
    # disjoint, so at most one run of the next row touches both, lo[i]
    up = np.flatnonzero(lo[1:] < hi[:-1]) + 1
    down = lo[up]
    while True:
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]
        up, down = parent[up], parent[down]
        joins = up != down
        if not joins.any():
            break
        up, down = np.minimum(up, down)[joins], np.maximum(up, down)[joins]
        np.minimum.at(parent, down, up)
    roots = parent == runs
    return int(np.count_nonzero(roots)), (np.cumsum(roots) - 1)[parent]


def _largest(starts: np.ndarray, stops: np.ndarray, stride: int):
    """(starts, stops) of the runs of the largest component among the
    runs [starts[i], stops[i]) of _runs, with rows of `stride` bits; the
    runs themselves when they form one component."""
    count, labels = _label(starts, stops, stride)
    if count > 1:
        # the largest component; of equal sizes, the one whose first pixel
        # comes first in scan order, i.e. the first label
        keep = labels == np.argmax(np.bincount(labels, weights=stops - starts))
        starts, stops = starts[keep], stops[keep]
    return starts, stops


def largest_component(mask: np.ndarray) -> np.ndarray:
    """Keep only the largest 8-connected foreground component (first in
    scan order on ties) of the runs of _runs, labelled by _label: a new
    bool array of the mask's shape.
    """
    mask = _as_2d(mask)
    starts, stops, stride = _runs(mask)
    kept = _largest(starts, stops, stride)
    if kept[0].size == starts.size:
        return mask.copy()
    return _frame(*kept, stride, mask.shape)


def morphological_smooth(mask: np.ndarray, radius: int) -> np.ndarray:
    """Opening followed by closing of the mask with the disc
    dx^2 + dy^2 <= (radius + 1/2)^2, as in the unbounded plane, by _smooth:
    a new bool array of the mask's shape. A radius that is not an integer
    raises TypeError, a negative one ValueError.
    """
    mask = _as_2d(mask)
    radius = _radius(radius, mask.shape)
    starts, stops, stride = _runs(mask)
    return _frame(*_smooth(starts, stops, stride, radius), stride, mask.shape)


def _radius(radius, shape) -> int:
    """A smoothing radius for a frame of `shape` as an int: TypeError
    unless it is an integer (errors._integer), ValueError if it is
    negative. It is capped at (min(shape) + 1) // 2: the disc spans
    2r + 1 rows and columns, so from there on the erosion is empty, and
    with it the opening and the closing."""
    radius = _integer(radius, "radius")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return min(radius, (min(shape) + 1) // 2)


def _smooth(starts: np.ndarray, stops: np.ndarray, stride: int, radius: int):
    """(starts, stops) of the opening then closing, by the disc of `radius`,
    of the runs [starts[i], stops[i]) of _runs, with rows of `stride`
    bits; the result lies within the runs' bounding box.

    Interval coding (Ji, Piper & Tang 1989; Breuel 2008): a dilation is
    the union of the runs moved by each disc row and widened by its
    half-width, an erosion is where all the runs moved by each row and
    shrunk by its half-width meet, and each is one np.sort of the runs'
    ends and a cumsum: O(runs * radius * log) time. Rows
    are keyed `radius` wider on each side, so no moved run reaches
    another row, and an erosion counts at most one run per disc row at
    any pixel, as the runs of a row are disjoint.
    """
    wide = stride + 2 * radius
    lift = starts // stride * (2 * radius) + radius  # key: row * wide + col + radius
    starts, stops = starts + lift, stops + lift
    dy = np.arange(-radius, radius + 1)[:, None]
    # each disc row's half-width; the half-pixel slack lets radius 1 cover
    # the full 3x3 neighborhood, where a strict radius leaves 1-px spikes
    half = np.sqrt((radius + 0.5) ** 2 - dy * dy).astype(int)
    shift = dy * wide
    for grow, depth in ((-half, 2 * radius + 1), (half, 1), (half, 1), (-half, 2 * radius + 1)):
        lo, hi = starts + shift - grow, stops + shift + grow
        kept = lo < hi
        # a start is the even event 2 lo, a stop the odd 2 hi + 1: one sort
        # orders them, and the cover after each key's last event is kept
        events = np.sort(np.concatenate([2 * lo[kept], 2 * hi[kept] + 1]))
        keys = events >> 1
        last = np.diff(keys, append=keys[-1:] + 1) != 0
        cover = np.cumsum(1 - 2 * (events & 1))[last]
        marks = keys[last][np.diff(cover >= depth, prepend=False)]
        starts, stops = marks[0::2], marks[1::2]
    lift = starts // wide * (2 * radius) + radius
    return starts - lift, stops - lift


def trace_boundary(mask: np.ndarray) -> BoundaryTrace:
    """The boundary trace (_run_trace) of a single 8-connected object: its
    outer boundary pixels, counterclockwise on screen from the
    top-left-most one, down its left side first. Returned pixel centers
    are unique; spur pixels walked twice are kept at first occurrence.
    Holes are not traced. An empty mask raises EmptyMaskError, and more
    than one component (_label) DegenerateShapeError.
    """
    starts, stops, stride = _runs(_as_2d(mask))
    if starts.size == 0:
        raise EmptyMaskError("cannot trace an empty mask")
    ncomp = _label(starts, stops, stride)[0]
    if ncomp != 1:
        raise DegenerateShapeError(f"expected one component, found {ncomp}")
    return _run_trace(starts, stops, stride)


def trace_object(mask: np.ndarray, smooth_radius: int = 0) -> BoundaryTrace:
    """The boundary encode_mask fits: trace_boundary of the largest
    component, after an optional morphological smoothing (whose own
    largest component replaces it unless empty), as a BoundaryTrace.

    Raises TypeError for a smooth_radius that is not an integer,
    ValueError for a negative one, EmptyMaskError on an empty mask and
    DegenerateShapeError when the object has fewer than 4 pixels or its
    boundary fewer than 4 points.
    """
    mask = _as_2d(mask)
    smooth_radius = _radius(smooth_radius, mask.shape)
    starts, stops, stride = _runs(mask)
    if starts.size == 0:
        raise EmptyMaskError("cannot encode an empty mask")
    starts, stops = _largest(starts, stops, stride)
    if smooth_radius > 0:
        smoothed = _smooth(starts, stops, stride, smooth_radius)
        if smoothed[0].size:
            starts, stops = _largest(*smoothed, stride)
    if (stops - starts).sum() < 4:
        raise DegenerateShapeError("object smaller than 4 pixels")
    trace = _run_trace(starts, stops, stride)
    if len(trace) < 4:
        raise DegenerateShapeError("boundary shorter than 4 points")
    return trace


def _run_trace(starts: np.ndarray, stops: np.ndarray, stride: int) -> BoundaryTrace:
    """trace_boundary of the 8-connected component whose runs, in raster
    order, are [starts[i], stops[i]) of _runs, with rows of `stride` bits.

    The Moore trace is the first occurrence of each pixel along the
    component's outer crack contour, walked from the west edge of its
    first pixel with the object on the left. Each run gives two vertical
    cracks: its west crack, heading down and owned by its first pixel,
    and its east crack, heading up and owned by its last. A crack arrives
    at one grid line and departs from the next. Along a grid line, the
    ends of the runs above and below it pair off in order, a start before
    a stop at one column, which joins diagonal neighbours; each pair is an
    arrival and a departure joined by a horizontal crack. So the k-th
    arrival of all lines in order pairs with the k-th departure, and two
    sorts give every crack's successor. Following them from the first
    run's west crack takes one Python step per two cracks and never
    reaches a hole. One sort finds the first occurrence of each pixel
    that the cracks border. Pairing takes O(runs * log(runs)) time and
    the first occurrences O(boundary * log(boundary)).
    """
    n = starts.size
    # crack c < n is the west crack of run c, crack c >= n the east crack
    # of run c - n. ends[0] holds where each crack arrives and ends[1]
    # where it departs, as flat positions of the row below the grid line.
    ends = np.empty((2, 2, n), dtype=starts.dtype)
    ends[:, 0], ends[:, 1] = starts, stops
    ends[0, 0] += stride
    ends[1, 1] += stride
    arrive, depart = ends.reshape(2, 2 * n)
    # sort by position, then by crack, so a start sorts first at one
    # column; each row is two sorted runs, which a stable sort merges
    bits = (2 * n).bit_length()
    keys = ends.reshape(2, 2 * n) << bits | np.arange(2 * n)
    keys[0].sort(kind="stable")
    keys[1].sort(kind="stable")
    keys &= (1 << bits) - 1
    succ = np.empty(2 * n, dtype=keys.dtype)
    succ[keys[0]] = keys[1]
    # a closed contour has as many west cracks as east ones, so an even
    # length: walk every second crack, then put in their successors
    after = succ[succ].tolist()
    half = [0]
    crack = after[0]
    while crack:
        half.append(crack)
        crack = after[crack]
    cycle = np.empty(2 * len(half) + 1, dtype=succ.dtype)
    cycle[0:-1:2] = half
    cycle[1::2] = succ[cycle[0:-1:2]]
    cycle[-1] = 0
    cracks = cycle[:-1]
    # each crack gives its owner, at t = 0, then the pixels along its
    # horizontal crack from its arrival a to the next crack's departure,
    # t = 1 .. |run|: a - stride - 1 + t heading east, a - t heading west.
    # A west crack's owner lies above its arrival, an east crack's left of it
    a = arrive[cracks]
    run = depart[cycle[1:]] - a
    step = np.sign(run)
    counts = np.abs(run) + 1
    firsts = np.cumsum(counts) - counts
    origin = a - (stride + 1) * (run > 0) - step * firsts
    total = int(firsts[-1] + counts[-1])
    pixels = np.repeat(origin, counts) + np.repeat(step, counts) * np.arange(total)
    pixels[firsts] = a - np.where(cracks < n, stride, 1)
    # (pixel, index) keys, exact while the packed frame's bits times 2 * total are below 2**63
    bits = total.bit_length()
    keys = pixels << bits | np.arange(total)
    keys.sort()
    pixel = keys >> bits
    new = np.empty(total, dtype=bool)
    new[0] = True
    np.not_equal(pixel[1:], pixel[:-1], out=new[1:])
    keep = np.empty(total, dtype=bool)
    keep[keys & ((1 << bits) - 1)] = new
    pixels = pixels[keep]
    rows = pixels // stride
    points = np.empty((pixels.size, 2))
    np.add(pixels - rows * stride, 0.5, out=points[:, 0])
    np.add(rows, 0.5, out=points[:, 1])
    return BoundaryTrace(points)


def _as_2d(mask) -> np.ndarray:
    """mask as a bool array; ValueError unless it is 2-D."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
    return mask


def boundary_points(mask: np.ndarray) -> np.ndarray:
    """Centers of foreground pixels with a background 4-neighbor or on the
    border, as an (m, 2) array of (x, y) in raster order (_boundary).
    """
    return _boundary(*_packed(_as_2d(mask)))[0]


def _packed(*masks):
    """(grid, box) of 2-D bool masks of one shape, their rows packed 8
    pixels to a byte, pixel c as bit c % 8 of byte c // 8. `box` is the
    (rows, bytes) slices of the smallest box holding every mask's
    foreground (both slice(0, 0) when there is none), and grid[i] that
    box of mask i as little-endian 64-bit words, with one zero word on
    each side and a zero row above and below. The packed frames are
    dropped on return.
    """
    bits = [np.packbits(m, axis=1, bitorder="little") for m in masks]
    box = _bbox(functools.reduce(operator.or_, bits))
    height, width = box[0].stop - box[0].start, box[1].stop - box[1].start
    grid = np.zeros((len(bits), height + 2, -(-width // 8) + 2), dtype="<u8")
    view = grid.view(np.uint8)
    for i, b in enumerate(bits):
        view[i, 1:-1, 8:8 + width] = b[box]
    return grid, box


def _boundary(grid: np.ndarray, box) -> list:
    """boundary_points of each stacked grid of packed rows from _packed,
    whose first bit is the frame pixel (box[0].start, 8 * box[1].start).

    A pixel is interior when it and its four neighbours are set: in a
    word, the left neighbour of bit k is bit k - 1, carried from bit 63
    of the previous word at k = 0, and the right one is bit k + 1. The
    stack is worked on flat, its padding words zero in every result, and
    only the words holding a boundary pixel are unpacked. Besides the
    packing, time is O(box / 64) word operations and memory O(box / 8)
    bytes.
    """
    count, height, n = grid.shape
    flat = grid.ravel()
    core = flat[n:-n]  # every row but the stack's first and last
    interior = core & flat[:-2 * n] & flat[2 * n:]
    interior &= core << 1 | flat[n - 1:-n - 1] >> 63
    interior &= core >> 1 | flat[n + 1:1 - n] << 63
    edge = np.bitwise_xor(core, interior, out=interior)  # core & ~interior
    rows, cols = np.divmod(_set_bits(edge), 64 * n)  # grid i's rows from i * height
    points = np.empty((rows.size, 2))
    # word column 0 is the left padding word, 64 pixels left of the box
    np.add(cols, 8 * box[1].start - 63.5, out=points[:, 0])
    np.add(rows % height, box[0].start + 0.5, out=points[:, 1])
    cuts = np.searchsorted(rows, height * np.arange(1, count)).tolist()
    return [points[i:j] for i, j in zip([0, *cuts], [*cuts, rows.size])]


def rasterize_polygon(vertices: np.ndarray, width: int, height: int) -> np.ndarray:
    """Even-odd fill (_fill) of a closed polygon into a width x height mask.

    A pixel is foreground iff its center lies inside; vertices outside
    the frame are fine (the fill clips naturally). `vertices` is an
    (n, 2) array of (x, y) with n >= 3, giving a (height, width) mask,
    or a stack of B such polygons, (B, n, 2), giving (B, height, width)
    masks whose slices equal the single-polygon calls bit for bit. Any
    other shape, a frame below 1 x 1 and an infinite coordinate raise
    ValueError, a width or height that is not an integer TypeError.
    """
    edges, single, width, height = _polygon(vertices, width, height)
    out = _fill(edges, width, height)
    return out[0] if single else out


@dataclass
class _Edges:
    """The edges of B polygons of n vertices each, as 1-D per-axis arrays
    of B * n entries: edge p * n + i runs from vertex i of polygon p,
    (x1, y1), to its next vertex (vertex 0 after the last), whose y is
    y2; dx and dy are the end minus the start."""

    x1: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    count: int
    sides: int


def _polygon(vertices, width: int, height: int):
    """(edges, single, width, height): the polygons' _Edges, whether the
    input was one (n, 2) polygon, and the frame as ints, after the checks
    rasterize_polygon states."""
    a = np.asarray(vertices, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != 2:
        raise ValueError(f"vertices must be an (n, 2) or (B, n, 2) array, not shape {a.shape}")
    if a.shape[-2] < 3:
        raise ValueError("polygon needs at least 3 vertices")
    width, height = _integer(width, "width"), _integer(height, "height")
    if width < 1 or height < 1:
        raise ValueError("frame must be at least 1x1")
    if np.isinf(a).any():
        raise ValueError("vertices must not be infinite")
    single = a.ndim == 2
    if single:
        a = a[None]
    count, sides = a.shape[:2]
    # start[axis, p, i] is vertex i of polygon p and end[axis, p, i] the
    # next one; only the two ends of an edge are subtracted, so an
    # overflow warns as it would for each polygon alone
    start = a.transpose(2, 0, 1).copy()
    end = np.concatenate([start[:, :, 1:], start[:, :, :1]], axis=2)
    (x1, y1), (dx, dy) = start.reshape(2, -1), (end - start).reshape(2, -1)
    return _Edges(x1, y1, end[1].ravel(), dx, dy, count, sides), single, width, height


def _fill(edges: _Edges, width: int, height: int) -> np.ndarray:
    """The even-odd fills, (B, height, width), of the polygons' _Edges.

    Each edge crosses the rows whose center y lies in [ymin, ymax), so a
    shared vertex is counted once and horizontal edges never; a crossing
    at x flips the parity of every pixel in its row whose center is >= x.
    The sorted crossings of the whole stack split the B frames, in
    raster order, into runs of alternating parity (_alternating). Time
    is O(crossings * log(crossings) + B * frame), and every frame byte is
    written even for a small object on a large frame; memory is the
    output frames plus O(crossings).
    """
    y1, y2 = edges.y1, edges.y2
    first = _centers_below(np.minimum(y1, y2), height)
    last = _centers_below(np.maximum(y1, y2), height)
    crossed, rows = _expand(first, last)
    t = (rows + 0.5 - y1[crossed]) / edges.dy[crossed]
    xs = edges.x1[crossed] + t * edges.dx[crossed]
    # first pixel center >= xs, or `width` when there is none
    cols = _centers_below(xs, width)
    # a crossing at col == width flips nothing in its row and lands on
    # the next row's first position; that is right because, with the
    # reset marks below, every row holds an even number of marks, so
    # every row starts at parity 0
    rows = crossed // edges.sides * height + rows    # row in the stacked frames
    marks = rows * width + cols
    # a NaN vertex can leave a row crossed an odd number of times: one more
    # mark at its end resets the parity for the next row, and that row
    # stays 1 up to the right edge
    odd = np.flatnonzero(np.bincount(rows, minlength=edges.count * height) & 1)
    marks = np.concatenate([marks, (odd + 1) * width])
    marks.sort()
    return _alternating(marks, edges.count * height * width).reshape(edges.count, height, width)


def _centers_below(v: np.ndarray, size: int) -> np.ndarray:
    """np.searchsorted(np.arange(size) + 0.5, v): how many of the pixel
    centers 0.5 .. size - 0.5 lie below each v, NaN above them all.

    That count is ceil(v - 0.5) clipped to [0, size], and the rounded
    difference gives it too: rounding is monotone and integers are exact,
    so it can only cross an integer k in 0 .. size - 1 when the exact
    v - 0.5 lies strictly between k and k + 1. Then 0.5 < v < size + 0.5
    < 2**52, so ulp(v) divides 0.5 and v - 0.5 is exact. fmin maps NaN
    to size. Five passes, where a binary search per value is several
    times slower.
    """
    count = v - 0.5
    np.ceil(count, out=count)
    np.fmin(count, size, out=count)
    np.fmax(count, 0, out=count)
    return count.astype(np.intp)


def _frame(starts: np.ndarray, stops: np.ndarray, stride: int, shape) -> np.ndarray:
    """The bool frame of `shape` holding the sorted runs [starts[i], stops[i])
    of _runs, with rows of `stride` bits."""
    marks = np.stack([starts, stops], axis=1).ravel()
    marks -= marks // stride * (stride - shape[1])  # row * width + col
    return _alternating(marks, shape[0] * shape[1]).reshape(shape)


def _alternating(marks: np.ndarray, size: int) -> np.ndarray:
    """A flat bool array of `size` that starts False and flips at each of
    the sorted flat positions `marks`: one np.repeat of alternating runs."""
    bounds = np.empty(marks.size + 2, dtype=marks.dtype)
    bounds[0], bounds[1:-1], bounds[-1] = 0, marks, size
    value = np.zeros(marks.size + 1, dtype=bool)
    value[1::2] = True
    return np.repeat(value, bounds[1:] - bounds[:-1])


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
    foreground too. Arguments, result and errors are rasterize_polygon's,
    whose fill this is, and the outline shares its _Edges.

    The outline is every vertex plus, on each edge longer than 0.5 px,
    the n - 1 interior points at fractions k / n (n = ceil(length /
    0.5)); each marks the pixel it falls in, and the whole stack's are
    stamped through one flat index.
    Only the k whose points can land in the frame are generated: when a
    vertex of the stack is NaN or lies outside the frame widened by one
    pixel, each edge is clipped to that widened frame, axis by axis, and
    one more k is taken on each side, so the work is bounded by the
    frame and not by the coordinates: O(perimeter in the frame) time and
    memory besides the fill's.
    """
    edges, single, width, height = _polygon(vertices, width, height)
    out = _fill(edges, width, height)
    x1, y1, dx, dy = edges.x1, edges.y1, edges.dx, edges.dy
    lengths = np.hypot(dx, dy)
    # k and n must be exact in float64: longer edges get no interior points
    long_edges = np.flatnonzero((lengths > 0.5) & (lengths < 2.0 ** 52))
    n = np.ceil(lengths[long_edges] / 0.5)
    right, bottom = width + 1.0, height + 1.0  # the frame widened by one pixel
    # a NaN fails every comparison, so it takes the clip; the initial 0.0
    # lies in the widened frame and gives an empty stack a value to test
    if (x1.min(initial=0.0) >= -1.0 and x1.max(initial=0.0) <= right
            and y1.min(initial=0.0) >= -1.0 and y1.max(initial=0.0) <= bottom):
        first, stop = 1, n  # k = 1 .. n - 1 on each long edge
    else:
        # slab clip: (x0, y0) + s * (ex, ey) lies in the widened frame for s
        # in [lo, hi]; fmin/fmax drop the 0/0 of an edge lying on the widened
        # border
        x0, y0, ex, ey = x1[long_edges], y1[long_edges], dx[long_edges], dy[long_edges]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sx1, sx2 = (-1.0 - x0) / ex, (right - x0) / ex
            sy1, sy2 = (-1.0 - y0) / ey, (bottom - y0) / ey
        lo = np.fmax(np.fmin(sx1, sx2), np.fmin(sy1, sy2))
        hi = np.fmin(np.fmax(sx1, sx2), np.fmax(sy1, sy2))
        first = np.clip(np.floor(lo * n) - 1, 1, n).astype(int)
        stop = np.clip(np.ceil(hi * n) + 2, first, n)
    sample, k = _expand(first, stop.astype(int))
    frac = k / n[sample]
    e = long_edges[sample]
    x = np.concatenate([x1, x1[e] + frac * dx[e]])
    y = np.concatenate([y1, y1[e] + frac * dy[e]])
    # the polygon of each vertex and each point, from its edge's index
    polygon = np.concatenate([np.arange(x1.size), e]) // edges.sides
    keep = (x >= 0) & (x < width) & (y >= 0) & (y < height)
    # kept coordinates are not negative, so truncation is their floor
    rows, cols = y[keep].astype(np.intp), x[keep].astype(np.intp)
    out.ravel()[(polygon[keep] * height + rows) * width + cols] = True
    return out[0] if single else out
