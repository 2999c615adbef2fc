"""Pixel-domain operations on binary masks.

Masks are boolean numpy arrays of shape (height, width), True for
foreground; a mask with another number of dimensions raises
ValueError. Continuous coordinates use the pixel-center convention:
pixel (row r, col c) sits at (x = c + 0.5, y = r + 0.5), with y growing
downward. Foreground is 8-connected, background 4-connected.

Labelling, smoothing and tracing work on the row runs of the
foreground, found on the frame's rows packed 64 pixels to a word: one
np.packbits pass packs them, one pass over the words marks where each
pixel differs from the one before it, and only the nonzero words of the
marks are unpacked, so past the packing the cost follows the runs, and
the memory is two bits per frame pixel whatever the foreground's extent.
Components are labelled from those runs: two searchsorted calls find
the runs of the next row that each run touches, and a union of the
runs by hooking and pointer jumping joins them in a few O(runs) array
passes per hooking round. The boundary is traced from the kept runs
too, by following the cracks between pixels: each run end is a
vertical crack, and sorting the run ends on each grid line pairs the
cracks into the object's crack contours, O(runs * log(runs)) time. One
Python step per two cracks walks the outer contour from the first run,
so holes are not traced, and one sort of the pixels along it keeps each
pixel's first occurrence, O(boundary * log(boundary)) time.
The disc smoothing is interval coding on those runs (Ji, Piper & Tang
1989; Breuel 2008): a dilation is the union of the runs moved by each
disc row and widened by its half-width, an erosion is where all the runs
moved by each row and shrunk by its half-width meet, and each is one
np.sort of the runs' ends and a cumsum: O(runs * radius * log) time.
Polygons are filled from runs too: the sorted crossings of the
pixel-centre rows cut the output frames, in raster order, into runs of
alternating parity, so a fill costs O(crossings * log(crossings) +
frames) time and O(crossings) bytes besides the output frames; every
frame byte is written, even for a small object on a large frame. A
(B, n, 2) stack of polygons is filled and outlined by the same numpy
calls as one polygon, into (B, height, width) frames, and each slice
equals the single-polygon raster bit for bit. The noise sweep of
experiments.sensitivity_sweep rasterizes in such stacks of at most
4 MiB of frames.

Boundary extraction, shared with metrics.compare_masks, packs each
frame's rows 8 pixels to a byte in one pass, then finds the box and the
4-neighbour boundary on 64-bit words of the packed rows: O(box / 8)
bytes besides the packing, about 0.19 B of traced memory per frame
pixel on a 4096^2 blob (0.39 for compare_masks).
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
    """Serialize a 2-D boolean mask as binary PGM, foreground = 255.
    The pixels are cast and scaled in one pass, in C order even for a
    transposed mask, and copied once into the result. A mask with no rows
    or no columns raises ValueError, as load_pgm rejects its header."""
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
    starts and stops in turn.
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


def _component_count(mask: np.ndarray) -> int:
    """Number of 8-connected foreground components."""
    return _label(*_runs(mask))[0]


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
    scan order on ties).

    Labels the row runs of the packed frame (_runs): one packbits pass
    and one pass over the packed words, then a few O(runs) array passes
    per hooking round. The result is a copy of the mask when it is one
    component, and is otherwise written from the kept runs, one np.repeat
    over the frame.
    """
    mask = _as_2d(mask)
    starts, stops, stride = _runs(mask)
    kept = _largest(starts, stops, stride)
    if kept[0].size == starts.size:
        return mask.copy()
    return _frame(*kept, stride, mask.shape)


def morphological_smooth(mask: np.ndarray, radius: int) -> np.ndarray:
    """Opening followed by closing with a disc of the given radius.

    The filter runs on the row runs of the packed frame (_runs) as in the
    unbounded plane, and its result lies within the runs' bounding box:
    O(runs * radius * log) time besides the packing and writing the
    output frame. A radius that is not an integer raises TypeError, a
    negative one ValueError.
    """
    radius = _radius(radius)
    mask = _as_2d(mask)
    starts, stops, stride = _runs(mask)
    return _frame(*_smooth(starts, stops, stride, radius), stride, mask.shape)


def _radius(radius) -> int:
    """A smoothing radius as an int: TypeError unless it is an integer
    (errors._integer), ValueError if it is negative."""
    radius = _integer(radius, "radius")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return radius


def _smooth(starts: np.ndarray, stops: np.ndarray, stride: int, radius: int):
    """(starts, stops) of the opening then closing, by the disc of `radius`,
    of the runs [starts[i], stops[i]) of _runs, with rows of `stride`
    bits; the result lies within the runs' bounding box. Rows
    are keyed `radius` wider on each side, so no moved run reaches
    another row, and an erosion counts at most one run per disc row at
    any pixel, as the runs of a row are disjoint.
    """
    wide = stride + 2 * radius
    lift = starts // stride * (2 * radius) + radius  # key: row * wide + col + radius
    starts, stops = starts + lift, stops + lift
    half = _disc(radius).sum(axis=1, keepdims=True) // 2
    shift = np.arange(-radius, radius + 1)[:, None] * wide
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


def _disc(radius: int) -> np.ndarray:
    # half-pixel slack so radius 1 covers the full 3x3 neighborhood;
    # a strict-radius disc degenerates to a plus and leaves 1-px spikes
    r = np.arange(-radius, radius + 1)
    dx, dy = np.meshgrid(r, r)
    return dx * dx + dy * dy <= (radius + 0.5) ** 2


def trace_boundary(mask: np.ndarray) -> BoundaryTrace:
    """Moore-neighbour boundary trace of a single 8-connected object: its
    outer boundary pixels, counterclockwise on screen from the
    top-left-most one, down its left side first. Returned pixel centers
    are unique; spur pixels walked twice are kept at first occurrence.
    Holes are not traced.

    The single-component check labels the row runs of the packed frame
    (_runs), one packbits pass and one pass over the packed words plus a
    few O(runs) array passes per hooking round, and the trace follows the
    cracks of those runs: O(runs * log(runs)) to pair them,
    O(boundary * log(boundary)) to keep first occurrences (_run_trace).
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
    largest component replaces it unless empty). The component is
    labelled once from the row runs of the packed frame (_runs), one
    packbits pass and one pass over the packed words plus a few O(runs)
    array passes per hooking round, and traced from its runs alone
    (_run_trace): O(runs * log(runs)) to pair their cracks,
    O(boundary * log(boundary)) to keep first occurrences. Holes are not
    traced. The packed rows and their change words, one bit per frame
    pixel each, are the largest arrays held, both while the runs are
    found, whatever the foreground's extent.

    Raises TypeError for a smooth_radius that is not an integer,
    ValueError for a negative one, EmptyMaskError on an empty mask and
    DegenerateShapeError when the object has fewer than 4 pixels or its
    boundary fewer than 4 points.
    """
    smooth_radius = _radius(smooth_radius)
    starts, stops, stride = _runs(_as_2d(mask))
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
    reaches a hole. Each crack then gives its owner and the pixels along
    its horizontal crack: heading east, those of the row above it;
    heading west, those of the row below. One sort finds each pixel's
    first occurrence.
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
    border, in raster order.

    One pass over the frame packs its rows 8 pixels to a byte (_packed);
    the box of bytes holding the foreground is found on the packed rows,
    and the boundary on that box 64 pixels at a time (_boundary), so the
    rest takes O(bounding box / 8) bytes. A mask that is not 2-D raises
    ValueError.
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
    only the words holding a boundary pixel are unpacked.
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
    """Even-odd scanline fill of a closed polygon into a width x height mask.

    A pixel is foreground iff its center lies inside; vertices outside
    the frame are fine (the fill clips naturally). `vertices` is an
    (n, 2) array of (x, y) with n >= 3, giving a (height, width) mask,
    or a stack of B such polygons, (B, n, 2), giving (B, height, width)
    masks whose slices equal the single-polygon calls bit for bit. Each
    edge crosses the rows whose center y lies in [ymin, ymax), so a
    shared vertex is counted once and horizontal edges never; a crossing
    at x flips the parity of every pixel in its row whose center is >= x.
    The sorted crossings of the whole stack split the B frames, in
    raster order, into runs of alternating parity, written by one
    np.repeat. Time is O(crossings * log(crossings) + B * frame), and
    every frame byte is written even for a small object on a large
    frame; memory is the output frames plus O(crossings). An infinite
    coordinate raises ValueError.
    """
    a, b, single, width, height = _polygon(vertices, width, height)
    out = _fill(a, b, width, height)
    return out[0] if single else out


def _polygon(vertices, width: int, height: int):
    """(vertices, next vertices, single, width, height): the polygons as
    (B, n, 2) float arrays, after checking the stack, the frame (integers
    >= 1) and that no coordinate is infinite, whether the input was one
    (n, 2) polygon, and the frame as ints."""
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
    return a, np.concatenate([a[:, 1:], a[:, :1]], axis=1), single, width, height


def _fill(a: np.ndarray, b: np.ndarray, width: int, height: int) -> np.ndarray:
    """The even-odd fills, (B, height, width), of the polygons with edges
    a[p, i] -> b[p, i]."""
    count, sides = a.shape[:2]
    (x1, y1), (x2, y2) = a.reshape(-1, 2).T, b.reshape(-1, 2).T
    ys = np.arange(height) + 0.5
    # rows first..last-1 are those with ymin <= ys < ymax (half-open)
    first = np.searchsorted(ys, np.minimum(y1, y2), side="left")
    last = np.searchsorted(ys, np.maximum(y1, y2), side="left")
    edges, rows = _expand(first, last)
    t = (ys[rows] - y1[edges]) / (y2 - y1)[edges]
    xs = x1[edges] + t * (x2 - x1)[edges]
    # first pixel center >= xs, or `width` when there is none
    cols = np.searchsorted(np.arange(width) + 0.5, xs, side="left")
    # fill the B stacked frames in raster order, each crossing a flat
    # position where the parity flips. A crossing at col == width flips
    # nothing in its row and lands on the next row's first position; that
    # is right because, with the reset marks below, every row holds an
    # even number of marks, so every row starts at parity 0
    rows = edges // sides * height + rows    # row in the stacked frames
    marks = rows * width + cols
    # a NaN vertex can leave a row crossed an odd number of times: one more
    # mark at its end resets the parity for the next row, and that row
    # stays 1 up to the right edge
    odd = np.flatnonzero(np.bincount(rows, minlength=count * height) & 1)
    marks = np.concatenate([marks, (odd + 1) * width])
    marks.sort()
    return _alternating(marks, count * height * width).reshape(count, height, width)


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
    foreground too. `vertices` is one (n, 2) polygon or a (B, n, 2)
    stack, as for rasterize_polygon, and the result is (height, width)
    or (B, height, width) to match; each slice of a stack equals the
    single-polygon call bit for bit. The fill is rasterize_polygon's
    run-length fill. The outline is every vertex plus, on each edge
    longer than 0.5 px, the n - 1 interior points at fractions k / n
    (n = ceil(length / 0.5)); each marks the pixel it falls in, and the
    whole stack's are stamped through one flat index. Only the k whose
    points can land in the frame are generated: when a vertex of the
    stack lies outside the frame widened by one pixel, each edge is
    clipped to that widened frame, and one more k is taken on each side,
    so the work is bounded by the frame and not by the coordinates. Time
    is O(crossings * log(crossings) + B * frame + perimeter in the
    frame), the B * frame paid even for a small object on a large frame;
    memory is the output frames plus O(crossings + perimeter in the
    frame).
    """
    a, b, single, width, height = _polygon(vertices, width, height)
    out = _fill(a, b, width, height)
    sides = a.shape[1]
    a, step = a.reshape(-1, 2), (b - a).reshape(-1, 2)
    lengths = np.hypot(step[:, 0], step[:, 1])
    # k and n must be exact in float64: longer edges get no interior points
    long_edges = np.flatnonzero((lengths > 0.5) & (lengths < 2.0 ** 52))
    n = np.ceil(lengths[long_edges] / 0.5)
    first, stop = np.ones_like(n), n
    widened = np.array([width, height]) + 1.0
    if not np.all((a >= -1.0) & (a <= widened)):
        # slab clip: a + s * step lies in the widened frame for s in [lo, hi];
        # fmin/fmax drop the 0/0 of an edge lying on the widened border
        a0, d = a[long_edges], step[long_edges]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s1, s2 = (-1.0 - a0) / d, (widened - a0) / d
        lo = np.fmax(*np.fmin(s1, s2).T)
        hi = np.fmin(*np.fmax(s1, s2).T)
        first = np.clip(np.floor(lo * n) - 1, 1, n)
        stop = np.clip(np.ceil(hi * n) + 2, first, n)
    edges, k = _expand(first.astype(int), stop.astype(int))
    frac = k / n[edges]
    e = long_edges[edges]
    x = np.concatenate([a[:, 0], a[e, 0] + frac * step[e, 0]])
    y = np.concatenate([a[:, 1], a[e, 1] + frac * step[e, 1]])
    polygon = np.concatenate([np.arange(len(a)), e]) // sides
    keep = (x >= 0) & (x < width) & (y >= 0) & (y < height)
    rows, cols = np.floor(y[keep]).astype(np.intp), np.floor(x[keep]).astype(np.intp)
    out.ravel()[(polygon[keep] * height + rows) * width + cols] = True
    return out[0] if single else out
