"""Residue-channel fragile watermarking: embed, extract, verify.

Each pixel x is split as x = d + r with r = x mod 3 and d a multiple of
3; the watermark lives entirely in the residue channel.  The scheme is
defined by the paper's pipeline, which the block-level functions follow:

    embed    r -> R = T(r);  R' = (R + w) mod 3;  r' = T(R');  x' = d + r'
    extract  w = (T(residue(suspect)) - T(residue(original))) mod 3

where T is the separable 4x4 transform.  T is linear over GF(3) and an
involution (H*H == I and 4^-1 == 1 mod 3), so T(T(r) + w) = r + T(w) and
T(a) - T(b) = T(a - b).  The image-level functions compute the same
result with those identities:

    embed    x' = d + ((r + T(w)) mod 3)
    extract  w = T(r_s - r_o) mod 3

Embedding needs no transform of the image at all: T(w) is computed once
per cell (band by band for a full grid), and each pixel is then plain
uint8 arithmetic, q = min(x // 3, 84), d = 3q, m = x - d + T(w), x' = d +
m - 3*(m // 3).  Extraction transforms one difference instead of two
images: the digit r_s + 3 - r_o (1..5, equal to r_s - r_o mod 3), with
each residue computed as x - 3*(x // 3).  Floor division of uint8 by a
scalar is vectorized in numpy, and % is not, so no route needs a table
indexed by pixel value.  Arithmetic is exact, hence embed-then-extract
returns w exactly and any residue change anywhere in a block damages
that block's extracted cell.

Every image route runs through one driver, _run_bands, and so does
engine.process_blocks, which is _embed on the (4n, 4) view of its block
stack.  The driver cuts the pixel rows into contiguous bands of whole
block rows, about _BAND_PIXELS pixels each so that a band's temporaries
stay in cache, hands each route its band as a slice of pixel rows, and
runs them on min(threads or cpus, cpus, bands) threads, where cpus is
the number of CPUs this process may use (_cpus); only the engine passes
threads.  The calling thread works its share of the bands and helper
threads the rest (see _run_bands).
numpy releases the interpreter lock in the gathers and the arithmetic, so
bands overlap.  verify counts each band's distances straight into the
grid and never builds the extracted image.

Every image route runs T through one kernel, _transform, which performs
the paper's butterflies as table lookups on packed rows.  It works on an
(h, w) array in image layout, where a block row is 4 contiguous values,
so the block rows of a band are its consecutive 4-byte words; an
(n, 4, 4) block stack is the same thing as a (4n, 4) image.  A row of
digits x0..x3 (each 0..7) is read as one little-endian uint32, x0 in the
low byte, and two shift-or-mask steps pack it into the 12-bit code
x0 + 8*x1 + 64*x2 + 512*x3 (_row_codes).  The 4096-entry _ROW, built
from hntt.H4, maps a 12-bit row code to the base-3 code of H*row mod 3
(digits a0..a3, a0 most significant, < 81).  The flat 81x81 _ADD and
_SUB, indexed by 81*x + y, add and subtract two base-3 codes digitwise
mod 3, which runs the column butterflies on whole rows.  _column_pairs
stops one stage short, at the two pair codes 81*A0 + A2 and 81*A1 + A3
of each block.  Rows 0..3 of T are then one lookup each, in _ADD_WORDS
and _SUB_WORDS: entry p holds the four digits of _ADD[p] or _SUB[p] as
one uint32, bytes in memory order, so the words written in image layout
and viewed as bytes are the digits of T.  The bytes round-trip
unchanged, so the result does not depend on byte order.  The column
butterflies thus take 8 lookups per block, and the last 4 yield digits.

verify against a 4x4 cell stops at the pair codes: per call it builds
two 6561-entry tables that hold, for every pair code, the Hamming
distance of the two rows it yields to the cell's rows (_cell_distances),
and a block's distance is one lookup from each.  A full-grid reference
has no such per-row constant, so its bands transform and compare.

The divisible part is capped at 252 (pixels 253-255 share d = 252) so
that x' = d + r' <= 254 always fits 8 bits; the cap costs at most 3 grey
levels on pixels of value 255 and never disturbs x' mod 3 = r', which is
all extraction reads.  The image routes cap the quotient as q -= q == 85
(uint8 np.minimum against a scalar is ~20x slower); r = 3 at x = 255 is
folded by the mod-3 step.  Per-pixel changes that are 0 mod 3, such as a
+3 intensity shift, are invisible to the scheme; that blind spot is
inherent, not a bug.

Extraction is non-blind: it needs the original image, pixel-aligned with
the suspect.  Block-level functions are the pure-Python reference route;
image-level functions vectorize the same math with numpy and must match
the block route bit for bit (the test suite holds them to that).

Both routes take their input by one rule: pixels pass imageio.as_pixels
and GF(3) values imageio.as_ternary, that is an integer dtype, not bool,
in range; input that is not an array, a nested list say, is judged by
its values, so a bool among ints is rejected.  An image route also
requires whole 4x4 blocks, and a suspect the original's size, judged
before any value.  A block function requires shape (4, 4), checks each
argument once and computes on the checked values as Python ints.  Any
other input raises ValueError.
"""

import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hntt
from .imageio import _blocks, _integer, as_pixels, as_ternary

# Pixel decomposition tables, indexed by pixel value: the block route's
# reference, which the image routes compute in uint8 arithmetic instead.
RESIDUE_TABLE = tuple(v % 3 for v in range(256))
DIVISIBLE_TABLE = tuple(min(v - v % 3, 252) for v in range(256))

# Pixels per band of _run_bands: a band's temporaries stay in cache.
_BAND_PIXELS = 1 << 18


def _code(digits):
    """Pack 4 base-3 digits, digits[0] most significant, into one code < 81.
    digits holds the 4 digit arrays on its first axis."""
    return ((digits[0] * 3 + digits[1]) * 3 + digits[2]) * 3 + digits[3]


# Transform kernel tables (see the module docstring).  Every table is small
# and built with the long axis innermost, which keeps import cheap.
_D3 = (np.arange(81) // 3 ** np.arange(3, -1, -1)[:, None] % 3).astype(np.uint8)  # (4, 81)
# 12-bit row code x0 + 8*x1 + 64*x2 + 512*x3 (digits 0..7) -> base-3 code of H*row mod 3.
_ROW = _code(np.array(hntt.H4) @ (np.arange(4096) >> np.arange(0, 12, 3)[:, None] & 7) % 3).astype(np.uint8)
_ADD = _code((_D3[:, :, None] + _D3[:, None]) % 3).ravel()
_SUB = _code((_D3[:, :, None] + 3 - _D3[:, None]) % 3).ravel()
# Entry p is the digits of _ADD[p] (_SUB[p]) as one word, first digit in the
# first byte: the rows of the (81, 4) digit table, one uint32 per code.
_ADD_WORDS, _SUB_WORDS = np.ascontiguousarray(_D3.T).view(np.uint32).ravel()[[_ADD, _SUB]]
# Hamming distance between two base-3 row codes, by [x, y].
_DIST = (_D3[:, :, None] != _D3[:, None]).sum(0, dtype=np.uint8)


def _word_table(texts, dtype) -> np.ndarray:
    """Each text plus a comma, NUL-padded to one word of dtype: a gather
    from the table with the NULs dropped is a JSON list's items, each
    followed by a comma."""
    size = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join((t + ",").encode().ljust(size, b"\0") for t in texts), dtype=dtype)


# Report JSON tables: a distance 0..16 and a verdict as list items.
_DISTANCE_WORDS = _word_table([str(d) for d in range(17)], np.uint32)
_VERDICT_WORDS = _word_table(["false", "true"], np.uint64)

ResidueDecomposition = namedtuple("ResidueDecomposition", ["residue", "divisible"])


def checkerboard_cell() -> np.ndarray:
    """The built-in default watermark: a 4x4 0/1 checkerboard."""
    return np.array(
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.uint8
    )


def decompose(block) -> ResidueDecomposition:
    """Split a 4x4 pixel block into residue and divisible parts.

    residue = pixel mod 3; divisible = pixel - residue, capped at 252.
    Both come from 256-entry tables indexed by pixel value.
    """
    block = hntt._checked(block, (4, 4), "block", as_pixels)
    residue = [[RESIDUE_TABLE[v] for v in row] for row in block]
    divisible = [[DIVISIBLE_TABLE[v] for v in row] for row in block]
    return ResidueDecomposition(residue, divisible)


def embed_block(block, w) -> list[list[int]]:
    """Embed one ternary cell into one pixel block (reference route).
    T is an involution, so one unchecked transform serves both ways."""
    residue, divisible = decompose(block)
    w = hntt._checked(w, (4, 4), "watermark")
    transformed = hntt._separable(residue)
    marked = [[(transformed[i][k] + w[i][k]) % 3 for k in range(4)] for i in range(4)]
    back = hntt._separable(marked)
    return [[divisible[i][k] + back[i][k] for k in range(4)] for i in range(4)]


def extract_block(original, suspect) -> list[list[int]]:
    """Recover the embedded cell as the transform-domain residue difference."""
    t_orig = hntt._separable(decompose(original).residue)
    t_susp = hntt._separable(decompose(suspect).residue)
    return [[(t_susp[i][k] - t_orig[i][k]) % 3 for k in range(4)] for i in range(4)]


def _pattern_cells(pattern, shape: tuple, shape_text: str) -> np.ndarray:
    """Validate a pattern as a 4x4 cell or an array of `shape`, named by
    `shape_text` in the error, and return it as uint8."""
    message = "watermark pattern must be a 4x4 cell or %s, got shape %%s" % shape_text
    return as_ternary(pattern, shape=lambda got: None if got in ((4, 4), shape) else message % (got,))


def _row_codes(a: np.ndarray) -> np.ndarray:
    """The 12-bit code x0 + 8*x1 + 64*x2 + 512*x3 of every block row x0..x3
    of an (h, w) uint8 array of digits 0..7, as (h, w//4) uint32.

    Each block row is read as one little-endian word, x0 in the low byte,
    whatever the host byte order; two shift-or-mask steps then close the
    gaps between the 3-bit digits.  Needs a C-contiguous array (others are
    copied).
    """
    v = np.ascontiguousarray(a).view("<u4")
    t = v >> 5
    t |= v
    t &= 0x003F003F  # x0 + 8*x1 in bits 0-5, x2 + 8*x3 in bits 16-21
    v = t >> 10
    v |= t
    v &= 0xFFF
    return v


def _column_pairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T of every 4x4 block of an (h, w) uint8 array of digits 0..7, mod 3,
    up to its last four lookups: the pair codes 81*A0 + A2 and 81*A1 + A3,
    each (h//4, w//4) uint16.

    H runs along each block row through _ROW, then down the columns as the
    two butterfly stages of hntt.hntt_1d_fast on whole row codes through
    _ADD and _SUB: A0, A1 (A2, A3) are the sum and difference of rows 0
    and 1 (2 and 3), and rows 0..3 of the result are _ADD and _SUB of the
    first pair code, then of the second.
    """
    h, w = a.shape
    rows = _ROW.take(_row_codes(a)).reshape(h // 4, 4, w // 4)
    pair01 = np.multiply(rows[:, 0], 81, dtype=np.uint16) + rows[:, 1]
    pair23 = np.multiply(rows[:, 2], 81, dtype=np.uint16) + rows[:, 3]
    pair02 = np.multiply(_ADD.take(pair01), 81, dtype=np.uint16) + _ADD.take(pair23)
    pair13 = np.multiply(_SUB.take(pair01), 81, dtype=np.uint16) + _SUB.take(pair23)
    return pair02, pair13


def _transform(a: np.ndarray) -> np.ndarray:
    """T of every 4x4 block of an (h, w) uint8 array of digits 0..7, mod 3.

    h and w are multiples of 4; the result is uint8 in {0, 1, 2}, in image
    layout like the input.
    """
    h, w = a.shape
    pair02, pair13 = _column_pairs(a)
    out = np.empty((h // 4, 4, w // 4), dtype=np.uint32)
    out[:, 0] = _ADD_WORDS.take(pair02)
    out[:, 1] = _SUB_WORDS.take(pair02)
    out[:, 2] = _ADD_WORDS.take(pair13)
    out[:, 3] = _SUB_WORDS.take(pair13)
    return out.view(np.uint8).reshape(h, w)


def _cell_distances(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance tables of a 4x4 ternary cell over the pair codes of
    _column_pairs, two 6561-entry uint8 arrays.  Rows 0 and 1 of a
    transformed block are _ADD and _SUB of its first pair code p, so entry
    p of the first table is their Hamming distance to the cell's rows 0
    and 1; the second does the same for rows 2 and 3 and the second pair
    code.  A block's distance to the cell is one lookup in each."""
    c0, c1, c2, c3 = _code(cell.T)
    return _DIST[_ADD, c0] + _DIST[_SUB, c1], _DIST[_ADD, c2] + _DIST[_SUB, c3]


def _band_rows(w: int) -> int:
    """Pixel rows per band of _run_bands for an image w pixels wide: whole
    block rows, about _BAND_PIXELS pixels, at least one block row."""
    return 4 * max(1, _BAND_PIXELS // (4 * w))


def _cpus() -> int:
    """The number of CPUs this process may use: its affinity set, which
    taskset and cpusets narrow, or os.cpu_count() where there is none."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _new_pool() -> None:
    """Build the process's pool of band helper threads (see _run_bands)."""
    global _pool
    _pool = ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="hnttmark-band")


_new_pool()
if hasattr(os, "register_at_fork"):  # POSIX; elsewhere there is no fork
    os.register_at_fork(after_in_child=_new_pool)


def _run_bands(work, h: int, w: int, threads: int | None = None) -> None:
    """Call work(rows) once per band of an (h, w) image, h a multiple of
    4: rows is a slice of the pixel rows [0, h), _band_rows(w) long (the
    last may be shorter), so every band is whole block rows.

    The bands run on size = min(threads or cpus, cpus, bands) threads,
    where cpus = _cpus() counts the CPUs this process may use: the calling
    thread runs bands[0::size] and size - 1 tasks on the helper pool run
    bands[k::size].  With size 1 every band runs inline, in order.  The
    helper pool, _pool, is one per process with max(1, cpus - 1) threads.
    _new_pool builds it at import and again in a child made with
    os.fork(), whose inherited copy would never run a task.  It starts a
    thread only when a task is submitted, so importing the package and
    one-thread calls start none, and the threads it starts are kept.  No
    band waits on the pool, so calls from many threads share it without
    deadlock.  The call returns or raises only once all its bands are
    done; an exception raised in a band propagates unchanged, the
    caller's own first, then the first helper's.
    """
    step = _band_rows(w)
    bands = [slice(lo, min(lo + step, h)) for lo in range(0, h, step)]
    cpus = _cpus()
    size = max(1, min(threads or cpus, cpus, len(bands)))

    def share(k: int) -> None:
        for rows in bands[k::size]:
            work(rows)

    helpers = []
    try:
        for k in range(1, size):
            helpers.append(_pool.submit(share, k))
        share(0)
    finally:
        wait(helpers)
    for helper in helpers:
        helper.result()


def _embed_into(out: np.ndarray, x: np.ndarray, t: np.ndarray) -> None:
    """out = d + (r + t) mod 3 with d = 3*min(x // 3, 84) and r = x - d
    (r = 3 at x = 255, which the mod folds), for pixels x and transformed
    cells t of x's shape; out must not overlap x.  All in uint8, and built
    up in out: numpy vectorizes floor division by a scalar, and not %."""
    d = x // 3
    d -= d == 85  # not np.minimum: against a scalar it is ~20x slower
    d *= 3
    np.subtract(x, d, out=out)
    out += t
    q = out // 3
    q *= 3
    out -= q
    out += d


def _embed(img: np.ndarray, cells: np.ndarray, threads: int | None = None) -> np.ndarray:
    """embed_image on validated (h, w) uint8 pixels and a validated 4x4
    cell or (h, w) grid, with the bands on at most `threads` threads (see
    _run_bands).  A cell is transformed once and tiled to one band, which
    every band slices; a grid is transformed band by band."""
    h, w = img.shape
    out = np.empty((h, w), dtype=np.uint8)
    cell = cells.shape == (4, 4)
    if cell:
        tile = np.tile(_transform(cells), (min(_band_rows(w), h) // 4, w // 4))

    def band(rows: slice) -> None:
        _embed_into(out[rows], img[rows], tile[: rows.stop - rows.start] if cell else _transform(cells[rows]))

    _run_bands(band, h, w, threads)
    return out


def embed_image(image, pattern) -> np.ndarray:
    """Embed a watermark pattern blockwise into a whole image.

    Blocks are independent; the result equals running embed_block over
    every 4x4 tile in any order.
    """
    img = as_pixels(image, shape=_blocks("image"))
    return _embed(img, _pattern_cells(pattern, img.shape, "%dx%d like the image" % img.shape[::-1]))


def _image_pair(original, suspect) -> tuple[np.ndarray, np.ndarray]:
    """The original and the suspect as uint8, each judged whole, shape
    first: the suspect's shape must equal the original's."""
    orig = as_pixels(original, "original", _blocks("original"))
    return orig, as_pixels(suspect, "suspect", _blocks("suspect", orig.shape))


def _residue(x: np.ndarray) -> np.ndarray:
    """x mod 3 of uint8 pixels, as x - 3*(x // 3)."""
    r = x // 3
    r *= 3
    np.subtract(x, r, out=r)
    return r


def _difference_digits(orig: np.ndarray, susp: np.ndarray) -> np.ndarray:
    """r_s + 3 - r_o per pixel: a digit 1..5 that is r_s - r_o mod 3, the
    residue difference whose transform is the extracted pattern."""
    digits = _residue(susp)
    digits += 3
    digits -= _residue(orig)
    return digits


def extract_image(original, suspect) -> np.ndarray:
    """Extract the full-grid watermark pattern from an image pair."""
    orig, susp = _image_pair(original, suspect)
    h, w = orig.shape
    out = np.empty((h, w), dtype=np.uint8)

    def band(rows: slice) -> None:
        out[rows] = _transform(_difference_digits(orig[rows], susp[rows]))

    _run_bands(band, h, w)
    return out


def tamper_regions(flags: np.ndarray) -> list[tuple[int, int, int, int, int]]:
    """The 8-connected regions of a 2-D bool grid, as (x0, x1, y0, y1, count).

    Bounds are inclusive grid coordinates and count is the number of set
    cells.  Regions are ordered by their first cell in row-major order.
    Only set cells are labelled, in whole-array passes: numpy finds the
    runs of each row and the pairs of runs in adjacent rows that touch,
    then hooking and pointer jumping, as in Shiloach and Vishkin's
    connectivity algorithm, point every run at the first run of its region.
    """
    h, w = flags.shape
    stride = w + 1
    # Row y, column x is cell y * stride + x + 1: a clear cell stands before
    # each row and one at the end, so no run crosses a row.
    cells = np.zeros(h * stride + 1, dtype=bool)
    cells[:-1].reshape(h, stride)[:, 1:] = flags
    starts, ends = (np.flatnonzero(cells[1:] != cells[:-1]) + 1).reshape(-1, 2).T  # ends exclusive
    # Run b touches run a of the row above when a.start <= b.end - stride and
    # b.start - stride <= a.end, diagonals included.  Starts and ends both
    # ascend, so the runs that touch b from above are one slice [lo, hi).
    lo = np.searchsorted(ends, starts - stride)
    hi = np.searchsorted(starts, ends - stride, "right")
    count = np.maximum(hi - lo, 0)
    upper = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(count.sum())
    lower = np.repeat(np.arange(len(starts)), count)

    # Hook each larger root under the smaller, then jump until every run
    # points at its root.  parent[i] <= i throughout, so a root is the
    # first run of its region.
    parent = np.arange(len(starts))
    while ((a := parent[upper]) != (b := parent[lower])).any():
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while ((jumped := parent[parent]) != parent).any():
            parent = jumped

    first = parent == np.arange(len(parent))
    region = (np.cumsum(first) - 1)[parent]
    y, x = np.divmod(starts, stride)  # x is the start column + 1
    x0 = np.full(np.count_nonzero(first), w)
    x1, y1, blocks = np.zeros((3, len(x0)), dtype=np.intp)
    np.minimum.at(x0, region, x - 1)
    np.maximum.at(x1, region, x + (ends - starts) - 2)
    np.maximum.at(y1, region, y)
    np.add.at(blocks, region, ends - starts)
    return list(zip(x0.tolist(), x1.tolist(), y[first].tolist(), y1.tolist(), blocks.tolist()))


@dataclass(frozen=True)
class TamperReport:
    """Per-block extraction damage and tamper verdicts for one image pair.

    A report is checked once, when it is built: distances must be a 2-D
    integer array of values 0..16 and threshold must be an integer >= 0
    (a Python or numpy integer, not a bool, kept as a Python int), or the
    constructor raises ValueError.  It keeps a read-only copy of the
    distances and its fields cannot be reassigned, so the verdicts are
    computed once, on first use, and every renderer reads the same grid.

    to_text is the summary: the grid size, threshold and tampered count,
    then the tampered regions (8-connected groups of flagged blocks) as
    inclusive block bounding boxes, then the histogram of distances 0..16.
    Block (x, y) covers pixel columns 4x..4x+3 and rows 4y..4y+3.  to_json
    is the full per-block dump that `verify --report` writes, as compact
    ASCII JSON; to_dict is the same document as a dict.
    """

    threshold: int
    distances: np.ndarray  # (grid_height, grid_width) integer Hamming distances, 0..16

    def __post_init__(self):
        if not isinstance(d := self.distances, np.ndarray) or d.ndim != 2 or d.dtype.kind not in "iu":
            got = "%s of shape %s" % (getattr(d, "dtype", type(d).__name__), np.shape(d))
            raise ValueError("distances must be a 2-D integer array, got " + got)
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "distances", d)
        if d.size and (d.min() < 0 or d.max() > 16):
            raise ValueError("distances must be in 0..16, got %d..%d" % (d.min(), d.max()))
        object.__setattr__(self, "threshold", _integer(self.threshold, "threshold", 0))

    @property
    def grid_width(self) -> int:
        return self.distances.shape[1]

    @property
    def grid_height(self) -> int:
        return self.distances.shape[0]

    @cached_property
    def tampered(self) -> np.ndarray:
        """Per-block verdicts, distance > threshold (bool, same shape)."""
        return self.distances > self.threshold

    @cached_property
    def total_tampered(self) -> int:
        return int(np.count_nonzero(self.tampered))

    def to_dict(self) -> dict:
        return {
            "grid_width": self.grid_width,
            "grid_height": self.grid_height,
            "threshold": self.threshold,
            "distances": self.distances.ravel().tolist(),
            "tampered": self.tampered.ravel().tolist(),
            "total_tampered": self.total_tampered,
        }

    def to_json(self) -> bytes:
        """to_dict encoded as compact JSON, byte for byte what json.dumps
        with separators (",", ":") gives, without building Python lists:
        each list is one gather from a word table with the NULs dropped."""
        distances = _DISTANCE_WORDS.take(self.distances.ravel()).tobytes().translate(None, b"\0")
        tampered = _VERDICT_WORDS.take(self.tampered.ravel()).tobytes().translate(None, b"\0")
        return b"".join([
            b'{"grid_width":%d,"grid_height":%d,"threshold":%d,"distances":['
            % (self.grid_width, self.grid_height, self.threshold),
            memoryview(distances)[:-1],
            b'],"tampered":[',
            memoryview(tampered)[:-1],
            b'],"total_tampered":%d}' % self.total_tampered,
        ])

    def to_text(self) -> str:
        regions = tamper_regions(self.tampered)
        histogram = np.bincount(self.distances.ravel(), minlength=17)
        lines = [
            "grid_width=%d" % self.grid_width,
            "grid_height=%d" % self.grid_height,
            "threshold=%d" % self.threshold,
            "total_tampered=%d" % self.total_tampered,
            "regions=%d" % len(regions),
        ]
        for i, box in enumerate(regions):
            lines.append("region=%d x=%d..%d y=%d..%d blocks=%d" % ((i,) + box))
        lines.append("distance_histogram=" + " ".join(map(str, histogram.tolist())))
        return "\n".join(lines)


def verify(original, suspect, reference, threshold: int = 0) -> TamperReport:
    """Compare the extracted pattern against a reference, block by block.

    distance[b] is the Hamming distance (0..16) between block b's
    extracted cell and the reference cell; the block is flagged when the
    distance exceeds the threshold.  The default threshold 0 flags any
    damage at all, which is the point of a fragile watermark.  A threshold
    that is negative or not an integer raises ValueError after the images
    and the reference are checked and before any distance is computed.
    """
    orig, susp = _image_pair(original, suspect)
    cells = _pattern_cells(reference, orig.shape, "%dx%d like the image" % orig.shape[::-1])
    threshold = _integer(threshold, "threshold", 0)
    h, w = orig.shape
    distances = np.empty((h // 4, w // 4), dtype=np.uint8)

    if cells.shape == (4, 4):
        dist02, dist13 = _cell_distances(cells)

        def band(rows: slice) -> None:
            pair02, pair13 = _column_pairs(_difference_digits(orig[rows], susp[rows]))
            np.add(dist02.take(pair02), dist13.take(pair13), out=distances[rows.start // 4 : rows.stop // 4])

    else:

        def band(rows: slice) -> None:
            # Count in uint8 (at most 16 per block): add the 4 rows of each
            # block, then its 4 columns.  Far cheaper than a strided int64 sum.
            extracted = _transform(_difference_digits(orig[rows], susp[rows]))
            diff = (extracted.reshape(-1, 4, w) != cells[rows].reshape(-1, 4, w)).view(np.uint8)
            cols = (diff[:, 0] + diff[:, 1] + diff[:, 2] + diff[:, 3]).reshape(-1, w // 4, 4)
            np.add(cols[..., 0] + cols[..., 1], cols[..., 2] + cols[..., 3], out=distances[rows.start // 4 : rows.stop // 4])

    _run_bands(band, h, w)
    return TamperReport(threshold=threshold, distances=distances)
