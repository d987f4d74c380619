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
m - 3*(m // 3), where T(w) may be any value congruent to it mod 3 that
keeps m within a byte.  Extraction transforms one difference instead of two
images: the digit r_s + 3 - r_o (1..5, equal to r_s - r_o mod 3),
computed without either residue as s - o + 3*(o//3 - s//3 + 1) in uint8,
whose true value 1..5 no wrap mod 256 on the way can change.  Floor
division of uint8 by a scalar is vectorized in numpy, and % is not, so
no route needs a table indexed by pixel value.  Arithmetic is exact,
hence embed-then-extract returns w exactly and any residue change
anywhere in a block damages that block's extracted cell.

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

Every image route runs T through one kernel, _transform_sums, which
performs the paper's butterflies as one lookup per block row and then
plain adds, with no multiplier.  It works on an (h, w) array in image
layout, where a block row is 4 contiguous values, so the block rows of a
band are its consecutive 4-byte words; an (n, 4, 4) block stack is the
same thing as a (4n, 4) image.  A row of digits x0..x3 (each 0..7) is
read as one little-endian uint32, x0 in the low byte, and two
shift-or-mask steps pack it into the 12-bit code x0 + 8*x1 + 64*x2 +
512*x3 (_row_codes).  The 4096-entry uint32 _ROW, built from hntt.H4,
maps a row code to one word whose bytes, in memory order, are the digits
of H*row mod 3, so the row stage is one lookup per block row.  The column
stage adds those words: with p = r0 + r1 and q = r2 + r3 for the rows
r0..r3 of a block, its rows of T are p + q, p + 2q, p + q + r1 + r3 and
p + q + r1 + r2, each byte a sum of at most 6 digits of at most 2, so no
byte carries into the next and every byte is 0..12 and congruent to T mod
3.  The words are written in image layout, so their bytes are the
pixels of T up to that last mod 3; bytes round-trip unchanged, so the
result does not depend on byte order.  Each route folds the sums its own
way.  Embedding needs none: x - d + sums is at most 15, and its mod-3
step folds it.  Extraction takes s - 3*(s // 3).

verify runs one band for either reference, a 4x4 cell tiled once to one
band like embedding's T(cell), or a full grid read band by band.  With v
= sums + 3 - reference, 1..15 and 0 mod 3 exactly where the extracted
digit matches, v*171 mod 256 is at most 85 exactly when 3 divides v: 171
is the inverse of 3 mod 256, which maps the multiples of 3 in 0..255 onto
0..85 (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
2019).  The 16 mismatch flags of a block are the bytes of its four
block-row words; three word adds sum them bytewise (at most 4 per byte),
and multiplying by 0x01010101 gathers the four bytes into the top one,
the block's distance.

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


# Transform kernel table (see the module docstring): entry c, for the 12-bit
# row code c = x0 + 8*x1 + 64*x2 + 512*x3 of digits 0..7, is one word whose
# bytes, in memory order, are the digits of H*row mod 3.
_ROW_DIGITS = np.array(hntt.H4) @ (np.arange(4096) >> np.arange(0, 12, 3)[:, None] & 7) % 3  # (4, 4096)
_ROW = np.ascontiguousarray(_ROW_DIGITS.T, np.uint8).view(np.uint32).ravel()


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


def _transform_sums(a: np.ndarray) -> np.ndarray:
    """T of every 4x4 block of an (h, w) uint8 array of digits 0..7, up to
    its final mod 3: uint8 sums 0..12, each congruent to T mod 3, in image
    layout like the input.

    H runs along each block row through _ROW, which gives each block's
    rows r0..r3 as words of digits, then down the columns as plain word
    adds: with p = r0 + r1 and q = r2 + r3, rows 0..3 of the result are
    p + q, p + 2q, p + q + r1 + r3 and p + q + r1 + r2, the rows of H4.
    Each byte sums at most 6 digits of at most 2, so no byte carries.
    The lookup reads the codes of every block's row 0, then row 1, and so
    on, so each r_k and each partial sum is one contiguous array (numpy
    runs strided arrays several times slower), and only the four final
    adds write strided, into image layout.
    """
    h, w = a.shape
    r0, r1, r2, r3 = _ROW.take(_row_codes(a).reshape(h // 4, 4, w // 4).swapaxes(0, 1))
    out = np.empty((h // 4, 4, w // 4), dtype=np.uint32)
    s0, s1, s2, s3 = out.swapaxes(0, 1)
    q = r2 + r3
    c = r0 + r1
    c += q  # p + q
    np.copyto(s0, c)
    np.add(c, q, out=s1)
    c += r1
    np.add(c, r3, out=s2)
    np.add(c, r2, out=s3)
    return out.view(np.uint8).reshape(h, w)


def _band_rows(w: int) -> int:
    """Pixel rows per band of _run_bands for an image w pixels wide: whole
    block rows, about _BAND_PIXELS pixels, at least one block row."""
    return 4 * max(1, _BAND_PIXELS // (4 * w))


def _per_band(cells: np.ndarray, h: int, w: int, f):
    """The function rows -> f(cells[rows]) over the bands of an (h, w)
    image, for a validated 4x4 cell or (h, w) grid and a blockwise f.  A
    cell's f(cell) is computed once and tiled to one band, which every
    band slices; a grid's is computed band by band."""
    if cells.shape == (4, 4):
        tile = np.tile(f(cells), (min(_band_rows(w), h) // 4, w // 4))
        return lambda rows: tile[: rows.stop - rows.start]
    return lambda rows: f(cells[rows])


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
    (r = 3 at x = 255, which the mod folds), for pixels x and t of x's
    shape; t may be any uint8 congruent to T(w) mod 3 and at most 252, such
    as T's sums, since r + t then stays within a byte.  out must not
    overlap x.  All in uint8, and built up in out: numpy vectorizes floor
    division by a scalar, and not %."""
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
    _run_bands), and T(w) through _per_band."""
    h, w = img.shape
    out = np.empty((h, w), dtype=np.uint8)
    transformed = _per_band(cells, h, w, _transform_sums)

    def band(rows: slice) -> None:
        _embed_into(out[rows], img[rows], transformed(rows))

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


def _difference_digits(orig: np.ndarray, susp: np.ndarray) -> np.ndarray:
    """r_s + 3 - r_o per pixel: a digit 1..5 that is r_s - r_o mod 3, the
    residue difference whose transform is the extracted pattern.  It is
    s - o + 3*(o//3 - s//3 + 1) in uint8: the true value is 1..5, so
    wrapping mod 256 in the steps between cannot change it."""
    digits = orig // 3
    digits -= susp // 3
    digits += 1
    digits *= 3
    digits += susp
    digits -= orig
    return digits


def extract_image(original, suspect) -> np.ndarray:
    """Extract the full-grid watermark pattern from an image pair."""
    orig, susp = _image_pair(original, suspect)
    h, w = orig.shape
    out = np.empty((h, w), dtype=np.uint8)

    def band(rows: slice) -> None:
        sums = _transform_sums(_difference_digits(orig[rows], susp[rows]))
        q = sums // 3
        q *= 3
        np.subtract(sums, q, out=out[rows])

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

    negated = _per_band(cells, h, w, lambda c: 3 - c)

    def band(rows: slice) -> None:
        # a byte of (sums + 3 - reference) * 171 is > 85 where the digit
        # does not match (see the module docstring)
        sums = _transform_sums(_difference_digits(orig[rows], susp[rows]))
        sums += negated(rows)
        sums *= 171
        words = (sums > 85).view(np.uint32).reshape(-1, 4, w // 4)
        counts = words[:, 0] + words[:, 1]
        counts += words[:, 2]
        counts += words[:, 3]
        counts *= 0x01010101
        np.right_shift(counts, 24, out=distances[rows.start // 4 : rows.stop // 4], casting="unsafe")

    _run_bands(band, h, w)
    return TamperReport(threshold=threshold, distances=distances)
