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
per pattern, and each pixel becomes one lookup in a 768-entry table
indexed by (x, T(w)).  Extraction transforms one difference instead of
two images.  Arithmetic is exact, hence embed-then-extract returns w
exactly and any residue change anywhere in a block damages that block's
extracted cell.

The divisible part is capped at 252 (pixels 253-255 share d = 252) so
that x' = d + r' <= 254 always fits 8 bits; the cap costs at most 3 grey
levels on pixels of value 255 and never disturbs x' mod 3 = r', which is
all extraction reads.  Per-pixel changes that are 0 mod 3, such as a +3
intensity shift, are invisible to the scheme; that blind spot is
inherent, not a bug.

Extraction is non-blind: it needs the original image, pixel-aligned with
the suspect.  Block-level functions are the pure-Python reference route;
image-level functions vectorize the same math with numpy and must match
the block route bit for bit (the test suite holds them to that).
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import hntt
from .imageio import as_gray, as_ternary, check_multiple_of_4

# Pixel decomposition tables, indexed by pixel value.
RESIDUE_TABLE = tuple(v % 3 for v in range(256))
DIVISIBLE_TABLE = tuple(min(v - v % 3, 252) for v in range(256))

# Marked pixel value by (pixel x, transformed watermark entry t):
# _EMBED[x, t] = d(x) + (r(x) + t) mod 3, entry 3*x + t of 768 bytes.
_EMBED = np.array(
    [[d + (r + t) % 3 for t in range(3)] for r, d in zip(RESIDUE_TABLE, DIVISIBLE_TABLE)],
    dtype=np.uint8,
)
_H = np.array(hntt.H4, dtype=np.int16)

ResidueDecomposition = namedtuple("ResidueDecomposition", ["residue", "divisible"])


def checkerboard_cell() -> np.ndarray:
    """The built-in default watermark: a 4x4 0/1 checkerboard."""
    return np.array(
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.uint8
    )


def _check_pixel_block(block, name: str = "block") -> None:
    if len(block) != 4:
        raise ValueError("%s must be 4x4, got %d rows" % (name, len(block)))
    for row in block:
        if len(row) != 4:
            raise ValueError("%s must be 4x4, got a row of length %d" % (name, len(row)))
        for v in row:
            if not 0 <= v <= 255:
                raise ValueError("%s pixels must be in [0, 255], got %r" % (name, v))


def decompose(block) -> ResidueDecomposition:
    """Split a 4x4 pixel block into residue and divisible parts.

    residue = pixel mod 3; divisible = pixel - residue, capped at 252.
    Both come from 256-entry tables indexed by pixel value.
    """
    _check_pixel_block(block)
    residue = [[RESIDUE_TABLE[v] for v in row] for row in block]
    divisible = [[DIVISIBLE_TABLE[v] for v in row] for row in block]
    return ResidueDecomposition(residue, divisible)


def embed_block(block, w) -> list[list[int]]:
    """Embed one ternary cell into one pixel block (reference route)."""
    residue, divisible = decompose(block)
    transformed = hntt.special_hntt_2d(residue)
    marked = [[(transformed[i][k] + w[i][k]) % 3 for k in range(4)] for i in range(4)]
    back = hntt.inverse_special_hntt_2d(marked)
    return [[divisible[i][k] + back[i][k] for k in range(4)] for i in range(4)]


def extract_block(original, suspect) -> list[list[int]]:
    """Recover the embedded cell as the transform-domain residue difference."""
    res_orig, _ = decompose(original)
    res_susp, _ = decompose(suspect)
    t_orig = hntt.special_hntt_2d(res_orig)
    t_susp = hntt.special_hntt_2d(res_susp)
    return [[(t_susp[i][k] - t_orig[i][k]) % 3 for k in range(4)] for i in range(4)]


def _blockify(arr: np.ndarray) -> np.ndarray:
    h, w = arr.shape
    return arr.reshape(h // 4, 4, w // 4, 4).swapaxes(1, 2)


def _unblockify(blocks: np.ndarray) -> np.ndarray:
    by, bx = blocks.shape[:2]
    return blocks.swapaxes(1, 2).reshape(by * 4, bx * 4)


def _pattern_cells(pattern, blocks_y: int, blocks_x: int) -> np.ndarray:
    """Validate a pattern as a 4x4 cell or a full (blocks_y*4, blocks_x*4)
    grid and return it as uint8: the cell as is, the grid blockified to
    (blocks_y, blocks_x, 4, 4).  Either broadcasts against a blockified
    image, so a cell is never tiled."""
    arr = np.asarray(pattern)
    if arr.shape == (4, 4):
        return as_ternary(arr)
    if arr.shape == (blocks_y * 4, blocks_x * 4):
        return _blockify(as_ternary(arr))
    raise ValueError(
        "watermark pattern shape %s matches neither a 4x4 cell nor the %dx%d block grid"
        % (arr.shape, blocks_x, blocks_y)
    )


def _special_batch(blocks: np.ndarray) -> np.ndarray:
    """H * A * H over a stack of 4x4 blocks, mod 3 (any leading shape).

    Returns uint8 values in {0, 1, 2}.  A single final reduction is exact
    for any entries in [-255, 255]: the triple product is bounded by
    255*2*4 * 2*4 = 16320 in magnitude, inside int16.
    """
    return (np.matmul(np.matmul(_H, blocks.astype(np.int16, copy=False)), _H) % 3).astype(np.uint8)


def _embed_blocks(blocks: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Embed cells into (..., 4, 4) uint8 pixel blocks: x' = _EMBED[x, T(w)].

    cells is one 4x4 cell or a stack broadcasting against blocks; T runs
    once per cell, never on the pixels.  With one cell the gather keeps
    the memory order of blocks, so a blockified image view comes back in
    image order and unblockifying it copies nothing.
    """
    return _EMBED[blocks, _special_batch(cells)]


def embed_image(image, pattern) -> np.ndarray:
    """Embed a watermark pattern blockwise into a whole image.

    Blocks are independent; the result equals running embed_block over
    every 4x4 tile in any order.
    """
    img = check_multiple_of_4(as_gray(image), "image")
    cells = _pattern_cells(pattern, img.shape[0] // 4, img.shape[1] // 4)
    return _unblockify(_embed_blocks(_blockify(img), cells))


def extract_image(original, suspect) -> np.ndarray:
    """Extract the full-grid watermark pattern from an image pair."""
    orig = check_multiple_of_4(as_gray(original), "original")
    susp = check_multiple_of_4(as_gray(suspect), "suspect")
    if orig.shape != susp.shape:
        raise ValueError(
            "dimension mismatch: original is %dx%d, suspect is %dx%d"
            % (orig.shape[1], orig.shape[0], susp.shape[1], susp.shape[0])
        )
    # r_s - r_o == s - o (mod 3), so the pixel difference is transformed as is
    diff = _blockify(susp).astype(np.int16) - _blockify(orig)
    return _unblockify(_special_batch(diff))


@dataclass
class TamperReport:
    """Per-block extraction damage and tamper verdicts for one image pair."""

    threshold: int
    distances: np.ndarray  # (grid_height, grid_width) Hamming distances, 0..16

    @property
    def grid_width(self) -> int:
        return self.distances.shape[1]

    @property
    def grid_height(self) -> int:
        return self.distances.shape[0]

    @property
    def tampered(self) -> np.ndarray:
        """Per-block verdicts, distance > threshold (bool, same shape)."""
        return self.distances > self.threshold

    @property
    def total_tampered(self) -> int:
        return int(self.tampered.sum())

    def to_dict(self) -> dict:
        return {
            "grid_width": self.grid_width,
            "grid_height": self.grid_height,
            "threshold": self.threshold,
            "distances": [int(v) for v in self.distances.ravel()],
            "tampered": [bool(v) for v in self.tampered.ravel()],
            "total_tampered": self.total_tampered,
        }

    def to_text(self) -> str:
        lines = [
            "grid_width=%d" % self.grid_width,
            "grid_height=%d" % self.grid_height,
            "threshold=%d" % self.threshold,
            "total_tampered=%d" % self.total_tampered,
        ]
        for i, (dist, flag) in enumerate(zip(self.distances.ravel(), self.tampered.ravel())):
            lines.append("block=%d distance=%d tampered=%d" % (i, dist, flag))
        return "\n".join(lines)


def verify(original, suspect, reference, threshold: int = 0) -> TamperReport:
    """Compare the extracted pattern against a reference, block by block.

    distance[b] is the Hamming distance (0..16) between block b's
    extracted cell and the reference cell; the block is flagged when the
    distance exceeds the threshold.  The default threshold 0 flags any
    damage at all, which is the point of a fragile watermark.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0, got %d" % threshold)
    extracted = extract_image(original, suspect)
    by, bx = extracted.shape[0] // 4, extracted.shape[1] // 4
    distances = (_blockify(extracted) != _pattern_cells(reference, by, bx)).sum(axis=(2, 3))
    return TamperReport(threshold=threshold, distances=distances)
