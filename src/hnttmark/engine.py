"""Block-parallel embedding engine and throughput benchmark.

An (n, 4, 4) block stack is the (4n, 4) image, so the engine embeds it
through the same core, bands and threads as watermark.embed_image, with
`workers` as a cap on threads; outputs are bit-identical for any worker
count and any number of CPUs.  The benchmark reports measured blocks per
second plus the equivalent frame rate for the chosen frame size
(blocks_per_second / blocks_per_frame).  That is the same arithmetic
that maps a dedicated 100 MHz one-block-per-cycle pipeline to 95.37 Hz
at 4096x4096 (1e8 / 1_048_576); desk software is not expected to reach
such rates, and none are asserted here, only reported.

`workers`, `iterations` and the frame sizes pass imageio's integer
rule before any work starts, whatever the number of CPUs.
"""

import dataclasses
import time

import numpy as np

from .imageio import _integer, as_pixels
from .watermark import _embed, _pattern_cells, checkerboard_cell


def _as_block_stack(blocks) -> np.ndarray:
    if isinstance(blocks, (list, tuple)) and len(blocks) == 0:
        return np.zeros((0, 4, 4), dtype=np.uint8)
    message = "expected a stack of 4x4 blocks, got shape %s"
    return as_pixels(blocks, shape=lambda got: None if len(got) == 3 and got[1:] == (4, 4) else message % (got,))


def process_blocks(blocks, pattern, workers: int = 1) -> np.ndarray:
    """Embed a watermark into every 4x4 block on at most `workers` threads.

    The stack (n, 4, 4) is the (4n, 4) image, and this is embed_image's
    core on that view: bands of about _BAND_PIXELS pixels on
    min(workers, cpus, bands) threads, where cpus counts the CPUs this
    process may use.  The calling thread works a share of the bands and
    helper threads the rest (see watermark._run_bands).  The output is
    identical to sequential per-block embedding regardless of worker
    count.  Accepts a list of 4x4 blocks or an (n, 4, 4) array; the
    pattern is a single cell applied to all blocks, or one cell per block.
    """
    workers = _integer(workers, "workers", 1)
    stack = _as_block_stack(blocks)
    n = stack.shape[0]
    cells = _pattern_cells(pattern, (n, 4, 4), "one cell per block (%d, 4, 4)" % n)
    return _embed(stack.reshape(-1, 4), cells.reshape(-1, 4), workers).reshape(n, 4, 4)


@dataclasses.dataclass
class BenchResult:
    """Measured embedding throughput over a synthetic frame stream."""

    blocks_processed: int
    elapsed_seconds: float
    blocks_per_second: float
    equivalent_frame_rate: float
    worker_count: int
    frame_width: int
    frame_height: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def __str__(self) -> str:
        frame_blocks = (self.frame_width // 4) * (self.frame_height // 4)
        return "\n".join(
            [
                "blocks_processed      %d" % self.blocks_processed,
                "elapsed_seconds       %.6f" % self.elapsed_seconds,
                "blocks_per_second     %.1f" % self.blocks_per_second,
                "equivalent_frame_rate %.4f Hz (frame %dx%d = %d blocks)"
                % (self.equivalent_frame_rate, self.frame_width, self.frame_height, frame_blocks),
                "workers               %d" % self.worker_count,
            ]
        )


def _frame(frame_width: int, frame_height: int) -> tuple[int, int, int]:
    """Width, height and blocks per frame as Python ints, for dimensions
    that are positive multiples of 4."""
    width, height = _integer(frame_width, "frame_width"), _integer(frame_height, "frame_height")
    if width <= 0 or height <= 0 or width % 4 or height % 4:
        raise ValueError("frame dimensions must be positive multiples of 4, got %dx%d" % (width, height))
    return width, height, (width // 4) * (height // 4)


def frame_rate_equivalent(blocks_per_second: float, frame_width: int, frame_height: int) -> float:
    """Frame rate a given block throughput sustains at a given resolution."""
    return blocks_per_second / _frame(frame_width, frame_height)[2]


def _synthetic_frame(width: int, height: int) -> np.ndarray:
    """Deterministic test frame covering all pixel values and residues."""
    # uint8 addition wraps mod 256, so only the two small vectors need the
    # wide products: no full-size temporary
    rows = (np.arange(height, dtype=np.uint64) * 7 % 256).astype(np.uint8)[:, None]
    cols = (np.arange(width, dtype=np.uint64) * 13 % 256).astype(np.uint8)[None, :]
    return rows + cols


def benchmark(
    frame_width: int = 1024,
    frame_height: int = 1024,
    iterations: int = 5,
    workers: int = 1,
) -> BenchResult:
    """Embed synthetic frames repeatedly and report measured throughput."""
    iterations = _integer(iterations, "iterations", 1)
    frame_width, frame_height, frame_blocks = _frame(frame_width, frame_height)
    workers = _integer(workers, "workers", 1)
    frame = _synthetic_frame(frame_width, frame_height)
    stack = frame.reshape(frame_height // 4, 4, frame_width // 4, 4).swapaxes(1, 2).reshape(-1, 4, 4)
    cell = checkerboard_cell()

    process_blocks(stack[: min(256, frame_blocks)], cell, workers)  # warm-up
    start = time.perf_counter()
    for _ in range(iterations):
        process_blocks(stack, cell, workers)
    elapsed = time.perf_counter() - start

    blocks_processed = frame_blocks * iterations
    blocks_per_second = blocks_processed / elapsed
    return BenchResult(
        blocks_processed=blocks_processed,
        elapsed_seconds=elapsed,
        blocks_per_second=blocks_per_second,
        equivalent_frame_rate=blocks_per_second / frame_blocks,
        worker_count=workers,
        frame_width=frame_width,
        frame_height=frame_height,
    )
