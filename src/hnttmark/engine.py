"""Block-parallel embedding engine and throughput benchmark.

Blocks are mutually independent, so the engine partitions them into
contiguous ranges and lets each worker embed its own slice; outputs are
bit-identical for any worker count and any scheduling.  The benchmark
reports measured blocks per second plus the equivalent frame rate for
the chosen frame size (blocks_per_second / blocks_per_frame).  That is
the same arithmetic that maps a dedicated 100 MHz one-block-per-cycle
pipeline to 95.37 Hz at 4096x4096 (1e8 / 1_048_576); desk software is
not expected to reach such rates, and none are asserted here, only
reported.
"""

import dataclasses
import time

import numpy as np

from .imageio import as_pixels, as_ternary
from .watermark import _BAND_PIXELS, _embed_into, _run_bands, _transform, checkerboard_cell


def _as_block_stack(blocks) -> np.ndarray:
    if isinstance(blocks, (list, tuple)) and len(blocks) == 0:
        return np.zeros((0, 4, 4), dtype=np.uint8)
    arr = np.asarray(blocks)
    if arr.ndim != 3 or arr.shape[1:] != (4, 4):
        raise ValueError("expected a stack of 4x4 blocks, got shape %s" % (arr.shape,))
    return as_pixels(arr)


def _as_cells(pattern, count: int) -> np.ndarray:
    arr = np.asarray(pattern)
    if arr.shape != (4, 4) and arr.shape != (count, 4, 4):
        raise ValueError(
            "watermark must be a single 4x4 cell or one cell per block (%d, 4, 4), got shape %s"
            % (count, arr.shape)
        )
    return as_ternary(arr)


def process_blocks(blocks, pattern, workers: int = 1) -> np.ndarray:
    """Embed a watermark into every 4x4 block, fanning out over workers.

    The output is identical to sequential per-block embedding regardless
    of worker count.  The blocks are cut into `workers` disjoint
    contiguous slices, run by watermark's banded driver on a pool of at
    most os.cpu_count() threads; each slice works through cache-sized
    chunks with the same transform kernel and uint8 embed arithmetic as
    watermark.embed_image.  The stack (n, 4, 4) is the (4n, 4) image the
    kernel works on.  A single cell is transformed once before the
    fan-out; one cell per block is transformed chunk by chunk.
    Accepts a list of 4x4 blocks or an (n, 4, 4) array; the pattern is a
    single cell applied to all blocks, or one cell per block.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1, got %d" % workers)
    stack = _as_block_stack(blocks)
    n = stack.shape[0]
    cells = _as_cells(pattern, n)
    out = np.empty((n, 4, 4), dtype=np.uint8)
    single = cells.ndim == 2
    if single:  # once, before the fan-out, tiled to one chunk
        cells = np.tile(_transform(cells), (min(n, _BAND_PIXELS // 16), 1, 1))

    def chunk(lo: int, hi: int) -> None:
        t = cells[: hi - lo] if single else _transform(cells[lo:hi].reshape(-1, 4)).reshape(-1, 4, 4)
        _embed_into(out[lo:hi], stack[lo:hi], t)

    _run_bands(chunk, n, 16, workers if n >= 2 * workers else 1)
    return out


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


def _frame_blocks(frame_width: int, frame_height: int) -> int:
    """Blocks per frame, for dimensions that are positive multiples of 4."""
    if frame_width <= 0 or frame_height <= 0 or frame_width % 4 or frame_height % 4:
        raise ValueError("frame dimensions must be positive multiples of 4, got %dx%d"
                         % (frame_width, frame_height))
    return (frame_width // 4) * (frame_height // 4)


def frame_rate_equivalent(blocks_per_second: float, frame_width: int, frame_height: int) -> float:
    """Frame rate a given block throughput sustains at a given resolution."""
    return blocks_per_second / _frame_blocks(frame_width, frame_height)


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
    if iterations < 1:
        raise ValueError("iterations must be >= 1, got %d" % iterations)
    frame_blocks = _frame_blocks(frame_width, frame_height)
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
        equivalent_frame_rate=frame_rate_equivalent(blocks_per_second, frame_width, frame_height),
        worker_count=workers,
        frame_width=frame_width,
        frame_height=frame_height,
    )
