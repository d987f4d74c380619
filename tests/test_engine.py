"""Parallel block engine: determinism, reference equivalence, benchmark math."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from hnttmark import engine, watermark
from hnttmark.engine import (
    BenchResult,
    benchmark,
    frame_rate_equivalent,
    process_blocks,
)
from hnttmark.watermark import checkerboard_cell, embed_block


def _blocks(n, seed=0):
    return np.random.RandomState(seed).randint(0, 256, (n, 4, 4), dtype=np.uint8)


def _cells(n, seed=1):
    return np.random.RandomState(seed).randint(0, 3, (n, 4, 4), dtype=np.uint8)


def test_process_blocks_matches_sequential_reference():
    blocks = _blocks(200)
    cells = _cells(200)
    out = process_blocks(blocks, cells, workers=3)
    for i in range(200):
        assert out[i].tolist() == embed_block(blocks[i].tolist(), cells[i].tolist())


def test_process_blocks_single_block_equals_embed_block():
    blocks = _blocks(1, seed=5)
    cell = checkerboard_cell()
    out = process_blocks(blocks, cell)
    assert out.shape == (1, 4, 4)
    assert out[0].tolist() == embed_block(blocks[0].tolist(), cell.tolist())


def test_process_blocks_empty():
    out = process_blocks([], checkerboard_cell())
    assert out.shape == (0, 4, 4)


def test_process_blocks_accepts_list_of_blocks():
    blocks = _blocks(10, seed=6)
    as_list = [blocks[i] for i in range(10)]
    assert np.array_equal(process_blocks(as_list, checkerboard_cell()), process_blocks(blocks, checkerboard_cell()))


def test_worker_count_never_changes_output():
    blocks = _blocks(1000, seed=7)
    cells = _cells(1000, seed=8)
    baseline = process_blocks(blocks, cells, workers=1)
    for workers in (2, 3, 8, 16):
        assert np.array_equal(process_blocks(blocks, cells, workers=workers), baseline)


def test_thread_pool_is_capped_at_cpu_count(monkeypatch, inline_pool):
    # the stack runs as the (4n, 4) image: bands of _BAND_PIXELS // 16
    # blocks (4 pixel rows each) on min(workers, cpus, bands) threads,
    # one thread inline
    calls = inline_pool
    blocks = _blocks(1000, seed=12)
    cells = _cells(1000, seed=13)
    baseline = process_blocks(blocks, cells, workers=1)
    monkeypatch.setattr(watermark, "_BAND_PIXELS", 16 * 150)
    view_bands = [(4 * lo, 4 * min(lo + 150, 1000)) for lo in range(0, 1000, 150)]
    for cpus, workers, threads in ((3, 50, 3), (3, 2, 2), (16, 50, 7), (8, 1, 1), (1, 8, 1)):
        monkeypatch.setattr(watermark, "_cpus", lambda: cpus)
        calls.clear()
        assert np.array_equal(process_blocks(blocks, cells, workers=workers), baseline)
        assert calls == [(threads, view_bands)]


def test_a_stack_of_one_band_starts_no_pool(monkeypatch, inline_pool):
    # 1000 blocks are one band of the (4000, 4) view, so even two workers
    # on two CPUs use no helper
    calls = inline_pool
    monkeypatch.setattr(watermark, "_cpus", lambda: 2)
    blocks = _blocks(1000, seed=14)
    cell = checkerboard_cell()
    out = process_blocks(blocks, cell, workers=2)
    assert calls == [(1, [(0, 4000)])]
    assert np.array_equal(out, watermark.embed_image(blocks.reshape(-1, 4), cell).reshape(-1, 4, 4))


def test_tiled_cell_broadcasts_over_blocks():
    blocks = _blocks(50, seed=9)
    cell = checkerboard_cell()
    tiled = np.repeat(cell[None, :, :], 50, axis=0)
    assert np.array_equal(process_blocks(blocks, cell, workers=4), process_blocks(blocks, tiled, workers=2))


def test_process_blocks_validation():
    with pytest.raises(ValueError, match="^workers must be >= 1, got 0$"):
        process_blocks(_blocks(4), checkerboard_cell(), workers=0)
    with pytest.raises(ValueError, match=re.escape("expected a stack of 4x4 blocks, got shape (4, 3, 4)")):
        process_blocks(np.zeros((4, 3, 4), dtype=np.uint8), checkerboard_cell())
    message = "watermark pattern must be a 4x4 cell or one cell per block (4, 4, 4), got shape (3, 4, 4)"
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        process_blocks(_blocks(4), np.zeros((3, 4, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match=re.escape("watermark values must be in {0, 1, 2}, found 9")):
        process_blocks(_blocks(4), np.full((4, 4), 9, dtype=np.uint8))
    with pytest.raises(ValueError, match=re.escape("image pixels must be in [0, 255]")):
        process_blocks(np.full((4, 4, 4), 300, dtype=np.int64), checkerboard_cell())
    with pytest.raises(ValueError, match="image pixels must be integers, got dtype float32"):
        process_blocks(np.zeros((4, 4, 4), dtype=np.float32), checkerboard_cell())


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda stack: process_blocks(stack, checkerboard_cell(), workers=2.5), "workers must be an integer, got 2.5"),
        (lambda stack: process_blocks(stack, checkerboard_cell(), workers=True), "workers must be an integer, got True"),
        (lambda stack: process_blocks(stack, checkerboard_cell(), workers="2"), "workers must be an integer, got '2'"),
        (lambda stack: benchmark(8, 8, iterations=2.5), "iterations must be an integer, got 2.5"),
        (lambda stack: benchmark(8, 8, iterations=True), "iterations must be an integer, got True"),
        (lambda stack: benchmark(frame_width=8.0, frame_height=8), "frame_width must be an integer, got 8.0"),
        (lambda stack: benchmark(frame_width=8, frame_height=True), "frame_height must be an integer, got True"),
        (lambda stack: benchmark(8, 8, 1, workers=True), "workers must be an integer, got True"),
        (lambda stack: benchmark(8, 8, 1, workers=1.0), "workers must be an integer, got 1.0"),
        (lambda stack: benchmark(8, 8, 1, workers=0), "workers must be >= 1, got 0"),
        (lambda stack: frame_rate_equivalent(1.0, 8.0, 8), "frame_width must be an integer, got 8.0"),
    ],
    ids=["workers-float", "workers-bool", "workers-str", "iterations-float", "iterations-bool", "width-float",
         "height-bool", "bench-workers-bool", "bench-workers-float", "bench-workers-0", "rate-width-float"],
)
def test_engine_integer_arguments_fail_alike_on_any_host(monkeypatch, inline_pool, cpus, call, message):
    # three bands of the (4n, 4) view, so a float cap would reach range()
    # on 4 CPUs and be cut to 2 on 2 CPUs if it were not checked first
    stack = np.zeros((3 * watermark._band_rows(4) // 4, 4, 4), dtype=np.uint8)
    monkeypatch.setattr(watermark, "_cpus", lambda: cpus)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call(stack)
    assert inline_pool == []


def test_engine_takes_numpy_integer_arguments():
    result = benchmark(np.int64(8), np.int32(8), iterations=np.int16(1), workers=np.uint8(2))
    assert type(result.worker_count) is int and result.worker_count == 2
    # the stored frame sizes are the checked Python ints, so the result serializes
    assert (type(result.frame_width), type(result.frame_height)) == (int, int)
    assert json.loads(json.dumps(result.as_dict()))["frame_width"] == 8
    assert np.array_equal(process_blocks(_blocks(3), checkerboard_cell(), workers=np.int64(2)),
                          process_blocks(_blocks(3), checkerboard_cell()))


def test_frame_rate_equivalent():
    assert frame_rate_equivalent(100.0, 8, 8) == pytest.approx(25.0)
    assert frame_rate_equivalent(1e8, 4096, 4096) == pytest.approx(95.367, abs=1e-3)
    with pytest.raises(ValueError):
        frame_rate_equivalent(1.0, 10, 8)
    with pytest.raises(ValueError):
        frame_rate_equivalent(1.0, 0, 8)


def test_benchmark_smoke():
    result = benchmark(frame_width=64, frame_height=64, iterations=2, workers=2)
    assert result.blocks_processed == 256 * 2
    assert result.worker_count == 2
    assert result.elapsed_seconds > 0
    assert math.isfinite(result.blocks_per_second) and result.blocks_per_second > 0
    assert result.blocks_per_second == pytest.approx(result.blocks_processed / result.elapsed_seconds)
    assert result.equivalent_frame_rate == pytest.approx(result.blocks_per_second / 256)


def test_synthetic_frame_keeps_its_bytes_without_full_size_temporaries():
    height, width = 300, 260  # both past 256, so the wrap mod 256 shows
    rows = np.arange(height, dtype=np.uint32)[:, None]
    cols = np.arange(width, dtype=np.uint32)[None, :]
    frame = engine._synthetic_frame(width, height)
    assert frame.dtype == np.uint8
    assert np.array_equal(frame, ((rows * 7 + cols * 13) % 256).astype(np.uint8))
    tracemalloc.start()
    try:
        engine._synthetic_frame(1024, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


@pytest.mark.parametrize("workers, message", [(0, "workers must be >= 1, got 0"),
                                              (2.0, "workers must be an integer, got 2.0")])
def test_benchmark_judges_workers_before_building_its_frame(monkeypatch, workers, message):
    def no_frame(*args):
        raise AssertionError("the frame was built")

    monkeypatch.setattr(engine, "_synthetic_frame", no_frame)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        benchmark(8192, 8192, 1, workers=workers)
    # iterations, then the frame, then workers
    with pytest.raises(ValueError, match="^iterations must be >= 1, got 0$"):
        benchmark(10, 8, 0, workers=workers)
    with pytest.raises(ValueError, match="^frame dimensions must be positive multiples of 4, got 10x8$"):
        benchmark(10, 8, 1, workers=workers)


def test_benchmark_validation():
    with pytest.raises(ValueError):
        benchmark(frame_width=10, frame_height=8, iterations=1)
    with pytest.raises(ValueError):
        benchmark(iterations=0)


def test_bench_result_rendering():
    result = BenchResult(
        blocks_processed=1024,
        elapsed_seconds=0.5,
        blocks_per_second=2048.0,
        equivalent_frame_rate=32.0,
        worker_count=4,
        frame_width=32,
        frame_height=32,
    )
    d = result.as_dict()
    assert d["blocks_processed"] == 1024
    assert d["worker_count"] == 4
    text = str(result)
    assert "blocks_per_second     2048.0" in text
    assert "workers               4" in text
    assert "frame 32x32 = 64 blocks" in text
