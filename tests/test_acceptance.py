"""Acceptance suite: one test per shipping criterion, each timed at its
stated bound and printing a PASS line (run with `pytest -s -v` to see them).
"""

import ast
import inspect
import random
import time
from itertools import product

import numpy as np

from hnttmark import attacks, engine, galois, hntt, imageio, watermark


def _report(num: int, name: str, elapsed: float, extra: str = "") -> None:
    line = "criterion %02d %-28s PASS (%.4f s)" % (num, name, elapsed)
    if extra:
        line += " " + extra
    print(line)


def test_criterion_01_matrix_and_cas_reproduction():
    start = time.perf_counter()
    matrix = hntt.build_matrix()
    cas = galois.cas_table()
    elapsed = time.perf_counter() - start
    assert matrix == [[1, 1, 1, 1], [1, 1, 2, 2], [1, 2, 1, 2], [1, 2, 2, 1]]
    assert cas == [1, 1, 2, 2]
    assert elapsed < 0.001
    _report(1, "matrix/cas reproduction", elapsed)


def test_criterion_02_involution_and_inverse_scale():
    start = time.perf_counter()
    square = [
        [sum(hntt.H4[i][k] * hntt.H4[k][j] for k in range(4)) % 3 for j in range(4)]
        for i in range(4)
    ]
    elapsed = time.perf_counter() - start
    assert square == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert elapsed < 0.001
    _report(2, "H*H == I (forward==inverse)", elapsed)


def _multiplies(func) -> bool:
    ops = (ast.Mult, ast.Pow, ast.MatMult)
    return any(
        isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ops)
        for node in ast.walk(ast.parse(inspect.getsource(func)))
    )


def test_criterion_03_fast_naive_equivalence_no_multiplies():
    vectors = [list(v) for v in product(range(3), repeat=4)]
    start = time.perf_counter()
    expected = [hntt.hntt_1d(v) for v in vectors]
    got = [hntt.hntt_1d_fast(v) for v in vectors]
    elapsed = time.perf_counter() - start
    assert got == expected
    assert not _multiplies(hntt.hntt_1d_fast)
    assert not _multiplies(hntt.special_hntt_2d)
    assert not _multiplies(hntt._separable)  # the butterflies the fast forms call
    assert not _multiplies(hntt._butterfly)
    assert _multiplies(hntt.hntt_1d)
    assert elapsed < 0.010
    _report(3, "fast==naive on all 81, 0 muls", elapsed)


def test_criterion_04_full_2d_combination_formula():
    rng = random.Random(2024)
    blocks = [
        [[rng.randrange(3) for _ in range(4)] for _ in range(4)] for _ in range(10_000)
    ]
    for i in range(4):
        for k in range(4):
            for v in range(3):
                one_hot = [[0] * 4 for _ in range(4)]
                one_hot[i][k] = v
                blocks.append(one_hot)
    start = time.perf_counter()
    for block in blocks:
        assert hntt.full_hntt_2d(block) == hntt.full_hntt_2d_direct(block)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(4, "full 2-D == kernel oracle", elapsed, "(%d blocks)" % len(blocks))


def test_criterion_05_round_trip_and_distortion():
    rng = np.random.RandomState(5)
    start = time.perf_counter()
    for _ in range(1000):
        img = rng.randint(0, 256, (64, 64), dtype=np.uint8)
        pattern = rng.randint(0, 3, (64, 64), dtype=np.uint8)
        marked = watermark.embed_image(img, pattern)
        assert np.array_equal(watermark.extract_image(img, marked), pattern)
        diff = np.abs(marked.astype(np.int32) - img.astype(np.int32))
        limit = np.where(img == 255, 3, 2)
        assert (diff <= limit).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, "1000-image exact round trip", elapsed)


def test_criterion_06_lsb_flip_detection_is_exact():
    base = np.random.RandomState(42).randint(0, 256, (512, 512), dtype=np.uint8)
    cell = watermark.checkerboard_cell()
    marked = watermark.embed_image(base, cell)

    start = time.perf_counter()
    suspect = attacks.lsb_flip(marked, 0.01, seed=0)
    report = watermark.verify(base, suspect, cell, threshold=0)
    affected = (suspect != marked).reshape(128, 4, 128, 4).any(axis=(1, 3))
    elapsed = time.perf_counter() - start
    assert np.array_equal(report.tampered, affected)  # 100% hit, 0% false
    assert elapsed < 5.0

    in_range = 0
    for seed in range(100):
        suspect = attacks.lsb_flip(marked, 0.01, seed=seed)
        report = watermark.verify(base, suspect, cell, threshold=0)
        affected = (suspect != marked).reshape(128, 4, 128, 4).any(axis=(1, 3))
        assert np.array_equal(report.tampered, affected)
        if 0.10 <= affected.mean() <= 0.20:
            in_range += 1
    assert in_range >= 95
    _report(6, "lsb-flip detection exact", elapsed, "(%d/100 seeds in [0.10,0.20])" % in_range)


def test_criterion_07_single_block_locality():
    rng = np.random.RandomState(7)
    img = rng.randint(0, 256, (64, 64), dtype=np.uint8)
    cell = watermark.checkerboard_cell()
    marked = watermark.embed_image(img, cell)
    start = time.perf_counter()
    region = marked[12:16, 28:32]  # block (3, 7), grid-aligned
    source = (region.astype(np.int32) + 1).astype(np.uint8)  # marked <= 254, no wrap
    suspect = attacks.region_replace(marked, (28, 12, 4, 4), source)
    report = watermark.verify(img, suspect, cell, threshold=0)
    elapsed = time.perf_counter() - start
    assert report.total_tampered == 1
    assert report.tampered[3, 7]
    assert elapsed < 1.0
    _report(7, "aligned replace flags 1 block", elapsed)


def test_criterion_08_plus_three_blind_spot():
    rng = np.random.RandomState(8)
    img = rng.randint(0, 250, (64, 64), dtype=np.uint8)  # marked stays <= 251
    cell = watermark.checkerboard_cell()
    marked = watermark.embed_image(img, cell)
    start = time.perf_counter()
    shifted = attacks.intensity_shift(marked, 3)
    assert np.array_equal(shifted, marked + 3)  # genuinely clamp-free
    report = watermark.verify(img, shifted, cell, threshold=0)
    elapsed = time.perf_counter() - start
    assert report.total_tampered == 0
    assert elapsed < 1.0
    _report(8, "+3 shift flags 0 blocks", elapsed)


def test_criterion_09_throughput_formula():
    start = time.perf_counter()
    hardware_rate = engine.frame_rate_equivalent(1e8, 4096, 4096)
    assert abs(hardware_rate - 95.37) <= 0.1  # 1e8 blocks/s over 1,048,576-block frames
    result = engine.benchmark(frame_width=4096, frame_height=4096, iterations=1, workers=2)
    elapsed = time.perf_counter() - start
    assert result.blocks_processed == 1_048_576
    assert result.equivalent_frame_rate == result.blocks_per_second / 1_048_576
    assert result.blocks_per_second > 0
    _report(
        9,
        "frame-rate formula",
        elapsed,
        "(software: %.0f blocks/s = %.3f Hz at 4096x4096; the 1e8 blocks/s figure is dedicated hardware)"
        % (result.blocks_per_second, result.equivalent_frame_rate),
    )


def test_criterion_10_parallel_determinism():
    rng = np.random.RandomState(10)
    blocks = rng.randint(0, 256, (10_000, 4, 4), dtype=np.uint8)
    cells = rng.randint(0, 3, (10_000, 4, 4), dtype=np.uint8)
    start = time.perf_counter()
    outputs = [engine.process_blocks(blocks, cells, workers=w) for w in (1, 2, 8)]
    elapsed = time.perf_counter() - start
    assert np.array_equal(outputs[0], outputs[1])
    assert np.array_equal(outputs[0], outputs[2])
    assert elapsed < 5.0
    _report(10, "bit-identical across workers", elapsed)


def test_criterion_11_io_bit_exactness():
    rng = np.random.RandomState(11)
    start = time.perf_counter()
    for _ in range(100):
        img = rng.randint(0, 256, (64, 64), dtype=np.uint8)
        assert np.array_equal(imageio.read_pgm(imageio.write_pgm(img)), img)
    img = rng.randint(0, 256, (128, 128), dtype=np.uint8)
    runs = [
        lambda: attacks.lsb_flip(img, 0.01, 99),
        lambda: attacks.quantize(img, 3),
        lambda: attacks.intensity_shift(img, 5),
        lambda: attacks.region_replace(img, (8, 8, 16, 16), np.zeros((16, 16), dtype=np.uint8)),
    ]
    for run in runs:
        assert imageio.write_pgm(run()) == imageio.write_pgm(run())
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(11, "I/O and attacks bit-exact", elapsed)
