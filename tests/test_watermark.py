"""Embedding pipeline, extraction, verification and report serialization."""

import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hnttmark import watermark
from hnttmark.engine import process_blocks
from hnttmark.watermark import (
    DIVISIBLE_TABLE,
    RESIDUE_TABLE,
    TamperReport,
    checkerboard_cell,
    decompose,
    embed_block,
    embed_image,
    extract_block,
    extract_image,
    verify,
)


def _random_pixel_block(rng):
    return [[rng.randrange(256) for _ in range(4)] for _ in range(4)]


def _random_cell(rng):
    return [[rng.randrange(3) for _ in range(4)] for _ in range(4)]


def _block_of(value):
    return [[value] * 4 for _ in range(4)]


# ---------------------------------------------------------------- decompose


def test_decompose_examples():
    r, d = decompose(_block_of(100))
    assert r == _block_of(1) and d == _block_of(99)
    r, d = decompose(_block_of(0))
    assert r == _block_of(0) and d == _block_of(0)
    r, d = decompose(_block_of(255))
    assert r == _block_of(0) and d == _block_of(252)  # headroom cap


def test_decompose_tables_cover_all_pixel_values():
    for v in range(256):
        r, d = RESIDUE_TABLE[v], DIVISIBLE_TABLE[v]
        assert r == v % 3
        assert d % 3 == 0
        assert d + 2 <= 254  # no embedded pixel can overflow 8 bits
        assert d + r == v or (v == 255 and d + r == 252)


def test_image_residue_digits_exhaustive():
    # every (original, suspect) pixel pair: the digit extraction transforms
    orig, susp = (a.astype(np.uint8) for a in np.meshgrid(np.arange(256), np.arange(256), indexing="ij"))
    digits = watermark._difference_digits(orig, susp)
    assert digits.dtype == np.uint8 and digits.shape == (256, 256)
    assert digits.min() == 1 and digits.max() == 5
    r_o, r_s = (np.array(RESIDUE_TABLE)[a] for a in (orig, susp))
    assert np.array_equal(digits, r_s + 3 - r_o)


def test_image_embed_arithmetic_exhaustive():
    # every (pixel, transformed cell entry) pair against the tables; the
    # entry may be any value up to 252 that is congruent to T(w) mod 3, as
    # the transform's sums (0..12) are, so all 256 x 13 pairs the image
    # routes meet are among them
    x, t = (a.astype(np.uint8) for a in np.meshgrid(np.arange(256), np.arange(253), indexing="ij"))
    out = np.empty_like(x)
    watermark._embed_into(out, x, t)
    want = [[DIVISIBLE_TABLE[v] + (RESIDUE_TABLE[v] + e) % 3 for e in range(253)] for v in range(256)]
    assert out.tolist() == want
    assert x.tolist() == [[v] * 253 for v in range(256)]  # the input is left alone


def test_embed_routes_match_a_plain_restatement_at_full_band_size(monkeypatch):
    # 2048x2048 at the default _BAND_PIXELS: 16 bands of 128 pixel rows, a
    # tiled cell, and a helper thread.  Expected values are plain int32
    # numpy: T(b) = H4 @ b @ H4 % 3, extraction T(r_s - r_o).
    monkeypatch.setattr(watermark, "_cpus", lambda: 2)
    rng = np.random.default_rng(22)
    img = rng.integers(0, 256, (2048, 2048), dtype=np.uint8)
    img[0, :256] = np.arange(256)
    img[1, :] = np.arange(253, 256).repeat(683)[:2048]
    grid = rng.integers(0, 3, (2048, 2048), dtype=np.uint8)
    cell = checkerboard_cell()
    h4 = np.array([[1, 1, 1, 1], [1, 1, 2, 2], [1, 2, 1, 2], [1, 2, 2, 1]], dtype=np.int32)

    def as_blocks(a):
        return a.reshape(512, 4, 512, 4).swapaxes(1, 2).reshape(-1, 4, 4)

    blocks, cells = as_blocks(img), as_blocks(grid)
    x = blocks.astype(np.int32)
    r = x % 3
    d = np.minimum(x - r, 252)
    # a few pixels, some on either side of a band edge, damage the mark
    ys = np.concatenate([[0, 127, 128, 1023, 1024, 2047], rng.integers(0, 2048, 30)])
    xs = np.concatenate([[0, 5, 5, 2047, 1, 2047], rng.integers(0, 2048, 30)])
    for pattern, w in ((cell, cell), (grid, cells)):
        want = (d + (r + h4 @ w.astype(np.int32) @ h4 % 3) % 3).astype(np.uint8)
        marked = embed_image(img, pattern)
        assert (as_blocks(marked) == want).all()
        for workers in (1, 2):
            assert (process_blocks(blocks, w, workers) == want).all()
        assert (as_blocks(extract_image(img, marked)) == w).all()
        suspect = marked.copy()
        suspect[ys, xs] ^= 1
        extracted = h4 @ ((as_blocks(suspect) % 3 - r) % 3) @ h4 % 3
        distances = (extracted != w).sum((1, 2)).reshape(512, 512)
        assert np.count_nonzero(distances) == len(set(zip(ys // 4, xs // 4)))
        assert np.array_equal(verify(img, suspect, pattern).distances, distances)


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose([[0] * 4] * 3)
    with pytest.raises(ValueError):
        decompose([[0] * 3] * 4)
    with pytest.raises(ValueError):
        decompose([[0, 0, 0, 256]] + [[0] * 4] * 3)


# ------------------------------------------------------------- embed_block


def test_embed_zero_watermark_is_identity_except_cap():
    rng = random.Random(1)
    zero_cell = [[0] * 4 for _ in range(4)]
    for _ in range(50):
        block = _random_pixel_block(rng)
        out = embed_block(block, zero_cell)
        expected = [[252 if v == 255 else v for v in row] for row in block]
        assert out == expected


def test_embed_constant_block_all_ones_cell():
    out = embed_block(_block_of(100), [[1] * 4 for _ in range(4)])
    expected = _block_of(100)
    expected[0][0] = 101
    assert out == expected


@pytest.mark.parametrize(
    "cell, message",
    [
        ([[3] * 4] * 4, "watermark values must be in {0, 1, 2}, found 3"),
        ([[-1] * 4] * 4, "watermark values must be in {0, 1, 2}, found -1"),
        ([[0] * 5] * 4, "watermark must have shape (4, 4), got shape (4, 5)"),
        ([[0] * 3] * 3, "watermark must have shape (4, 4), got shape (3, 3)"),
        ([[0.5] * 4] * 4, "watermark values must be integers, got dtype float64"),
        ([[True] * 4] * 4, "watermark values must be integers, got dtype bool"),
    ],
    ids=["value-3", "value-minus-1", "4x5", "3x3", "float", "bool"],
)
def test_embed_block_rejects_a_bad_cell(cell, message):
    # The cells embed_image rejects: before any check, 3 acted as 0, -1 as 2,
    # a fifth column was ignored and a 3x3 cell raised IndexError; before
    # the one input rule, 0.5 gave float pixels and True acted as 1.
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        embed_block(_block_of(100), cell)


def test_embed_distortion_bound_exhaustive_per_pixel():
    # all 256 pixel values against every possible new residue
    for v in range(256):
        d = DIVISIBLE_TABLE[v]
        for new_residue in range(3):
            out = d + new_residue
            assert 0 <= out <= 254
            assert abs(out - v) <= (3 if v == 255 else 2)


def test_embed_extract_block_round_trip():
    rng = random.Random(2)
    for _ in range(300):
        block = _random_pixel_block(rng)
        cell = _random_cell(rng)
        assert extract_block(block, embed_block(block, cell)) == cell


def test_extract_identical_blocks_gives_zero():
    rng = random.Random(3)
    block = _random_pixel_block(rng)
    assert extract_block(block, block) == [[0] * 4 for _ in range(4)]


def test_residue_decomposition_idempotent_after_embed():
    rng = random.Random(4)
    for _ in range(100):
        block = _random_pixel_block(rng)
        cell = _random_cell(rng)
        _, d_before = decompose(block)
        out = embed_block(block, cell)
        _, d_after = decompose(out)
        assert d_after == d_before


def test_single_pixel_perturbation_always_detected():
    rng = random.Random(5)
    block = _random_pixel_block(rng)
    cell = _random_cell(rng)
    marked = embed_block(block, cell)
    for i in range(4):
        for k in range(4):
            for delta in (-1, 1):
                v = marked[i][k] + delta
                if not 0 <= v <= 255:
                    continue
                tampered = [row[:] for row in marked]
                tampered[i][k] = v
                assert extract_block(block, tampered) != cell


def test_fragility_depends_only_on_delta_mod_3():
    # any single-pixel change with delta % 3 != 0 damages the cell; any
    # with delta % 3 == 0 is invisible (the scheme's inherent blind spot)
    rng = random.Random(6)
    block = [[rng.randrange(100, 150) for _ in range(4)] for _ in range(4)]
    cell = _random_cell(rng)
    marked = embed_block(block, cell)
    for delta in (-8, -5, -4, -2, -1, 1, 2, 4, 5, 7, 8):
        tampered = [row[:] for row in marked]
        tampered[2][3] += delta
        expect_detected = delta % 3 != 0
        assert (extract_block(block, tampered) != cell) == expect_detected, delta
    for delta in (-9, -6, -3, 3, 6, 9):
        tampered = [row[:] for row in marked]
        tampered[2][3] += delta
        assert extract_block(block, tampered) == cell, delta


# ------------------------------------------------------------- image level


def test_embed_image_matches_block_route():
    rng = np.random.RandomState(6)
    img = rng.randint(0, 256, (16, 24), dtype=np.uint8)
    grid = rng.randint(0, 3, (16, 24), dtype=np.uint8)
    out = embed_image(img, grid)
    for by in range(4):
        for bx in range(6):
            block = img[by * 4 : by * 4 + 4, bx * 4 : bx * 4 + 4].tolist()
            cell = grid[by * 4 : by * 4 + 4, bx * 4 : bx * 4 + 4].tolist()
            expected = embed_block(block, cell)
            assert out[by * 4 : by * 4 + 4, bx * 4 : bx * 4 + 4].tolist() == expected


def test_embed_image_tiled_cell_repeats_block_case():
    img = np.full((8, 8), 100, dtype=np.uint8)
    out = embed_image(img, np.ones((4, 4), dtype=np.uint8))
    expected_block = np.full((4, 4), 100, dtype=np.uint8)
    expected_block[0, 0] = 101
    for by in range(2):
        for bx in range(2):
            assert np.array_equal(out[by * 4 : by * 4 + 4, bx * 4 : bx * 4 + 4], expected_block)


def test_embed_image_zero_pattern_only_caps_255():
    rng = np.random.RandomState(15)
    img = rng.randint(0, 256, (16, 16), dtype=np.uint8)
    img[3, 5] = 255  # force at least one capped pixel
    out = embed_image(img, np.zeros((4, 4), dtype=np.uint8))
    expected = img.copy()
    expected[img == 255] = 252
    assert np.array_equal(out, expected)


def test_embed_image_single_block_reduces_to_embed_block():
    rng = np.random.RandomState(7)
    img = rng.randint(0, 256, (4, 4), dtype=np.uint8)
    cell = rng.randint(0, 3, (4, 4), dtype=np.uint8)
    assert embed_image(img, cell).tolist() == embed_block(img.tolist(), cell.tolist())


def test_image_round_trip_tiled_and_full_grid():
    rng = np.random.RandomState(8)
    img = rng.randint(0, 256, (32, 32), dtype=np.uint8)
    full = rng.randint(0, 3, (32, 32), dtype=np.uint8)
    assert np.array_equal(extract_image(img, embed_image(img, full)), full)
    cell = checkerboard_cell()
    extracted = extract_image(img, embed_image(img, cell))
    assert np.array_equal(extracted, np.tile(cell, (8, 8)))


def test_extract_image_of_identical_images_is_zero():
    rng = np.random.RandomState(9)
    img = rng.randint(0, 256, (16, 16), dtype=np.uint8)
    assert not extract_image(img, img).any()


def test_tamper_locality():
    rng = np.random.RandomState(10)
    img = rng.randint(0, 256, (32, 32), dtype=np.uint8)
    cell = checkerboard_cell()
    marked = embed_image(img, cell)
    tampered = marked.copy()
    tampered[9, 14] ^= 1  # inside block (2, 3)
    extracted = extract_image(img, tampered)
    reference = np.tile(cell, (8, 8))
    diff_blocks = (
        (extracted != reference).reshape(8, 4, 8, 4).any(axis=(1, 3))
    )
    assert diff_blocks[2, 3]
    assert diff_blocks.sum() == 1


def test_dimension_validation():
    img = np.zeros((8, 8), dtype=np.uint8)
    with pytest.raises(ValueError):
        embed_image(np.zeros((6, 8), dtype=np.uint8), checkerboard_cell())
    with pytest.raises(ValueError):
        extract_image(img, np.zeros((8, 12), dtype=np.uint8))


def _layouts(a):
    """Views holding a's values that are not C-contiguous: Fortran-ordered,
    transposed, and strided along the last axis."""
    return [np.asfortranarray(a), np.ascontiguousarray(a.T).T, np.repeat(a, 2, axis=-1)[..., ::2]]


def test_non_contiguous_inputs_match_their_contiguous_copies(monkeypatch):
    monkeypatch.setattr(watermark, "_BAND_PIXELS", 1)  # one band per block row
    rng = np.random.RandomState(21)
    img = rng.randint(0, 256, (24, 16), dtype=np.uint8)
    cell = rng.randint(0, 3, (4, 4), dtype=np.uint8)
    grid = rng.randint(0, 3, img.shape, dtype=np.uint8)
    suspect = embed_image(img, cell) ^ (rng.rand(*img.shape) < 0.1).astype(np.uint8)
    stack = rng.randint(0, 256, (40, 4, 4), dtype=np.uint8)
    cells = rng.randint(0, 3, stack.shape, dtype=np.uint8)
    routes = [
        lambda i, s, g: embed_image(i, cell),
        lambda i, s, g: embed_image(i, g),
        lambda i, s, g: extract_image(i, s),
        lambda i, s, g: verify(i, s, cell).distances,
        lambda i, s, g: verify(i, s, g).distances,
    ]
    for route in routes:
        want = route(img, suspect, grid)
        for views in zip(_layouts(img), _layouts(suspect), _layouts(grid)):
            assert not any(v.flags.c_contiguous for v in views)
            assert np.array_equal(route(*views), want)
    for workers in (1, 2):
        for pattern in (cell, cells):
            want = process_blocks(stack, pattern, workers)
            for blocks, pattern_view in zip(_layouts(stack), _layouts(pattern)):
                assert np.array_equal(process_blocks(blocks, pattern_view, workers), want)


def test_an_error_in_a_band_surfaces_unchanged(failing_bands):
    rng = np.random.RandomState(22)
    img = rng.randint(0, 256, (16, 8), dtype=np.uint8)
    grid = rng.randint(0, 3, img.shape, dtype=np.uint8)
    for route in (
        lambda: embed_image(img, grid),
        lambda: extract_image(img, img),
        lambda: verify(img, img, checkerboard_cell()),
        lambda: verify(img, img, grid),
        lambda: process_blocks(np.zeros((8, 4, 4), dtype=np.uint8), np.zeros((8, 4, 4), dtype=np.uint8), 2),
    ):
        with pytest.raises(MemoryError) as info:
            route()
        assert info.value is failing_bands


# ------------------------------------------------------------- band driver

# Run in a fresh interpreter: importing the package and calls that run on
# one thread (one CPU, one worker, one band) start no thread.  One CPU is
# the process's own affinity set, narrowed after import as taskset would.
_ONE_THREAD_CALLS = """
import os, threading
import numpy as np
before = threading.active_count()
import hnttmark
from hnttmark import watermark
from hnttmark.engine import process_blocks
assert threading.active_count() == before, "import started a thread"
rng = np.random.RandomState(30)
img = rng.randint(0, 256, (1024, 1024), dtype=np.uint8)  # 4 bands
small = img[:64, :64]  # 1 band
cell = watermark.checkerboard_cell()
process_blocks(img.reshape(-1, 4, 4), cell, workers=1)
process_blocks(small.reshape(-1, 4, 4), cell, workers=8)
watermark.verify(small, small, cell)
watermark.extract_image(small, small)
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
else:
    watermark._cpus = lambda: 1
watermark.embed_image(img, cell)
watermark.verify(img, img, img % 3)
assert threading.active_count() == before, "a one-thread call started a thread"
assert not any(t.name.startswith("hnttmark-band") for t in threading.enumerate())
print("ok")
"""


def test_import_and_one_thread_calls_start_no_thread():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(watermark.__file__)))
    proc = subprocess.run([sys.executable, "-c", _ONE_THREAD_CALLS], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_cpus_counts_the_cpus_this_process_may_use(monkeypatch):
    # the affinity set, not the machine's count; os.cpu_count() only where
    # the platform has no affinity call, and 1 when that count is unknown
    monkeypatch.setattr(watermark.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(watermark.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert watermark._cpus() == 1
    monkeypatch.delattr(watermark.os, "sched_getaffinity")
    assert watermark._cpus() == 8
    monkeypatch.setattr(watermark.os, "cpu_count", lambda: None)
    assert watermark._cpus() == 1


def test_many_multi_band_calls_share_one_pool(monkeypatch):
    helpers = max(1, watermark._cpus() - 1)  # the pool's size, fixed at import
    pool = watermark._pool
    monkeypatch.setattr(watermark, "_cpus", lambda: 3)
    monkeypatch.setattr(watermark, "_BAND_PIXELS", 1)  # one block row per band
    rng = np.random.RandomState(32)
    img = rng.randint(0, 256, (32, 16), dtype=np.uint8)
    grid = rng.randint(0, 3, img.shape, dtype=np.uint8)
    for _ in range(3):
        embed_image(img, checkerboard_cell())
        embed_image(img, grid)
        extract_image(img, img)
        verify(img, img, grid)
        process_blocks(img.reshape(-1, 4, 4), checkerboard_cell(), workers=2)
    assert watermark._pool is pool
    assert 1 <= sum(t.name.startswith("hnttmark-band") for t in threading.enumerate()) <= helpers


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_its_own_pool(monkeypatch):
    monkeypatch.setattr(watermark, "_cpus", lambda: 2)
    monkeypatch.setattr(watermark, "_BAND_PIXELS", 1)
    rng = np.random.RandomState(31)
    img = rng.randint(0, 256, (64, 64), dtype=np.uint8)
    suspect = embed_image(img, checkerboard_cell())
    suspect[5, 7] ^= 1
    want = verify(img, suspect, checkerboard_cell()).distances  # runs a band on a parent's helper
    parent = watermark._pool
    pid = os.fork()
    if pid == 0:  # the child: report through the exit status only
        status = 1
        try:
            if watermark._pool is not parent:
                got = [verify(img, suspect, checkerboard_cell()).distances for _ in range(2)]
                status = 0 if all(np.array_equal(g, want) for g in got) else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert done and os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_a_band_error_propagates_once_every_band_is_done(monkeypatch):
    # two one-block-row bands on two threads: the caller runs the band at
    # pixel row 0, a helper the band at pixel row 4
    monkeypatch.setattr(watermark, "_cpus", lambda: 2)
    errors = {0: ValueError("caller's band"), 4: MemoryError("helper's band")}
    for failing, want in (({0}, errors[0]), ({4}, errors[4]), ({0, 4}, errors[0])):
        finished = []

        def work(rows):
            if rows.start in failing:
                raise errors[rows.start]
            time.sleep(0.2)  # a slow sibling
            finished.append(rows.start)

        with pytest.raises(type(want)) as info:
            watermark._run_bands(work, 8, watermark._BAND_PIXELS // 4)
        assert info.value is want
        assert finished == sorted({0, 4} - failing)


def test_a_helper_that_cannot_start_fails_the_call_after_the_started_ones(monkeypatch):
    # three one-block-row bands on three threads: helper 1 starts, helper
    # 2's submit raises, and the call raises only once helper 1's band (at
    # pixel row 4) is done
    monkeypatch.setattr(watermark, "_cpus", lambda: 3)
    error = RuntimeError("can't start new thread")
    pool = ThreadPoolExecutor(1)

    class FailingSecondSubmit:
        submitted = 0

        def submit(self, fn, *args):
            self.submitted += 1
            if self.submitted > 1:
                raise error
            return pool.submit(fn, *args)

    helpers = FailingSecondSubmit()
    monkeypatch.setattr(watermark, "_pool", helpers)
    finished = []

    def work(rows):
        time.sleep(0.2)
        finished.append(rows.start)

    try:
        with pytest.raises(RuntimeError) as info:
            watermark._run_bands(work, 12, watermark._BAND_PIXELS // 4)
        finished_at_raise = list(finished)
    finally:
        pool.shutdown()
    assert info.value is error
    assert finished_at_raise == [4]


def _race(target, threads: int) -> None:
    """Start `threads` threads on target at once, with frequent thread
    switches, and check that they all finish within a minute."""
    start = threading.Barrier(threads)

    def run(i):
        start.wait(timeout=30)
        target(i)

    racers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in racers:
            t.start()
        for t in racers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in racers)


def test_concurrent_calls_match_serial_ones(monkeypatch):
    # more calling threads than CPUs share the helper pool; each call gets
    # what a serial call gives
    monkeypatch.setattr(watermark, "_cpus", lambda: 2)
    monkeypatch.setattr(watermark, "_BAND_PIXELS", 4 * 4 * 128)  # 4 block rows per band
    rng = np.random.RandomState(33)
    img = rng.randint(0, 256, (128, 128), dtype=np.uint8)
    grid = rng.randint(0, 3, img.shape, dtype=np.uint8)
    suspect = embed_image(img, grid)
    suspect[rng.randint(0, 128, 50), rng.randint(0, 128, 50)] += 1
    routes = {
        "verify": lambda: verify(img, suspect, grid).distances,
        "verify cell": lambda: verify(img, suspect, checkerboard_cell()).distances,
        "embed": lambda: embed_image(img, grid),
        "embed cell": lambda: embed_image(img, checkerboard_cell()),
    }
    want = {name: route() for name, route in routes.items()}
    names = list(routes) * 2
    got = {}
    pool = watermark._pool
    _race(lambda i: got.setdefault(i, [routes[names[i]]() for _ in range(10)]), len(names))
    assert watermark._pool is pool
    assert sorted(got) == list(range(len(names)))
    for i, results in got.items():
        assert all(np.array_equal(r, want[names[i]]) for r in results), names[i]


# ----------------------------------------------------------------- pattern


def test_pattern_shapes():
    # a pattern is a 4x4 cell or a grid of exactly one cell per block
    rng = np.random.RandomState(16)
    img = rng.randint(0, 256, (12, 8), dtype=np.uint8)
    cell = checkerboard_cell()
    tiled = np.tile(cell, (3, 2))
    assert np.array_equal(embed_image(img, cell), embed_image(img, tiled))
    full = rng.randint(0, 3, (12, 8), dtype=np.uint8)
    marked = embed_image(img, full)
    assert np.array_equal(extract_image(img, marked), full)
    for reference, want in ((cell, tiled), (full, full)):
        report = verify(img, marked, reference)
        assert report.distances.shape == (3, 2)
        assert (report.distances == (full != want).reshape(3, 4, 2, 4).sum(axis=(1, 3))).all()
    for bad in (np.zeros((8, 8), dtype=np.uint8), np.zeros((12, 4), dtype=np.uint8), np.zeros(16, dtype=np.uint8)):
        # the 8x12 image needs an 8x12 (width x height) grid, not its 2x3 blocks
        message = re.escape("watermark pattern must be a 4x4 cell or 8x12 like the image, got shape %s" % (bad.shape,))
        with pytest.raises(ValueError, match=message):
            embed_image(img, bad)
        with pytest.raises(ValueError, match=message):
            verify(img, marked, bad)
    for bad_values in (np.full((4, 4), 3, dtype=np.uint8), np.full((12, 8), 3, dtype=np.uint8)):
        with pytest.raises(ValueError, match="watermark values must be in"):
            embed_image(img, bad_values)
        with pytest.raises(ValueError, match="watermark values must be in"):
            verify(img, marked, bad_values)


# ------------------------------------------------------------------ verify


def test_verify_untampered():
    rng = np.random.RandomState(11)
    img = rng.randint(0, 256, (32, 32), dtype=np.uint8)
    cell = checkerboard_cell()
    report = verify(img, embed_image(img, cell), cell)
    assert report.total_tampered == 0
    assert not report.tampered.any()
    assert not report.distances.any()
    assert (report.grid_width, report.grid_height) == (8, 8)


def test_verify_flags_single_lsb_flip():
    rng = np.random.RandomState(12)
    img = rng.randint(0, 256, (32, 32), dtype=np.uint8)
    cell = checkerboard_cell()
    marked = embed_image(img, cell)
    suspect = marked.copy()
    suspect[17, 5] ^= 1  # block (4, 1)
    report = verify(img, suspect, cell)
    assert report.total_tampered == 1
    assert report.tampered[4, 1]


def test_verify_without_embedding_measures_reference_weight():
    # suspect == original extracts all zeros, so the distance per block is
    # the Hamming weight of the reference cell (8 for the checkerboard)
    rng = np.random.RandomState(13)
    img = rng.randint(0, 256, (16, 16), dtype=np.uint8)
    report = verify(img, img, checkerboard_cell())
    assert (report.distances == 8).all()
    assert report.total_tampered == 16


def test_verify_threshold_semantics():
    rng = np.random.RandomState(14)
    img = rng.randint(0, 256, (16, 16), dtype=np.uint8)
    report = verify(img, img, checkerboard_cell(), threshold=8)
    assert report.total_tampered == 0  # distance 8 is not > 8
    report = verify(img, img, checkerboard_cell(), threshold=7)
    assert report.total_tampered == 16
    with pytest.raises(ValueError, match=r"^threshold must be >= 0, got -1$"):
        verify(img, img, checkerboard_cell(), threshold=-1)


@pytest.mark.parametrize("threshold, message", [(-1, "threshold must be >= 0, got -1"),
                                                (0.5, "threshold must be an integer, got 0.5")])
def test_verify_judges_the_threshold_before_any_distance(monkeypatch, threshold, message):
    def no_bands(*args, **kwargs):
        raise AssertionError("the distance kernel ran")

    img = np.zeros((8, 8), dtype=np.uint8)
    monkeypatch.setattr(watermark, "_run_bands", no_bands)
    for reference in (checkerboard_cell(), np.zeros((8, 8), dtype=np.uint8)):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            verify(img, img, reference, threshold=threshold)
    # the images and the reference are judged first
    with pytest.raises(ValueError, match="^suspect dimensions 6x6 are not multiples of 4$"):
        verify(img, np.zeros((6, 6), dtype=np.uint8), checkerboard_cell(), threshold=threshold)
    with pytest.raises(ValueError, match="^watermark pattern must be a 4x4 cell or 8x8 like the image"):
        verify(img, img, np.zeros((4, 8), dtype=np.uint8), threshold=threshold)


def test_report_serialization():
    distances = np.array([[0, 3], [16, 0]])
    report = TamperReport(threshold=0, distances=distances)
    d = report.to_dict()
    assert d["grid_width"] == 2 and d["grid_height"] == 2
    assert d["distances"] == [0, 3, 16, 0]
    assert d["tampered"] == [False, True, True, False]
    assert d["total_tampered"] == 2
    assert report.to_json() == json.dumps(d, separators=(",", ":")).encode()  # also JSON-clean
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0] == "grid_width=2"
    assert lines[3] == "total_tampered=2"
    # blocks (1, 0) and (0, 1) touch diagonally: one region
    assert lines[4] == "regions=1"
    assert lines[5] == "region=0 x=0..1 y=0..1 blocks=2"
    assert lines[6] == "distance_histogram=2 0 0 1" + " 0" * 12 + " 1"
    assert len(lines) == 7


@pytest.mark.parametrize("bad, dtype", [(-1, np.int64), (17, np.int64), (17, np.uint8)],
                         ids=["negative", "above-16", "above-16-uint8"])
def test_report_json_rejects_distances_outside_0_16(bad, dtype):
    # np.take would wrap -1 into to_json's word table, and bincount would grow
    # to_text's histogram past 17 entries, so the range is checked when the
    # report is built, before any renderer runs.
    got = "%d..%d" % (min(bad, 0), max(bad, 16))
    with pytest.raises(ValueError, match="^%s$" % re.escape("distances must be in 0..16, got " + got)):
        TamperReport(threshold=0, distances=np.array([[0, 3], [bad, 16]], dtype=dtype))


@pytest.mark.parametrize(
    "distances, message",
    [
        (np.array([0, 3, 16]), "distances must be a 2-D integer array, got int64 of shape (3,)"),
        (np.zeros((2, 2)), "distances must be a 2-D integer array, got float64 of shape (2, 2)"),
        ([[0, 1], [2, 3]], "distances must be a 2-D integer array, got list of shape (2, 2)"),
        (np.zeros((2, 2), dtype=bool), "distances must be a 2-D integer array, got bool of shape (2, 2)"),
    ],
    ids=["1-D", "float", "list", "bool"],
)
def test_report_rejects_distances_that_are_not_a_2d_integer_array(distances, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        TamperReport(threshold=0, distances=distances)


def test_report_rejects_a_negative_threshold():
    with pytest.raises(ValueError, match=r"^threshold must be >= 0, got -1$"):
        TamperReport(threshold=-1, distances=np.zeros((2, 2), dtype=np.uint8))


@pytest.mark.parametrize("threshold", [1, np.int64(1), np.uint8(1), np.int8(1)])
def test_report_keeps_an_integer_threshold_as_a_python_int(threshold):
    report = TamperReport(threshold, np.array([[0, 3], [1, 2]]))
    assert type(report.threshold) is int and report.threshold == 1
    assert report.to_json() == json.dumps(report.to_dict(), separators=(",", ":")).encode()
    assert report.to_text().splitlines()[2] == "threshold=1" and report.total_tampered == 2
    img = np.zeros((8, 8), dtype=np.uint8)
    assert type(verify(img, img, checkerboard_cell(), threshold=threshold).to_dict()["threshold"]) is int


@pytest.mark.parametrize(
    "threshold, message",
    [
        (2.5, "threshold must be an integer, got 2.5"),
        (float("nan"), "threshold must be an integer, got nan"),
        ("2", "threshold must be an integer, got '2'"),
        (None, "threshold must be an integer, got None"),
        (True, "threshold must be an integer, got True"),
        (np.bool_(False), "threshold must be an integer, got np.False_"),
        (np.float64(2.0), "threshold must be an integer, got np.float64(2.0)"),
        (np.int64(-2), "threshold must be >= 0, got -2"),
    ],
    ids=["float", "nan", "str", "none", "bool", "numpy-bool", "numpy-float", "numpy-negative"],
)
def test_report_rejects_a_threshold_that_is_not_an_integer(threshold, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        TamperReport(threshold, np.zeros((2, 2), dtype=np.uint8))


def test_an_empty_report_is_accepted():
    report = TamperReport(threshold=0, distances=np.zeros((0, 0), dtype=np.uint8))
    assert report.total_tampered == 0
    assert report.to_json() == json.dumps(report.to_dict(), separators=(",", ":")).encode()
    assert report.to_text().splitlines()[-1] == "distance_histogram=" + " ".join(["0"] * 17)


def test_report_verdicts_are_computed_once_and_fields_are_frozen():
    report = TamperReport(threshold=2, distances=np.array([[0, 3], [16, 2]], dtype=np.uint8))
    tampered = report.tampered
    report.to_text()
    report.to_json()
    report.to_dict()
    assert report.tampered is tampered
    assert report.tampered.tolist() == [[False, True], [True, False]]
    assert report.total_tampered == 2 and type(report.total_tampered) is int
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.threshold = 20
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.distances = np.zeros((2, 2), dtype=np.uint8)
    assert report.threshold == 2 and report.total_tampered == 2


def test_report_keeps_a_read_only_copy_of_its_distances():
    # a change to the caller's array after the report is built reaches no
    # verdict, and the report's own array cannot be written
    distances = np.array([[0, 3]])
    report = TamperReport(0, distances)
    report.to_text()
    distances[0, 0] = 5
    distances[0, 1] = -1
    assert report.distances.tolist() == [[0, 3]] and report.distances.dtype == distances.dtype
    assert report.total_tampered == 1 and report.tampered.tolist() == [[False, True]]
    assert report.to_json() == TamperReport(0, np.array([[0, 3]])).to_json()
    assert "total_tampered=1" in report.to_text()
    with pytest.raises(ValueError, match="read-only"):
        report.distances[0, 0] = 5
