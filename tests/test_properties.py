"""Property tests: the vectorized image and engine routes against the block oracles."""

import json
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hnttmark import engine, hntt, watermark
from hnttmark.engine import process_blocks
from hnttmark.imageio import read_pgm
from hnttmark.watermark import (
    TamperReport,
    embed_block,
    embed_image,
    extract_block,
    extract_image,
    tamper_regions,
    verify,
)


@st.composite
def images(draw, block_rows=4):
    """A small image, multiple-of-4 sized, with some pixels forced to 253-255."""
    by = draw(st.integers(1, block_rows))
    bx = draw(st.integers(1, 4))
    img = draw(arrays(np.uint8, (by * 4, bx * 4)))
    high = draw(arrays(np.bool_, img.shape))
    top = draw(arrays(np.uint8, img.shape, elements=st.integers(253, 255)))
    return np.where(high, top, img)


def ternary(shape):
    return arrays(np.uint8, shape, elements=st.integers(0, 2))


def _tiles(arr):
    h, w = arr.shape
    for y in range(0, h, 4):
        for x in range(0, w, 4):
            yield (y, x), arr[y : y + 4, x : x + 4]


@st.composite
def image_and_pattern(draw, block_rows=4):
    img = draw(images(block_rows))
    shape = draw(st.sampled_from([(4, 4), img.shape]))
    return img, draw(ternary(shape))


@given(image_and_pattern())
def test_embed_image_matches_embed_block(case):
    img, pattern = case
    marked = embed_image(img, pattern)
    for (y, x), block in _tiles(img):
        cell = pattern if pattern.shape == (4, 4) else pattern[y : y + 4, x : x + 4]
        assert marked[y : y + 4, x : x + 4].tolist() == embed_block(block.tolist(), cell.tolist())


@given(image_and_pattern(), st.data())
def test_extract_image_matches_extract_block(case, data):
    img, pattern = case
    marked = embed_image(img, pattern)
    # a suspect: the marked image with arbitrary pixels overwritten
    touched = data.draw(arrays(np.bool_, img.shape))
    noise = data.draw(arrays(np.uint8, img.shape))
    suspect = np.where(touched, noise, marked)
    for original in (img, marked):
        extracted = extract_image(original, suspect)
        for (y, x), block in _tiles(suspect):
            want = extract_block(original[y : y + 4, x : x + 4].tolist(), block.tolist())
            assert extracted[y : y + 4, x : x + 4].tolist() == want


@given(image_and_pattern(), st.data())
def test_verify_distances_match_extract_block(case, data):
    img, reference = case
    marked = embed_image(img, reference)
    touched = data.draw(arrays(np.bool_, img.shape))
    noise = data.draw(arrays(np.uint8, img.shape))
    suspect = np.where(touched, noise, marked)
    report = verify(img, suspect, reference)
    assert report.distances.shape == (img.shape[0] // 4, img.shape[1] // 4)
    assert report.distances.dtype == np.uint8
    for (y, x), block in _tiles(suspect):
        cell = reference if reference.shape == (4, 4) else reference[y : y + 4, x : x + 4]
        got = extract_block(img[y : y + 4, x : x + 4].tolist(), block.tolist())
        want = sum(a != b for got_row, ref_row in zip(got, cell.tolist()) for a, b in zip(got_row, ref_row))
        assert report.distances[y // 4, x // 4] == want
    assert np.array_equal(report.tampered, report.distances > 0)


@given(image_and_pattern(), ternary((4, 4)), st.data())
def test_verify_cell_matches_its_tiled_grid(case, other, data):
    # a cell reference is counted from pair codes, a grid one by unpacking
    # and comparing: the two paths must agree on every suspect
    img, pattern = case
    touched = data.draw(arrays(np.bool_, img.shape))
    noise = data.draw(arrays(np.uint8, img.shape))
    suspect = np.where(touched, noise, embed_image(img, pattern))
    cell = pattern if pattern.shape == (4, 4) and data.draw(st.booleans()) else other
    tiled = np.tile(cell, (img.shape[0] // 4, img.shape[1] // 4))
    threshold = data.draw(st.integers(0, 16))
    got, want = verify(img, suspect, cell, threshold), verify(img, suspect, tiled, threshold)
    assert got.distances.dtype == want.distances.dtype == np.uint8
    assert np.array_equal(got.distances, want.distances)
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("cpus", [1, 2, 8])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # the patches suit every example
@given(image_and_pattern(block_rows=8), st.data())
def test_banded_routes_match_the_block_oracles(monkeypatch, inline_pool, cpus, case, data):
    # one block row per band, so an image of n block rows runs as n bands
    monkeypatch.setattr(watermark, "_BAND_PIXELS", 1)
    monkeypatch.setattr(watermark, "_cpus", lambda: cpus)
    calls = inline_pool
    calls.clear()
    img, pattern = case
    marked = embed_image(img, pattern)
    touched = data.draw(arrays(np.bool_, img.shape))
    suspect = np.where(touched, data.draw(arrays(np.uint8, img.shape)), marked)
    extracted = extract_image(img, suspect)
    report = verify(img, suspect, pattern)
    block_rows = img.shape[0] // 4  # one band or one CPU runs inline, on one thread
    assert calls == [(min(cpus, block_rows), [(i, i + 1) for i in range(block_rows)])] * 3
    stack, cells = [], []
    for (y, x), block in _tiles(img):
        cell = pattern if pattern.shape == (4, 4) else pattern[y : y + 4, x : x + 4]
        assert marked[y : y + 4, x : x + 4].tolist() == embed_block(block.tolist(), cell.tolist())
        got = extract_block(block.tolist(), suspect[y : y + 4, x : x + 4].tolist())
        assert extracted[y : y + 4, x : x + 4].tolist() == got
        assert report.distances[y // 4, x // 4] == (np.array(got) != cell).sum()
        stack.append(block)
        cells.append(cell)
    # the engine runs the same driver on the (4n, 4) view: one block per band
    blocks = np.array(stack)
    want = np.array([marked[y : y + 4, x : x + 4] for (y, x), _ in _tiles(img)])
    assert np.array_equal(process_blocks(blocks, np.array(cells), cpus), want)
    if pattern.shape == (4, 4):
        assert np.array_equal(process_blocks(blocks, pattern, cpus), want)


def _flood_regions(flags):
    """8-neighbour breadth-first flood fill: (x0, x1, y0, y1, count) per
    region, in the row-major order of each region's first cell."""
    h, w = flags.shape
    seen = set()
    regions = []
    for y in range(h):
        for x in range(w):
            if not flags[y, x] or (y, x) in seen:
                continue
            seen.add((y, x))
            queue, cells = deque([(y, x)]), []
            while queue:
                cy, cx = queue.popleft()
                cells.append((cy, cx))
                for ny in range(cy - 1, cy + 2):
                    for nx in range(cx - 1, cx + 2):
                        if 0 <= ny < h and 0 <= nx < w and flags[ny, nx] and (ny, nx) not in seen:
                            seen.add((ny, nx))
                            queue.append((ny, nx))
            ys, xs = [c[0] for c in cells], [c[1] for c in cells]
            regions.append((min(xs), max(xs), min(ys), max(ys), len(cells)))
    return regions


grid_shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 24)),
    st.tuples(st.integers(1, 24), st.just(1)),
    st.tuples(st.integers(1, 24), st.integers(1, 24)),
)


@given(grid_shapes.flatmap(lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 16))),
       st.integers(0, 16))
def test_report_regions_match_flood_fill(distances, threshold):
    report = TamperReport(threshold=threshold, distances=distances)
    want = _flood_regions(report.tampered)
    assert tamper_regions(report.tampered) == want
    assert sum(region[4] for region in want) == report.total_tampered
    lines = report.to_text().splitlines()
    assert lines[4] == "regions=%d" % len(want)
    assert lines[5:-1] == ["region=%d x=%d..%d y=%d..%d blocks=%d" % ((i,) + r) for i, r in enumerate(want)]
    key, _, counts = lines[-1].partition("=")
    histogram = [int(c) for c in counts.split()]
    assert key == "distance_histogram" and len(histogram) == 17
    assert histogram == [int((distances == d).sum()) for d in range(17)]
    assert sum(histogram) == distances.size
    assert report.to_json() == json.dumps(report.to_dict(), separators=(",", ":")).encode()


@pytest.mark.parametrize(
    "flags, want",
    [
        (np.zeros((3, 5), bool), []),
        (np.ones((3, 5), bool), [(0, 4, 0, 2, 15)]),
        (np.array([[0, 0, 0, 1]], bool), [(3, 3, 0, 0, 1)]),
        (np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], bool), [(0, 0, 2, 2, 1)]),
        (np.array([[0, 1, 0], [1, 0, 0]], bool), [(0, 1, 0, 1, 2)]),
        (np.array([[1, 0, 0], [0, 1, 0]], bool), [(0, 1, 0, 1, 2)]),
        (np.array([[1, 0, 0, 0, 1], [1, 0, 0, 0, 1], [1, 1, 1, 1, 1]], bool), [(0, 4, 0, 2, 9)]),
        # a run that ends one row and a run that starts the next touch only
        # when the grid is 2 wide, where they are diagonal neighbours
        (np.array([[0, 0, 1], [1, 0, 0]], bool), [(2, 2, 0, 0, 1), (0, 0, 1, 1, 1)]),
        (np.array([[0, 0, 1, 1], [1, 0, 0, 0]], bool), [(2, 3, 0, 0, 2), (0, 0, 1, 1, 1)]),
        (np.array([[0, 1], [1, 0]], bool), [(0, 1, 0, 1, 2)]),
        (np.zeros((0, 5), bool), []),
        (np.zeros((5, 0), bool), []),
    ],
    ids=["none", "all", "lone-corner-1xN", "lone-corner", "anti-diagonal-pair", "diagonal-pair", "u-shape",
         "row-end-row-start-w3", "row-end-row-start-w4", "row-end-row-start-w2", "0xN", "Nx0"],
)
def test_tamper_regions_explicit_cases(flags, want):
    assert tamper_regions(flags) == want


def _serpentine(n: int) -> np.ndarray:
    """One path through an n x n grid: every even row full, joined at
    alternate ends by one cell in each odd row."""
    flags = np.zeros((n, n), bool)
    flags[::2] = True
    flags[1::4, -1] = flags[3::4, 0] = True
    return flags


_CHECKERBOARD = np.indices((64, 64)).sum(axis=0) % 2 == 0


@pytest.mark.parametrize(
    "flags",
    [_serpentine(64), _serpentine(64).T, _serpentine(64)[::-1, ::-1], _CHECKERBOARD],
    ids=["serpentine", "serpentine-transposed", "serpentine-reversed", "checkerboard"],
)
def test_tamper_regions_match_flood_fill_on_long_paths_and_dense_edges(flags):
    # one path of 32 full rows joined end to end, walked against the run
    # order too, and a grid where each run touches two runs above and two below
    assert tamper_regions(flags) == _flood_regions(flags) == [(0, 63, 0, 63, int(flags.sum()))]


def test_production_routes_never_call_the_block_oracles(monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("a production route called a pure-Python block oracle")

    for module in (hntt, watermark, engine):
        for name in ("embed_block", "extract_block", "decompose", "special_hntt_2d",
                     "inverse_special_hntt_2d", "hntt_1d", "full_hntt_2d_direct"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, oracle)
    rng = np.random.RandomState(0)
    img = rng.randint(0, 256, (16, 24), dtype=np.uint8)
    cell = rng.randint(0, 3, (4, 4), dtype=np.uint8)
    grid = rng.randint(0, 3, img.shape, dtype=np.uint8)
    for pattern in (cell, grid):
        marked = embed_image(img, pattern)
        extract_image(img, marked)
        verify(img, marked, pattern)
    blocks = rng.randint(0, 256, (40, 4, 4), dtype=np.uint8)
    for cells in (cell, rng.randint(0, 3, (40, 4, 4), dtype=np.uint8)):
        for workers in (1, 2):
            process_blocks(blocks, cells, workers)


@pytest.mark.parametrize("workers", [1, 2, 8])
@given(st.data())
def test_process_blocks_matches_embed_block(workers, data):
    n = data.draw(st.integers(0, 40))
    blocks = data.draw(arrays(np.uint8, (n, 4, 4)))
    cells = data.draw(st.one_of(ternary((4, 4)), ternary((n, 4, 4))))
    out = process_blocks(blocks, cells, workers)
    assert out.shape == blocks.shape and out.dtype == np.uint8
    for i, block in enumerate(blocks):
        cell = cells if cells.ndim == 2 else cells[i]
        assert out[i].tolist() == embed_block(block.tolist(), cell.tolist())


@st.composite
def pgm_like(draw):
    """Near-valid PGMs, sometimes cut short or with a stray trailing byte, so
    every branch of the header and body parsers runs."""
    magic = draw(st.sampled_from([b"P5", b"P2", b"P6"]))
    width, height = draw(st.sampled_from([2, 1, 4, 0, -1])), draw(st.sampled_from([3, 1, 4, 0]))
    maxval = draw(st.sampled_from([255, 2, 1, 256, 0]))
    sep = draw(st.sampled_from([b"\n", b" ", b" #c\n"]))
    header = sep.join([magic] + [b"%d" % v for v in (width, height, maxval)]) + b"\n"
    count = max(width * height, 0)
    if magic == b"P2":
        body = b" ".join(b"%d" % v for v in draw(st.lists(st.integers(-1, 300), min_size=count, max_size=count)))
    else:
        body = draw(st.binary(min_size=count, max_size=count))
    data = header + body + draw(st.sampled_from([b"", b"\n", b" 7"]))
    return data[: draw(st.one_of(st.none(), st.integers(0, len(data))))]


@settings(max_examples=400)
@given(st.one_of(st.binary(max_size=64), pgm_like()))
def test_read_pgm_parses_or_raises_value_error(data):
    try:
        img = read_pgm(data)
    except ValueError:
        return
    assert isinstance(img, np.ndarray) and img.ndim == 2 and img.dtype == np.uint8


_WHITESPACE = [bytes([c]) for c in b" \t\r\n\x0b\x0c"]
# a run of whitespace bytes and '#' comments, which end at a newline
_SEPARATOR = st.lists(
    st.one_of(st.sampled_from(_WHITESPACE), st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")),
    min_size=1,
    max_size=4,
).map(b"".join)


@settings(max_examples=300)
@given(arrays(np.uint8, st.tuples(st.integers(1, 4), st.integers(1, 5))), st.sampled_from([b"P5", b"P2"]), st.data())
def test_pgm_separators_read_like_single_spaces(img, magic, data):
    # whitespace and comments may stand between header fields and between
    # plain samples; a P5 raster follows exactly one whitespace byte
    maxval = data.draw(st.integers(max(int(img.max()), 1), 255))
    tokens = [magic] + [b"%d" % v for v in (img.shape[1], img.shape[0], maxval)]
    if magic == b"P2":
        tokens += [b"%d" % v for v in img.ravel()]
    spelt = tokens[0]
    for token in tokens[1:]:
        spelt += data.draw(_SEPARATOR) + token
    if magic == b"P5":
        single = b" ".join(tokens) + b" " + img.tobytes()
        spelt += data.draw(st.sampled_from(_WHITESPACE)) + img.tobytes()
        spelt += data.draw(st.lists(st.sampled_from(_WHITESPACE), max_size=3).map(b"".join))
    else:
        single = b" ".join(tokens)
        spelt += data.draw(st.one_of(st.just(b""), _SEPARATOR))
    for pgm in (single, spelt):
        out = read_pgm(pgm)
        assert out.dtype == np.uint8 and np.array_equal(out, img)
