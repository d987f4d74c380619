"""The reference route and the image routes: one input rule, separate paths.

The pure-Python block functions and the numpy image routes must accept
and reject the same inputs, with the same kind of message, and the image
routes must never run the reference route.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hnttmark import engine, hntt, watermark
from hnttmark.cli import EXIT_OK, EXIT_TAMPERED, main
from hnttmark.imageio import (
    as_pixels, as_ternary, load_pgm, load_watermark, save_pgm, save_watermark, write_pgm, write_watermark,
)

# Scalars that are not GF(3) values or pixels, or not of an integer dtype.
_ODD_SCALARS = [
    -1, 3, 256, 2**63, -(2**64), 0.5, 1.0, float("nan"), True, False, None, "a", b"1",
    np.int8(-1), np.int16(256), np.uint8(2), np.int64(1), np.float64(1.0), np.float32(0.5), np.bool_(True),
]
_FORMS = ["list", "tuple", "array", "ragged", "3 rows", "4x5", "4x4x1", "flat"]
# Kinds of rejection; ValueError messages are compared by kind, since the
# routes name their arguments differently.
_FAMILIES = ("inhomogeneous", "got shape", "must be integers", "must be in")
# Lists that numpy turns into an integer or float64 array, but whose leaves
# decide: a bool among ints, and Python ints that need float64 together.
_BOOL_AMONG_INTS = [[True, 1, 0, 0]] + [[0] * 4] * 3
_BEYOND_INT64_BESIDE_0 = [[2**63, 0, 0, 0]] + [[0] * 4] * 3


@st.composite
def block_inputs(draw, high: int):
    """A 4x4 block of integers 0..high with up to two odd scalars, in one
    of _FORMS, or a typed numpy array of a 4x4 or wrong shape."""
    if draw(st.integers(0, 5)) == 0:
        dtype = draw(st.sampled_from([np.int8, np.int64, np.uint16, np.float32, np.bool_]))
        shape = draw(st.sampled_from([(4, 4), (4, 4), (3, 4), (4, 4, 1), (16,)]))
        return draw(arrays(np.int64, shape, elements=st.integers(0, high + 1))).astype(dtype)
    rows = draw(st.lists(st.lists(st.integers(0, high), min_size=4, max_size=4), min_size=4, max_size=4))
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, 3))][draw(st.integers(0, 3))] = draw(st.sampled_from(_ODD_SCALARS))
    form = draw(st.sampled_from(_FORMS))
    if form == "tuple":
        return tuple(tuple(row) for row in rows)
    if form == "array":
        try:
            return np.array(rows)
        except ValueError:
            return rows
    if form == "ragged":
        rows[draw(st.integers(0, 3))] = (rows[0] + [0])[: draw(st.sampled_from([3, 5]))]
    elif form == "3 rows":
        rows = rows[:3]
    elif form == "4x5":
        rows = [row + [0] for row in rows]
    elif form == "4x4x1":
        rows = [[[v] for v in row] for row in rows]
    elif form == "flat":
        rows = [v for row in rows for v in row]
    return rows


def _family(error: ValueError) -> str:
    return next((f for f in _FAMILIES if f in str(error)), str(error))


def _outcome(call):
    """("ok", result) or (family, None) for a ValueError; any other
    exception fails the test."""
    try:
        return "ok", call()
    except ValueError as error:
        return _family(error), None


def _expected(x, check):
    """The image route's decision on a 4x4 argument: its shape first, as
    _pattern_cells checks it, then `check` (as_pixels or as_ternary)."""
    try:
        shape = np.shape(x)
    except ValueError as error:
        return _family(error), None
    if shape != (4, 4):
        return "got shape", None
    return _outcome(lambda: check(x))


def _is_int_block(result) -> bool:
    return len(result) == 4 and all(len(row) == 4 and all(type(v) is int for v in row) for row in result)


@given(block_inputs(high=2))
@example(_BOOL_AMONG_INTS)
@example(_BEYOND_INT64_BESIDE_0)
def test_embed_block_decides_like_embed_image(cell):
    block = [[100] * 4 for _ in range(4)]
    got = _outcome(lambda: watermark.embed_block(block, cell))
    want = _outcome(lambda: watermark.embed_image(np.array(block, dtype=np.uint8), cell))
    assert got[0] == want[0]
    if got[0] == "ok":
        assert _is_int_block(got[1]) and got[1] == want[1].tolist()


@given(block_inputs(high=255))
@example(_BOOL_AMONG_INTS)
@example(_BEYOND_INT64_BESIDE_0)
def test_decompose_decides_like_as_pixels(block):
    got = _outcome(lambda: watermark.decompose(block))
    want = _expected(block, as_pixels)
    assert got[0] == want[0]
    if got[0] == "ok":
        residue, divisible = got[1]
        assert _is_int_block(residue) and _is_int_block(divisible)
        assert residue == (want[1] % 3).tolist()


@given(block_inputs(high=2))
@example(_BOOL_AMONG_INTS)
@example(_BEYOND_INT64_BESIDE_0)
def test_special_hntt_2d_decides_like_as_ternary(block):
    got = _outcome(lambda: hntt.special_hntt_2d(block))
    want = _expected(block, as_ternary)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert _is_int_block(got[1]) and got[1] == watermark._transform(want[1]).tolist()


_BLOCK_FUNCTIONS = [
    hntt.special_hntt_2d,
    hntt.inverse_special_hntt_2d,
    hntt.full_hntt_2d,
    hntt.full_hntt_2d_direct,
    lambda a: watermark.decompose(a).residue,
    lambda a: watermark.embed_block(a, [[1] * 4] * 4),
    lambda a: watermark.embed_block([[7] * 4] * 4, a),
    lambda a: watermark.extract_block(a, [[7] * 4] * 4),
    lambda a: watermark.extract_block([[7] * 4] * 4, a),
]
_VECTOR_FUNCTIONS = [hntt.hntt_1d, hntt.hntt_1d_fast, hntt.inverse_hntt_1d]


@given(block_inputs(high=2), st.integers(0, 3))
def test_reference_functions_raise_only_value_errors_and_return_ints(block, row):
    for function in _BLOCK_FUNCTIONS:
        result = _outcome(lambda: function(block))[1]
        assert result is None or _is_int_block(result)
    try:
        vector = block[row]
    except (IndexError, KeyError, TypeError):
        vector = block
    for function in _VECTOR_FUNCTIONS:
        result = _outcome(lambda: function(vector))[1]
        assert result is None or (len(result) == 4 and all(type(v) is int for v in result))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hntt.hntt_1d([0, 1, 2]), "vector must have shape (4,), got shape (3,)"),
        (lambda: hntt.hntt_1d_fast([0, 1, 2, 3]), "vector values must be in {0, 1, 2}, found 3"),
        (lambda: hntt.hntt_1d([True, False, True, False]), "vector values must be integers, got dtype bool"),
        (lambda: hntt.special_hntt_2d([[1.0] * 4] * 4), "block values must be integers, got dtype float64"),
        (lambda: hntt.special_hntt_2d([[None] * 4] * 4), "block values must be integers, got dtype object"),
        (lambda: hntt.special_hntt_2d([[10**20, 0, 0, 0]] + [[0] * 4] * 3),
         "block values must be in {0, 1, 2}, found 100000000000000000000"),
        (lambda: hntt.special_hntt_2d([[True, 10**20, 0, 0]] + [[0] * 4] * 3),
         "block values must be integers, got dtype object"),
        (lambda: watermark.decompose([[-(10**20), 0, 0, 0]] + [[0] * 4] * 3), "block pixels must be in [0, 255]"),
        (lambda: hntt.full_hntt_2d_direct(np.ones((4, 4, 1), int)), "block must have shape (4, 4), got shape (4, 4, 1)"),
        (lambda: watermark.decompose([[100.5] * 4] * 4), "block pixels must be integers, got dtype float64"),
        (lambda: watermark.decompose([[0, 0, 0, 256]] + [[0] * 4] * 3), "block pixels must be in [0, 255]"),
        (lambda: watermark.decompose([[0] * 3] * 4), "block must have shape (4, 4), got shape (4, 3)"),
        (lambda: watermark.extract_block([[0] * 4] * 4, [["a"] * 4] * 4), "block pixels must be integers, got dtype <U1"),
        (lambda: as_pixels(np.ones(3, "m8[s]")), "image pixels must be integers, got dtype timedelta64[s]"),
        (lambda: as_ternary(np.ones(3, "m8[s]")), "watermark values must be integers, got dtype timedelta64[s]"),
        (lambda: watermark.embed_block([[100] * 4] * 4, _BOOL_AMONG_INTS), "watermark values must be integers, got a bool"),
        (lambda: watermark.embed_image(np.full((4, 4), 100, np.uint8), _BOOL_AMONG_INTS),
         "watermark values must be integers, got a bool"),
        (lambda: hntt.hntt_1d([1, np.bool_(False), 0, 0]), "vector values must be integers, got a bool"),
        (lambda: watermark.decompose(_BOOL_AMONG_INTS), "block pixels must be integers, got a bool"),
        (lambda: engine.process_blocks([_BOOL_AMONG_INTS], watermark.checkerboard_cell()),
         "image pixels must be integers, got a bool"),
        (lambda: hntt.special_hntt_2d(_BEYOND_INT64_BESIDE_0), "block values must be in {0, 1, 2}, found 9223372036854775808"),
        (lambda: watermark.embed_image(np.zeros((4, 4), np.uint8), _BEYOND_INT64_BESIDE_0),
         "watermark values must be in {0, 1, 2}, found 9223372036854775808"),
        (lambda: watermark.decompose(_BEYOND_INT64_BESIDE_0), "block pixels must be in [0, 255]"),
        (lambda: watermark.embed_image(_BEYOND_INT64_BESIDE_0, watermark.checkerboard_cell()),
         "image pixels must be in [0, 255]"),
        (lambda: hntt.hntt_1d([2**63, 0.0, 0, 0]), "vector values must be integers, got dtype float64"),
        # every array entry point judges shape before dtype and range
        (lambda: write_watermark([[[0.5]]]), "watermark pattern must be a non-empty 2-D integer array"),
        (lambda: save_watermark(os.devnull, [[[0.5]]]), "watermark pattern must be a non-empty 2-D integer array"),
        (lambda: save_watermark(os.devnull, [True, False]), "watermark pattern must be a non-empty 2-D integer array"),
        (lambda: write_watermark(np.full((1, 4, 4), 3)), "watermark pattern must be a non-empty 2-D integer array"),
        (lambda: write_pgm([[[0.5]]]), "image must be a non-empty 2-D array, got shape (1, 1, 1)"),
        (lambda: engine.process_blocks([[0.5] * 4] * 4, watermark.checkerboard_cell()),
         "expected a stack of 4x4 blocks, got shape (4, 4)"),
        (lambda: watermark.embed_image(np.zeros((8, 8), np.uint8), [[True] * 8]),
         "watermark pattern must be a 4x4 cell or 8x8 like the image, got shape (1, 8)"),
    ],
    ids=["1d-short", "1d-value-3", "1d-bools", "2d-floats", "2d-none", "2d-beyond-64-bits", "2d-bool-and-big-int",
         "decompose-beyond-64-bits", "direct-4x4x1",
         "decompose-float", "decompose-256", "decompose-4x3", "extract-str", "pixels-timedelta", "ternary-timedelta",
         "embed-block-bool-among-ints", "embed-image-bool-among-ints", "1d-numpy-bool-among-ints",
         "decompose-bool-among-ints", "engine-bool-among-ints", "2d-2**63-beside-0", "embed-image-2**63-beside-0",
         "decompose-2**63-beside-0", "image-2**63-beside-0", "1d-2**63-beside-a-float",
         "write-watermark-float-3d", "save-watermark-float-3d", "save-watermark-bool-1d", "write-watermark-3-3d",
         "write-pgm-float-3d", "engine-float-2d", "embed-image-bool-1x8"],
)
def test_reference_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_an_ndarray_is_judged_by_its_dtype_alone():
    # np.array makes the bool 1 in an int64 array: the array is an integer array
    block = np.array(_BOOL_AMONG_INTS)
    assert block.dtype == np.int64
    assert hntt.special_hntt_2d(block) == hntt.special_hntt_2d(block.tolist())
    assert np.array_equal(watermark.embed_image(np.full((4, 4), 100, np.uint8), block),
                          watermark.embed_image(np.full((4, 4), 100, np.uint8), block.tolist()))


def test_reference_functions_return_plain_ints_for_numpy_input():
    block = np.arange(16).reshape(4, 4) % 3
    for dtype in (np.uint8, np.int16, np.int64, np.uint64):
        a = block.astype(dtype)
        for function in _BLOCK_FUNCTIONS:
            assert _is_int_block(function(a))
        for function in _VECTOR_FUNCTIONS:
            assert all(type(v) is int for v in function(a[1]))
        assert _is_int_block(watermark.decompose(a * 85).divisible)


def test_production_routes_never_call_the_reference_route(monkeypatch, tmp_path):
    rng = np.random.RandomState(40)
    img = rng.randint(0, 256, (64, 64), dtype=np.uint8)
    grid = rng.randint(0, 3, img.shape, dtype=np.uint8)
    cell = watermark.checkerboard_cell()
    marked = watermark.embed_image(img, grid)
    want = {
        "embed": marked,
        "extract": watermark.extract_image(img, marked),
        "verify": watermark.verify(img, marked, cell).to_json(),
        "engine": engine.process_blocks(img.reshape(-1, 4, 4), cell, workers=2),
    }
    original, suspect, pattern = tmp_path / "orig.pgm", tmp_path / "marked.pgm", tmp_path / "wm.pgm"
    save_pgm(original, img)
    save_watermark(pattern, grid)

    def forbidden(*args, **kwargs):
        raise AssertionError("the reference route ran")

    names = [name for name in vars(hntt) if callable(getattr(hntt, name)) and getattr(hntt, name).__module__ == hntt.__name__]
    assert {"hntt_1d", "_butterfly", "_checked", "special_hntt_2d", "full_hntt_2d_direct"} <= set(names)
    for name in names:
        monkeypatch.setattr(hntt, name, forbidden)
    for name in ("decompose", "embed_block", "extract_block"):
        monkeypatch.setattr(watermark, name, forbidden)

    assert np.array_equal(watermark.embed_image(img, grid), want["embed"])
    assert np.array_equal(watermark.extract_image(img, marked), want["extract"])
    assert watermark.verify(img, marked, cell).to_json() == want["verify"]
    assert np.array_equal(engine.process_blocks(img.reshape(-1, 4, 4), cell, workers=2), want["engine"])
    assert main(["embed", "--input", str(original), "--output", str(suspect), "--watermark", str(pattern)]) == EXIT_OK
    assert np.array_equal(load_pgm(suspect), want["embed"])
    extracted = tmp_path / "extracted.pgm"
    assert main(["extract", "--original", str(original), "--suspect", str(suspect), "--output", str(extracted)]) == EXIT_OK
    assert np.array_equal(load_watermark(extracted), want["extract"])
    report = tmp_path / "report.json"
    args = ["verify", "--original", str(original), "--suspect", str(suspect), "--pattern", "checker"]
    assert main(args + ["--report", str(report)]) == EXIT_TAMPERED
    assert report.read_bytes() == want["verify"] + b"\n"
