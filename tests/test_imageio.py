"""PGM parsing/serialization, watermark files and padding."""

import sys

import numpy as np
import pytest

from hnttmark.imageio import (
    pad_to_multiple,
    read_pgm,
    read_watermark,
    save_pgm,
    save_watermark,
    write_pgm,
    write_watermark,
)
from hnttmark.watermark import checkerboard_cell, embed_image, extract_image, verify


def test_write_minimal_image():
    assert write_pgm(np.zeros((1, 1), dtype=np.uint8)) == b"P5\n1 1\n255\n\x00"


def test_round_trip_random_images():
    rng = np.random.RandomState(0)
    for _ in range(100):
        img = rng.randint(0, 256, (64, 64), dtype=np.uint8)
        assert np.array_equal(read_pgm(write_pgm(img)), img)


def test_save_pgm_writes_the_bytes_of_write_pgm(tmp_path):
    img = np.random.RandomState(9).randint(0, 256, (6, 10), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    for view in (img, np.asfortranarray(img), np.ascontiguousarray(img.T).T, np.repeat(img, 2, axis=1)[:, ::2]):
        save_pgm(path, view)
        assert path.read_bytes() == write_pgm(img)


def test_save_watermark_writes_the_bytes_of_write_watermark(tmp_path):
    grid = np.random.RandomState(10).randint(0, 3, (8, 12), dtype=np.uint8)
    path = tmp_path / "wm.pgm"
    for view in (grid, np.asfortranarray(grid), grid.astype(np.int64), np.repeat(grid, 2, axis=1)[:, ::2]):
        save_watermark(path, view)
        assert path.read_bytes() == write_watermark(grid)


def test_round_trip_odd_shapes():
    rng = np.random.RandomState(1)
    for shape in ((1, 1), (3, 5), (17, 2), (5, 31)):
        img = rng.randint(0, 256, shape, dtype=np.uint8)
        assert np.array_equal(read_pgm(write_pgm(img)), img)


def test_plain_pgm_equals_binary():
    rng = np.random.RandomState(2)
    img = rng.randint(0, 256, (7, 5), dtype=np.uint8)
    plain = b"P2\n5 7\n255\n" + " ".join(str(v) for v in img.ravel()).encode()
    assert np.array_equal(read_pgm(plain), img)


def test_header_comments_are_skipped():
    data = b"P5 # magic\n# a comment line\n2 1\n# another\n255\n\x01\x02"
    assert read_pgm(data).tolist() == [[1, 2]]
    plain = b"P2\n#c\n2 2 # inline\n3\n0 1\n2 3\n"
    assert read_pgm(plain).tolist() == [[0, 1], [2, 3]]


def test_malformed_inputs():
    with pytest.raises(ValueError):
        read_pgm(b"P6\n1 1\n255\n\x00")  # wrong magic
    with pytest.raises(ValueError):
        read_pgm(b"P5\n1 1\n65535\n\x00\x00")  # maxval too large
    with pytest.raises(ValueError):
        read_pgm(b"P5\n2 2\n255\n\x00\x00")  # truncated raster
    with pytest.raises(ValueError):
        read_pgm(b"P5\n2 2\n255\n" + b"\x00" * 5)  # trailing junk
    with pytest.raises(ValueError):
        read_pgm(b"P5\nx 1\n255\n\x00")  # non-numeric width
    with pytest.raises(ValueError):
        read_pgm(b"P2\n2 1\n255\n7")  # too few plain samples
    with pytest.raises(ValueError):
        read_pgm(b"P2\n1 1\n10\n11")  # sample above maxval
    with pytest.raises(ValueError):
        read_pgm(b"P5\n1 1\n0\n\x00")  # maxval zero
    with pytest.raises(ValueError):
        read_pgm(b"P5\n1 1\n255")  # header ends before the raster
    with pytest.raises(ValueError):
        read_pgm(b"P5\n-1 1\n255\n\x00")  # negative width
    # integers are ASCII decimal digits only: no sign, no '_' separators,
    # no non-ASCII digits
    for data in (
        b"P2\n4 1\n2_5_5\n1_0 +2 0 1_1\n",
        b"P2\n4 1\n255\n1_0 +2 0 1_1\n",
        b"P5\n+1 1\n255\n\x00",
        b"P2\n1 1\n255\n-0\n",
        "P2\n1 1\n255\n\u0663\n".encode(),
    ):
        with pytest.raises(ValueError):
            read_pgm(data)


_DIGITS = b"9" * 5000  # more digits than int() converts by default
# the most digits int() converts by default: each dimension parses, and
# their product has too many digits to format
_HUGE = b"9" * 4300


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "truncated PGM header"),
        (b" \t# only a comment\n", "truncated PGM header"),
        (b"P5 1 1", "truncated PGM header"),
        (b"P5 1 1 # a comment with no newline swallows 255 \x00", "truncated PGM header"),
        (b"P6\n1 1\n255\n\x00", "not a PGM image (expected P2 or P5 magic, got b'P6')"),
        (b"P5\nx 1\n255\n\x00", "malformed PGM header: bad width b'x'"),
        (b"P5\n-1 1\n255\n\x00", "malformed PGM header: bad width b'-1'"),
        (b"P5\n+1 1\n255\n\x00", "malformed PGM header: bad width b'+1'"),
        (b"P5 " + _DIGITS + b" 1 255\n\x00", "malformed PGM header: bad width %r" % _DIGITS),
        (b"P5 1 1_0 255\n\x00", "malformed PGM header: bad height b'1_0'"),
        ("P5 1 \u0661 255\n\x00".encode(), "malformed PGM header: bad height %r" % "\u0661".encode()),
        (b"P2\n4 1\n2_5_5\n1_0 +2 0 1_1\n", "malformed PGM header: bad maxval b'2_5_5'"),
        (b"P5 0 1 255\n", "invalid PGM dimensions 0x1"),
        (b"P5 1 0 255\n", "invalid PGM dimensions 1x0"),
        (b"P5 1 %d 255 1" % (sys.maxsize + 1), "invalid PGM dimensions 1x%d" % (sys.maxsize + 1)),
        (b"P5 1 %d 255 1" % sys.maxsize, "truncated PGM pixel data: expected %d bytes, got 1" % sys.maxsize),
        pytest.param(
            b"P2 %s %s 255 1" % (_HUGE, _HUGE),
            "invalid PGM dimensions %sx%s" % (_HUGE.decode(), _HUGE.decode()),
            id="P2-dimensions-past-maxsize",
        ),
        pytest.param(
            b"P5 %s %s 255 1" % (_HUGE, _HUGE),
            "invalid PGM dimensions %sx%s" % (_HUGE.decode(), _HUGE.decode()),
            id="P5-dimensions-past-maxsize",
        ),
        (b"P5\n1 1\n65535\n\x00\x00", "unsupported PGM maxval 65535 (only <= 255 handled)"),
        (b"P5\n1 1\n0\n\x00", "invalid PGM maxval 0"),
        (b"P5\n1 1\n255", "malformed PGM header: missing separator before pixel data"),
        (b"P5 1 1 255#c\n\x00", "malformed PGM header: missing separator before pixel data"),
        (b"P5\x0b2\x0c1\x0b255\x0c\x00", "truncated PGM pixel data: expected 2 bytes, got 1"),
        (b"P5\n2 2\n255\n" + b"\x00" * 5, "trailing data after PGM raster"),
        (b"P5 1 1 255\n\x00\n# no comment after the raster\n", "trailing data after PGM raster"),
        (b"P5 2 1 2\n\x02\x03", "PGM pixel value out of range [0, 2]"),
        (b"P2\n1 1\n10\n11", "PGM pixel value out of range [0, 10]"),
        (b"P2\n2 1\n255\n7", "expected 2 pixel values in plain PGM, found 1"),
        (b"P2\x0c2\x0b1\x0c255\x0b7\x0c8\x0b9", "expected 2 pixel values in plain PGM, found 3"),
        (b"P2\n4 1\n255\n1_0 +2 0 1_1\n", "malformed plain PGM pixel value"),
        (b"P2\n1 1\n255\n-0\n", "malformed plain PGM pixel value"),
        ("P2\n1 1\n255\n\u0663\n".encode(), "malformed plain PGM pixel value"),
        (b"P2 1 1 255 " + _DIGITS, "malformed plain PGM pixel value"),
    ],
)
def test_reader_messages(data, message):
    with pytest.raises(ValueError) as exc:
        read_pgm(data)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        read_watermark(data)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5 4 4 3\n" + b"\x03" * 16, "watermark values must be in {0, 1, 2}, found 3"),
        (b"P2 4 4 255 " + b"0 " * 15 + b"200", "watermark values must be in {0, 1, 2}, found 200"),
        (b"P5 4 2 2\n" + b"\x00" * 8, "watermark dimensions 4x2 are not multiples of 4"),
        (b"P2 2 4 2" + b" 1" * 8, "watermark dimensions 2x4 are not multiples of 4"),
    ],
)
def test_watermark_reader_messages(data, message):
    with pytest.raises(ValueError) as exc:
        read_watermark(data)
    assert str(exc.value) == message


def test_image_validation():
    with pytest.raises(ValueError):
        write_pgm(np.zeros((2, 2), dtype=np.float64))  # non-integer pixels
    with pytest.raises(ValueError):
        write_pgm(np.zeros((4,), dtype=np.uint8))  # not 2-D
    with pytest.raises(ValueError):
        write_pgm(np.full((2, 2), 300))  # out of 8-bit range
    with pytest.raises(ValueError):
        write_pgm(np.zeros((0, 4), dtype=np.uint8))  # empty


def test_samples_above_maxval_rejected_in_both_encodings():
    binary = b"P5 4 4 2\n" + bytes([200] * 16)
    plain = b"P2 4 4 2\n" + b" 200" * 16
    for data in (binary, plain):
        with pytest.raises(ValueError, match=r"PGM pixel value out of range \[0, 2\]"):
            read_pgm(data)
    # samples at or below maxval are taken unscaled
    assert read_pgm(b"P5 2 1 2\n\x01\x02").tolist() == [[1, 2]]
    assert read_pgm(b"P2 2 1 2\n1 2").tolist() == [[1, 2]]


def test_watermark_round_trip():
    cell = checkerboard_cell()
    assert np.array_equal(read_watermark(write_watermark(cell)), cell)
    data = write_watermark(cell)
    assert data.startswith(b"P5\n4 4\n2\n")
    rng = np.random.RandomState(3)
    grid = rng.randint(0, 3, (16, 8), dtype=np.uint8)
    assert np.array_equal(read_watermark(write_watermark(grid)), grid)


def test_watermark_validation():
    bad_value = b"P5\n4 4\n2\n" + bytes([0, 1, 2, 3] * 4)
    with pytest.raises(ValueError):
        read_watermark(bad_value)
    bad_dims = b"P5\n5 4\n2\n" + bytes(20)
    with pytest.raises(ValueError):
        read_watermark(bad_dims)
    with pytest.raises(ValueError):
        write_watermark(np.full((4, 4), 3, dtype=np.uint8))
    with pytest.raises(ValueError):
        write_watermark(np.zeros((4, 5), dtype=np.uint8))
    for shape in ((16,), (0, 4), (0, 0)):
        with pytest.raises(ValueError, match="^watermark pattern must be a non-empty 2-D integer array$"):
            write_watermark(np.zeros(shape, dtype=np.uint8))


def test_watermark_values_are_checked_once_by_the_right_reader():
    # maxval <= 2 leaves the {0, 1, 2} check to read_pgm's range check;
    # a larger maxval admits 3..maxval, which the ternary check rejects
    for header, message in (
        (b"P5\n4 4\n2\n", r"PGM pixel value out of range \[0, 2\]"),
        (b"P5\n4 4\n1\n", r"PGM pixel value out of range \[0, 1\]"),
        (b"P5\n4 4\n255\n", r"watermark values must be in \{0, 1, 2\}, found 3"),
        (b"P5\n4 4\n3\n", r"watermark values must be in \{0, 1, 2\}, found 3"),
    ):
        with pytest.raises(ValueError, match=message):
            read_watermark(header + bytes([0, 1, 2, 3] * 4))
    plain = b" 0 1 2 3" * 4
    with pytest.raises(ValueError, match=r"PGM pixel value out of range \[0, 2\]"):
        read_watermark(b"P2\n4 4\n2\n" + plain)
    with pytest.raises(ValueError, match=r"watermark values must be in \{0, 1, 2\}, found 3"):
        read_watermark(b"P2\n4 4\n255\n" + plain)
    cell = checkerboard_cell()
    assert np.array_equal(read_watermark(b"P5\n4 4\n255\n" + cell.tobytes()), cell)


def test_pad_to_multiple_edge_replication():
    img = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    padded = pad_to_multiple(img)
    assert padded.shape == (4, 4)
    assert padded[0].tolist() == [1, 2, 2, 2]
    assert padded[3].tolist() == [3, 4, 4, 4]
    exact = np.zeros((8, 8), dtype=np.uint8)
    assert pad_to_multiple(exact) is exact


def test_padded_pipeline_raises_no_false_flags():
    # padding the original and the watermarked copy consistently must
    # verify clean everywhere, boundary blocks included
    rng = np.random.RandomState(5)
    img = rng.randint(0, 256, (13, 11), dtype=np.uint8)
    padded = pad_to_multiple(img)
    cell = checkerboard_cell()
    marked = embed_image(padded, cell)
    report = verify(padded, marked, cell)
    assert report.total_tampered == 0
    extracted = extract_image(padded, marked)
    assert np.array_equal(extracted, np.tile(cell, (4, 3)))
