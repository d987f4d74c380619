"""PGM parsing/serialization, watermark files and padding."""

import numpy as np
import pytest

from hnttmark.imageio import pad_to_multiple, read_pgm, read_watermark, save_pgm, write_pgm, write_watermark
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
