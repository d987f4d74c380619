"""Grayscale image and watermark-pattern file I/O, padding, array validators.

The only native image format is PGM, chosen because round trips are
trivially bit-exact.  Both binary (P5) and plain (P2) files are read;
writing always emits P5 with maxval 255, a single space between width and
height, and a newline-terminated header:

    P5\\n<width> <height>\\n255\\n<width*height raw bytes>

Watermark patterns use the same container with maxval 2; every sample
must be a GF(3) value in {0, 1, 2}.  Images are numpy uint8 arrays of
shape (height, width).
"""

import re

import numpy as np

_WHITESPACE = b" \t\r\n\x0b\x0c"
_COMMENT_RE = re.compile(rb"#[^\n]*")
_RANGE_ERROR = "PGM pixel value out of range [0, %d]"


def as_pixels(pixels) -> np.ndarray:
    """Validate an integer array of 8-bit pixel values and return it as uint8.

    Any shape is accepted, empty included (an image, an (n, 4, 4) block
    stack); callers check the shape they need.
    """
    arr = np.asarray(pixels)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("image pixels must be integers, got dtype %s" % arr.dtype)
    if arr.dtype != np.uint8 and arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("image pixels must be in [0, 255]")
    return arr.astype(np.uint8, copy=False)


def as_gray(image) -> np.ndarray:
    """Validate an array-like as a grayscale image and return it as uint8."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("image must be a non-empty 2-D array, got shape %s" % (arr.shape,))
    return as_pixels(arr)


def as_ternary(pattern) -> np.ndarray:
    """Validate an integer array of GF(3) values {0, 1, 2} and return it as uint8.

    Any shape is accepted, empty included (a 2-D grid, a 4x4 cell, an
    (n, 4, 4) cell stack); callers check the shape they need.
    """
    arr = np.asarray(pattern)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("watermark values must be integers, got dtype %s" % arr.dtype)
    if arr.size:
        low = arr.min() if arr.dtype.kind == "i" else 0  # unsigned values are never negative
        high = arr.max()
        if low < 0 or high > 2:
            raise ValueError("watermark values must be in {0, 1, 2}, found %d" % (low if low < 0 else high))
    return arr.astype(np.uint8, copy=False)


def check_multiple_of_4(arr: np.ndarray, name: str) -> np.ndarray:
    """Return a 2-D array as is if both its dimensions are multiples of 4."""
    h, w = arr.shape
    if h % 4 or w % 4:
        raise ValueError("%s dimensions %dx%d are not multiples of 4" % (name, w, h))
    return arr


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#' comment runs to end of line
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        else:
            break
    if pos >= n:
        raise ValueError("truncated PGM header")
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    return data[start:pos], pos


def _decimal(token: bytes) -> int:
    """Parse ASCII decimal digits; int() alone also takes '+', '-' and '_'."""
    if not token.isdigit():
        raise ValueError("not a decimal integer: %r" % token)
    return int(token)


def _header_int(data: bytes, pos: int, name: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    try:
        return _decimal(token), pos
    except ValueError:
        raise ValueError("malformed PGM header: bad %s %r" % (name, token)) from None


def _header(data: bytes) -> tuple[bytes, int, int, int, int]:
    """The validated header of a PGM: magic, width, height, maxval, and
    the offset just past the maxval token."""
    magic, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise ValueError("not a PGM image (expected P2 or P5 magic, got %r)" % magic)
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width <= 0 or height <= 0:
        raise ValueError("invalid PGM dimensions %dx%d" % (width, height))
    if maxval > 255:
        raise ValueError("unsupported PGM maxval %d (only <= 255 handled)" % maxval)
    if maxval <= 0:
        raise ValueError("invalid PGM maxval %d" % maxval)
    return magic, width, height, maxval, pos


def read_pgm(data: bytes) -> np.ndarray:
    """Parse a binary (P5) or plain (P2) PGM with maxval <= 255.

    Samples are taken as they are, unscaled; each must be <= maxval.
    """
    magic, width, height, maxval, pos = _header(data)
    count = width * height

    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise ValueError("malformed PGM header: missing separator before pixel data")
        pos += 1
        if len(data) - pos < count:
            raise ValueError("truncated PGM pixel data: expected %d bytes, got %d" % (count, len(data) - pos))
        if data[pos + count :].strip(_WHITESPACE):
            raise ValueError("trailing data after PGM raster")
        pixels = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos).reshape(height, width).copy()
        if maxval < 255 and pixels.max() > maxval:
            raise ValueError(_RANGE_ERROR % maxval)
        return pixels

    tokens = _COMMENT_RE.sub(b"", data[pos:]).split()
    if len(tokens) != count:
        raise ValueError("expected %d pixel values in plain PGM, found %d" % (count, len(tokens)))
    try:
        values = [_decimal(t) for t in tokens]
    except ValueError:
        raise ValueError("malformed plain PGM pixel value") from None
    if any(v > maxval for v in values):
        raise ValueError(_RANGE_ERROR % maxval)
    return np.array(values, dtype=np.uint8).reshape(height, width)


def _pgm_parts(image) -> tuple[bytes, np.ndarray]:
    """The P5 header and the C-ordered raster of a grayscale image."""
    img = as_gray(image)
    height, width = img.shape
    return b"P5\n%d %d\n255\n" % (width, height), np.ascontiguousarray(img)


def write_pgm(image) -> bytes:
    """Serialize an image as binary PGM (P5, maxval 255)."""
    return b"".join(_pgm_parts(image))


def read_watermark(data: bytes) -> np.ndarray:
    """Parse a ternary watermark pattern from a PGM file.

    The pattern is either a single 4x4 cell (tiled over the image at use
    time) or a full per-block grid; both mean dimensions must be
    multiples of 4, and every value must be in {0, 1, 2}.
    """
    pattern = read_pgm(data)
    maxval = _header(data)[3]
    if maxval > 2:  # values up to 2 are already held by read_pgm's range check
        as_ternary(pattern)
    return check_multiple_of_4(pattern, "watermark")


def write_watermark(pattern) -> bytes:
    """Serialize a ternary pattern as binary PGM with maxval 2."""
    arr = as_ternary(pattern)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("watermark pattern must be a non-empty 2-D integer array")
    h, w = check_multiple_of_4(arr, "watermark").shape
    return b"P5\n%d %d\n2\n" % (w, h) + arr.tobytes()


def load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def save_pgm(path, image) -> None:
    header, raster = _pgm_parts(image)  # written as is: no joined copy of the raster
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster)


def load_watermark(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_watermark(fh.read())


def save_watermark(path, pattern) -> None:
    with open(path, "wb") as fh:
        fh.write(write_watermark(pattern))


def pad_to_multiple(image) -> np.ndarray:
    """Grow an image to multiple-of-4 dimensions by replicating edges."""
    img = as_gray(image)
    h, w = img.shape
    pad_bottom = (-h) % 4
    pad_right = (-w) % 4
    if pad_bottom == 0 and pad_right == 0:
        return img
    return np.pad(img, ((0, pad_bottom), (0, pad_right)), mode="edge")
