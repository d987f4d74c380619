"""Grayscale image and watermark-pattern file I/O, padding, and the input rules.

The package's input rules live here.  An integer argument (a step, a
seed, a worker count, a frame size, a threshold) passes `_integer`: a
Python or numpy integer, not a bool, returned as a Python int; anything
else is refused with "<name> must be an integer, got <value>", never
truncated.  Integer text (a PGM header field or sample) passes
`_decimal`: ASCII decimal digits only, with no sign, '_' or space; the
CLI reads its integer flags, `--rect` values and `transform` tokens by
the same rule after an optional '-'.  An array argument passes one
gate, `_integers`, which converts it once and judges it in a fixed
order: first its shape, by the rule its caller gives (the non-empty 2-D
shape of an image in `as_gray`, a 4x4 block in the reference route, and
so on); then its dtype, an integer one (not bool, not timedelta) or a
list of Python ints; then, in `as_pixels` or `as_ternary`, its range,
[0, 255] or {0, 1, 2}.  So a wrong shape is reported before a wrong value.

The only native image format is PGM, chosen because round trips are
trivially bit-exact.  Both binary (P5) and plain (P2) files are read;
writing always emits P5 with maxval 255, a single space between width and
height, and a newline-terminated header:

    P5\\n<width> <height>\\n255\\n<width*height raw bytes>

The reader takes Netpbm's token grammar.  Header fields (magic, width,
height, maxval) and P2 samples are separated by runs of whitespace
(space, \\t, \\r, \\n, \\v, \\f) and '#' comments; a comment runs to the
end of its line and may stand wherever whitespace may, between header
fields and between P2 samples.  Numbers are ASCII decimal digits only.
Exactly one whitespace byte follows maxval before a P5 raster, and no
comment may stand there; only whitespace may follow the raster.

Watermark patterns use the same container with maxval 2; every sample
must be a GF(3) value in {0, 1, 2}.  Images are numpy uint8 arrays of
shape (height, width).
"""

import re
import sys

import numpy as np

_WHITESPACE = b" \t\r\n\x0b\x0c"  # what bytes.split() and \s in a bytes pattern take
_COMMENT = rb"#[^\n]*"
_COMMENT_RE = re.compile(_COMMENT)
# one header field: skip whitespace and comments, then take the bytes up
# to the next whitespace or '#' (none left: an empty group)
_TOKEN_RE = re.compile(rb"(?:\s|%s)*([^\s#]*)" % _COMMENT)
_RANGE_ERROR = "PGM pixel value out of range [0, %d]"


def _integer(value, name: str, low: int | None = None) -> int:
    """value as a Python int: a Python or numpy integer, not a bool, and
    at least `low` if given; else ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if low is not None and value < low:
        raise ValueError("%s must be >= %d, got %d" % (name, low, value))
    return int(value)


def _integers(values, what: str, shape=None) -> np.ndarray:
    """values converted once and judged in order: its shape by the rule
    `shape`, if given, a function of the shape that returns the error
    message or None; then its dtype, a signed or unsigned integer one
    (not bool, not timedelta), or Python ints only, which numpy holds as
    objects when one does not fit 64 bits; else ValueError naming `what`.

    An ndarray is judged by its dtype alone.  Other input, a nested list
    say, is judged by its leaves when numpy gives it a number dtype: a
    bool among them is rejected, and Python ints that numpy widens to
    float64 (2**63 beside 0) are held as objects, like those beyond 64 bits.
    """
    arr = np.asarray(values)
    if shape and (message := shape(arr.shape)):
        raise ValueError(message)
    if not isinstance(values, np.ndarray) and arr.dtype.kind in "iuf":
        leaves = np.asarray(values, dtype=object)
        kinds = set(map(type, leaves.flat))
        if bool in kinds or np.bool_ in kinds:
            raise ValueError("%s must be integers, got a bool" % what)
        arr = leaves if arr.dtype.kind == "f" and kinds == {int} else arr
    if arr.dtype.kind not in "iu" and not (arr.dtype.kind == "O" and all(type(v) is int for v in arr.flat)):
        raise ValueError("%s must be integers, got dtype %s" % (what, arr.dtype))
    return arr


def as_pixels(pixels, name: str = "image", shape=None) -> np.ndarray:
    """Validate an integer array of 8-bit pixel values and return it as uint8.

    Any shape is accepted, empty included (an image, an (n, 4, 4) block
    stack), unless the rule `shape` of _integers refuses it first.  Bools
    are not integers here.  `name` leads the error message.
    """
    arr = _integers(pixels, name + " pixels", shape)
    if arr.dtype != np.uint8 and arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("%s pixels must be in [0, 255]" % name)
    return arr.astype(np.uint8, copy=False)


def _plane(message: str):
    """The shape rule of a non-empty 2-D array: any other shape is refused
    with `message`, which may name it as %(shape)s."""
    return lambda shape: None if len(shape) == 2 and 0 not in shape else message % {"shape": shape}


def as_gray(image) -> np.ndarray:
    """Validate an array-like as a grayscale image and return it as uint8."""
    return as_pixels(image, shape=_plane("image must be a non-empty 2-D array, got shape %(shape)s"))


def as_ternary(pattern, name: str = "watermark", shape=None) -> np.ndarray:
    """Validate an integer array of GF(3) values {0, 1, 2} and return it as uint8.

    Any shape is accepted, empty included (a 2-D grid, a 4x4 cell, an
    (n, 4, 4) cell stack), unless the rule `shape` of _integers refuses
    it first.  Bools are not integers here.  `name` leads the error message.
    """
    arr = _integers(pattern, name + " values", shape)
    if arr.size:
        low = arr.min() if arr.dtype.kind != "u" else 0  # unsigned values are never negative
        high = arr.max()
        if low < 0 or high > 2:
            raise ValueError("%s values must be in {0, 1, 2}, found %d" % (name, low if low < 0 else high))
    return arr.astype(np.uint8, copy=False)


def check_multiple_of_4(arr: np.ndarray, name: str) -> np.ndarray:
    """Return a 2-D array as is if both its dimensions are multiples of 4."""
    h, w = arr.shape
    if h % 4 or w % 4:
        raise ValueError("%s dimensions %dx%d are not multiples of 4" % (name, w, h))
    return arr


def _decimal(token: str | bytes, message: str) -> int:
    """Parse ASCII decimal digits, or raise ValueError(message).  int()
    alone also takes '+', '-', '_', surrounding whitespace and non-ASCII
    digits such as '١' (str.isdigit() passes '²' too), and refuses more
    digits than sys.get_int_max_str_digits() with its own message."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:
            pass
    raise ValueError(message)


def _header(data: bytes) -> tuple[bytes, int, int, int, int]:
    """The validated header of a PGM: magic, width, height, maxval, and
    the offset just past the maxval token."""
    fields, pos = [], 0
    for name in ("magic", "width", "height", "maxval"):
        match = _TOKEN_RE.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise ValueError("truncated PGM header")
        if name != "magic":
            fields.append(_decimal(token, "malformed PGM header: bad %s %r" % (name, token)))
        elif token in (b"P2", b"P5"):
            fields.append(token)
        else:
            raise ValueError("not a PGM image (expected P2 or P5 magic, got %r)" % token)
    magic, width, height, maxval = fields
    if width <= 0 or height <= 0 or width * height > sys.maxsize:  # no array holds more
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
    values = [_decimal(t, "malformed plain PGM pixel value") for t in tokens]
    if any(v > maxval for v in values):
        raise ValueError(_RANGE_ERROR % maxval)
    return np.array(values, dtype=np.uint8).reshape(height, width)


def _pgm_parts(arr: np.ndarray, maxval: int) -> tuple[bytes, np.ndarray]:
    """The P5 header and the C-ordered raster of a validated 2-D uint8
    array; a save writes them as they are, with no joined copy."""
    height, width = arr.shape
    return b"P5\n%d %d\n%d\n" % (width, height, maxval), np.ascontiguousarray(arr)


def write_pgm(image) -> bytes:
    """Serialize an image as binary PGM (P5, maxval 255)."""
    return b"".join(_pgm_parts(as_gray(image), 255))


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


def _watermark_parts(pattern) -> tuple[bytes, np.ndarray]:
    """_pgm_parts of a validated ternary pattern, with maxval 2."""
    arr = as_ternary(pattern, shape=_plane("watermark pattern must be a non-empty 2-D integer array"))
    return _pgm_parts(check_multiple_of_4(arr, "watermark"), 2)


def write_watermark(pattern) -> bytes:
    """Serialize a ternary pattern as binary PGM with maxval 2."""
    return b"".join(_watermark_parts(pattern))


def load_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def _save(path, parts: tuple[bytes, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.writelines(parts)


def save_pgm(path, image) -> None:
    _save(path, _pgm_parts(as_gray(image), 255))


def load_watermark(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_watermark(fh.read())


def save_watermark(path, pattern) -> None:
    _save(path, _watermark_parts(pattern))


def pad_to_multiple(image) -> np.ndarray:
    """Grow an image to multiple-of-4 dimensions by replicating edges."""
    img = as_gray(image)
    h, w = img.shape
    pad_bottom = (-h) % 4
    pad_right = (-w) % 4
    if pad_bottom == 0 and pad_right == 0:
        return img
    return np.pad(img, ((0, pad_bottom), (0, pad_right)), mode="edge")
