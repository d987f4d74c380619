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
shape of an image in `as_gray`; whole 4x4 blocks, `_blocks`, for an
image that is embedded, the original and suspect, whose sizes must be
equal, and a watermark file; the rect's size for `region_replace`'s
source; a 4x4 block in the reference route, and so on); then its dtype,
an integer one (not bool, not timedelta) or a list of Python ints; then,
in `as_pixels` or `as_ternary`, its range, [0, 255] or {0, 1, 2}.  So a
wrong shape is reported before a wrong value, and each message names
its argument ("suspect pixels must be integers, ...").

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

Where a raster is read.  read_pgm and load_pgm decode a whole file into
one array.  The CLI opens its inputs with open_pgm and open_watermark
instead: a regular P5 file is judged up to its raster when it is opened
(header, separator, size from fstat, trailing bytes, by read_pgm's
rules: _header and _raster_offset), and becomes a _Raster, which the
image routes index a band of pixel rows at a time; each band's rows are
read with os.preadv in the band's thread and their range is judged
then.  The gate takes a raster as it is once its shape passes.  Any
other file (P2, a pipe, a platform without os.preadv) is read whole by
read_pgm.  So for a regular P5 file the header rules of every file come
first, then the shape rules, then the range of each band's samples; a
file read whole has its samples judged when it is read.
"""

import contextlib
import os
import re
import stat
import sys

import numpy as np

_WHITESPACE = b" \t\r\n\x0b\x0c"  # what bytes.split() and \s in a bytes pattern take
_COMMENT = rb"#[^\n]*"
_COMMENT_RE = re.compile(_COMMENT)
# one header field: skip whitespace and comments, then take the bytes up
# to the next whitespace or '#' (none left: an empty group)
_TOKEN_RE = re.compile(rb"(?:\s|%s)*([^\s#]*)" % _COMMENT)
_RANGE_ERROR = "PGM pixel value out of range [0, %d]"
_TERNARY_ERROR = "%s values must be in {0, 1, 2}, found %d"
_PREFIX = 4096  # bytes a file's header is first looked for in


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
    arr = values if isinstance(values, _Raster) else np.asarray(values)
    if shape and (message := shape(arr.shape)):
        raise ValueError(message)
    if isinstance(arr, _Raster):
        return arr
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
    are not integers here.  `name` leads the error message.  A raster
    from open_pgm is returned as it is once its shape passes: it judges
    its range band by band, as it is read.
    """
    arr = _integers(pixels, name + " pixels", shape)
    if isinstance(arr, _Raster):
        return arr
    if arr.dtype != np.uint8 and arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("%s pixels must be in [0, 255]" % name)
    return arr.astype(np.uint8, copy=False)


def _blocks(name: str, like: tuple | None = None, side: int = 4):
    """The shape rule of a 2-D array of whole side x side blocks named
    `name`: non-empty, both dimensions multiples of `side`, and equal to
    `like` (the original's shape, for a suspect) if given."""

    def rule(shape: tuple) -> str | None:
        if len(shape) != 2 or 0 in shape:
            return "%s must be a non-empty 2-D array, got shape %s" % (name, shape)
        if shape[0] % side or shape[1] % side:
            return "%s dimensions %dx%d are not multiples of %d" % (name, shape[1], shape[0], side)
        if like is not None and shape != like:
            return "dimension mismatch: original is %dx%d, %s is %dx%d" % (like[1], like[0], name, shape[1], shape[0])
        return None

    return rule


def as_gray(image) -> np.ndarray:
    """Validate an array-like as a grayscale image, any non-empty 2-D
    shape, and return it as uint8."""
    return as_pixels(image, shape=_blocks("image", side=1))


def as_ternary(pattern, name: str = "watermark", shape=None) -> np.ndarray:
    """Validate an integer array of GF(3) values {0, 1, 2} and return it as uint8.

    Any shape is accepted, empty included (a 2-D grid, a 4x4 cell, an
    (n, 4, 4) cell stack), unless the rule `shape` of _integers refuses
    it first.  Bools are not integers here.  `name` leads the error message.
    A raster from open_watermark is returned as it is once its shape
    passes: it judges its range band by band, as it is read.
    """
    arr = _integers(pattern, name + " values", shape)
    if isinstance(arr, _Raster):
        return arr
    if arr.size:
        low = arr.min() if arr.dtype.kind != "u" else 0  # unsigned values are never negative
        high = arr.max()
        if low < 0 or high > 2:
            raise ValueError(_TERNARY_ERROR % (name, low if low < 0 else high))
    return arr.astype(np.uint8, copy=False)


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


def _header(data: bytes, whole: bool = True) -> tuple[bytes, int, int, int, int] | None:
    """The validated header of a PGM: magic, width, height, maxval, and
    the offset just past the maxval token.  If data is only the first
    bytes of the file (not `whole`), None when a field, or a comment before
    it, runs to the end of data and so may go on past it: the caller reads
    more.  Otherwise a byte follows every field, so each is complete."""
    fields, pos = [], 0
    for name in ("magic", "width", "height", "maxval"):
        match = _TOKEN_RE.match(data, pos)
        token, pos = match[1], match.end()
        if pos == len(data) and not whole:
            return None
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


def _raster_offset(data: bytes, pos: int, count: int, size: int, tail) -> int:
    """The offset of the raster of a P5 file of `size` bytes whose header,
    in its first bytes `data`, ends at `pos`, once the rules after the
    header hold: exactly one whitespace byte separates the header from the
    raster, the file holds all `count` raster bytes, and only whitespace
    follows them, as tail(end) gives the bytes from offset end on."""
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ValueError("malformed PGM header: missing separator before pixel data")
    pos += 1
    if size - pos < count:
        raise ValueError("truncated PGM pixel data: expected %d bytes, got %d" % (count, size - pos))
    if tail(pos + count).strip(_WHITESPACE):
        raise ValueError("trailing data after PGM raster")
    return pos


def read_pgm(data: bytes) -> np.ndarray:
    """Parse a binary (P5) or plain (P2) PGM with maxval <= 255.

    Samples are taken as they are, unscaled; each must be <= maxval.
    """
    magic, width, height, maxval, pos = _header(data)
    count = width * height

    if magic == b"P5":
        pos = _raster_offset(data, pos, count, len(data), lambda end: data[end:])
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
    pattern, rule = read_pgm(data), _blocks("watermark")
    if _header(data)[3] > 2:
        return as_ternary(pattern, shape=rule)
    return _integers(pattern, "watermark values", rule)  # read_pgm's range check held values up to 2


def _watermark_parts(pattern) -> tuple[bytes, np.ndarray]:
    """_pgm_parts of a validated ternary pattern, with maxval 2."""
    return _pgm_parts(as_ternary(pattern, shape=_blocks("watermark")), 2)


def write_watermark(pattern) -> bytes:
    """Serialize a ternary pattern as binary PGM with maxval 2."""
    return b"".join(_watermark_parts(pattern))


class _Raster:
    """The raster of a regular P5 file whose header, separator, size and
    trailing bytes have passed, read a band at a time.

    raster[rows], for a slice of pixel rows, reads those rows into a new
    (rows, width) uint8 array with os.preadv, which releases the
    interpreter lock, so band threads read their own rows side by side;
    then it judges their range.  A value above min(maxval, cap) raises
    what the whole-array route raises for the file: read_pgm's range
    error if any value in it is above maxval, else (cap 2, a watermark)
    as_ternary's, naming the largest.  The owner of fd closes it.
    """

    def __init__(self, fd: int, offset: int, shape: tuple[int, int], maxval: int, cap: int):
        self.fd, self.offset, self.shape, self.maxval = fd, offset, shape, maxval
        self.limit = min(maxval, cap)

    def _read(self, start: int, stop: int) -> np.ndarray:
        width = self.shape[1]
        out = np.empty((stop - start, width), dtype=np.uint8)
        buf, at = out.reshape(-1), self.offset + start * width
        while buf.size:  # a read stops short only past 2 GB, or if the file shrank
            done = os.preadv(self.fd, [buf], at)
            if not done:
                raise ValueError("truncated PGM pixel data: the file shrank while it was read")
            buf, at = buf[done:], at + done
        return out

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        pixels = self._read(start, stop)
        if self.limit < 255 and pixels.max() > self.limit:
            high = max(int(self._read(y, y + 1).max()) for y in range(self.shape[0]))
            if high > self.maxval:
                raise ValueError(_RANGE_ERROR % self.maxval)
            raise ValueError(_TERNARY_ERROR % ("watermark", high))
        return pixels


def _raster(fh, cap: int) -> _Raster | None:
    """A _Raster of the open file fh that refuses values above
    min(maxval, cap), if fh is a regular P5 file and os.preadv exists;
    else None, and the file is read whole.  The header is looked for in
    the first _PREFIX bytes, then in 16 times as many, until it is whole;
    header, separator, size and trailing bytes are judged by read_pgm's
    rules before it returns."""
    fd = fh.fileno()
    info = os.fstat(fd)
    if not (hasattr(os, "preadv") and stat.S_ISREG(info.st_mode)):
        return None
    size = info.st_size
    n = _PREFIX
    while (header := _header(data := os.pread(fd, n, 0), n >= size)) is None:
        n *= 16
    magic, width, height, maxval, pos = header
    if magic != b"P5":
        return None
    offset = _raster_offset(data, pos, width * height, size, lambda end: os.pread(fd, size - end, end))
    return _Raster(fd, offset, (height, width), maxval, cap)


@contextlib.contextmanager
def open_pgm(path):
    """The image of a PGM file, for the image routes, while the block is
    open: a raster read band by band in the routes' threads for a regular
    P5 file (header, separator, size and trailing bytes judged here, the
    range of each band as it is read), else read_pgm's array."""
    with open(path, "rb") as fh:
        yield _raster(fh, 255) or read_pgm(fh.read())


@contextlib.contextmanager
def open_watermark(path):
    """open_pgm for a watermark pattern, whose shape is judged here as
    read_watermark judges it; a raster refuses values above 2 as it is
    read, with read_watermark's messages."""
    with open(path, "rb") as fh:
        raster = _raster(fh, 2)
        yield read_watermark(fh.read()) if raster is None else as_ternary(raster, shape=_blocks("watermark"))


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
