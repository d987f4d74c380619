"""Deterministic, seedable image tamper simulations.

Every attack is a pure function of (image, parameters, seed): same
inputs, bit-identical output.  Randomness comes from splitmix64 run in
counter mode over the row-major pixel index, so results reproduce across
runs, platforms and languages:

    state(i) = (seed + (i+1) * 0x9E3779B97F4A7C15) mod 2^64
    out(i)   = mix(state(i))
    mix(z):  z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
             z ^= z >> 27; z *= 0x94D049BB133111EB;
             z ^= z >> 31                      (all mod 2^64)

A pixel's LSB flips iff out(i) < floor(probability * 2^64), the product
evaluated in IEEE-754 double precision.

Every integer argument (step, delta, each rect value, seed, and
flip_mask's height and width) passes imageio's integer rule, so a float
or a bool is refused, not truncated.  The flip probability is a real
number in [0, 1], a Python or numpy one, not a bool.

quantize and intensity_shift are pointwise: each builds the 256-entry
uint8 table of its map over the grey values, in Python ints, which cannot
overflow, so no argument is capped, and gathers the image through it.

Real JPEG/JPEG2000 codecs are out of scope; the quantize attack stands
in for compression-style small pixel perturbations, and externally
degraded images can always be fed through the verify pipeline instead.
"""

import numbers

import numpy as np

from .imageio import _integer, as_gray, as_pixels

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

ATTACK_KINDS = ("lsb_flip", "quantize", "region_replace", "intensity_shift")


def splitmix64(seed: int, index: int) -> int:
    """Scalar counter-mode splitmix64 output for one index (the reference
    definition; the vectorized path must agree with it exactly)."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _splitmix64_block(seed: int, count: int) -> np.ndarray:
    """Vectorized splitmix64 outputs for indices 0..count-1."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def flip_mask(height: int, width: int, probability: float, seed: int) -> np.ndarray:
    """Boolean mask of the pixels lsb_flip will touch for these arguments."""
    height, width, seed = _integer(height, "height", 0), _integer(width, "width", 0), _integer(seed, "seed")
    if isinstance(probability, bool) or not isinstance(probability, numbers.Real) or not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1], got %r" % (probability,))
    if probability == 0.0:
        return np.zeros((height, width), dtype=bool)
    if probability == 1.0:
        return np.ones((height, width), dtype=bool)
    threshold = np.uint64(int(probability * 2.0**64))
    return (_splitmix64_block(seed, height * width) < threshold).reshape(height, width)


def lsb_flip(image, probability: float, seed: int = 0) -> np.ndarray:
    """XOR each pixel's least significant bit with the given probability."""
    img = as_gray(image)
    mask = flip_mask(img.shape[0], img.shape[1], probability, seed)
    return img ^ mask.astype(np.uint8)


def _pixel_map(image, f) -> np.ndarray:
    """f applied to every pixel of image, through the 256-entry uint8
    table of f over 0..255, computed in Python ints."""
    return np.array([f(v) for v in range(256)], np.uint8).take(as_gray(image))


def quantize(image, step: int) -> np.ndarray:
    """Map each pixel to round(pixel / step) * step, half up, clamped to 255."""
    step = _integer(step, "step", 1)
    return _pixel_map(image, lambda v: min((2 * v + step) // (2 * step) * step, 255))


def region_replace(image, rect, source) -> np.ndarray:
    """Replace the rectangle rect = (x, y, w, h) with the source pixels.

    A zero-area rect returns the image unchanged and the source is not
    examined.
    """
    img = as_gray(image)
    x, y, w, h = (_integer(v, "rect value") for v in rect)
    ih, iw = img.shape
    if x < 0 or y < 0 or w < 0 or h < 0 or x + w > iw or y + h > ih:
        raise ValueError("rect (%d,%d,%d,%d) is outside a %dx%d image" % (x, y, w, h, iw, ih))
    out = img.copy()
    if w == 0 or h == 0:
        return out
    rule = lambda got: None if got == (h, w) else "source shape %s does not match rect %dx%d" % (got, w, h)
    out[y : y + h, x : x + w] = as_pixels(source, "source", rule)
    return out


def intensity_shift(image, delta: int) -> np.ndarray:
    """Add delta to every pixel, clamped to [0, 255]."""
    delta = _integer(delta, "delta")
    return _pixel_map(image, lambda v: min(max(v + delta, 0), 255))

