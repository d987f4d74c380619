"""Attack determinism, generator correctness, and detection interplay."""

import re

import numpy as np
import pytest

from hnttmark import attacks
from hnttmark.attacks import (
    flip_mask,
    intensity_shift,
    lsb_flip,
    quantize,
    region_replace,
    splitmix64,
)
from hnttmark.watermark import checkerboard_cell, embed_image, verify


def _image(seed=0, shape=(64, 64), high=256):
    return np.random.RandomState(seed).randint(0, high, shape, dtype=np.uint8)


# -------------------------------------------------------------- generator


def test_splitmix64_reference_vectors():
    # first outputs of the reference splitmix64 stream seeded with 0
    assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix64(0, 2) == 0x06C45D188009454F


def test_splitmix64_vectorized_matches_scalar():
    for seed in (0, 1, 42, 2**63, -1):
        block = attacks._splitmix64_block(seed, 100)
        for i in range(100):
            assert int(block[i]) == splitmix64(seed, i)


def test_flip_mask_matches_threshold_rule():
    mask = flip_mask(8, 8, 0.5, seed=7)
    threshold = int(0.5 * 2.0**64)
    for i in range(64):
        assert mask.ravel()[i] == (splitmix64(7, i) < threshold)


# --------------------------------------------------------------- lsb_flip


def test_lsb_flip_probability_extremes():
    img = _image(1)
    assert np.array_equal(lsb_flip(img, 0.0, 5), img)
    flipped = lsb_flip(img, 1.0, 5)
    assert (flipped != img).all()
    assert np.abs(flipped.astype(int) - img.astype(int)).max() == 1
    assert np.array_equal(lsb_flip(flipped, 1.0, 5), img)  # XOR involution


def test_lsb_flip_determinism():
    img = _image(2)
    assert np.array_equal(lsb_flip(img, 0.3, 9), lsb_flip(img, 0.3, 9))
    assert not np.array_equal(lsb_flip(img, 0.3, 9), lsb_flip(img, 0.3, 10))


def test_lsb_flip_changes_exactly_masked_pixels():
    img = _image(3)
    out = lsb_flip(img, 0.25, seed=4)
    mask = flip_mask(64, 64, 0.25, seed=4)
    assert np.array_equal(out != img, mask)


def test_lsb_flip_count_statistics():
    # Binomial(262144, 0.01): mean 2621.4, sd 50.9; 5 sigma window
    for seed in (0, 1, 2):
        mask = flip_mask(512, 512, 0.01, seed)
        count = int(mask.sum())
        assert abs(count - 2621.44) < 5 * 50.94, count


def test_lsb_flip_probability_validation():
    with pytest.raises(ValueError):
        lsb_flip(_image(), 1.5, 0)
    with pytest.raises(ValueError):
        lsb_flip(_image(), -0.1, 0)
    # a bool is not a probability, and neither is a value that is not a
    # real number: each gets the range message, not a comparison TypeError
    for bad in (True, False, np.True_, None, "0.5", 0.5j):
        with pytest.raises(ValueError, match="^%s$" % re.escape("probability must be in [0, 1], got %r" % (bad,))):
            flip_mask(2, 2, bad, 0)
        with pytest.raises(ValueError, match=re.escape("probability must be in [0, 1], got %r" % (bad,))):
            lsb_flip(_image(), bad, 0)
    # numpy floats stay accepted
    assert np.array_equal(lsb_flip(_image(), np.float32(0.5), 3), lsb_flip(_image(), 0.5, 3))
    assert np.array_equal(flip_mask(2, 2, np.float64(1.0), 0), np.ones((2, 2), dtype=bool))


# --------------------------------------------------------------- quantize


def test_quantize_identity_and_rounding():
    img = _image(5)
    assert np.array_equal(quantize(img, 1), img)
    assert quantize(np.array([[101]], dtype=np.uint8), 2)[0, 0] == 102  # half rounds up
    assert quantize(np.array([[1]], dtype=np.uint8), 2)[0, 0] == 2
    assert quantize(np.array([[4]], dtype=np.uint8), 3)[0, 0] == 3
    assert quantize(np.array([[5]], dtype=np.uint8), 3)[0, 0] == 6
    assert quantize(np.array([[254]], dtype=np.uint8), 4)[0, 0] == 255  # clamped


def test_quantize_against_float_rounding_oracle():
    values = np.arange(256, dtype=np.uint8).reshape(16, 16)
    for step in (2, 3, 4, 5, 7, 16, 511, 512, 2**31, 2**63, 2**64 + 1, 10**30):
        got = quantize(values, step)
        import math

        expected = np.array(
            [min(255, int(math.floor(v / step + 0.5)) * step) for v in range(256)],
            dtype=np.uint8,
        ).reshape(16, 16)
        assert np.array_equal(got, expected), step


def test_quantize_validation():
    with pytest.raises(ValueError):
        quantize(_image(), 0)


def test_quantize_flags_majority_of_blocks():
    img = _image(6, (64, 64))
    cell = checkerboard_cell()
    marked = embed_image(img, cell)
    report = verify(img, quantize(marked, 4), cell)
    assert report.total_tampered > (report.grid_width * report.grid_height) // 2


# --------------------------------------------------------- region_replace


def test_region_replace_zero_area_is_identity():
    img = _image(7)
    out = region_replace(img, (10, 10, 0, 0), None)
    assert np.array_equal(out, img)
    assert out is not img


def test_region_replace_basic():
    img = _image(8)
    src = np.zeros((2, 3), dtype=np.uint8)
    out = region_replace(img, (5, 6, 3, 2), src)
    assert not out[6:8, 5:8].any()
    untouched = img.copy()
    untouched[6:8, 5:8] = 0
    assert np.array_equal(out, untouched)


def test_region_replace_validation():
    img = _image(9)
    with pytest.raises(ValueError):
        region_replace(img, (62, 0, 4, 4), np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        region_replace(img, (-1, 0, 4, 4), np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        region_replace(img, (0, 0, 4, 4), np.zeros((2, 2), dtype=np.uint8))


def test_region_replace_unaligned_flags_only_overlapped_blocks():
    img = _image(10, (32, 32))
    cell = checkerboard_cell()
    marked = embed_image(img, cell)
    # 4x4 region straddling four blocks at (1..2, 1..2)
    region = marked[6:10, 6:10]
    source = ((region.astype(int) + 1) % 256).astype(np.uint8)
    suspect = region_replace(marked, (6, 6, 4, 4), source)
    report = verify(img, suspect, cell)
    overlapped = {(1, 1), (1, 2), (2, 1), (2, 2)}
    flagged = {tuple(idx) for idx in np.argwhere(report.tampered)}
    assert flagged == overlapped  # every +1 pixel changes its residue


# -------------------------------------------------------- intensity_shift


def test_intensity_shift_basic():
    img = _image(11)
    assert np.array_equal(intensity_shift(img, 0), img)
    assert intensity_shift(np.array([[250]], dtype=np.uint8), 10)[0, 0] == 255
    assert intensity_shift(np.array([[5]], dtype=np.uint8), -10)[0, 0] == 0
    # every grey value against a clamped sum, also where int32 would overflow
    values = np.arange(256, dtype=np.uint8).reshape(16, 16)
    for delta in [*range(-300, 301), 2**63, -(2**63), 10**30, -(10**30)]:
        expected = [min(max(v + delta, 0), 255) for v in range(256)]
        assert intensity_shift(values, delta).ravel().tolist() == expected, delta


def test_intensity_shift_plus_one_flags_everything():
    img = _image(12, (32, 32), high=250)
    cell = checkerboard_cell()
    marked = embed_image(img, cell)
    report = verify(img, intensity_shift(marked, 1), cell)
    assert report.total_tampered == 64


def test_intensity_shift_multiple_of_three_is_blind_spot():
    img = _image(13, (32, 32), high=250)  # keeps marked + 3 clamp-free
    cell = checkerboard_cell()
    marked = embed_image(img, cell)
    shifted = intensity_shift(marked, 3)
    assert np.array_equal(shifted, marked + 3)  # really no clamping
    report = verify(img, shifted, cell)
    assert report.total_tampered == 0


# ------------------------------------------------------------ determinism


def test_attack_spec_dispatch_and_determinism():
    img = _image(14)
    runs = {
        "lsb_flip": lambda: lsb_flip(img, 0.05, 3),
        "quantize": lambda: quantize(img, 5),
        "intensity_shift": lambda: intensity_shift(img, -7),
        "region_replace": lambda: region_replace(img, (4, 4, 8, 8), np.zeros((8, 8), dtype=np.uint8)),
    }
    for kind, run in runs.items():
        assert np.array_equal(run(), run()), kind


# ------------------------------------------------------ integer arguments

# the odd scalars of test_engine_integer_arguments_fail_alike_on_any_host
ODD_SCALARS = [2.5, 1.0, True, np.bool_(True), "2", None]

# every integer argument of the attacks, by the name its message gives it
INTEGER_ARGUMENTS = {
    "step": lambda v: quantize(_image(20), v),
    "delta": lambda v: intensity_shift(_image(21), v),
    "rect value": lambda v: region_replace(_image(22), (v, 0, 2, 2), np.zeros((2, 2), dtype=np.uint8)),
    "seed": lambda v: lsb_flip(_image(23), 0.5, seed=v),
    "height": lambda v: flip_mask(v, 8, 0.5, 3),
    "width": lambda v: flip_mask(8, v, 0.5, 3),
}


@pytest.mark.parametrize("value", ODD_SCALARS, ids=repr)
@pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
def test_attack_integer_arguments_reject_what_is_not_an_integer(name, value):
    message = "%s must be an integer, got %r" % (name, value)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        INTEGER_ARGUMENTS[name](value)


@pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint64])
@pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
def test_attack_integer_arguments_take_numpy_integers(name, kind):
    # the seed reaches the generator as a Python int: np.int64(5) & (2**64 - 1) overflows
    assert np.array_equal(INTEGER_ARGUMENTS[name](kind(5)), INTEGER_ARGUMENTS[name](5))


@pytest.mark.parametrize("probability", [0.0, 1.0])
def test_lsb_flip_checks_its_seed_at_every_probability(probability):
    with pytest.raises(ValueError, match="^seed must be an integer, got True$"):
        lsb_flip(_image(), probability, seed=True)
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
        flip_mask(4, 4, probability, 1.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: quantize(_image(), 0), "step must be >= 1, got 0"),
        (lambda: quantize(_image(), -(2**70)), "step must be >= 1, got %d" % -(2**70)),
        (lambda: flip_mask(-1, 4, 0.5, 0), "height must be >= 0, got -1"),
        (lambda: flip_mask(4, -4, 0.0, 0), "width must be >= 0, got -4"),
        (lambda: region_replace(_image(), (0, 0, 2, 2, 0.5), None), "rect value must be an integer, got 0.5"),
    ],
    ids=["step-0", "step-huge-negative", "height-negative", "width-negative", "rect-long-float"],
)
def test_attack_integer_argument_messages(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()


@pytest.mark.parametrize("rect", [(0, 0, 2), (0, 0, 2, 2, 0), ()])
def test_region_replace_rejects_a_rect_of_the_wrong_length(rect):
    with pytest.raises(ValueError, match="values to unpack"):
        region_replace(_image(), rect, np.zeros((2, 2), dtype=np.uint8))
