"""GF(3) / GI(3) arithmetic and the fixed transform parameters."""

import re

import numpy as np
import pytest

from hnttmark.galois import (
    N,
    P,
    ZETA,
    GaussInt,
    cas_table,
    ff_cos,
    ff_sin,
    gf_inv,
    is_odd_prime,
    multiplicative_order,
)


def test_gf_basics_mod3():
    # the base field inside GI(3): elements with zero imaginary part
    assert GaussInt(1, 0) + GaussInt(2, 0) == GaussInt(0, 0)
    assert GaussInt(2, 0) * GaussInt(2, 0) == GaussInt(1, 0)  # doubles as 2^-1 == 2
    assert GaussInt(0, 0) - GaussInt(1, 0) == GaussInt(2, 0)  # -1 == 2 mod 3
    assert gf_inv(2) == 2


def test_gf_inv_exhaustive():
    for a in range(1, 3):
        assert (a * gf_inv(a)) % 3 == 1


def test_gf_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)
    with pytest.raises(ZeroDivisionError):
        gf_inv(6)  # congruent to zero


def test_is_odd_prime():
    assert [p for p in range(2, 30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_gi_mul_hand_case():
    # (1+j)^2 = 1 + 2j + j^2 = 2j over GF(3)
    z = GaussInt(1, 1)
    assert z * z == GaussInt(0, 2)


def test_gi_pow():
    j = GaussInt(0, 1)
    assert j**2 == GaussInt(2, 0)  # j^2 = -1
    assert j**4 == GaussInt(1, 0)
    assert j**-1 == GaussInt(0, 2)  # -j
    with pytest.raises(ZeroDivisionError):
        GaussInt(0, 0) ** -1


def test_gi_pow_negative_inverts():
    for a in range(3):
        for b in range(3):
            z = GaussInt(a, b)
            if z.is_zero():
                continue
            for k in (1, 2, 5):
                assert (z**-k) * (z**k) == GaussInt(1, 0)


def test_unimodular():
    assert GaussInt(0, 1).is_unimodular()
    assert GaussInt(1, 0).is_unimodular()
    assert not GaussInt(1, 1).is_unimodular()  # 1 + 1 = 2 != 1


def test_unimodular_closed_under_powers():
    # exhaustive over GI(3): the unit circle is a multiplicative group
    for a in range(3):
        for b in range(3):
            z = GaussInt(a, b)
            if not z.is_unimodular():
                continue
            for k in range(1, 9):
                assert (z**k).is_unimodular()


def test_multiplicative_order():
    assert multiplicative_order(GaussInt(0, 1)) == 4
    assert multiplicative_order(GaussInt(1, 0)) == 1
    assert multiplicative_order(GaussInt(2, 0)) == 2  # (-1)^2 = 1
    with pytest.raises(ValueError):
        multiplicative_order(GaussInt(0, 0))


def test_field_constants():
    assert P == 3
    assert ZETA == GaussInt(0, 1)
    assert N == 4
    assert is_odd_prime(P) and P % 4 == 3
    assert ZETA.is_unimodular()
    assert multiplicative_order(ZETA) == N


def test_order_is_minimal_exponent():
    for a in range(3):
        for b in range(3):
            z = GaussInt(a, b)
            if z.is_zero():
                continue
            n = multiplicative_order(z)
            assert (z**n).is_one()
            for k in range(1, n):
                assert not (z**k).is_one()


def test_conjugate_times_self_is_norm():
    for a in range(3):
        for b in range(3):
            z = GaussInt(a, b)
            assert z * z.conjugate() == GaussInt(z.norm(), 0)


def test_cas_table_default():
    assert cas_table() == [1, 1, 2, 2]


def test_cas_zero_is_one():
    assert cas_table()[0] == 1


def test_pythagorean_identity():
    for i in range(N):
        c = ff_cos(i)
        s = ff_sin(i)
        assert c.im == 0 and s.im == 0
        assert c * c + s * s == GaussInt(1, 0)


def test_gi_str():
    assert [str(GaussInt(*z)) for z in ((2, 0), (0, 1), (0, 2), (1, 2))] == ["2", "j", "2j", "1 + 2j"]


@pytest.mark.parametrize("value", [2.5, 1.0, True, np.bool_(True), "2", None], ids=repr)
def test_gi_components_must_be_integers(value):
    for name, args in (("re", (value, 0)), ("im", (0, value))):
        with pytest.raises(ValueError, match="^%s$" % re.escape("%s must be an integer, got %r" % (name, value))):
            GaussInt(*args)


@pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint64])
def test_gi_takes_numpy_integers_as_python_ints(kind):
    z = GaussInt(kind(5), kind(7))
    assert z == GaussInt(5, 7) == GaussInt(2, 1)
    assert type(z.re) is int and type(z.im) is int
