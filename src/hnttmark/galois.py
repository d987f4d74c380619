"""Exact arithmetic in GF(3) and its Gaussian-integer extension GI(3).

Field elements are plain integers reduced to [0, 2].  GI(3) is the set
{a + jb : a, b in GF(3)} with j*j = -1; it is a field because 3 % 4 == 3,
so -1 is a quadratic nonresidue and nonzero norms a^2 + b^2 are
invertible.  (Some texts garble the j*j = -1 congruence; it is a
relation mod 3.)

The field is fixed: p = 3, zeta = j and N = 4 are the module constants
P, ZETA and N, and the cas table of the transform is derived from them.
Everything uses exhaustive scans and iterated multiplication rather than
number-theoretic shortcuts: the field is tiny and the scans double as
their own oracles.
"""

from dataclasses import dataclass

from .imageio import _integer

P = 3
N = 4


def is_odd_prime(p: int) -> bool:
    """Trial-division primality check, adequate for small p."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(3).  Raises ZeroDivisionError for 0."""
    if a % P == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(%d)" % P)
    return pow(a, -1, P)


@dataclass(frozen=True)
class GaussInt:
    """Element re + j*im of GI(3): integer components (imageio._integer),
    reduced mod 3."""

    re: int
    im: int

    def __post_init__(self):
        object.__setattr__(self, "re", _integer(self.re, "re") % P)
        object.__setattr__(self, "im", _integer(self.im, "im") % P)

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        # (a + jb)(c + jd) = (ac - bd) + j(ad + bc), using j*j = -1
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussInt(a * c - b * d, a * d + b * c)

    def __pow__(self, k: int) -> "GaussInt":
        """Square-and-multiply; negative exponents go through the inverse."""
        base = self.inverse() if k < 0 else self
        k = abs(k)
        result = GaussInt(1, 0)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_one(self) -> bool:
        return self.re == 1 and self.im == 0

    def is_unimodular(self) -> bool:
        """True iff re^2 + im^2 == 1 (mod 3)."""
        return self.norm() == 1

    def norm(self) -> int:
        return (self.re * self.re + self.im * self.im) % P

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def inverse(self) -> "GaussInt":
        """(a + jb)^-1 = (a - jb) / (a^2 + b^2); the norm is nonzero for
        nonzero elements because 3 % 4 == 3."""
        if self.is_zero():
            raise ZeroDivisionError("0 has no multiplicative inverse in GI(%d)" % P)
        n_inv = gf_inv(self.norm())
        return GaussInt(self.re * n_inv, -self.im * n_inv)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        jpart = "j" if self.im == 1 else "%dj" % self.im
        return jpart if self.re == 0 else "%d + %s" % (self.re, jpart)


# zeta = j: unimodular of multiplicative order exactly N, which makes
# every cas(i) land in the base field GF(3).
ZETA = GaussInt(0, 1)


def multiplicative_order(z: GaussInt) -> int:
    """Smallest k >= 1 with z^k == 1, by iterated multiplication.

    Capped at 3^2 - 1 steps; every nonzero element of GI(3) has order
    dividing 8, so the cap is never hit for valid input.
    """
    if z.is_zero():
        raise ValueError("0 has no multiplicative order")
    acc = z
    for k in range(1, P * P):
        if acc.is_one():
            return k
        acc = acc * z
    raise ValueError("no order found below p^2 - 1 for %s" % z)


def ff_cos(i: int) -> GaussInt:
    """Finite-field cosine: (zeta^i + zeta^-i) / 2."""
    zi = ZETA ** i
    zmi = ZETA ** (-i)
    inv2 = GaussInt(gf_inv(2), 0)
    return (zi + zmi) * inv2


def ff_sin(i: int) -> GaussInt:
    """Finite-field sine: (zeta^i - zeta^-i) / 2j."""
    zi = ZETA ** i
    zmi = ZETA ** (-i)
    inv2j = GaussInt(0, 2).inverse()
    return (zi - zmi) * inv2j


def cas_table() -> list[int]:
    """cas(i) = cos(i) + sin(i) for i = 0..N-1, as GF(3) integers.

    zeta is unimodular, so every imaginary part is zero.
    """
    return [(ff_cos(i) + ff_sin(i)).re for i in range(N)]
