"""The 4x4 Hartley number-theoretic transform over GF(3).

The transform matrix has entries cas(i*k mod 4):

    H4 = [[1, 1, 1, 1],
          [1, 1, 2, 2],
          [1, 2, 1, 2],
          [1, 2, 2, 1]]      (2 == -1 mod 3)

H4 is symmetric and H4*H4 == I mod 3, and the usual inverse scale
N^-1 = 4^-1 == 1 mod 3, so forward and inverse transforms are the same
computation.  The fast 1-D path is two stages of mod-3 add/sub
butterflies (eight in total) and performs no multiplications; plain
add/subtract-then-reduce benchmarked ahead of both 3x3 lookup tables and
conditional subtraction in CPython, so the butterflies here use
arithmetic.  That finding holds for this scalar route only.  The image
routes run the same butterflies in numpy as lookups on packed rows,
in watermark._transform, whose stages the watermark module docstring
describes.  Of this module only the constant H4 reaches them, to build
the kernel's row table.  The functions here are the reference those
routes are tested against and stay out of production paths.

Every public function here checks its argument once, by the rule the
image routes apply (imageio.as_ternary): an array of the expected shape,
(4,) for a vector and (4, 4) for a block, of an integer dtype, not bool,
with values in {0, 1, 2}.  Anything else, floats, bools, None, ragged
lists or a wrong shape included, raises ValueError.  The arithmetic runs
on the checked values as Python ints, inside unchecked butterflies, and
every result is a list of Python ints whatever the input's type.

The field is fixed: N=4 and p=3 come from galois, which derives the
cas table from zeta = j.
"""

from operator import mul

from .galois import N, cas_table
from .imageio import as_ternary


def build_matrix() -> list[list[int]]:
    """N x N transform matrix with entries cas(i*k mod N)."""
    cas = cas_table()
    return [[cas[(i * k) % N] for k in range(N)] for i in range(N)]


H4 = tuple(tuple(row) for row in build_matrix())

# Index reversal i -> (4 - i) mod 4 used by the full 2-D combination.
_REV = (0, 3, 2, 1)

# Direct 2-D kernel, flattened over (i, k): cas((u*i + v*k) mod 4), read
# from row 1 of H4, which is the cas table.
_KERNEL = tuple(
    tuple(tuple(H4[1][(u * i + v * k) % 4] for i in range(4) for k in range(4)) for v in range(4))
    for u in range(4)
)


def _checked(x, shape: tuple, name: str, values=as_ternary) -> list:
    """x as nested lists of Python ints, checked once: an array of `shape`
    whose values pass `values` (as_ternary, or imageio.as_pixels for
    pixels), named `name` in the error.  Anything else raises ValueError."""
    message = "%s must have shape %s, got shape %%s" % (name, shape)
    return values(x, name, shape=lambda got: None if got == shape else message % (got,)).tolist()


def _butterfly(x0, x1, x2, x3) -> list[int]:
    """The two butterfly stages on four GF(3) ints, unchecked.

    Stage 1 pairs (x0,x1) and (x2,x3); stage 2 combines across pairs.
    The butterfly outputs land directly in H4 row order, so no output
    permutation is needed for this matrix.
    """
    a0 = (x0 + x1) % 3
    a1 = (x0 - x1) % 3
    a2 = (x2 + x3) % 3
    a3 = (x2 - x3) % 3
    return [(a0 + a2) % 3, (a0 - a2) % 3, (a1 + a3) % 3, (a1 - a3) % 3]


def _separable(a) -> list[list[int]]:
    """H * A * H of a 4x4 block of GF(3) ints, unchecked: _butterfly down
    each column of A, then along each row of the intermediate."""
    columns = [_butterfly(*column) for column in zip(*a)]
    return [_butterfly(*row) for row in zip(*columns)]


def hntt_1d(x) -> list[int]:
    """Naive matrix-vector transform X[k] = sum_i H[k][i] * x[i] mod 3.

    The reference implementation the fast path is checked against.
    """
    x = _checked(x, (4,), "vector")
    return [sum(h * v for h, v in zip(row, x)) % 3 for row in H4]


def hntt_1d_fast(x) -> list[int]:
    """Two-stage butterfly transform, multiplication-free (_butterfly)."""
    return _butterfly(*_checked(x, (4,), "vector"))


def special_hntt_2d(a) -> list[list[int]]:
    """Separable 2-D transform H * A * H: the fast 1-D butterflies down the
    columns of A, then along the rows of the intermediate."""
    return _separable(_checked(a, (4, 4), "block"))


# H4*H4 == I and N^-1 == 1 mod 3, so each transform is its own inverse: the
# inverses are the forward functions under the paper's names.
inverse_hntt_1d = hntt_1d_fast
inverse_special_hntt_2d = special_hntt_2d


def full_hntt_2d(a) -> list[list[int]]:
    """Full 2-D transform: (B + B_colrev + B_rowrev - B_bothrev) / 2,
    where B = special_hntt_2d(a) and the reversed copies remap indices
    by i -> (4 - i) mod 4.  The 1/2 scale is 2^-1 == 2 == -1 mod 3,
    applied as a negation."""
    b = special_hntt_2d(a)
    out = []
    for i in range(4):
        bi = b[i]
        br = b[_REV[i]]
        row = []
        for j in range(4):
            rj = _REV[j]
            combined = bi[j] + bi[rj] + br[j] - br[rj]
            row.append((-combined) % 3)
        out.append(row)
    return out


def full_hntt_2d_direct(a) -> list[list[int]]:
    """O(N^4) kernel-sum evaluation X[u][v] = sum_{i,k} a[i][k] * cas(u*i + v*k).

    Independent oracle for full_hntt_2d; kept out of production paths.
    """
    flat = [v for row in _checked(a, (4, 4), "block") for v in row]
    return [[sum(map(mul, flat, kernel)) % 3 for kernel in row] for row in _KERNEL]
