"""Transform correctness: matrix construction, butterflies, 2-D forms."""

import ast
import inspect
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hnttmark import hntt, watermark
from hnttmark.watermark import _ROW, _row_codes, _transform_sums

# Literal copy of the transform matrix so oracle arithmetic below never
# touches the code paths under test.
H_REF = [[1, 1, 1, 1], [1, 1, 2, 2], [1, 2, 1, 2], [1, 2, 2, 1]]


def _matvec(m, x):
    return [sum(mi * xi for mi, xi in zip(row, x)) % 3 for row in m]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) % 3 for j in range(4)] for i in range(4)]


def _random_block(rng):
    return [[rng.randrange(3) for _ in range(4)] for _ in range(4)]


def _sparse_blocks():
    """Every block with at most two nonzero cells (values 1 or 2)."""
    zero = [[0] * 4 for _ in range(4)]
    yield [row[:] for row in zero]
    cells = [(i, k) for i in range(4) for k in range(4)]
    for i, k in cells:
        for v in (1, 2):
            b = [row[:] for row in zero]
            b[i][k] = v
            yield b
    for (i1, k1), (i2, k2) in combinations(cells, 2):
        for v1 in (1, 2):
            for v2 in (1, 2):
                b = [row[:] for row in zero]
                b[i1][k1] = v1
                b[i2][k2] = v2
                yield b


def test_build_matrix_default():
    assert hntt.build_matrix() == H_REF
    assert [list(r) for r in hntt.H4] == H_REF


def test_matrix_symmetric():
    for i in range(4):
        for k in range(4):
            assert hntt.H4[i][k] == hntt.H4[k][i]


def test_matrix_squares_to_identity():
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert _matmul(hntt.H4, hntt.H4) == identity


def test_row0_col0_all_ones_generic():
    m = hntt.build_matrix()
    assert all(v == 1 for v in m[0])
    assert all(row[0] == 1 for row in m)


def test_hntt_1d_examples():
    assert hntt.hntt_1d([0, 0, 0, 0]) == [0, 0, 0, 0]
    assert hntt.hntt_1d([1, 0, 0, 0]) == [1, 1, 1, 1]
    # frozen from the matrix-vector oracle
    assert _matvec(H_REF, [1, 2, 0, 1]) == [1, 2, 1, 0]
    assert hntt.hntt_1d([1, 2, 0, 1]) == [1, 2, 1, 0]


def test_hntt_1d_matches_matvec_oracle_exhaustive():
    for v in product(range(3), repeat=4):
        x = list(v)
        assert hntt.hntt_1d(x) == _matvec(H_REF, x)


def test_fast_equals_naive_exhaustive():
    for v in product(range(3), repeat=4):
        x = list(v)
        assert hntt.hntt_1d_fast(x) == hntt.hntt_1d(x)


def test_fast_examples():
    assert hntt.hntt_1d_fast([1, 1, 1, 1]) == [1, 0, 0, 0]
    assert hntt.hntt_1d_fast([0, 0, 0, 0]) == [0, 0, 0, 0]


def _callees(func) -> set:
    """The hntt functions func's source names, and theirs, transitively."""
    found, todo = set(), [func]
    while todo:
        for node in ast.walk(ast.parse(inspect.getsource(todo.pop()))):
            callee = getattr(hntt, node.id, None) if isinstance(node, ast.Name) else None
            if inspect.isfunction(callee) and callee.__module__ == hntt.__name__ and callee not in found:
                found.add(callee)
                todo.append(callee)
    return found


def _multiplies(func) -> bool:
    """Whether func's source, or that of an hntt function it calls, holds a
    *, ** or @ (plain or augmented)."""
    ops = (ast.Mult, ast.Pow, ast.MatMult)
    return any(
        isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ops)
        for f in {func} | _callees(func)
        for node in ast.walk(ast.parse(inspect.getsource(f)))
    )


def test_fast_performs_no_multiplications():
    assert not _multiplies(hntt.hntt_1d_fast)
    assert not _multiplies(hntt.special_hntt_2d)
    # the butterflies the fast forms run are in the scan
    assert hntt._butterfly in _callees(hntt.hntt_1d_fast)
    assert {hntt._separable, hntt._butterfly} <= _callees(hntt.special_hntt_2d)
    assert hntt.hntt_1d not in _callees(hntt.special_hntt_2d)
    assert _multiplies(hntt.hntt_1d)  # positive control: the naive route multiplies


def test_each_entry_point_checks_once_and_runs_unchecked_butterflies(monkeypatch):
    calls = []
    for name in ("_checked", "_butterfly"):
        real = getattr(hntt, name)
        monkeypatch.setattr(hntt, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    vector = [1, 2, 0, 1]
    block = [vector] * 4
    for call, checks, butterflies in (
        (lambda: hntt.hntt_1d_fast(vector), 1, 1),
        (lambda: hntt.hntt_1d(vector), 1, 0),
        (lambda: hntt.special_hntt_2d(block), 1, 8),
        (lambda: hntt.full_hntt_2d_direct(block), 1, 0),
        (lambda: watermark.decompose(block), 1, 0),
        (lambda: watermark.embed_block(block, block), 2, 16),
        (lambda: watermark.extract_block(block, block), 2, 16),
    ):
        calls.clear()
        call()
        assert (calls.count("_checked"), calls.count("_butterfly")) == (checks, butterflies)


def test_inverse_equals_forward_and_round_trips():
    assert hntt.inverse_hntt_1d is hntt.hntt_1d_fast
    assert hntt.inverse_special_hntt_2d is hntt.special_hntt_2d
    for v in product(range(3), repeat=4):
        x = list(v)
        assert hntt.inverse_hntt_1d(x) == hntt.hntt_1d(x)
        assert hntt.inverse_hntt_1d(hntt.hntt_1d(x)) == x
    assert hntt.inverse_hntt_1d([1, 1, 1, 1]) == [1, 0, 0, 0]


def test_vector_validation():
    with pytest.raises(ValueError):
        hntt.hntt_1d([0, 1, 2])
    with pytest.raises(ValueError):
        hntt.hntt_1d_fast([0, 1, 2, 3])


def test_block_validation():
    with pytest.raises(ValueError):
        hntt.special_hntt_2d([[0] * 4] * 3)
    with pytest.raises(ValueError):
        hntt.special_hntt_2d([[0, 0, 0, 5]] + [[0] * 4] * 3)


def test_special_2d_examples():
    zero = [[0] * 4 for _ in range(4)]
    ones = [[1] * 4 for _ in range(4)]
    delta = [[1 if (i, k) == (0, 0) else 0 for k in range(4)] for i in range(4)]
    assert hntt.special_hntt_2d(zero) == zero
    assert hntt.special_hntt_2d(delta) == ones
    assert hntt.special_hntt_2d(ones) == delta
    assert hntt.inverse_special_hntt_2d(ones) == delta


def test_special_2d_matches_triple_product():
    rng = random.Random(7)
    cases = list(_sparse_blocks()) + [_random_block(rng) for _ in range(500)]
    for a in cases:
        assert hntt.special_hntt_2d(a) == _matmul(_matmul(H_REF, a), H_REF)


def test_special_2d_involution():
    rng = random.Random(11)
    cases = list(_sparse_blocks()) + [_random_block(rng) for _ in range(1000)]
    for a in cases:
        assert hntt.inverse_special_hntt_2d(hntt.special_hntt_2d(a)) == a


def test_special_2d_separability():
    # rows first, then columns, must equal the column-first module path
    rng = random.Random(13)
    for _ in range(200):
        a = _random_block(rng)
        rows = [hntt.hntt_1d_fast(row) for row in a]
        out = [[0] * 4 for _ in range(4)]
        for k in range(4):
            col = hntt.hntt_1d_fast([rows[0][k], rows[1][k], rows[2][k], rows[3][k]])
            for i in range(4):
                out[i][k] = col[i]
        assert out == hntt.special_hntt_2d(a)


def _add_blocks(a, b):
    return [[(x + y) % 3 for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


@pytest.mark.parametrize(
    "transform",
    [hntt.hntt_1d, hntt.special_hntt_2d, hntt.full_hntt_2d],
    ids=["1d", "special2d", "full2d"],
)
def test_linearity(transform):
    rng = random.Random(17)
    for _ in range(100):
        if transform is hntt.hntt_1d:
            a = [rng.randrange(3) for _ in range(4)]
            b = [rng.randrange(3) for _ in range(4)]
            merged = [(x + y) % 3 for x, y in zip(a, b)]
            combined = [(x + y) % 3 for x, y in zip(transform(a), transform(b))]
        else:
            a = _random_block(rng)
            b = _random_block(rng)
            merged = _add_blocks(a, b)
            combined = _add_blocks(transform(a), transform(b))
        assert transform(merged) == combined


def _transform_stack(blocks):
    """The image kernel on an (n, 4, 4) stack, passed as its (4n, 4) image,
    reduced mod 3 as extract_image reduces it."""
    return _transform_sums(blocks.reshape(-1, 4)).reshape(blocks.shape) % 3


def test_special_2d_collision_free_on_random_blocks():
    # injectivity spot-check via hashing; the image kernel is pinned to the
    # scalar route on a sample first, then drives the bulk sweep
    rng = np.random.RandomState(99)
    blocks = rng.randint(0, 3, (100_000, 4, 4)).astype(np.uint8)
    sample = blocks[:200]
    for got, src in zip(_transform_stack(sample), sample):
        assert got.tolist() == hntt.special_hntt_2d(src.tolist())
    transformed = _transform_stack(blocks)
    seen = {}
    for out_row, in_row in zip(transformed.reshape(-1, 16), blocks.reshape(-1, 16)):
        key = out_row.tobytes()
        val = in_row.tobytes()
        assert seen.setdefault(key, val) == val
    assert len(seen) <= 3**16


# ------------------------------------------------ packed-row image kernel


def test_kernel_row_table_exhaustive():
    # every row of digits 0..7, the range of the 12-bit row code: entry c is
    # one word whose bytes, in memory order, are the digits of H*row mod 3
    assert _ROW.dtype == np.uint32 and _ROW.shape == (4096,)
    words = _ROW.view(np.uint8).reshape(4096, 4).tolist()
    for code in range(4096):
        row = [code >> shift & 7 for shift in (0, 3, 6, 9)]
        want = hntt.hntt_1d([d % 3 for d in row])
        # _ROW is built from H4, as hntt_1d is; the butterflies are independent
        assert words[code] == want == hntt.hntt_1d_fast([d % 3 for d in row])


def test_kernel_row_codes_exhaustive():
    # all 4096 rows of digits 0..7 side by side, first pixel lowest
    rows = np.array(list(product(range(8), repeat=4)), dtype=np.uint8)[:, ::-1]
    codes = _row_codes(rows.reshape(2, -1))
    assert codes.shape == (2, 2048)
    want = rows.astype(np.int64) @ [1, 8, 64, 512]
    assert codes.ravel().tolist() == want.tolist() == list(range(4096))
    # a strided view is copied first, not read through its base's words
    wide = np.zeros((2, rows.size), dtype=np.uint8)
    wide[:, ::2] = rows.reshape(2, -1)
    assert np.array_equal(_row_codes(wide[:, ::2]), codes)


@pytest.mark.parametrize("fill", ["random", "worst"])
@pytest.mark.parametrize("position", range(4))
def test_kernel_sums_exhaustive_in_each_row_position(position, fill):
    # all 4096 rows of digits 0..7 at one row position of 4096 blocks, the
    # other rows filled: the sums are congruent to the reference transform
    # mod 3 and no byte exceeds 12, so no word add carried.  The worst fill,
    # (2, 0, 0, 0), is the row whose transform is (2, 2, 2, 2), so around it
    # every column sum takes its largest value
    rows = np.array(list(product(range(8), repeat=4)), dtype=np.uint8)
    if fill == "random":
        blocks = np.random.RandomState(position).randint(0, 8, (4096, 4, 4)).astype(np.uint8)
    else:
        blocks = np.tile(np.array([2, 0, 0, 0], dtype=np.uint8), (4096, 4, 1))
    blocks[:, position] = rows
    sums = _transform_sums(blocks.reshape(-1, 4)).reshape(blocks.shape)
    assert sums.dtype == np.uint8 and sums.max() <= 12
    assert fill == "random" or sums.max() == 12
    for got, block in zip(sums % 3, blocks % 3):
        assert got.tolist() == hntt.special_hntt_2d(block.tolist())


def test_divisibility_by_multiplying_with_171_exhaustive():
    # 171 is 1/3 mod 256: a byte times 171 is at most 85 exactly when 3
    # divides it, the test verify runs on sums + 3 - reference
    x = np.arange(256, dtype=np.uint8)
    assert (171 * 3) % 256 == 1
    assert np.array_equal(x * np.uint8(171) <= 85, x % 3 == 0)


@pytest.mark.parametrize("shape", [(4, 4), (8, 68), (68, 8), (4096, 4)])
def test_verify_block_counts_match_brute_force(shape):
    # a grid reference that differs from the extracted pattern in k random
    # pixels of block b, with k = b mod 17: every count 0..16, 16 included;
    # and a cell reference, against the same count made in plain numpy
    rng = np.random.RandomState(sum(shape))
    h, w = shape
    orig = rng.randint(0, 256, shape).astype(np.uint8)
    susp = rng.randint(0, 256, shape).astype(np.uint8)
    by, bx = h // 4, w // 4
    as_blocks = lambda a: a.reshape(by, 4, bx, 4).swapaxes(1, 2).reshape(-1, 16)
    # the extracted cells by the pure-Python block route
    extracted = np.array([watermark.extract_block(o.reshape(4, 4), s.reshape(4, 4))
                          for o, s in zip(as_blocks(orig), as_blocks(susp))], dtype=np.uint8).reshape(-1, 16)
    want = np.arange(by * bx) % 17
    reference = extracted.copy()
    for b, k in enumerate(want):
        where = rng.permutation(16)[:k]
        reference[b, where] = (reference[b, where] + rng.randint(1, 3, k)) % 3
    grid = reference.reshape(by, bx, 4, 4).swapaxes(1, 2).reshape(shape)
    assert watermark.verify(orig, susp, grid).distances.ravel().tolist() == want.tolist()
    cell = rng.randint(0, 3, (4, 4)).astype(np.uint8)
    counts = (extracted != cell.ravel()).sum(1)
    assert watermark.verify(orig, susp, cell).distances.ravel().tolist() == counts.tolist()
    # a cell that differs from block 0's extracted cell in every pixel, so
    # a count against a cell reaches 16 too
    far = (extracted[0].reshape(4, 4) + 1) % 3
    assert watermark.verify(orig, susp, far).distances.ravel()[0] == 16


def _triple_product(blocks):
    """Numpy restatement of H * A * H mod 3 over an (n, 4, 4) stack."""
    h = np.array(H_REF)
    return (h @ blocks.astype(np.int64) @ h) % 3


@given(st.integers(0, 40).flatmap(lambda n: arrays(np.uint8, (n, 4, 4), elements=st.integers(0, 2))))
def test_kernel_matches_oracles_on_ternary_stacks(blocks):
    got = _transform_stack(blocks)
    assert got.dtype == np.uint8 and got.shape == blocks.shape
    assert np.array_equal(got, _triple_product(blocks))
    for out, block in zip(got, blocks):
        assert out.tolist() == hntt.special_hntt_2d(block.tolist())


@given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda s: arrays(np.uint8, (4 * s[0], 4 * s[1]), elements=st.integers(0, 4))))
def test_kernel_matches_oracles_on_digit_images(image):
    # image layout in and out: block (y, x) is image[4y:4y+4, 4x:4x+4]
    got = _transform_sums(image) % 3
    assert got.dtype == np.uint8 and got.shape == image.shape
    by, bx = image.shape[0] // 4, image.shape[1] // 4
    blocks = (image % 3).reshape(by, 4, bx, 4).swapaxes(1, 2).reshape(-1, 4, 4)
    want = _triple_product(blocks)
    assert np.array_equal(got.reshape(by, 4, bx, 4).swapaxes(1, 2).reshape(-1, 4, 4), want)
    for out, block in zip(want, blocks):
        assert out.tolist() == hntt.special_hntt_2d(block.tolist())


def test_full_2d_examples():
    zero = [[0] * 4 for _ in range(4)]
    ones = [[1] * 4 for _ in range(4)]
    delta = [[1 if (i, k) == (0, 0) else 0 for k in range(4)] for i in range(4)]
    assert hntt.full_hntt_2d(zero) == zero
    assert hntt.full_hntt_2d(delta) == ones
    assert hntt.full_hntt_2d_direct(delta) == ones


def test_full_2d_equals_direct_kernel():
    rng = random.Random(23)
    cases = list(_sparse_blocks()) + [_random_block(rng) for _ in range(1000)]
    for a in cases:
        assert hntt.full_hntt_2d(a) == hntt.full_hntt_2d_direct(a)


def test_full_2d_is_involution():
    # N^2 = 16 == 1 mod 3, so the full transform inverts itself too
    rng = random.Random(29)
    for _ in range(2000):
        a = _random_block(rng)
        assert hntt.full_hntt_2d(hntt.full_hntt_2d(a)) == a
