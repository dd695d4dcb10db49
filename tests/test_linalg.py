"""Exact linear algebra that skips zeros: ``matmul`` against numpy's
object ``@`` and ``mat_inv`` against a dense Gauss-Jordan reference.

An exact array's empty slots hold the int 0 and its written slots hold
normalised ``QC``; :func:`values` reads both as triples."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fermifields.linalg import _ExactBlock, eye, mat_inv, matmul, max_abs, zeros
from fermifields.scalars import QC, Ring

RAT = Ring("rational")


def rand_qc(rng):
    return QC(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
              Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.5 else 0)


def sparse_qc(rng, shape, density):
    a = zeros(shape, RAT)
    for i in range(shape[0]):
        for j in range(shape[1]):
            if rng.random() < density:
                a[i, j] = rand_qc(rng)
    return a


def values(a):
    """Each slot's normalised triple; an empty slot holds the int 0 and
    reads as (0, 0, 1)."""
    rows = a.tolist()
    assert all(type(x) is QC or (type(x) is int and x == 0)
               for row in rows for x in row)
    return [[RAT.coerce(x)._abd for x in row] for row in rows]


def only(a, part):
    """``a`` with each entry cut to its real or imaginary part, or zeroed."""
    cut = {"complex": lambda x: x, "real": lambda x: QC(x.re),
           "imaginary": lambda x: QC(0, x.im), "zero": lambda x: QC(0)}[part]
    out = zeros(a.shape, RAT)
    for idx, x in np.ndenumerate(a):
        if x:
            out[idx] = cut(x)
    return out


# -- max_abs -----------------------------------------------------------------

def test_max_abs_reads_zero_only_for_no_nonzero_entry():
    """0.0 means every entry is 0: an exact nonzero below the float range
    reads ``math.ulp(0.0)``, and a complex float keeps its subnormal
    modulus."""
    tiny = zeros((2, 3), RAT)
    tiny[1, 2] = QC(Fraction(1, 10**400))
    assert complex(tiny[1, 2]) == 0
    assert max_abs(tiny) == math.ulp(0.0)
    for empty in (zeros((2, 3), RAT), zeros((0, 3), RAT), tiny[:1],
                  np.zeros((2, 2), dtype=complex), np.zeros(0, dtype=complex)):
        assert max_abs(empty) == 0.0
    assert max_abs(np.array([0j, complex(0.0, -5e-324)])) == 5e-324


# -- matmul ------------------------------------------------------------------

SHAPES = [(1, 1, 1), (3, 5, 2), (1, 4, 6), (6, 1, 3), (7, 7, 7), (4, 9, 5)]


@pytest.mark.parametrize("n,k,m", SHAPES)
def test_matmul_rational_equals_object_matmul(n, k, m):
    rng = random.Random(f"matmul:{n}x{k}x{m}")
    for density in (0.0, 0.2, 0.5, 1.0):
        for _ in range(4):
            a = sparse_qc(rng, (n, k), density)
            b = sparse_qc(rng, (k, m), density)
            # an all-zero row of a and an all-zero column of b
            a[rng.randrange(n), :] = RAT.zero
            b[:, rng.randrange(m)] = RAT.zero
            got = matmul(a, b)
            assert got.shape == (n, m) and got.dtype == object
            # a slot has a nonzero product when some a[i, k] and b[k, j]
            # are both nonzero
            live = (a.astype(bool).astype(int) @ b.astype(bool).astype(int)) > 0
            for x, want, hit in zip(got.ravel(), (a @ b).ravel(), live.ravel()):
                if hit:
                    assert type(x) is QC and x._abd == want._abd
                else:
                    assert type(x) is int and x == 0


def test_matmul_rational_cancelling_sums():
    """Nonzero products that cancel give the normalised zero (0, 0, 1)."""
    x, y = QC(Fraction(2, 3), 1), QC(Fraction(-5, 7), Fraction(1, 2))
    a = zeros((2, 3), RAT)
    a[0, 0], a[0, 1] = x, x
    a[1, 0], a[1, 2] = x, y
    b = zeros((3, 2), RAT)
    b[0, 0], b[1, 0] = y, -y                       # x·y − x·y
    b[0, 1], b[2, 1] = y, -x                       # row 1: x·y − y·x
    got = matmul(a, b)
    assert type(got[0, 0]) is QC and got[0, 0]._abd == (0, 0, 1)
    assert type(got[1, 1]) is QC and got[1, 1]._abd == (0, 0, 1)
    assert got[0, 1] == x * y and got[1, 0] == x * y
    assert values(got) == values(a @ b)


def test_matmul_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        matmul(zeros((2, 3), RAT), zeros((2, 3), RAT))


@pytest.mark.parametrize("n,k,m", SHAPES)
def test_matmul_float_is_numpy_bits(n, k, m):
    rng = np.random.default_rng(n * 100 + k * 10 + m)
    a = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    b = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    a[rng.random(size=a.shape) < 0.5] = 0
    b[rng.random(size=b.shape) < 0.5] = -0.0
    got = matmul(a, b)
    want = a @ b
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# -- mat_inv -----------------------------------------------------------------

def dense_inverse(a):
    """Textbook Gauss-Jordan on [a | I], every entry of every row updated."""
    n = a.shape[0]
    work = [list(row) + [RAT.one if i == j else RAT.zero for j in range(n)]
            for i, row in enumerate(a.tolist())]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise np.linalg.LinAlgError("singular")
        work[col], work[piv] = work[piv], work[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def invertible_needing_swaps(rng, n, density):
    """A random sparse invertible matrix whose (0, 0) entry is zero, so
    elimination must swap rows at the first column."""
    while True:
        a = sparse_qc(rng, (n, n), density)
        a[0, 0] = RAT.zero
        try:
            ref = dense_inverse(a)
        except np.linalg.LinAlgError:
            continue
        return a, ref


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_mat_inv_sparse_exact(n):
    rng = random.Random(f"mat_inv:{n}")
    for density in (0.3, 0.6):
        for _ in range(3):
            a, ref = invertible_needing_swaps(rng, n, density)
            inv = mat_inv(a)
            assert [[x._abd for x in row] for row in ref] == values(inv)
            assert values(matmul(a, inv)) == values(eye(n, RAT))
            assert values(matmul(inv, a)) == values(eye(n, RAT))


def test_mat_inv_singular_raises():
    x, y = QC(Fraction(1, 2), 1), QC(3, Fraction(-1, 4))
    zero_col = zeros((3, 3), RAT)
    zero_col[0, 0], zero_col[1, 0], zero_col[2, 2] = x, y, x
    dependent = sparse_qc(random.Random(5), (4, 4), 0.7)
    dependent[3, :] = dependent[0, :] * x + dependent[1, :] * y
    for a in (zero_col, dependent, zeros((2, 2), RAT)):
        for given in (a, _ExactBlock.of(a)):
            with pytest.raises(np.linalg.LinAlgError):
                mat_inv(given)


def test_mat_inv_rejects_non_square():
    a = sparse_qc(random.Random(6), (2, 3), 1.0)
    for given in (a, _ExactBlock.of(a), a.astype(complex)):
        with pytest.raises(ValueError):
            mat_inv(given)


def complex_pivots_mixed_denominators(rng, n):
    """A dense invertible matrix whose diagonal entries all have nonzero
    real and imaginary parts, each part over a denominator drawn from
    eight."""
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                        rng.choice((1, 2, 3, 5, 7, 9, 16, 25)))
    while True:
        a = zeros((n, n), RAT)
        for i in range(n):
            for j in range(n):
                if i == j or rng.random() < 0.7:
                    a[i, j] = QC(part(), part())
        try:
            return a, dense_inverse(a)
        except np.linalg.LinAlgError:
            continue


def block_parts(blk):
    return blk.den, blk.re.tolist(), blk.im.tolist()


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_mat_inv_of_a_block_is_the_block_of_the_dense_inverse(n):
    """Given an ``_ExactBlock``, ``mat_inv`` returns one whose ``den``,
    ``re`` and ``im`` are those of the block of :func:`dense_inverse`:
    sparse matrices that need a row swap, and dense ones with complex
    pivots over mixed denominators."""
    rng = random.Random(f"mat_inv_block:{n}")
    cases = [invertible_needing_swaps(rng, n, density)
             for density in (0.3, 0.6) for _ in range(3)]
    mixed = [complex_pivots_mixed_denominators(rng, n) for _ in range(3)]
    for a, _ in mixed:
        assert a[0, 0].re and a[0, 0].im
        assert len({x._abd[2] for x in a.ravel() if x}) >= 2
    for a, ref in cases + mixed:
        got = mat_inv(_ExactBlock.of(a))
        assert type(got) is _ExactBlock
        want = _ExactBlock.of(np.array(ref, dtype=object))
        assert block_parts(got) == block_parts(want)
        assert values(mat_inv(a)) == values(np.array(ref, dtype=object))


# -- the integer-numerator block of the exact solves --------------------------

def block_values(blk):
    """Triples of a block's ring array, whose zero slots hold the int 0."""
    got = blk.ring_array()
    assert not any(type(x) is QC and not x for x in got.ravel())
    return values(got)


@pytest.mark.parametrize("left,right", [("complex", "complex"),
                                        ("real", "imaginary"),
                                        ("imaginary", "real"),
                                        ("zero", "complex")])
def test_exact_block_ops_equal_qc_arithmetic(left, right):
    """``@``, ``+``, unary ``-`` and ``*`` by a ``QC`` on integer
    numerators over one denominator equal the same ``QC`` arithmetic
    slot for slot, real, imaginary and zero operands included."""
    rng = random.Random(f"block:{left}:{right}")
    for _ in range(4):
        a = only(sparse_qc(rng, (4, 5), 0.6), left)
        b = only(sparse_qc(rng, (5, 3), 0.6), right)
        c = only(sparse_qc(rng, (4, 3), 0.6), right)
        x = only(np.array([[rand_qc(rng)]], dtype=object), left)[0, 0]
        x = x if x else QC(Fraction(3, 4))
        A, B, C = (_ExactBlock.of(m) for m in (a, b, c))
        assert block_values(A) == values(a)
        assert block_values(A @ B) == values(a @ b)
        assert block_values(A @ B + C) == values(a @ b + c)
        assert block_values(-C) == values(-c)
        assert block_values(C * x) == values(c * x)
        assert block_values(C + -C) == values(zeros(c.shape, RAT))


def test_exact_block_holds_one_normalised_denominator():
    a = zeros((2, 2), RAT)
    a[0, 0], a[0, 1], a[1, 1] = QC(Fraction(1, 6)), QC(0, Fraction(3, 4)), QC(2)
    A = _ExactBlock.of(a)
    assert A.den == 12
    assert A.re.tolist() == [[2, 0], [0, 24]] and A.im.tolist() == [[0, 9], [0, 0]]
    # 4·a has numerators 8, 36i, 96 over 12: one gcd brings it to 3
    B = A * QC(4)
    assert B.den == 3 and B.re.tolist() == [[2, 0], [0, 24]]
