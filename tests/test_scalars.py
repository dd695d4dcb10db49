"""Exact complex rationals: ``QC`` against a pair-of-``Fraction`` model."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fermifields import scalars
from fermifields.scalars import QC

# -- reference model: (re, im) as a pair of Fractions ----------------------


def m_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def m_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def m_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def m_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


ZERO = (Fraction(0), Fraction(0))

reals = st.one_of(st.integers(-10**6, 10**6),
                  st.fractions(max_denominator=10**4),
                  st.sampled_from([0, 1, -1, Fraction(1, 2)]))
# (value, model) pairs: a QC, or a plain int / Fraction operand
qcs = st.tuples(reals, reals).map(
    lambda p: (QC(*p), (Fraction(p[0]), Fraction(p[1]))))
operands = st.one_of(qcs, reals.map(lambda r: (r, (Fraction(r), Fraction(0)))))


def assert_matches(q, m):
    assert isinstance(q, QC)
    assert (q.re, q.im) == m
    a, b, d = q._abd
    assert d > 0 and math.gcd(a, b, d) == 1
    assert q == QC(*m) and hash(q) == hash(QC(*m))
    assert bool(q) == (m != ZERO)
    if m[1] == 0:
        assert q == m[0] and m[0] == q and hash(q) == hash(m[0])
    else:
        assert q != m[0]
    assert complex(q) == complex(float(m[0]), float(m[1]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(qcs, operands)
def test_qc_arithmetic_matches_model(x, y):
    (qx, mx), (vy, my) = x, y
    assert_matches(qx, mx)
    for op, mop in ((operator.add, m_add), (operator.sub, m_sub),
                    (operator.mul, m_mul)):
        assert_matches(op(qx, vy), mop(mx, my))
        assert_matches(op(vy, qx), mop(my, mx))
    for num, mnum, den, mden in ((qx, mx, vy, my), (vy, my, qx, mx)):
        if mden == ZERO:
            with pytest.raises(ZeroDivisionError):
                num / den
        else:
            assert_matches(num / den, m_div(mnum, mden))
    assert (qx == vy) == (mx == my)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(qcs)
def test_qc_unary_ops_match_model(x):
    q, m = x
    assert_matches(-q, (-m[0], -m[1]))
    assert_matches(+q, m)
    assert_matches(q.conjugate(), (m[0], -m[1]))
    assert abs(q) == abs(complex(float(m[0]), float(m[1])))
    assert repr(q) == f"QC({m[0]}, {m[1]})"


@settings(max_examples=50, deadline=None, derandomize=True)
@given(qcs)
def test_qc_is_immutable(x):
    q, m = x
    for name in ("re", "im", "_abd", "other"):
        with pytest.raises(AttributeError):
            setattr(q, name, 1)
    assert (q.re, q.im) == m


def test_qc_hash_agrees_with_equal_reals():
    for x in (0, 2, -7, True, Fraction(1, 3), Fraction(-5, 2), Fraction(4, 2)):
        assert QC(x) == x
        assert hash(QC(x)) == hash(x)
    assert {QC(2): "two"}[2] == "two"
    assert Fraction(3, 4) in {QC(Fraction(3, 4))}


# -- exact-zero operands return at once, still normalised -------------------

ZERO_OPERANDS = [QC(0), QC(0, 0), QC(Fraction(0, 5)), 0, Fraction(0), False]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(qcs, st.just((QC(0), ZERO))))
def test_qc_zero_operands_match_model(x):
    q, m = x
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars, "gcd", lambda *a: calls.append(a) or math.gcd(*a))
        for z in ZERO_OPERANDS:
            # x + 0, x − 0, 0 + x and QC(0) + x are the operand x itself
            assert q + z is q and q - z is q
            if q:
                assert z + q is q
            assert (q * z)._abd == (z * q)._abd == (0, 0, 1)
            z - q  # checked by value below
    assert calls == []
    for z in ZERO_OPERANDS:
        for op, mop in ((operator.add, m_add), (operator.sub, m_sub),
                        (operator.mul, m_mul)):
            assert_matches(op(q, z), mop(m, ZERO))
            assert_matches(op(z, q), mop(ZERO, m))
        # the reflected methods, called directly
        assert_matches(q.__radd__(z), m)
        assert_matches(q.__rmul__(z), ZERO)
        if type(z) is not QC:  # QC − QC never reaches __rsub__
            assert_matches(q.__rsub__(z), m_sub(ZERO, m))
        with pytest.raises(ZeroDivisionError):
            q / z
        if m != ZERO:
            assert_matches(z / q, ZERO)
    zero = QC(0)
    assert_matches(-zero, ZERO)
    assert (-zero)._abd == (0, 0, 1) and (zero * q)._abd == (0, 0, 1)
    assert_matches(-q, (-m[0], -m[1]))


def test_qc_zero_plus_real_is_exact_real():
    """A zero QC plus a plain real keeps the real's reduced form."""
    for r in (3, -7, Fraction(-3, 4), Fraction(10, 4), True):
        assert_matches(QC(0) + r, (Fraction(r), Fraction(0)))
        assert_matches(r + QC(0), (Fraction(r), Fraction(0)))
        assert_matches(QC(0) - r, (-Fraction(r), Fraction(0)))
        assert_matches(r - QC(0), (Fraction(r), Fraction(0)))


@pytest.mark.parametrize("other", [1.5, 2j, "2"])
@pytest.mark.parametrize("x", [QC(0), QC(Fraction(3, 4), -2)])
def test_qc_rejects_float_complex_and_str_operands(x, other):
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
