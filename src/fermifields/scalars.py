"""Scalar coefficient rings.

Two arithmetic modes are supported throughout the package:

* ``"float"`` -- complex double precision (python ``complex``);
* ``"rational"`` -- exact complex rationals (:class:`QC`), used by the
  validation suites so that algebraic identities can be checked to be
  *exactly* zero.  A :class:`QC` keeps one shared denominator for both
  parts, ``(a + b·i)/d`` as three Python ints, so ring operations are a
  few integer products and one ``gcd`` rather than two ``Fraction``
  operations; add and subtract skip the cross products when the
  denominators agree.  An exact-zero operand of ``+``, ``-`` or ``*``
  (a zero ``QC``, ``0`` or ``Fraction(0)``), and unary ``-`` of zero,
  return at once with no ``gcd``: sparse exact matrices make most
  operands zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

_RatLike = Union[int, Fraction]


class QC:
    """Exact complex rational ``(a + b·i)/d`` stored as three ints.

    The triple is normalised: ``d > 0`` and ``gcd(a, b, d) == 1``, so
    equal numbers have equal triples.  ``.re`` and ``.im`` give the
    parts as ``Fraction``; instances are immutable.
    """

    __slots__ = ("_abd",)

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        if not isinstance(re, (int, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, Fraction)):
            im = Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        d = q * s // gcd(q, s)  # lcm of reduced denominators: already normal
        _set_abd(self, (p * (d // q), r * (d // s), d))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QC is immutable")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    # -- ring operations ------------------------------------------------
    # An int or Fraction operand enters as (numerator, 0, denominator),
    # already normalised.  An exact-zero operand returns at once; the
    # zero QC is (0, 0, 1).
    def __add__(self, other):
        a, b, d = self._abd
        if type(other) is QC:
            c, e, f = other._abd
            if not (c or e):
                return self
            if not (a or b):
                return other
            if d == f:
                return _qc(a + c, b + e, d)
            return _qc(a * f + c * d, b * f + e * d, d * f)
        if isinstance(other, (int, Fraction)):
            c, f = other.numerator, other.denominator
            if not c:
                return self
            if not (a or b):
                return _qc_normal(c, 0, f)
            return _qc(a * f + c * d, b * f, d * f)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        a, b, d = self._abd
        if type(other) is QC:
            c, e, f = other._abd
            if not (c or e):
                return self
            if not (a or b):
                return _qc_normal(-c, -e, f)
            if d == f:
                return _qc(a - c, b - e, d)
            return _qc(a * f - c * d, b * f - e * d, d * f)
        if isinstance(other, (int, Fraction)):
            c, f = other.numerator, other.denominator
            if not c:
                return self
            if not (a or b):
                return _qc_normal(-c, 0, f)
            return _qc(a * f - c * d, b * f, d * f)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -(self - other)
        return NotImplemented

    def __mul__(self, other):
        a, b, d = self._abd
        if not (a or b):
            if type(other) is QC or isinstance(other, (int, Fraction)):
                return self
            return NotImplemented
        if type(other) is QC:
            c, e, f = other._abd
            if not (c or e):
                return other
            return _qc(a * c - b * e, a * e + b * c, d * f)
        if isinstance(other, (int, Fraction)):
            c, f = other.numerator, other.denominator
            if not c:
                return _ZERO
            return _qc(a * c, b * c, d * f)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, d = self._abd
        if type(other) is QC:
            c, e, f = other._abd
        elif isinstance(other, (int, Fraction)):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero QC")
        # ((a + bi)/d) / ((c + ei)/f) = (a + bi)(c − ei)·f / (d·(c² + e²))
        return _qc((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QC(other) / self
        return NotImplemented

    def __neg__(self):
        a, b, d = self._abd
        if not (a or b):
            return self
        return _qc_normal(-a, -b, d)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if type(other) is QC:
            return self._abd == other._abd
        if isinstance(other, (int, Fraction)):
            return self._abd == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        a, b, d = self._abd
        if b == 0:  # agree with the equal int or Fraction
            return hash(Fraction(a, d))
        return hash(self._abd)

    def __bool__(self):
        a, b, _ = self._abd
        return a != 0 or b != 0

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        # int true division rounds correctly, as float(Fraction) does
        a, b, d = self._abd
        return complex(a / d, b / d)

    def conjugate(self) -> "QC":
        a, b, d = self._abd
        return _qc_normal(a, -b, d)

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


_new_qc = object.__new__
_set_abd = QC._abd.__set__  # slot setter; bypasses the immutability guard


def _qc_normal(a: int, b: int, d: int) -> QC:
    """Wrap a triple that is already normalised."""
    q = _new_qc(QC)
    _set_abd(q, (a, b, d))
    return q


def _qc(a: int, b: int, d: int) -> QC:
    """Normalise a triple with ``d > 0`` and wrap it."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    q = _new_qc(QC)
    _set_abd(q, (a, b, d))
    return q


_ZERO = _qc_normal(0, 0, 1)


class Ring:
    """Arithmetic-mode facade: coercion, constants and zero tests."""

    def __init__(self, mode: str):
        if mode not in ("float", "rational"):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        self.mode = mode
        self.exact = mode == "rational"
        self.zero = QC(0) if self.exact else 0j
        self.one = QC(1) if self.exact else 1 + 0j
        self.i = QC(0, 1) if self.exact else 1j

    def coerce(self, x):
        if self.exact:
            if isinstance(x, QC):
                return x
            if isinstance(x, (int, Fraction)):
                return QC(x)
            raise TypeError(f"cannot coerce {type(x).__name__} into rational mode")
        return complex(x)

    def number(self, re, im=0):
        return QC(re, im) if self.exact else complex(re, im)

    def is_zero(self, c) -> bool:
        """Exact zero test; a scalar of either mode is zero when falsy."""
        return not c

    def __repr__(self):
        return f"Ring({self.mode})"
