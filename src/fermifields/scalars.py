"""Scalar coefficient rings.

Two arithmetic modes are supported throughout the package:

* ``"float"`` -- complex double precision (python ``complex``), with
  comparisons at relative tolerance ``FLOAT_RTOL``;
* ``"rational"`` -- exact complex rationals (:class:`QC`), used by the
  validation suites so that algebraic identities can be checked to be
  *exactly* zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

FLOAT_RTOL = 1e-10

_RatLike = Union[int, Fraction]


class QC:
    """Complex number with exact ``Fraction`` real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QC is immutable")

    # -- ring operations ------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QC):
            return other
        if isinstance(other, (int, Fraction)):
            return QC(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * o.re + self.im * o.im) / n,
                  (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QC(other)
        if not isinstance(other, QC):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __abs__(self):
        return abs(complex(float(self.re), float(self.im)))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


class Ring:
    """Arithmetic-mode facade: coercion, constants and zero tests."""

    def __init__(self, mode: str):
        mode = {"complex": "float"}.get(mode, mode)
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
        if isinstance(x, QC):
            return complex(x)
        return complex(x)

    def number(self, re, im=0):
        return QC(re, im) if self.exact else complex(re, im)

    def is_zero(self, c, tol: float = 0.0) -> bool:
        if self.exact:
            return not c
        if tol <= 0.0:
            return c == 0
        return abs(c) <= tol

    def __repr__(self):
        return f"Ring({self.mode})"
