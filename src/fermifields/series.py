"""Truncated formal power series with graded coefficients.

One class serves both the coupling expansion (symbol ``lambda``) and the
deformation expansion (symbol ``hbar``).  Arithmetic truncates at
``max_order`` when one is set; ``None`` means "keep everything" (used for
series that terminate by nilpotency).  Orders above ``max_order`` are
dropped without a flag, since ``max_order`` records that cut; the
``truncated`` flag is set by whoever cut a grade from a coefficient
(:class:`~fermifields.dynamics.SubstitutionMap` at its ``max_grade``), and
arithmetic carries it to every series built from a flagged one.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .algebra import Algebra, GrassmannElement
from .linalg import max_abs

__all__ = ["FormalSeries", "TruncatedSeries", "HbarSeries"]


class FormalSeries:
    """Polynomial Σ_k symbol^k · c_k with GrassmannElement coefficients."""

    __slots__ = ("algebra", "symbol", "coeffs", "max_order", "truncated")

    def __init__(self, algebra: Algebra, symbol: str,
                 coeffs: Mapping[int, GrassmannElement] | None = None,
                 max_order: int | None = None, truncated: bool = False):
        self.algebra = algebra
        self.symbol = symbol
        self.max_order = max_order
        self.truncated = truncated
        self.coeffs = {k: e for k, e in (coeffs or {}).items()
                       if (max_order is None or k <= max_order)
                       and not e.is_zero()}

    # -- helpers ----------------------------------------------------------
    def _like(self, coeffs) -> "FormalSeries":
        return FormalSeries(self.algebra, self.symbol, coeffs,
                            self.max_order, self.truncated)

    def _check(self, other: "FormalSeries"):
        if self.symbol != other.symbol:
            raise ValueError(f"series symbols differ: {self.symbol} vs {other.symbol}")
        self.algebra.check_compatible(other.algebra)

    @classmethod
    def constant(cls, e: GrassmannElement, symbol: str,
                 max_order: int | None = None) -> "FormalSeries":
        return cls(e.algebra, symbol, {0: e}, max_order)

    def coefficient(self, k: int) -> GrassmannElement:
        return self.coeffs.get(k, self.algebra.zero())

    def orders(self) -> list:
        return sorted(self.coeffs)

    def order_cap(self, other: "FormalSeries | None" = None) -> int | None:
        caps = [c for c in (self.max_order,
                            other.max_order if other is not None else None)
                if c is not None]
        return min(caps) if caps else None

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.coeffs.values())

    def max_abs(self) -> float:
        if not self.coeffs:
            return 0.0
        return max_abs(np.array([e.max_abs() for e in self.coeffs.values()]))

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, GrassmannElement):
            other = FormalSeries.constant(other, self.symbol, self.max_order)
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for k, e in other.coeffs.items():
            out[k] = out[k] + e if k in out else e
        cap = self.order_cap(other)
        return FormalSeries(self.algebra, self.symbol, out, cap,
                            self.truncated or other.truncated)

    def __sub__(self, other):
        if isinstance(other, (FormalSeries, GrassmannElement)):
            return self + (-other if isinstance(other, FormalSeries) else other.scale(-1))
        return NotImplemented

    def __neg__(self):
        return self._like({k: -e for k, e in self.coeffs.items()})

    def scale(self, c) -> "FormalSeries":
        return self._like({k: e.scale(c) for k, e in self.coeffs.items()})

    def wedge(self, other: "FormalSeries") -> "FormalSeries":
        self._check(other)
        cap = self.order_cap(other)
        out: dict[int, GrassmannElement] = {}
        for ka, ea in self.coeffs.items():
            for kb, eb in other.coeffs.items():
                k = ka + kb
                if cap is not None and k > cap:
                    continue
                prod = ea.wedge(eb)
                if prod.is_zero():
                    continue
                out[k] = out[k] + prod if k in out else prod
        return FormalSeries(self.algebra, self.symbol, out, cap,
                            self.truncated or other.truncated)

    def truncate_order(self, order: int) -> "FormalSeries":
        return FormalSeries(self.algebra, self.symbol, self.coeffs, order,
                            self.truncated)

    def __repr__(self):
        return (f"FormalSeries({self.symbol}, orders={self.orders()}, "
                f"max_order={self.max_order})")


def TruncatedSeries(algebra: Algebra, coeffs=None, max_order: int | None = None,
                    truncated: bool = False) -> FormalSeries:
    """Coupling-constant series (symbol ``lambda``)."""
    return FormalSeries(algebra, "lambda", coeffs, max_order, truncated)


def HbarSeries(algebra: Algebra, coeffs=None) -> FormalSeries:
    """Deformation series (symbol ``hbar``); finite by nilpotency at fixed grade."""
    return FormalSeries(algebra, "hbar", coeffs)
