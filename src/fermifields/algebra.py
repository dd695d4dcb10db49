"""Sparse exterior algebra over a finite, totally ordered generator set.

Antisymmetric functionals are stored as sparse maps from strictly
increasing generator words to scalar coefficients.  The same
representation carries field configurations (dual coefficients), so the
evaluation pairing is a plain sum of coefficient products over words.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._core import BACKEND, contract, wedge_terms
from .linalg import max_abs
from .scalars import Ring, _qc

__all__ = [
    "BACKEND", "FIELD", "CONJUGATE", "GeneratorId", "Algebra",
    "GrassmannElement", "Configuration", "left_derivative", "evaluate",
    "random_element",
]

FIELD = 0
CONJUGATE = 1


@dataclass(frozen=True, order=True, slots=True)
class GeneratorId:
    """One anticommuting generator slot.

    The dataclass ordering (species, color, site, component) is the total
    order used for canonical words; ``species`` is 0 for the field and 1
    for its conjugate.
    """

    species: int
    color: int
    site: int
    component: int


class ConfigurationError(ValueError):
    """Raised when operands belong to different algebras."""


class Algebra:
    """Finite generator set with a fixed total order and scalar ring."""

    def __init__(self, generators: Sequence[GeneratorId], mode: str = "float"):
        gens = tuple(sorted(generators))
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generators")
        self.generators = gens
        self.index = {g: i for i, g in enumerate(gens)}
        self.ring = Ring(mode)
        self.n = len(gens)

    @property
    def mode(self) -> str:
        return self.ring.mode

    # -- constructors ---------------------------------------------------
    def element(self, terms: Mapping[tuple, object] | None = None) -> "GrassmannElement":
        data = {}
        if terms:
            for w, c in terms.items():
                w = tuple(w)
                if any(w[k] >= w[k + 1] for k in range(len(w) - 1)):
                    raise ValueError(f"word {w} is not strictly increasing")
                if w and (w[0] < 0 or w[-1] >= self.n):
                    raise ValueError(f"word {w} outside generator range")
                c = self.ring.coerce(c)
                if c:
                    data[w] = data[w] + c if w in data else c
        return GrassmannElement(self, data)

    def zero(self) -> "GrassmannElement":
        return GrassmannElement(self, {})

    def scalar(self, c) -> "GrassmannElement":
        c = self.ring.coerce(c)
        return GrassmannElement(self, {(): c} if c else {})

    def one(self) -> "GrassmannElement":
        return self.scalar(1)

    def generator(self, i: int) -> "GrassmannElement":
        if not 0 <= i < self.n:
            raise ValueError(f"generator ordinal {i} out of range")
        return GrassmannElement(self, {(i,): self.ring.one})

    def monomial(self, word: Iterable[int], coeff=1) -> "GrassmannElement":
        return self.element({tuple(word): coeff})

    def linear(self, coeffs: Mapping[int, object]) -> "GrassmannElement":
        """Grade-1 element Σ c_i e_i from an ordinal->coefficient map."""
        return self.element({(i,): c for i, c in coeffs.items()})

    def same_as(self, other: "Algebra") -> bool:
        return self is other or (self.generators == other.generators
                                 and self.mode == other.mode)

    def check_compatible(self, other: "Algebra") -> None:
        if not self.same_as(other):
            raise ConfigurationError("operands live in different algebras")

    def sum(self, elements: Iterable["GrassmannElement"]) -> "GrassmannElement":
        """``zero() + e1 + e2 + …`` with the checks, keys, key order and bits
        of ``+``, each element added in order into one term dict: no copy
        per element."""
        out: dict = {}
        for e in elements:
            self.check_compatible(e.algebra)
            _add_terms(out, e._terms)
        return GrassmannElement(self, out)

    def __repr__(self):
        return f"Algebra(n={self.n}, mode={self.mode!r})"


def _add_terms(out: dict, terms: dict, sub: bool = False) -> None:
    """Add (``sub``: subtract) the term dict ``terms`` into ``out`` in place.

    Each coefficient becomes ``out.get(w, 0) ± c``, in the order of
    ``terms``: the int 0 is the zero of both rings (``0 ± c`` has the
    bits of ``0j ± c`` for a complex ``c``).  A word whose sum is exactly
    zero is popped.  Here and in the other hot loops of this module a
    coefficient is zero when it is falsy.
    """
    for w, c in terms.items():
        c2 = (out.get(w, 0) - c) if sub else (out.get(w, 0) + c)
        if c2:
            out[w] = c2
        else:
            out.pop(w, None)


class GrassmannElement:
    """Sparse graded polynomial in anticommuting generators.

    Values are immutable after construction; every operation returns a
    new element, so instances can be shared freely across threads.
    """

    __slots__ = ("algebra", "_terms")

    def __init__(self, algebra: Algebra, terms: dict):
        self.algebra = algebra
        self._terms = terms

    # -- inspection -----------------------------------------------------
    def items(self):
        return self._terms.items()

    def terms(self) -> dict:
        return dict(self._terms)

    def coefficient(self, word: Iterable[int]):
        return self._terms.get(tuple(word), self.algebra.ring.zero)

    def __len__(self):
        return len(self._terms)

    def is_zero(self) -> bool:
        return not any(self._terms.values())

    def grades(self) -> set:
        return {len(w) for w in self._terms}

    def is_even(self) -> bool:
        return all(len(w) % 2 == 0 for w in self._terms)

    def parity_parts(self):
        """(even, odd) decomposition."""
        ev, od = {}, {}
        for w, c in self._terms.items():
            (ev if len(w) % 2 == 0 else od)[w] = c
        return (GrassmannElement(self.algebra, ev),
                GrassmannElement(self.algebra, od))

    def homogeneous_parts(self):
        out: dict[int, dict] = {}
        for w, c in self._terms.items():
            out.setdefault(len(w), {})[w] = c
        return {p: GrassmannElement(self.algebra, d) for p, d in sorted(out.items())}

    def max_grade(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def max_abs(self) -> float:
        return max_abs(np.array(list(self._terms.values()), dtype=object))

    def truncate(self, max_grade: int) -> "GrassmannElement":
        return GrassmannElement(
            self.algebra,
            {w: c for w, c in self._terms.items() if len(w) <= max_grade})

    # -- linear structure -----------------------------------------------
    def _zip(self, other, sub=False):
        self.algebra.check_compatible(other.algebra)
        out = dict(self._terms)
        _add_terms(out, other._terms, sub)
        return GrassmannElement(self.algebra, out)

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self._zip(other)

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self._zip(other, sub=True)

    def __neg__(self):
        return GrassmannElement(self.algebra, {w: -c for w, c in self._terms.items()})

    def scale(self, c) -> "GrassmannElement":
        ring = self.algebra.ring
        c = ring.coerce(c)
        if not c:
            return self.algebra.zero()
        return GrassmannElement(self.algebra, {w: v * c for w, v in self._terms.items()})

    # -- graded structure -----------------------------------------------
    def wedge(self, other: "GrassmannElement") -> "GrassmannElement":
        self.algebra.check_compatible(other.algebra)
        raw = wedge_terms(self._terms, other._terms)
        return GrassmannElement(self.algebra, {w: c for w, c in raw.items() if c})

    def d(self, i: int) -> "GrassmannElement":
        """Left derivative by generator ordinal ``i`` (first-slot contraction)."""
        return GrassmannElement(self.algebra, contract(self._terms, i))

    def derivatives(self) -> dict[int, "GrassmannElement"]:
        """All nonzero left derivatives, computed in one pass."""
        buckets: dict[int, dict] = {}
        for w, c in self._terms.items():
            for k, g in enumerate(w):
                nw = w[:k] + w[k + 1:]
                cc = -c if k % 2 == 1 else c
                b = buckets.setdefault(g, {})
                b[nw] = b[nw] + cc if nw in b else cc
        out = {}
        for g, terms in buckets.items():
            terms = {w: c for w, c in terms.items() if c}
            if terms:
                out[g] = GrassmannElement(self.algebra, terms)
        return out

    # -- comparisons ------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        if not self.algebra.same_as(other.algebra):
            return False
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("GrassmannElement is unhashable")

    def __repr__(self):
        n = len(self._terms)
        return f"GrassmannElement({n} terms, grades={sorted(self.grades())})"


class Configuration(GrassmannElement):
    """Field configuration: dual coefficients on increasing words.

    Shares the sparse representation of :class:`GrassmannElement`; the
    grade decomposition u = ⊕_p u^(p) is finite by construction.
    """


def left_derivative(h, t: GrassmannElement) -> GrassmannElement:
    """Derivative of ``t`` along a grade-1 direction ``h``.

    ``h`` may be a grade-1 element/configuration or an ordinal->coefficient
    mapping; satisfies (d_h t)(u) = t(h ∧ u).
    """
    alg = t.algebra
    if isinstance(h, GrassmannElement):
        if not h.is_zero() and h.grades() != {1}:
            raise ValueError("direction must be grade-1")
        coeffs = {w[0]: c for w, c in h.items()}
    else:
        coeffs = {i: alg.ring.coerce(c) for i, c in dict(h).items()}
    return alg.sum(t.d(i).scale(c) for i, c in coeffs.items())


def evaluate(t: GrassmannElement, u: GrassmannElement):
    """Pairing ⟨T, u⟩ = Σ_p ⟨T_p, u^(p)⟩ as a sum over increasing words."""
    t.algebra.check_compatible(u.algebra)
    ring = t.algebra.ring
    acc = ring.zero
    tt, uu = t._terms, u._terms
    if len(tt) > len(uu):
        tt, uu = uu, tt
    for w, c in tt.items():
        cu = uu.get(w)
        if cu is not None:
            acc = acc + c * cu
    return acc


# -- seeded random inputs for property suites ---------------------------

def _random_coeff(alg: Algebra, rng: random.Random):
    if alg.ring.exact:
        num = rng.randint(-4, 4) or 1
        den = rng.randint(1, 3)
        num_i = rng.randint(-4, 4)
        return _qc(num, num_i, den)
    return complex(round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6))


def random_element(alg: Algebra, rng: random.Random, grade: int,
                   n_terms: int = 3, slots: Sequence[int] | None = None) -> GrassmannElement:
    """Seeded random homogeneous element of the given grade."""
    pool = list(slots) if slots is not None else list(range(alg.n))
    if grade > len(pool):
        raise ValueError("grade exceeds available generators")
    terms: dict = {}
    for _ in range(n_terms):
        w = tuple(sorted(rng.sample(pool, grade)))
        c = _random_coeff(alg, rng)
        terms[w] = terms.get(w, alg.ring.zero) + c
    return alg.element(terms)

