"""Two-point kernels over generator slots.

:class:`Kernel` holds scalar-entry matrices (Green's functions, causal
propagator, free second derivatives).  :class:`ElementKernel` holds
sparse matrices with Grassmann-even element entries (interaction second
derivatives, interacting propagator corrections).
"""

from __future__ import annotations

import csv
import json

import numpy as np

from ._core import wedge_terms
from .algebra import Algebra, GrassmannElement, _add_terms
from .linalg import matmul, max_abs
from .scalars import Ring

__all__ = ["Kernel", "ElementKernel"]


def _accumulate(acc: dict, key, terms: dict, ring: Ring) -> None:
    """Add the term dict ``terms`` into entry ``key`` of ``acc`` in place.

    The first terms for a key are stored as they are (``acc`` takes the
    dict over); later ones are added as ``GrassmannElement.__add__`` adds.
    """
    cur = acc.get(key)
    if cur is None:
        acc[key] = terms
    else:
        _add_terms(cur, terms, ring)


class Kernel:
    """Scalar two-point kernel: a dense matrix plus support metadata.

    ``kind`` is one of ``retarded | advanced | causal | dirac | symmetric
    | operator``;  ``row_times``/``col_times`` give the time coordinate of
    each slot so support conditions can be validated structurally.
    ``exact_rows`` records the equation rows on which a defining identity
    (for instance S2 @ kernel = Id) holds exactly; rows whose difference
    stencil crosses the temporal boundary are excluded.
    """

    def __init__(self, mat: np.ndarray, ring: Ring, kind: str = "operator",
                 row_times: np.ndarray | None = None,
                 col_times: np.ndarray | None = None,
                 exact_rows: np.ndarray | None = None):
        self.mat = mat
        self.ring = ring
        self.kind = kind
        self.row_times = row_times
        self.col_times = col_times
        self.exact_rows = exact_rows

    @property
    def shape(self):
        return self.mat.shape

    def copy_with(self, mat, kind=None) -> "Kernel":
        return Kernel(mat, self.ring, kind or self.kind,
                      self.row_times, self.col_times, self.exact_rows)

    # -- algebra ---------------------------------------------------------
    def __sub__(self, other: "Kernel") -> "Kernel":
        if self.mat.shape != other.mat.shape:
            raise ValueError("kernel shape mismatch")
        return self.copy_with(self.mat - other.mat, kind="causal"
                              if {self.kind, other.kind} == {"retarded", "advanced"}
                              else self.kind)

    # -- checks ------------------------------------------------------------
    def support_violation(self) -> float:
        """Largest |entry| outside the kernel's causal support (0 if clean)."""
        if self.row_times is None or self.col_times is None:
            return 0.0
        if self.kind == "retarded":
            bad = self.row_times[:, None] < self.col_times[None, :]
        elif self.kind == "advanced":
            bad = self.row_times[:, None] > self.col_times[None, :]
        else:
            return 0.0
        worst = 0.0
        rows, cols = np.nonzero(bad)
        for i, j in zip(rows, cols):
            worst = max(worst, abs(complex(self.mat[i, j])))
        return worst

    def max_abs(self) -> float:
        return max_abs(self.mat)

    def identity_defect(self, op: np.ndarray) -> float:
        """max |(op @ kernel)[i, j] - δ_ij| over ``exact_rows`` (all rows
        when None), e.g. ``op`` = S2; ``abs(complex(x) - δ_ij)`` keeps the
        float bits of each product entry."""
        prod = matmul(op, self.mat, self.ring)
        rows = self.exact_rows
        worst = 0.0
        for i in range(prod.shape[0]):
            if rows is not None and not rows[i]:
                continue
            row = prod[i]
            for j in range(prod.shape[1]):
                worst = max(worst, abs(complex(row[j]) - (1 if i == j else 0)))
        return worst

    # -- export ------------------------------------------------------------
    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "re", "im"])
            n, m = self.mat.shape
            for i in range(n):
                for j in range(m):
                    c = complex(self.mat[i, j])
                    if c != 0:
                        writer.writerow([i, j, repr(c.real), repr(c.imag)])

    def to_json(self, path) -> None:
        n, m = self.mat.shape
        entries = []
        for i in range(n):
            for j in range(m):
                c = complex(self.mat[i, j])
                if c != 0:
                    entries.append([i, j, c.real, c.imag])
        payload = {"kind": self.kind, "shape": [n, m], "entries": entries}
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")

    def __repr__(self):
        return f"Kernel({self.kind}, shape={self.mat.shape})"


class ElementKernel:
    """Sparse two-point kernel with Grassmann-even element entries."""

    def __init__(self, algebra: Algebra, n: int,
                 entries: dict[tuple[int, int], GrassmannElement] | None = None):
        self.algebra = algebra
        self.n = n
        self.entries: dict[tuple[int, int], GrassmannElement] = {}
        if entries:
            for key, e in entries.items():
                if not e.is_zero():
                    if not e.is_even():
                        raise ValueError("kernel entries must be Grassmann-even")
                    self.entries[key] = e

    def get(self, i: int, j: int) -> GrassmannElement:
        e = self.entries.get((i, j))
        return e if e is not None else self.algebra.zero()

    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, c) -> "ElementKernel":
        return ElementKernel(self.algebra, self.n,
                             {k: e.scale(c) for k, e in self.entries.items()})

    def __add__(self, other: "ElementKernel") -> "ElementKernel":
        out = dict(self.entries)
        for k, e in other.entries.items():
            out[k] = out[k] + e if k in out else e
        return ElementKernel(self.algebra, self.n, out)

    def __neg__(self) -> "ElementKernel":
        return self.scale(-1)

    def restrict_rows(self, keep) -> "ElementKernel":
        """The entries in rows ``i`` with ``keep[i]`` true, in their order."""
        out = ElementKernel(self.algebra, self.n)
        out.entries = {key: e for key, e in self.entries.items() if keep[key[0]]}
        return out

    def transpose(self) -> "ElementKernel":
        return ElementKernel(self.algebra, self.n,
                             {(j, i): e for (i, j), e in self.entries.items()})

    # -- compositions -------------------------------------------------------
    # Each composition builds every output entry as one term dict that its
    # products are added into in place, with the sums ``+`` would form, in
    # the same order; entries become elements once, at the end.

    def _from_terms(self, acc: dict) -> "ElementKernel":
        """Wrap nonempty term dicts as entries.  Products and sums of even
        entries are even, so the constructor's evenness scan is skipped."""
        alg = self.algebra
        out = ElementKernel(alg, self.n)
        out.entries = {key: GrassmannElement(alg, t) for key, t in acc.items() if t}
        return out

    def compose_scalar_left(self, mat: np.ndarray) -> "ElementKernel":
        """mat @ self, entrywise scalar-times-element, accumulated in place."""
        return self._compose_scalar(mat, left=True)

    def compose_scalar_right(self, mat: np.ndarray) -> "ElementKernel":
        """self @ mat, entrywise element-times-scalar, accumulated in place."""
        return self._compose_scalar(mat, left=False)

    def _compose_scalar(self, mat: np.ndarray, left: bool) -> "ElementKernel":
        """Sum of ``mat[i, k]·self[k, j]`` (``left``) or ``self[i, k]·mat[k, j]``.

        The nonzero coerced scalars of each column (row) of ``mat`` are
        listed once per call.  The first product for an output entry is
        stored as its scaled dict; later ones are added word by word as
        ``out.get(w, zero) + v*c``, and exact zeros are popped.  Here and
        in :meth:`compose` a scalar is zero when it is falsy, as in
        ``Ring.is_zero``.
        """
        ring = self.algebra.ring
        zero, coerce = ring.zero, ring.coerce
        n = self.n
        lines: dict[int, list] = {}
        acc: dict[tuple[int, int], dict] = {}
        for (a, b), e in self.entries.items():
            k = a if left else b
            line = lines.get(k)
            if line is None:
                vec = mat[:, k] if left else mat[k, :]
                line = lines[k] = [(x, coerce(vec[x])) for x in range(n)
                                   if vec[x]]
            terms = e._terms
            for x, c in line:
                key = (x, b) if left else (a, x)
                out = acc.get(key)
                if out is None:
                    acc[key] = {w: v * c for w, v in terms.items()}
                    continue
                for w, v in terms.items():
                    s = out.get(w, zero) + v * c
                    if s:
                        out[w] = s
                    else:
                        out.pop(w, None)
        return self._from_terms(acc)

    def compose(self, other: "ElementKernel") -> "ElementKernel":
        """self @ other with wedge-multiplied entries (even entries commute).

        Entry products are accumulated in place.  Word merges are memoised
        in one dict shared by every entry product of this call, and freed
        when it returns.
        """
        self.algebra.check_compatible(other.algebra)
        ring = self.algebra.ring
        by_row: dict[int, list] = {}
        for (k, j), f in other.entries.items():
            by_row.setdefault(k, []).append((j, f._terms))
        acc: dict[tuple[int, int], dict] = {}
        merges: dict = {}
        for (i, k), e in self.entries.items():
            ta = e._terms
            for j, tb in by_row.get(k, ()):
                # exact zeros dropped, as GrassmannElement.wedge drops them
                prod = {w: c for w, c in wedge_terms(ta, tb, merges).items()
                        if c}
                if prod:
                    _accumulate(acc, (i, j), prod, ring)
        return self._from_terms(acc)

    def max_abs(self) -> float:
        return max((e.max_abs() for e in self.entries.values()), default=0.0)

    def grades(self) -> set:
        gs: set = set()
        for e in self.entries.values():
            gs |= e.grades()
        return gs

    def __repr__(self):
        return f"ElementKernel(n={self.n}, nnz={len(self.entries)}, grades={sorted(self.grades())})"
