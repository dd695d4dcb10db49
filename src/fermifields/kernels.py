"""Two-point kernels over generator slots.

:class:`Kernel` holds scalar-entry matrices (Green's functions, causal
propagator, free second derivatives).  :class:`ElementKernel` holds
sparse matrices with Grassmann-even element entries (interaction second
derivatives, interacting propagator corrections).
"""

from __future__ import annotations

import json

import numpy as np

from ._core import wedge_terms
from .algebra import Algebra, GrassmannElement, _add_terms
from .linalg import matmul, max_abs, ring_of
from .reports import write_csv

__all__ = ["Kernel", "ElementKernel"]


def _accumulate(acc: dict, key, terms: dict) -> None:
    """Add the term dict ``terms`` into entry ``key`` of ``acc`` in place.

    The first terms for a key are stored as they are (``acc`` takes the
    dict over); later ones are added as ``GrassmannElement.__add__`` adds.
    """
    cur = acc.get(key)
    if cur is None:
        acc[key] = terms
    else:
        _add_terms(cur, terms)


class Kernel:
    """Scalar two-point kernel: a dense matrix plus support metadata.

    ``kind`` is one of ``retarded | advanced | causal | dirac | symmetric
    | operator``;  ``times`` gives the time of each slot, row and column
    alike, so support conditions can be validated structurally.
    ``exact_rows`` records the equation rows on which a defining identity
    (for instance S2 @ kernel = Id) holds exactly; rows whose difference
    stencil crosses the temporal boundary are excluded.  ``ring`` is read
    from the matrix (:func:`~fermifields.linalg.ring_of`).
    """

    def __init__(self, mat: np.ndarray, kind: str = "operator",
                 times: np.ndarray | None = None,
                 exact_rows: np.ndarray | None = None):
        self.mat = mat
        self.ring = ring_of(mat)
        self.kind = kind
        self.times = times
        self.exact_rows = exact_rows
        # the memoised solve ``lattice.dirac_green`` read ``mat`` from
        self._solve = None

    @property
    def shape(self):
        return self.mat.shape

    def copy_with(self, mat, kind=None) -> "Kernel":
        return Kernel(mat, kind or self.kind, self.times, self.exact_rows)

    # -- checks ------------------------------------------------------------
    def support_violation(self) -> float:
        """Largest |entry| outside the kernel's causal support (0 if clean)."""
        t = self.times
        if t is None or self.kind not in ("retarded", "advanced"):
            return 0.0
        early = t[:, None] < t[None, :]     # the row's time is the earlier
        return max_abs(self.mat[early if self.kind == "retarded" else early.T])

    def max_abs(self) -> float:
        return max_abs(self.mat)

    def identity_defect(self, op: np.ndarray) -> float:
        """max |(op @ kernel)[i, j] - δ_ij| over ``exact_rows`` (all rows
        when None), e.g. ``op`` = S2; δ is subtracted in the kernel's ring,
        so in rational mode the defect is exact until ``max_abs`` reads it."""
        res = matmul(op, self.mat)
        np.fill_diagonal(res, res.diagonal() - self.ring.one)
        return max_abs(res if self.exact_rows is None else res[self.exact_rows])

    # -- export ------------------------------------------------------------
    def _nonzeros(self) -> list:
        """(row, col, re, im) of each nonzero entry read as a complex
        float, in row-major order."""
        c = self.mat.astype(complex)
        rows, cols = np.nonzero(c)
        v = c[rows, cols]
        return list(zip(rows.tolist(), cols.tolist(), v.real.tolist(),
                        v.imag.tolist()))

    def to_csv(self, path) -> None:
        write_csv(path, ["row", "col", "re", "im"],
                  ([i, j, repr(re), repr(im)] for i, j, re, im in self._nonzeros()))

    def to_json(self, path) -> None:
        payload = {"kind": self.kind, "shape": list(self.mat.shape),
                   "entries": self._nonzeros()}
        # one string, so the C encoder runs; json.dump to a file never uses it
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")

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
        """Every entry, moved from (i, j) to (j, i), in its order."""
        out = ElementKernel(self.algebra, self.n)
        out.entries = {(j, i): e for (i, j), e in self.entries.items()}
        return out

    # -- compositions -------------------------------------------------------
    # Each composition forms its entry products in the order of
    # ``self.entries`` and adds each through ``_accumulate``: the sums ``+``
    # would form, in the same order.  Entries become elements at the end.

    def _from_terms(self, acc: dict) -> "ElementKernel":
        """Wrap nonempty term dicts as entries.  Products and sums of even
        entries are even, so the constructor's evenness scan is skipped."""
        alg = self.algebra
        out = ElementKernel(alg, self.n)
        out.entries = {key: GrassmannElement(alg, t) for key, t in acc.items() if t}
        return out

    def compose_scalar_left(self, mat: np.ndarray) -> "ElementKernel":
        """mat @ self: the sum of ``mat[i, k]·self[k, j]``.  Each column of
        ``mat`` is read once per call; a scalar is zero when it is falsy."""
        coerce = self.algebra.ring.coerce
        cols: dict[int, list] = {}
        acc: dict[tuple[int, int], dict] = {}
        for (k, j), e in self.entries.items():
            col = cols.get(k)
            if col is None:
                col = cols[k] = [(i, coerce(mat[i, k])) for i in range(self.n)
                                 if mat[i, k]]
            terms = e._terms
            for i, c in col:
                _accumulate(acc, (i, j), {w: v * c for w, v in terms.items()})
        return self._from_terms(acc)

    def compose_scalar_right(self, mat: np.ndarray) -> "ElementKernel":
        """self @ mat = (matᵀ @ selfᵀ)ᵀ: even entries commute with scalars."""
        return self.transpose().compose_scalar_left(mat.T).transpose()

    def compose(self, other: "ElementKernel") -> "ElementKernel":
        """self @ other with wedge-multiplied entries (even entries commute)."""
        self.algebra.check_compatible(other.algebra)
        by_row: dict[int, list] = {}
        for (k, j), f in other.entries.items():
            by_row.setdefault(k, []).append((j, f._terms))
        acc: dict[tuple[int, int], dict] = {}
        for (i, k), e in self.entries.items():
            ta = e._terms
            for j, tb in by_row.get(k, ()):
                # exact zeros dropped, as GrassmannElement.wedge drops them
                prod = {w: c for w, c in wedge_terms(ta, tb).items() if c}
                if prod:
                    _accumulate(acc, (i, j), prod)
        return self._from_terms(acc)

    def max_abs(self) -> float:
        return max_abs(np.array([e.max_abs() for e in self.entries.values()]))

    def grades(self) -> set:
        gs: set = set()
        for e in self.entries.values():
            gs |= e.grades()
        return gs

    def __repr__(self):
        return f"ElementKernel(n={self.n}, nnz={len(self.entries)}, grades={sorted(self.grades())})"
