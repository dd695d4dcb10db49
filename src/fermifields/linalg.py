"""Small dense linear algebra over either scalar ring.

Float mode uses ``complex128`` ndarrays and hands products and inverses
to numpy.  Rational mode uses object ndarrays of
:class:`~fermifields.scalars.QC`, exact complex rationals stored as
one-denominator integer triples, and runs its own loops that skip exact
zeros: :func:`matmul` sums only products of nonzero entries, and
:func:`mat_inv` eliminates only over the pivot row's nonzero columns.
The Dirac and Klein-Gordon blocks are mostly zero, so this is where the
exact time goes.  Exact sums of the same nonzero products normalise to
the same triples, so skipping zeros changes no result.  Matrices here
are tiny (a few dozen rows), so generic Gauss-Jordan elimination is
plenty.
"""

from __future__ import annotations

import numpy as np

from .scalars import Ring

__all__ = ["zeros", "eye", "kron2", "matmul", "mat_inv", "max_abs"]


def zeros(shape, ring: Ring) -> np.ndarray:
    if ring.exact:
        out = np.empty(shape, dtype=object)
        out[...] = ring.zero
        return out
    return np.zeros(shape, dtype=complex)


def eye(n: int, ring: Ring) -> np.ndarray:
    out = zeros((n, n), ring)
    for i in range(n):
        out[i, i] = ring.one
    return out


def kron2(a: np.ndarray, b: np.ndarray, ring: Ring) -> np.ndarray:
    """Kronecker product that stays inside the ring."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = zeros((ra * rb, ca * cb), ring)
    for i in range(ra):
        for j in range(ca):
            aij = a[i, j]
            if ring.is_zero(aij):
                continue
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = aij * b[k, l]
    return out


def matmul(a: np.ndarray, b: np.ndarray, ring: Ring) -> np.ndarray:
    """Matrix product ``a @ b``; exact mode sums only nonzero products."""
    if not ring.exact:
        return a @ b
    (n, k), (k2, m) = a.shape, b.shape
    if k != k2:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b.tolist()]
    zero = ring.zero
    out = zeros((n, m), ring)
    for i, a_row in enumerate(a.tolist()):
        acc = {}
        for x, b_row in zip(a_row, b_rows):
            if not x:
                continue
            for j, y in b_row:
                acc[j] = acc.get(j, zero) + x * y
        for j, v in acc.items():
            out[i, j] = v
    return out


def max_abs(a: np.ndarray) -> float:
    flat = a.ravel()
    if flat.size == 0:
        return 0.0
    return max(abs(complex(x)) for x in flat)


def mat_inv(a: np.ndarray, ring: Ring) -> np.ndarray:
    """Gauss-Jordan inverse with partial pivoting (exact in rational mode).

    In rational mode a row update touches only the pivot row's nonzero
    columns, counted separately for the eliminated matrix and the
    inverse being built."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not ring.exact:
        return np.linalg.inv(np.asarray(a, dtype=complex))
    work = [[a[i, j] for j in range(n)] for i in range(n)]
    inv = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise np.linalg.LinAlgError("singular matrix in rational inverse")
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        p = work[col][col]
        w_row, i_row = work[col], inv[col]
        w_nz = [j for j in range(n) if w_row[j]]
        i_nz = [j for j in range(n) if i_row[j]]
        for j in w_nz:
            w_row[j] = w_row[j] / p
        for j in i_nz:
            i_row[j] = i_row[j] / p
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if not f:
                continue
            w_r, i_r = work[r], inv[r]
            for j in w_nz:
                w_r[j] = w_r[j] - f * w_row[j]
            for j in i_nz:
                i_r[j] = i_r[j] - f * i_row[j]
    out = zeros((n, n), ring)
    for i in range(n):
        for j in range(n):
            out[i, j] = inv[i][j]
    return out
