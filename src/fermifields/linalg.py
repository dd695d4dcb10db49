"""Small dense linear algebra over either scalar ring.

Float mode uses ``complex128`` ndarrays; rational mode uses object
ndarrays of :class:`~fermifields.scalars.QC`, exact complex rationals
stored as one-denominator integer triples.  Matrices here are tiny
(a few dozen rows), so generic Gauss-Jordan elimination is plenty.
"""

from __future__ import annotations

import numpy as np

from .scalars import Ring

__all__ = ["zeros", "eye", "kron2", "mat_inv", "max_abs", "transpose"]


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


def transpose(a: np.ndarray) -> np.ndarray:
    return a.T.copy()


def max_abs(a: np.ndarray) -> float:
    flat = a.ravel()
    if flat.size == 0:
        return 0.0
    return max(abs(complex(x)) for x in flat)


def mat_inv(a: np.ndarray, ring: Ring) -> np.ndarray:
    """Gauss-Jordan inverse with partial pivoting (exact in rational mode)."""
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
        for j in range(n):
            work[col][j] = work[col][j] / p
            inv[col][j] = inv[col][j] / p
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if not f:
                continue
            for j in range(n):
                work[r][j] = work[r][j] - f * work[col][j]
                inv[r][j] = inv[r][j] - f * inv[col][j]
    out = zeros((n, n), ring)
    for i in range(n):
        for j in range(n):
            out[i, j] = inv[i][j]
    return out
