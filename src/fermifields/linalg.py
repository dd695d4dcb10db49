"""Small dense linear algebra over either scalar ring.

An array's dtype names its arithmetic, and :func:`ring_of` reads it: the
functions that take an existing array take no ``Ring``, which is passed
only where a value is created (:func:`zeros`, :func:`eye`).  Float mode
uses ``complex128`` ndarrays and hands products and inverses to numpy.
Rational mode uses object ndarrays.  Their empty slots hold
the int 0 that ``np.zeros(..., dtype=object)`` gives, and the slots that
were written hold :class:`~fermifields.scalars.QC`, exact complex
rationals stored as one-denominator integer triples.  ``QC`` arithmetic
takes an int 0 operand as an exact zero, and numpy tests its truth
without a Python call.  A sum that cancels is the normalised ``QC``
zero.  An exact array is read as floats by ``astype(complex)``, which
rounds each entry as ``complex(x)`` does.

Rational :func:`matmul` sums only products of nonzero entries: the
Dirac and Klein-Gordon blocks are mostly zero, and exact sums of the
same nonzero products normalise to the same triples, so skipping zeros
changes no result.

The Green's solves step :class:`_ExactBlock` values: one block's
entries as Gaussian-integer numerators, two object arrays of Python
ints, over one common denominator.  A product is four integer array
products and one ``gcd`` over the whole block, where the same product
of ``QC`` entries takes a ``gcd`` per multiply and per add.  Exact
:func:`mat_inv` is fraction-free Gauss-Jordan on those integer rows,
one ``gcd`` per row update.  :func:`_block` lifts a ring array into the
type the solves step (a float array stays as it is) and
:func:`_ring_array` turns it back: a ``QC`` where a numerator is
nonzero, the int 0 in every other slot, sums that cancel included.
"""

from __future__ import annotations

from math import gcd, lcm, ulp

import numpy as np

from .scalars import QC, Ring, _qc

__all__ = ["ring_of", "zeros", "eye", "kron2", "matmul", "mat_inv", "max_abs"]

_RATIONAL, _FLOAT = Ring("rational"), Ring("float")


def ring_of(a: np.ndarray) -> Ring:
    """The ring of an existing array: rational for an object array,
    float for any other."""
    return _RATIONAL if a.dtype == object else _FLOAT


def zeros(shape, ring: Ring) -> np.ndarray:
    return np.zeros(shape, dtype=object if ring.exact else complex)


def eye(n: int, ring: Ring) -> np.ndarray:
    out = zeros((n, n), ring)
    for i in range(n):
        out[i, i] = ring.one
    return out


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product that stays inside the ring.

    Zero entries of ``a`` are skipped rather than multiplied, as
    ``np.kron`` would: a float product with a zero can turn a +0 part into
    the −0.0 that ``repr`` writes."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = zeros((ra * rb, ca * cb), ring_of(a))
    for i in range(ra):
        for j in range(ca):
            aij = a[i, j]
            if not aij:
                continue
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = aij * b[k, l]
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b``; exact mode sums only nonzero products."""
    if not ring_of(a).exact:
        return a @ b
    (n, k), (k2, m) = a.shape, b.shape
    if k != k2:
        raise ValueError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b.tolist()]
    out = zeros((n, m), _RATIONAL)
    for i, a_row in enumerate(a.tolist()):
        acc = {}
        for x, b_row in zip(a_row, b_rows):
            if not x:
                continue
            for j, y in b_row:
                acc[j] = acc.get(j, 0) + x * y
        for j, v in acc.items():
            out[i, j] = v
    return out


def max_abs(a: np.ndarray) -> float:
    """max |x| over the nonzeros of a ring array, read as complex floats:
    0.0 only if there are none, ``math.ulp(0.0)`` if all round to 0.0 (as
    only exact ones can), NaN if a modulus is NaN.  Each modulus is the
    ``hypot`` of the parts, which rounds as ``abs(complex(x))`` does;
    numpy's complex ``abs`` does not."""
    c = a[a.astype(bool)].astype(complex)
    worst = float(np.hypot(c.real, c.imag).max(initial=0.0))
    return ulp(0.0) if worst == 0.0 and c.size else worst


def mat_inv(a):
    """Inverse of a square ring array or :class:`_ExactBlock`, as the
    same kind of value.  Float mode calls ``np.linalg.inv`` (LU with
    partial pivoting).  Exact mode is fraction-free Gauss-Jordan on the
    Gaussian-integer rows of ``[N | I]``, N the block's numerators.  Its
    pivot is a column's first nonzero, made a real c by its conjugate; a
    row whose entry f there is nonzero becomes c·row − f·pivot row over
    the gcd of its parts.  The diagonal is divided out once at the end."""
    if a.shape != (a.shape[0],) * 2:
        raise ValueError("matrix must be square")
    if isinstance(a, _ExactBlock):
        return _exact_inv(a)
    if not ring_of(a).exact:
        return np.linalg.inv(np.asarray(a, dtype=complex))
    return _exact_inv(_ExactBlock.of(a)).ring_array()


def _exact_inv(b: "_ExactBlock") -> "_ExactBlock":
    n = b.re.shape[0]
    R = [row + [int(i == j) for j in range(n)]
         for i, row in enumerate(b.re.tolist())]
    I = [row + [0] * n for row in b.im.tolist()]
    for col in range(n):
        piv = next((r for r in range(col, n) if R[r][col] or I[r][col]), None)
        if piv is None:
            raise np.linalg.LinAlgError("singular matrix in exact inverse")
        R[col], R[piv], I[col], I[piv] = R[piv], R[col], I[piv], I[col]
        pr, pi = R[col], I[col]
        cr, ci = pr[col], pi[col]
        if ci:  # times conj(c), so that the pivot c is the real |c|²
            R[col], I[col] = pr, pi = ([cr * x + ci * y for x, y in zip(pr, pi)],
                                       [cr * y - ci * x for x, y in zip(pr, pi)])
        c = pr[col]
        nz = [j for j in range(2 * n) if pr[j] or pi[j]]
        for r in range(n):
            fr, fi = R[r][col], I[r][col]
            if r == col or not (fr or fi):
                continue
            nr, ni = [c * x for x in R[r]], [c * y for y in I[r]]
            for j in nz:
                p, q = pr[j], pi[j]
                nr[j] -= fr * p - fi * q
                ni[j] -= fr * q + fi * p
            # [N | I] keeps full rank, so no row becomes 0 and g > 0
            g = gcd(*nr, *ni)
            R[r], I[r] = [x // g for x in nr], [y // g for y in ni]
    # row i of den·N⁻¹ is den·(its right half)/d_i, d_i real
    R, I = np.array(R, dtype=object), np.array(I, dtype=object)
    d = R.diagonal()[:, None]
    den = lcm(*d.ravel().tolist())
    s = b.den * (den // d)
    return _normal(s * R[:, n:], s * I[:, n:], den)


class _ExactBlock:
    """Exact complex block ``(re + i·im)/den``: ``re`` and ``im`` are
    object arrays of Python ints and ``den`` a positive int, with no
    factor common to ``den`` and every numerator.

    It has the operations the exact forward solves use: ``@``, ``+``,
    unary ``-`` and ``*`` by a ``QC``.  Each result but a negation
    is normalised by one ``gcd`` over the whole block."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re: np.ndarray, im: np.ndarray, den: int):
        self.re, self.im, self.den = re, im, den

    shape = property(lambda self: self.re.shape)

    @classmethod
    def of(cls, a: np.ndarray) -> "_ExactBlock":
        """The block of an exact ring array (``QC`` entries, int 0 in
        empty slots) over the lcm of its entries' denominators."""
        abd = [x._abd if type(x) is QC else (0, 0, 1) for x in a.ravel().tolist()]
        # one quotient per distinct denominator: there are few
        scale = dict.fromkeys(d for _, _, d in abd)
        den = lcm(*scale)
        scale = {d: den // d for d in scale}
        re = np.empty(len(abd), dtype=object)
        im = np.empty(len(abd), dtype=object)
        re[:] = [p * scale[d] for p, _, d in abd]
        im[:] = [q * scale[d] for _, q, d in abd]
        return cls(re.reshape(a.shape), im.reshape(a.shape), den)

    def ring_array(self) -> np.ndarray:
        """The ring array of this block: a ``QC`` where a numerator is
        nonzero and the int 0 everywhere else."""
        d = self.den
        out = np.empty(self.re.size, dtype=object)
        out[:] = [_qc(p, q, d) if p or q else 0
                  for p, q in zip(self.re.ravel().tolist(),
                                  self.im.ravel().tolist())]
        return out.reshape(self.re.shape)

    def __matmul__(self, other: "_ExactBlock") -> "_ExactBlock":
        a, b, c, e = self.re, self.im, other.re, other.im
        return _normal(a @ c - b @ e, a @ e + b @ c, self.den * other.den)

    def __add__(self, other: "_ExactBlock") -> "_ExactBlock":
        d, f = self.den, other.den
        den = lcm(d, f)
        u, v = den // d, den // f
        return _normal(self.re * u + other.re * v, self.im * u + other.im * v,
                       den)

    def __neg__(self) -> "_ExactBlock":
        return _ExactBlock(-self.re, -self.im, self.den)

    def __mul__(self, x: QC) -> "_ExactBlock":
        c, e, f = x._abd
        a, b = self.re, self.im
        return _normal(a * c - b * e, a * e + b * c, self.den * f)


def _normal(re: np.ndarray, im: np.ndarray, den: int) -> _ExactBlock:
    g = gcd(den, *re.ravel().tolist(), *im.ravel().tolist())
    if g != 1:
        re, im, den = re // g, im // g, den // g
    return _ExactBlock(re, im, den)


def _block(a: np.ndarray):
    """``a`` as the forward solves step it: an :class:`_ExactBlock` in
    rational mode, the complex array itself in float mode."""
    return _ExactBlock.of(a) if ring_of(a).exact else a


def _ring_array(b) -> np.ndarray:
    """Inverse of :func:`_block`."""
    return b.ring_array() if isinstance(b, _ExactBlock) else b
