"""Finite 1+1-dimensional lattice spacetime and free fermion kernels.

The discrete d'Alembertian is defined by exact factorization,
``Box = T^2 - X^2`` with ``T`` the one-sided backward time difference and
``X`` the central (periodic) space difference, so that the two-component
Dirac matrices built from it satisfy ``D D* = D* D = Box + m^2`` as exact
matrix identities.  Retarded kernels come from forward time-stepping and
are block-lower-triangular in time (structural support); advanced
kernels are argument-swapped sign-flipped transposes.

The free operators are the same at every time step, so their kernels
are block-Toeplitz in time: block (t, s) depends on t - s alone.  The
solves step only the source-0 column forward and fill every other
column as a shift of it.  A bilinear matrix whose time blocks differ
(a time-varying cutoff) still runs the full substitution, one source
time at a time.

One solve loop serves both arithmetic modes.  Float mode steps complex
blocks with numpy's ``@``.  Rational mode steps the same loop on
Gaussian-integer numerators over one denominator per block
(``linalg._ExactBlock``), with one ``gcd`` per block operation; each
kernel block is turned back into ``QC`` entries once, and its empty
and cancelled slots hold the int 0.

On a finite time range the defining identity ``S2 @ kernel = Id`` can
only hold on equation rows whose stencil stays inside the lattice; each
kernel records that row set (``exact_rows``) and tests pin it.

The free Dirac solve is memoised per :class:`FieldLattice` and mass:
``dirac_green`` runs the forward substitution once for each (lattice,
mass) pair and keeps one record of read-only retarded, advanced and
causal matrices.  The advanced matrix is the signed transpose of the
retarded one, and the causal matrix their difference; both are built
on first request, in rational mode by tiling the solve's lag blocks.
``causal_propagator`` hands out the record's causal matrix for that
record's own retarded and advanced kernels, and subtracts any other
pair.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import CONJUGATE, FIELD, Algebra, GeneratorId
from .kernels import Kernel
from .linalg import (_block, _ring_array, eye, kron2, mat_inv, matmul, max_abs,
                     ring_of, zeros)
from .scalars import Ring

__all__ = [
    "CausalityError", "Lattice", "FieldLattice", "DiracOperator",
    "kg_green", "dirac_green", "green_from_bilinear", "dirac_matrix",
    "causal_propagator", "free_second_derivative",
]


class CausalityError(ValueError):
    """Raised when dt > dx breaks the explicit-scheme causality condition."""


class Lattice:
    """Finite spacetime grid: nt time steps, nx periodic spatial sites."""

    def __init__(self, nt: int, nx: int, dt=1, dx=1):
        if nt < 2:
            raise ValueError("nt must be >= 2")
        if nx < 1:
            raise ValueError("nx must be >= 1")
        for name, h in (("dt", dt), ("dx", dx)):
            if not 0 < h:
                raise ValueError(f"{name} must be positive, got {h}")
        if dt > dx:
            raise CausalityError(
                f"dt={dt} > dx={dx} violates the explicit-scheme causality condition")
        self.nt = int(nt)
        self.nx = int(nx)
        self.dt = dt
        self.dx = dx

    @property
    def n_sites(self) -> int:
        return self.nt * self.nx

    def site(self, t: int, x: int) -> int:
        return t * self.nx + (x % self.nx)

    def site_time(self, s: int) -> int:
        return s // self.nx

    def site_times(self) -> np.ndarray:
        return np.repeat(np.arange(self.nt), self.nx)

    def volume_weight(self):
        return self.dt * self.dx

    def __repr__(self):
        return f"Lattice(nt={self.nt}, nx={self.nx}, dt={self.dt}, dx={self.dx})"


NCOMP = 2  # two-component spinors in 1+1 dimensions


class FieldLattice:
    """Lattice plus the generator algebra for N-color fermion fields.

    Slot order is the lexicographic generator order (species, color,
    site, component): the field block precedes the conjugate block.
    """

    def __init__(self, lattice: Lattice, ncolors: int = 1, mode: str = "float"):
        if ncolors < 1:
            raise ValueError("ncolors must be >= 1")
        self.lattice = lattice
        self.ncolors = ncolors
        gens = [GeneratorId(species, color, site, comp)
                for species in (FIELD, CONJUGATE)
                for color in range(1, ncolors + 1)
                for site in range(lattice.n_sites)
                for comp in range(NCOMP)]
        self.algebra = Algebra(gens, mode=mode)
        ns = lattice.n_sites
        self.block = ns * NCOMP            # one (species, color) block
        self.n_slots = 2 * ncolors * self.block
        self.slot_times = np.array(
            [lattice.site_time(g.site) for g in self.algebra.generators])
        self.slot_species = np.array([g.species for g in self.algebra.generators])
        # coerced mass -> _DiracSolve (read-only species-block matrices)
        self._dirac_solves: dict = {}

    @property
    def ring(self) -> Ring:
        return self.algebra.ring

    def slot(self, species: int, color: int, site: int, comp: int) -> int:
        return (((species * self.ncolors) + (color - 1)) * self.lattice.n_sites
                + site) * NCOMP + comp

    def species_slots(self, species: int, color: int | None = None) -> range | list:
        if color is not None:
            start = self.slot(species, color, 0, 0)
            return range(start, start + self.block)
        return [i for c in range(1, self.ncolors + 1)
                for i in self.species_slots(species, c)]

    def interior_slots(self) -> list:
        """Slots whose time keeps clear of both temporal boundaries.

        Test configurations supported here play the role of compactly
        supported test sections: every kernel identity is exact on them.
        """
        nt = self.lattice.nt
        return [i for i in range(self.n_slots)
                if 1 <= self.slot_times[i] <= nt - 2]

    def window_weights(self, lo: int, hi: int):
        """Site weight vector: 1 on times lo..hi inclusive, else 0."""
        ring = self.ring
        return [ring.one if lo <= self.lattice.site_time(s) <= hi else ring.zero
                for s in range(self.lattice.n_sites)]

    def ones_weights(self):
        return [self.ring.one] * self.lattice.n_sites

    def __repr__(self):
        return (f"FieldLattice({self.lattice!r}, ncolors={self.ncolors}, "
                f"mode={self.ring.mode})")


# -- site-level difference operators -------------------------------------

def time_backward(lattice: Lattice, ring: Ring) -> np.ndarray:
    """One-sided backward time difference on sites (zero past padding)."""
    nx = lattice.nx
    step = eye(nx, ring) * (ring.one / ring.coerce(lattice.dt))
    # 0 − step, not −step: off the diagonal a float zero stays +0
    return _bidiagonal(step, zeros((nx, nx), ring) - step, lattice.nt)


def space_central(lattice: Lattice, ring: Ring) -> np.ndarray:
    """Central spatial difference with periodic boundary."""
    nx = lattice.nx
    return _bidiagonal(_space_block(lattice, ring), zeros((nx, nx), ring),
                       lattice.nt)


def gamma_matrices(ring: Ring):
    """Real 1+1D gamma matrices: g0 symmetric, g1 antisymmetric."""
    g0 = zeros((2, 2), ring)
    g0[0, 1] = ring.one
    g0[1, 0] = ring.one
    g1 = zeros((2, 2), ring)
    g1[0, 1] = ring.one
    g1[1, 0] = -ring.one
    return g0, g1


class DiracOperator:
    """Discrete Dirac matrices with the exact factorization identity.

    ``D = i g0 T + i g1 X - m`` on (site x component) slots, with the
    conjugate-side operator ``Dstar = -(i g0 T + i g1 X + m)`` so that
    ``D @ Dstar = Dstar @ D = Box + m^2`` holds exactly, where
    ``Box = T @ T - X @ X``.  ``D`` and ``Dstar`` share the time blocks of
    ``dirac_matrix``; ``box_plus_m2()`` builds the dense reference.
    """

    def __init__(self, lattice: Lattice, m, ring: Ring):
        self.lattice = lattice
        self.ring = ring
        self.m = m
        m_c = ring.coerce(m)
        diag, sub = _dirac_blocks(lattice, m, ring)
        nt = lattice.nt
        self.D = _bidiagonal(diag, sub, nt)
        ident = eye(diag.shape[0], ring)
        self.Dstar = _bidiagonal(-(diag + ident * (2 * m_c)), -sub, nt)
        self.mass_sq = m_c * m_c

    @property
    def box_site(self) -> np.ndarray:
        ring = self.ring
        T = time_backward(self.lattice, ring)
        X = space_central(self.lattice, ring)
        return matmul(T, T) - matmul(X, X)

    def box_plus_m2(self) -> np.ndarray:
        box = kron2(self.box_site, eye(NCOMP, self.ring))
        return box + eye(box.shape[0], self.ring) * self.mass_sq

    def factorization_defect(self) -> float:
        """max |DD* - (Box+m^2)| and |D*D - (Box+m^2)| entries."""
        target = self.box_plus_m2()
        return max(max_abs(matmul(self.D, self.Dstar) - target),
                   max_abs(matmul(self.Dstar, self.D) - target))


# -- Green's functions ----------------------------------------------------

def kg_green(lattice: Lattice, m, kind: str, ring: Ring) -> Kernel:
    """Green's function of the discrete Box + m^2 on sites.

    Retarded: forward time-stepping with vanishing past, normalized so
    that (Box + m^2) @ G = Id / (dt*dx); support is structurally
    t_row >= t_col.  Advanced: transpose of the retarded kernel.

    Box + m^2 is the same at every time step, so the kernel is
    block-Toeplitz in time: only the source-0 column is stepped forward,
    and block (t, s) is its block t - s.
    """
    _check_kind(kind)
    nt, nx, ns = lattice.nt, lattice.nx, lattice.n_sites
    Xs = _space_block(lattice, ring)
    inv_dt2 = ring.one / ring.coerce(lattice.dt ** 2)
    m_c = ring.coerce(m)
    A0 = eye(nx, ring) * (inv_dt2 + m_c * m_c) - matmul(Xs, Xs)
    A0_inv = _block(mat_inv(A0))
    inv_vol = ring.one / ring.coerce(lattice.volume_weight())
    # chain[d]: block (s + d, s) for every source time s
    chain = [A0_inv * inv_vol]
    for d in range(1, nt):
        rhs = chain[d - 1] * (-2 * inv_dt2)
        if d >= 2:
            rhs = rhs + chain[d - 2] * inv_dt2
        chain.append(-(A0_inv @ rhs))
    chain = [_ring_array(c) for c in chain]
    G = zeros((ns, ns), ring)
    for t in range(nt):
        for s in range(t + 1):
            G[t * nx:(t + 1) * nx, s * nx:(s + 1) * nx] = chain[t - s]
    times = lattice.site_times()
    if kind == "advanced":
        return Kernel(G.T.copy(), "advanced", times)
    return Kernel(G, "retarded", times, exact_rows=np.ones(ns, dtype=bool))


def _space_block(lattice: Lattice, ring: Ring) -> np.ndarray:
    nx = lattice.nx
    out = zeros((nx, nx), ring)
    half = ring.one / ring.coerce(2 * lattice.dx)
    for x in range(nx):
        out[x, (x + 1) % nx] = out[x, (x + 1) % nx] + half
        out[x, (x - 1) % nx] = out[x, (x - 1) % nx] - half
    return out


def _dirac_blocks(lattice: Lattice, m, ring: Ring):
    """Diagonal and subdiagonal time blocks of D = i g0 T + i g1 X - m.

    The one place the Dirac stencil is written: block (t, t) is
    ``i g0/dt + i g1 X - m`` and block (t, t-1) is ``-i g0/dt``, over
    (space x component) slots of one time slice.
    """
    nx = lattice.nx
    g0, g1 = gamma_matrices(ring)
    i_ = ring.i
    inv_dt = ring.one / ring.coerce(lattice.dt)
    kin = (kron2(eye(nx, ring) * inv_dt, g0)
           + kron2(_space_block(lattice, ring), g1))
    diag = kin * i_ - eye(nx * NCOMP, ring) * ring.coerce(m)
    sub = kron2(eye(nx, ring) * (-inv_dt), g0) * i_
    return diag, sub


def _bidiagonal(diag: np.ndarray, sub: np.ndarray, nt: int) -> np.ndarray:
    """Block matrix with ``diag`` at every (t, t) and ``sub`` at (t, t-1)."""
    nb = diag.shape[0]
    out = zeros((nt * nb, nt * nb), ring_of(diag))
    for t in range(nt):
        out[t * nb:(t + 1) * nb, t * nb:(t + 1) * nb] = diag
        if t >= 1:
            out[t * nb:(t + 1) * nb, (t - 1) * nb:t * nb] = sub
    return out


def dirac_matrix(fl: FieldLattice, m, weights=None) -> np.ndarray:
    """vol * D over one (color) block of (site x component) slots.

    ``weights``: optional site weight vector multiplying equation rows
    (the cutoff f of the generalized action).
    """
    ring = fl.ring
    lat = fl.lattice
    diag, sub = _dirac_blocks(lat, m, ring)
    vol = ring.coerce(lat.volume_weight())
    M = _bidiagonal(diag * vol, sub * vol, lat.nt)
    if weights is not None:
        w = np.array([ring.coerce(x) for x in weights], dtype=M.dtype)
        M = M * np.repeat(w, NCOMP)[:, None]
    return M


def _retarded_inverse_blocks(fl: FieldLattice, M: np.ndarray):
    """Blocks of the fully retarded inverse pair (P, Q) of a
    block-bidiagonal-in-time bilinear matrix M.

    P = -M^{-1} (support t >= s); Q has strictly retarded support
    (t >= s+1) and solves M^T Q = Id on every row of time t <= nt-2.

    If every diagonal time block of M equals the first and every
    sub-diagonal block equals the first (any unweighted ``dirac_matrix``),
    both are block-Toeplitz in time: one diagonal and one transposed
    sub-diagonal block are inverted, only source column 0 is stepped
    forward, and block (t, s) is block (t - s, 0).  Any other M, such as
    a time-varying cutoff, runs the substitution for every source time.
    """
    nt = fl.lattice.nt
    nb = fl.lattice.nx * NCOMP

    def blk(t, s):
        return M[t * nb:(t + 1) * nb, s * nb:(s + 1) * nb]

    toeplitz = all(np.array_equal(blk(t, t), blk(0, 0))
                   and np.array_equal(blk(t, t - 1), blk(1, 0))
                   for t in range(1, nt))

    def per_time(f, first):
        """[f(t) for t >= first], padded to nt; one f call if Toeplitz."""
        if toeplitz:
            return [None] * first + [f(first)] * (nt - first)
        return [None] * first + [f(t) for t in range(first, nt)]

    diag_inv = per_time(lambda t: _block(mat_inv(blk(t, t))), 0)
    sub_t_inv = per_time(lambda t: _block(mat_inv(blk(t, t - 1).T.copy())), 1)
    sub = per_time(lambda t: _block(blk(t, t - 1)), 1)
    diag_t = per_time(lambda t: _block(blk(t, t).T), 0)
    P = zeros((fl.block, fl.block), fl.ring)
    Q = zeros((fl.block, fl.block), fl.ring)
    for s in range(1 if toeplitz else nt):
        # P column block: M^{-1} by forward substitution, then negated
        cur = diag_inv[s]
        P[s * nb:(s + 1) * nb, s * nb:(s + 1) * nb] = _ring_array(-cur)
        for t in range(s + 1, nt):
            cur = -(diag_inv[t] @ (sub[t] @ cur))
            P[t * nb:(t + 1) * nb, s * nb:(s + 1) * nb] = _ring_array(-cur)
        # Q column block: strictly retarded one-sided inverse of M^T
        if s + 1 < nt:
            qblk = sub_t_inv[s + 1]
            Q[(s + 1) * nb:(s + 2) * nb, s * nb:(s + 1) * nb] = _ring_array(qblk)
            for t in range(s + 1, nt - 1):
                qblk = -(sub_t_inv[t + 1] @ (diag_t[t] @ qblk))
                Q[(t + 1) * nb:(t + 2) * nb, s * nb:(s + 1) * nb] = _ring_array(qblk)
    if toeplitz:
        for s in range(1, nt):
            P[s * nb:, s * nb:(s + 1) * nb] = P[:(nt - s) * nb, :nb]
            Q[s * nb:, s * nb:(s + 1) * nb] = Q[:(nt - s) * nb, :nb]
    return P, Q


def _species_blocks(fl: FieldLattice, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Slot matrix holding ``upper`` in each color's (field, conjugate)
    block and ``lower`` in its (conjugate, field) block, zero elsewhere."""
    n, b = fl.n_slots, fl.block
    out = zeros((n, n), fl.ring)
    for color in range(1, fl.ncolors + 1):
        psi = fl.slot(FIELD, color, 0, 0)
        psb = fl.slot(CONJUGATE, color, 0, 0)
        out[psi:psi + b, psb:psb + b] = upper
        out[psb:psb + b, psi:psi + b] = lower
    return out


def _check_kind(kind: str) -> None:
    if kind not in ("retarded", "advanced"):
        raise ValueError(f"unknown kind {kind!r}")


def _green_kernel(fl: FieldLattice, mat: np.ndarray, kind: str) -> Kernel:
    """Kernel of ``kind`` over its species-block matrix ``mat``, with the
    equation rows on which that kind's defining identity holds."""
    times = fl.slot_times
    nt = fl.lattice.nt
    if kind == "retarded":
        exact = (fl.slot_species == CONJUGATE) | (times <= nt - 2)
    else:
        exact = (fl.slot_species == FIELD) | (times >= 1)
    return Kernel(mat, kind, times, exact)


def green_from_bilinear(fl: FieldLattice, M: np.ndarray) -> Kernel:
    """Retarded block propagator of an arbitrary quadratic action with
    block-bidiagonal-in-time bilinear matrix M (one color block,
    replicated over colors); the advanced one is its signed transpose.
    Not memoised: every call solves.
    """
    return _green_kernel(fl, _species_blocks(fl, *_retarded_inverse_blocks(fl, M)),
                         "retarded")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _DiracSolve:
    """The memoised free Dirac solve of one :class:`FieldLattice` and mass:
    read-only species-block retarded, advanced and causal matrices.  The
    advanced and causal ones are built on first request.

    Per color the retarded matrix is ``[[0, P], [Q, 0]]`` with P and Q
    block-Toeplitz in time, P of support t >= s and Q strictly retarded.
    So the advanced matrix is ``[[0, -Q^T], [-P^T, 0]]`` and the causal
    one ``[[0, P + Q^T], [Q + P^T, 0]]``, whose two terms never share a
    slot.  Rational mode negates each lag block of P and Q once and
    tiles it, and lays the causal matrix out from references to the
    retarded entries, with no ``QC`` operation per slot.  Float mode
    keeps numpy's ``-R^T`` and ``R - A``, whose signed zeros a tiling
    would flip.
    """

    def __init__(self, fl: FieldLattice, retarded: np.ndarray):
        self.fl = fl
        self.retarded = _read_only(retarded)

    @cached_property
    def advanced(self) -> np.ndarray:
        R = self.retarded
        if not ring_of(R).exact:
            return _read_only(-R.T.copy())
        fl = self.fl
        nt, nb, b = fl.lattice.nt, fl.lattice.nx * NCOMP, fl.block
        psb = fl.slot(CONJUGATE, 1, 0, 0)
        # source-0 column strips: every lag block of -P, then of -Q
        neg_p, neg_q = -R[:b, psb:psb + nb], -R[psb:psb + b, :nb]
        upper, lower = zeros((b, b), fl.ring), zeros((b, b), fl.ring)
        for s in range(nt):
            upper[s * nb:(s + 1) * nb, s * nb:] = neg_q[:(nt - s) * nb].T
            lower[s * nb:(s + 1) * nb, s * nb:] = neg_p[:(nt - s) * nb].T
        return _read_only(_species_blocks(fl, upper, lower))

    @cached_property
    def causal(self) -> np.ndarray:
        R = self.retarded
        if not ring_of(R).exact:
            return _read_only(R - self.advanced)
        # slots where R holds P or Q; every other slot takes R^T
        t, field = self.fl.slot_times, self.fl.slot_species == FIELD
        own = (t[:, None] > t[None, :]) | ((t[:, None] == t[None, :])
                                          & field[:, None])
        return _read_only(np.where(own, R, R.T))


def dirac_green(fl: FieldLattice, m, kind: str) -> Kernel:
    """Block propagator over all generator slots.

    Retarded form: field/conjugate off-diagonal blocks (P, Q) per color,
    zero diagonal blocks; advanced is the argument-swapped negative
    transpose.  ``exact_rows`` marks equation rows of the free second
    derivative on which S2 @ kernel = Id holds exactly.

    The solve is memoised on ``fl`` by the coerced mass (``1``,
    ``Fraction(1)`` and ``QC(1)`` share it): both kinds and every repeat
    call reuse one record, whose advanced matrix is tiled from the
    retarded solve's lag blocks on first request.  The kernel's matrix
    is that shared matrix, so it is read-only; copy it before writing
    into it.  The kernel carries the record privately, so that
    :func:`causal_propagator` can hand out the record's causal matrix.
    """
    _check_kind(kind)
    key = fl.ring.coerce(m)
    rec = fl._dirac_solves.get(key)
    if rec is None:
        rec = fl._dirac_solves[key] = _DiracSolve(
            fl, _species_blocks(fl, *_retarded_inverse_blocks(fl, dirac_matrix(fl, m))))
    out = _green_kernel(fl, rec.retarded if kind == "retarded" else rec.advanced,
                        kind)
    out._solve = rec
    return out


def causal_propagator(dR: Kernel, dA: Kernel) -> Kernel:
    """Difference of retarded and advanced kernels (symmetric matrix).

    Raises ``ValueError`` unless ``dR`` is retarded and ``dA`` advanced,
    over rings of one mode: swapped kernels would give -Δ.

    When ``dR.mat`` and ``dA.mat`` are the retarded and advanced matrices
    of one memoised :func:`dirac_green` solve, the result's matrix is
    that solve's read-only causal matrix, built once.  Every other pair
    (other masses or lattices, ``copy_with`` kernels, Klein-Gordon
    kernels) gets the fresh difference ``dR.mat - dA.mat``."""
    if (dR.kind, dA.kind) != ("retarded", "advanced"):
        raise ValueError("causal_propagator takes a retarded then an advanced "
                         f"kernel, not {dR.kind} then {dA.kind}")
    if dR.ring.mode != dA.ring.mode:
        raise ValueError(f"kernels over a {dR.ring.mode} and a {dA.ring.mode} "
                         "ring")
    if dR.mat.shape != dA.mat.shape:
        raise ValueError("kernel shape mismatch")
    rec = dR._solve
    if (rec is not None and dA._solve is rec and dR.mat is rec.retarded
            and dA.mat is rec.advanced):
        mat = rec.causal
    else:
        mat = dR.mat - dA.mat
    out = Kernel(mat, "causal", dR.times)
    if dR.exact_rows is not None and dA.exact_rows is not None:
        out.exact_rows = dR.exact_rows & dA.exact_rows
    return out


def free_second_derivative(fl: FieldLattice, m) -> Kernel:
    """Second-derivative kernel K[j, i] = d_j d_i S of the free action."""
    M = dirac_matrix(fl, m)
    return Kernel(_species_blocks(fl, M.T, -M), "operator", fl.slot_times)
