"""Finite 1+1-dimensional lattice spacetime and free fermion kernels.

The discrete d'Alembertian is defined by exact factorization,
``Box = T^2 - X^2`` with ``T`` the one-sided backward time difference and
``X`` the central (periodic) space difference, so that the two-component
Dirac matrices built from it satisfy ``D D* = D* D = Box + m^2`` as exact
matrix identities.  Retarded kernels come from forward time-stepping and
are block-lower-triangular in time (structural support); advanced
kernels are argument-swapped sign-flipped transposes.

On a finite time range the defining identity ``S2 @ kernel = Id`` can
only hold on equation rows whose stencil stays inside the lattice; each
kernel records that row set (``exact_rows``) and tests pin it.

The free Dirac solve is memoised per :class:`FieldLattice` and mass:
``dirac_green`` runs the forward substitution once for each (lattice,
mass) pair, the advanced kernel is the signed transpose of that one
retarded matrix, and the retarded matrix it hands out is read-only.
"""

from __future__ import annotations

import numpy as np

from .algebra import CONJUGATE, FIELD, Algebra, GeneratorId
from .kernels import Kernel
from .linalg import eye, kron2, mat_inv, matmul, max_abs, zeros
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
        if not (0 < dt and 0 < dx):
            raise ValueError("spacings must be positive")
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

    def site_space(self, s: int) -> int:
        return s % self.nx

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
        # coerced mass -> read-only species-block retarded Dirac matrix
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
    ns = lattice.n_sites
    out = zeros((ns, ns), ring)
    inv_dt = ring.one / ring.coerce(lattice.dt)
    for s in range(ns):
        t, x = lattice.site_time(s), lattice.site_space(s)
        out[s, s] = out[s, s] + inv_dt
        if t >= 1:
            out[s, lattice.site(t - 1, x)] = out[s, lattice.site(t - 1, x)] - inv_dt
    return out


def space_central(lattice: Lattice, ring: Ring) -> np.ndarray:
    """Central spatial difference with periodic boundary."""
    ns = lattice.n_sites
    out = zeros((ns, ns), ring)
    half = ring.one / ring.coerce(2 * lattice.dx)
    for s in range(ns):
        t, x = lattice.site_time(s), lattice.site_space(s)
        right = lattice.site(t, x + 1)
        left = lattice.site(t, x - 1)
        out[s, right] = out[s, right] + half
        out[s, left] = out[s, left] - half
    return out


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
    ``dirac_matrix``; ``Box``, built when read, is the dense reference.
    """

    def __init__(self, lattice: Lattice, m, ring: Ring):
        self.lattice = lattice
        self.ring = ring
        self.m = m
        m_c = ring.coerce(m)
        diag, sub = _dirac_blocks(lattice, m, ring)
        nt = lattice.nt
        self.D = _bidiagonal(diag, sub, nt, ring)
        ident = eye(diag.shape[0], ring)
        self.Dstar = _bidiagonal(-(diag + ident * (2 * m_c)), -sub, nt, ring)
        self.mass_sq = m_c * m_c

    @property
    def box_site(self) -> np.ndarray:
        ring = self.ring
        T = time_backward(self.lattice, ring)
        X = space_central(self.lattice, ring)
        return matmul(T, T, ring) - matmul(X, X, ring)

    @property
    def box(self) -> np.ndarray:
        return kron2(self.box_site, eye(NCOMP, self.ring), self.ring)

    def box_plus_m2(self) -> np.ndarray:
        box = self.box
        return box + eye(box.shape[0], self.ring) * self.mass_sq

    def factorization_defect(self) -> float:
        """max |DD* - (Box+m^2)| and |D*D - (Box+m^2)| entries."""
        target = self.box_plus_m2()
        D, Dstar, ring = self.D, self.Dstar, self.ring
        return max(max_abs(matmul(D, Dstar, ring) - target),
                   max_abs(matmul(Dstar, D, ring) - target))


# -- Green's functions ----------------------------------------------------

def kg_green(lattice: Lattice, m, kind: str, ring: Ring) -> Kernel:
    """Green's function of the discrete Box + m^2 on sites.

    Retarded: forward time-stepping with vanishing past, normalized so
    that (Box + m^2) @ G = Id / (dt*dx); support is structurally
    t_row >= t_col.  Advanced: transpose of the retarded kernel.
    """
    _check_kind(kind)
    nt, nx, ns = lattice.nt, lattice.nx, lattice.n_sites
    Xs = _space_block(lattice, ring)
    inv_dt2 = ring.one / ring.coerce(lattice.dt ** 2)
    m_c = ring.coerce(m)
    A0 = eye(nx, ring) * (inv_dt2 + m_c * m_c) - matmul(Xs, Xs, ring)
    A0_inv = mat_inv(A0, ring)
    inv_vol = ring.one / ring.coerce(lattice.volume_weight())
    G = zeros((ns, ns), ring)
    # column block for each source time s, stepped forward in t
    blocks: dict[int, np.ndarray] = {}
    for s in range(nt):
        prev2 = zeros((nx, nx), ring)
        prev1 = zeros((nx, nx), ring)
        for t in range(s, nt):
            if t == s:
                blk = A0_inv * inv_vol
            else:
                rhs = prev1 * (-2 * inv_dt2)
                if t - s >= 2:
                    rhs = rhs + prev2 * inv_dt2
                blk = -matmul(A0_inv, rhs, ring)
            blocks[(t, s)] = blk
            prev2, prev1 = prev1, blk
    for (t, s), blk in blocks.items():
        G[t * nx:(t + 1) * nx, s * nx:(s + 1) * nx] = blk
    times = lattice.site_times()
    if kind == "advanced":
        return Kernel(G.T.copy(), ring, "advanced", times, times, exact_rows=None)
    return Kernel(G, ring, "retarded", times, times,
                  exact_rows=np.ones(ns, dtype=bool))


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
    kin = (kron2(eye(nx, ring) * inv_dt, g0, ring)
           + kron2(_space_block(lattice, ring), g1, ring))
    diag = kin * i_ - eye(nx * NCOMP, ring) * ring.coerce(m)
    sub = kron2(eye(nx, ring) * (-inv_dt), g0, ring) * i_
    return diag, sub


def _bidiagonal(diag: np.ndarray, sub: np.ndarray, nt: int, ring: Ring) -> np.ndarray:
    """Block matrix with ``diag`` at every (t, t) and ``sub`` at (t, t-1)."""
    nb = diag.shape[0]
    out = zeros((nt * nb, nt * nb), ring)
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
    M = _bidiagonal(diag * vol, sub * vol, lat.nt, ring)
    if weights is not None:
        w = np.array([ring.coerce(x) for x in weights], dtype=M.dtype)
        M = M * np.repeat(w, NCOMP)[:, None]
    return M


def _retarded_inverse_blocks(fl: FieldLattice, M: np.ndarray):
    """Blocks of the fully retarded inverse pair (P, Q) of a
    block-bidiagonal-in-time bilinear matrix M.

    P = -M^{-1} (support t >= s); Q solves M^T Q = Id on interior rows
    with strictly retarded support (t >= s+1).
    """
    ring = fl.ring
    nt = fl.lattice.nt
    nb = fl.lattice.nx * NCOMP

    def blk(t, s):
        return M[t * nb:(t + 1) * nb, s * nb:(s + 1) * nb]

    Dd_inv = [mat_inv(blk(t, t), ring) for t in range(nt)]
    Ms_t_inv = [None] + [mat_inv(blk(t, t - 1).T.copy(), ring)
                         for t in range(1, nt)]
    P = zeros((fl.block, fl.block), ring)
    Q = zeros((fl.block, fl.block), ring)
    for s in range(nt):
        # P column block: M^{-1} by forward substitution, then negated
        cur = Dd_inv[s]
        P[s * nb:(s + 1) * nb, s * nb:(s + 1) * nb] = -cur
        for t in range(s + 1, nt):
            cur = -matmul(Dd_inv[t], matmul(blk(t, t - 1), cur, ring), ring)
            P[t * nb:(t + 1) * nb, s * nb:(s + 1) * nb] = -cur
        # Q column block: strictly retarded one-sided inverse of M^T
        if s + 1 < nt:
            qblk = Ms_t_inv[s + 1]
            Q[(s + 1) * nb:(s + 2) * nb, s * nb:(s + 1) * nb] = qblk
            for t in range(s + 1, nt - 1):
                qblk = -matmul(Ms_t_inv[t + 1], matmul(blk(t, t).T, qblk, ring),
                               ring)
                Q[(t + 1) * nb:(t + 2) * nb, s * nb:(s + 1) * nb] = qblk
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
    """Kernel of ``kind`` from the species-block retarded matrix ``mat``;
    the advanced kernel is the argument-swapped negative transpose."""
    times = fl.slot_times
    nt = fl.lattice.nt
    if kind == "retarded":
        exact = (fl.slot_species == CONJUGATE) | (times <= nt - 2)
        return Kernel(mat, fl.ring, "retarded", times, times, exact)
    exact = (fl.slot_species == FIELD) | (times >= 1)
    return Kernel(-mat.T.copy(), fl.ring, "advanced", times, times, exact)


def green_from_bilinear(fl: FieldLattice, M: np.ndarray, kind: str) -> Kernel:
    """Retarded/advanced block propagator of an arbitrary quadratic
    action with block-bidiagonal-in-time bilinear matrix M (one color
    block, replicated over colors).  Not memoised: every call solves.
    """
    _check_kind(kind)
    return _green_kernel(fl, _species_blocks(fl, *_retarded_inverse_blocks(fl, M)),
                         kind)


def dirac_green(fl: FieldLattice, m, kind: str) -> Kernel:
    """Block propagator over all generator slots.

    Retarded form: field/conjugate off-diagonal blocks (P, Q) per color,
    zero diagonal blocks; advanced is the argument-swapped negative
    transpose.  ``exact_rows`` marks equation rows of the free second
    derivative on which S2 @ kernel = Id holds exactly.

    The retarded solve is memoised on ``fl`` by the coerced mass
    (``1``, ``Fraction(1)`` and ``QC(1)`` share it): both kinds and every
    repeat call reuse one solve, the advanced kernel being its signed
    transpose.  The retarded kernel's matrix is that shared solve, so it
    is read-only; copy it before writing into it.
    """
    _check_kind(kind)
    key = fl.ring.coerce(m)
    mat = fl._dirac_solves.get(key)
    if mat is None:
        mat = _species_blocks(fl, *_retarded_inverse_blocks(fl, dirac_matrix(fl, m)))
        mat.flags.writeable = False
        fl._dirac_solves[key] = mat
    return _green_kernel(fl, mat, kind)


def causal_propagator(dR: Kernel, dA: Kernel) -> Kernel:
    """Difference of retarded and advanced kernels (symmetric matrix)."""
    if dR.mat.shape != dA.mat.shape:
        raise ValueError("kernel shape mismatch")
    out = Kernel(dR.mat - dA.mat, dR.ring, "causal", dR.row_times, dR.col_times)
    if dR.exact_rows is not None and dA.exact_rows is not None:
        out.exact_rows = dR.exact_rows & dA.exact_rows
    return out


def free_second_derivative(fl: FieldLattice, m, weights=None) -> Kernel:
    """Second-derivative kernel K[j, i] = d_j d_i S of the free action."""
    M = dirac_matrix(fl, m, weights)
    return Kernel(_species_blocks(fl, M.T, -M), fl.ring, "operator",
                  fl.slot_times, fl.slot_times)
