"""Free Dirac and Gross-Neveu actions on the lattice, the interacting
second-derivative kernel, and interacting propagators as terminating
series with Grassmann-even entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .algebra import CONJUGATE, FIELD, GrassmannElement
from .dynamics import ActionFunctional, peierls_bracket
from .kernels import ElementKernel, Kernel, _accumulate
from .lattice import NCOMP, FieldLattice, dirac_green, dirac_matrix

__all__ = [
    "GrossNeveuParams", "InteractingKernel", "bilinear_element",
    "build_free_action", "build_gn_action", "gn_interaction_term",
    "interacting_propagator", "propagator_defect", "interacting_causal",
    "interacting_bracket", "permute_colors",
]


@dataclass
class GrossNeveuParams:
    """Couplings of the N-color quartic model.

    ``g`` is the site weight cutoff of the interaction (compact support;
    by default a window clear of the temporal boundaries so that kernel
    identities hold exactly on it).
    """

    ncolors: int = 1
    lam: object = 0
    m: object = 0
    g: list | None = None

    def cutoff(self, fl: FieldLattice) -> list:
        if self.g is not None:
            if len(self.g) != fl.lattice.n_sites:
                raise ValueError("cutoff weight length != number of sites")
            return list(self.g)
        nt = fl.lattice.nt
        return fl.window_weights(1, nt - 2)


def bilinear_element(fl: FieldLattice, M: np.ndarray) -> GrassmannElement:
    """Σ_colors conj_a M[a, b] field_b as a canonical grade-2 element."""
    ring = fl.ring
    terms: dict = {}
    b = fl.block
    for color in range(1, fl.ncolors + 1):
        psi0 = fl.slot(FIELD, color, 0, 0)
        psb0 = fl.slot(CONJUGATE, color, 0, 0)
        for a in range(b):
            row = M[a]
            for bb in range(b):
                c = row[bb]
                if not c:
                    continue
                # conj_a ∧ field_b = - field_b ∧ conj_a (canonical word)
                w = (psi0 + bb, psb0 + a)
                terms[w] = terms.get(w, ring.zero) - c
    return fl.algebra.element(terms)


def _free_builder(fl: FieldLattice, m):
    def build(weights):
        return bilinear_element(fl, dirac_matrix(fl, m, weights))

    return build


def build_free_action(fl: FieldLattice, m) -> ActionFunctional:
    """Free Dirac action S_0(f) = Σ_x f(x) (conj ∧ (i γ·∂ − m) field)(x)."""
    S = ActionFunctional(fl, _free_builder(fl, m), name="free_dirac")
    S.meta = {"m": m}
    return S


def _site_density(fl: FieldLattice, site: int) -> GrassmannElement:
    """Σ_{color, component} conj ∧ field at one site (even, grade 2)."""
    ring = fl.ring
    terms = {}
    for color in range(1, fl.ncolors + 1):
        for comp in range(NCOMP):
            w = (fl.slot(FIELD, color, site, comp),
                 fl.slot(CONJUGATE, color, site, comp))
            terms[w] = -ring.one  # conj ∧ field in canonical order
    return fl.algebra.element(terms)


def _quartic(fl: FieldLattice, params: GrossNeveuParams,
             weights) -> GrassmannElement:
    """Σ_x vol w(x) g(x)/(2N) (ρ_x ∧ ρ_x), with λ left formal."""
    ring = fl.ring
    lat = fl.lattice
    vol = ring.coerce(lat.volume_weight())
    half = ring.number(Fraction(1, 2))
    invN = ring.number(Fraction(1, params.ncolors))
    g = params.cutoff(fl)
    out = fl.algebra.zero()
    for site in range(lat.n_sites):
        w = ring.coerce(weights[site]) * ring.coerce(g[site])
        if not w:
            continue
        rho = _site_density(fl, site)
        quartic = rho.wedge(rho)
        if quartic.is_zero():
            continue
        out = out + quartic.scale(vol * w * half * invN)
    return out


def gn_interaction_term(fl: FieldLattice,
                        params: GrossNeveuParams) -> GrassmannElement:
    """Quartic interaction functional F = Σ_x vol g(x)/(2N) (ρ_x ∧ ρ_x).

    λ is left formal so the element can serve as the series insertion.
    """
    return _quartic(fl, params, fl.ones_weights())


def build_gn_action(fl: FieldLattice, params: GrossNeveuParams) -> ActionFunctional:
    """Gross-Neveu action S(f) = S_0(f) + λ F(f), F the quartic cutoff term."""
    if fl.ncolors != params.ncolors:
        raise ValueError("params.ncolors disagrees with the field lattice")
    free = _free_builder(fl, params.m)

    def build(weights):
        return free(weights) + _quartic(fl, params, weights).scale(params.lam)

    S = ActionFunctional(fl, build, name="gross_neveu")
    S.meta = {"m": params.m}
    return S


class InteractingKernel:
    """Terminating retarded propagator series with Grassmann-even entries.

    ``free`` is the scalar order Δ0.  ``vertices[k-1]`` is the vertex
    product V_k = W∘Δ_{k−1} (V_1 = W·Δ0, W the even element part of S^(2)),
    and order k >= 1 is Δ_k = (−Δ0)·V_k, whose entries have grade exactly
    2k; evaluation against a grade-n configuration uses only k <= n//2
    orders.  The series builds each Δ_k that a further vertex product
    needs; the last order is built the first time ``corrections`` is read,
    with the same call, so every order is the same whenever it is built.

    :meth:`per_order_norms` reads the vertex products only.  With
    X_b the dense (rows × words) coefficient block of column b of V_k and
    the Gram matrix G = Δ0ᴴΔ0, ‖Δ_k‖_F² = Σ_{a,a'} G[a,a'] K_k[a,a'] where
    K_k = Σ_b conj(X_b)·X_bᵀ.
    """

    def __init__(self, fl: FieldLattice, max_grade: int, free: Kernel,
                 vertices: list, corrections: list):
        self.fl = fl
        self.max_grade = max_grade
        self.free = free
        self.vertices = vertices          # ElementKernel V_k, k = 1..
        self._corrections = corrections   # the Δ_k built so far, k = 1..

    @property
    def corrections(self) -> list:
        """Δ_1, Δ_2, … as ElementKernels; builds the ones not built yet."""
        built = self._corrections
        if len(built) < len(self.vertices):
            neg_free = -self.free.mat
            for v in self.vertices[len(built):]:
                built.append(v.compose_scalar_left(neg_free))
        return built

    @property
    def order_count(self) -> int:
        return 1 + len(self.vertices)

    def per_order_norms(self) -> list:
        """(k, grade, ‖Δ_k‖_F) rows, the k >= 1 norms by the Gram identity."""
        rows = [(0, 0, float(np.sqrt(sum(abs(complex(c)) ** 2
                                         for c in self.free.mat.ravel()))))]
        d0 = np.array(self.free.mat.tolist(), dtype=complex)
        gram = d0.conj().T @ d0
        for k, v in enumerate(self.vertices, start=1):
            sq = float(np.sum(gram * _column_gram(v)).real)
            rows.append((k, 2 * k, max(sq, 0.0) ** 0.5))
        return rows

    def __repr__(self):
        return (f"InteractingKernel(orders={self.order_count}, "
                f"max_grade={self.max_grade})")


def _column_blocks(*kernels):
    """Yield ``[X_b, …]`` per column b, in order of first appearance: the
    dense (rows × words) complex coefficient block of each kernel in column
    b, over one shared word index numbered in order of first appearance
    (kernel by kernel, entry by entry)."""
    n = kernels[0].n
    cols: dict[int, list] = {}
    for which, v in enumerate(kernels):
        for (a, b), e in v.entries.items():
            cols.setdefault(b, [[] for _ in kernels])[which].append((a, e._terms))
    for parts in cols.values():
        words = {w: i for i, w in enumerate(dict.fromkeys(chain.from_iterable(
            terms for part in parts for _, terms in part)))}
        blocks = []
        for part in parts:
            x = np.zeros((n, len(words)), dtype=complex)
            rows = np.repeat(np.array([a for a, _ in part], dtype=int),
                             [len(terms) for _, terms in part])
            idx = list(map(words.__getitem__,
                           chain.from_iterable(terms for _, terms in part)))
            x[rows, idx] = np.array(
                list(chain.from_iterable(terms.values() for _, terms in part)),
                dtype=complex)
            blocks.append(x)
        yield blocks


def _column_gram(v: ElementKernel) -> np.ndarray:
    """K = Σ_b conj(X_b)·X_bᵀ, X_b the (rows × words) block of column b."""
    out = np.zeros((v.n, v.n), dtype=complex)
    for (x,) in _column_blocks(v):
        out += x.conj() @ x.T
    return out


def interacting_propagator(S: ActionFunctional,
                           max_grade: int = 6) -> InteractingKernel:
    """Retarded series inverse of the interacting second derivative.

    Built as the terminating expansion Δ_k = (−1)^k (Δ_0 W)^k Δ_0 where W
    is the even element part of S^(2); entry grades are exactly 2k, so
    the series terminates at k = max_grade // 2.  Each order is formed
    through the sparse, site-local W as the vertex product V_1 = W·Δ_0,
    V_k = W∘Δ_{k−1}, and Δ_k = (−Δ_0)·V_k: the sign is carried by the
    scalar matrix −Δ_0, and each wedge product has a single monomial on
    its left.  The last order is left to :class:`InteractingKernel`.

    Rows of W that meet a zero column of Δ_0 are dropped first: they add
    nothing to any Δ_k.  Δ_0 has full column rank on its other columns,
    so Δ_k = 0 exactly when V_k = 0, and a zero V_k ends the series.
    The advanced series is not built: see :func:`interacting_causal`.
    """
    if max_grade % 2 != 0:
        raise ValueError("max_grade must be even (entries are Grassmann-even)")
    fl = S.fl
    free = dirac_green(fl, S.meta["m"], "retarded")
    _, W = S.second_kernel()
    W = W.restrict_rows([any(col) for col in free.mat.T])
    last = max_grade // 2
    vertices, corrections = [], []
    neg_free = -free.mat
    for k in range(1, last + 1):
        vertex = (W.compose_scalar_right(free.mat) if k == 1
                  else W.compose(corrections[-1]))
        if vertex.is_zero():
            break
        vertices.append(vertex)
        if k < last:
            corrections.append(vertex.compose_scalar_left(neg_free))
    return InteractingKernel(fl, max_grade, free, vertices, corrections)


def propagator_defect(S: ActionFunctional, ik: InteractingKernel) -> float:
    """max |S^(2) @ Δ_I − δ| over exact equation rows, graded entrywise.

    Only the exact rows of each product are formed, and W∘Δ_{k−1} is
    recomputed from the stored order k − 1, so each order is checked
    against the one before it.  Every order in ``ik.corrections`` is
    read, the lazily built last one included.

    In float mode the grade-2k residual K0·Δ_k + W∘Δ_{k−1} is formed one
    column b at a time: column b of Δ_k and of W∘Δ_{k−1} are packed into
    dense (rows × words) blocks X_b, Y_b over one word index, and the
    residual is the numpy product ``k0 @ X_b + Y_b``.  In rational mode
    the residual is accumulated sparsely and exactly, entry by entry, as
    a dense object block would scan every rows × words ``QC``.
    """
    K0, W = S.second_kernel()
    ring = ik.fl.ring
    rows = ik.free.exact_rows
    # grade-0 block: K0 @ Δ0 − Id
    worst = ik.free.identity_defect(K0.mat)
    k0 = K0.mat
    if rows is not None:
        k0 = k0.copy()
        k0[~rows] = ring.zero
        W = W.restrict_rows(rows)
    # grade-2k blocks: K0 @ Δ_k + W∘Δ_{k−1}
    prev = None
    for corr in ik.corrections:
        lower = (W.compose_scalar_right(ik.free.mat) if prev is None
                 else W.compose(prev))
        if ring.exact:
            # the second product is added in place into the first's fresh
            # term dicts
            upper = corr.compose_scalar_left(k0)
            blk = {key: e._terms for key, e in upper.entries.items()}
            for key, e in lower.entries.items():
                _accumulate(blk, key, e._terms, ring)
            for terms in blk.values():
                worst = max(worst, max((abs(complex(c)) for c in terms.values()),
                                       default=0.0))
        else:
            for x, y in _column_blocks(corr, lower):
                worst = max(worst, float(np.abs(k0 @ x + y).max()))
        prev = corr
    return worst


def interacting_causal(ik: InteractingKernel) -> list:
    """Parts [Δ^R_0 − Δ^A_0, Δ^R_1, …, −Δ^A_1, …] of the interacting causal
    kernel Δ^R − Δ^A of the retarded series ``ik``, summed by
    :func:`~fermifields.dynamics.pair_contract`.

    S^(2) is antisymmetric in its odd slot arguments, so the advanced
    inverse is the signed transpose of the retarded one, Δ^A = −(Δ^R)ᵀ,
    order by order: with Δ^A_0 = −Δ0ᵀ and the antisymmetric W,
    (−1)^k (Δ^A_0 W)^k Δ^A_0 = −((−1)^k (Δ0 W)^k Δ0)ᵀ, the even entries
    commuting.  Hence Δ^R_0 − Δ^A_0 = Δ0 + Δ0ᵀ and −Δ^A_k = (Δ^R_k)ᵀ.
    """
    free = ik.free.mat
    corrections = ik.corrections
    return [free + free.T, *corrections,
            *(c.transpose() for c in corrections)]


def interacting_bracket(S: ActionFunctional, F: GrassmannElement,
                        G: GrassmannElement, max_grade: int = 6) -> GrassmannElement:
    """Peierls bracket with the interacting causal kernel, grade-truncated."""
    causal = interacting_causal(interacting_propagator(S, max_grade))
    return peierls_bracket(S, causal, F, G, max_grade=max_grade)


def permute_colors(fl: FieldLattice, elem: GrassmannElement, perm: dict) -> GrassmannElement:
    """Relabel colors by a permutation {old: new}, with Koszul signs."""
    gens = fl.algebra.generators
    out: dict = {}
    ring = fl.ring
    for w, c in elem.items():
        mapped = []
        for i in w:
            g = gens[i]
            mapped.append(fl.slot(g.species, perm.get(g.color, g.color),
                                  g.site, g.component))
        # sort with sign; repeated slots cannot occur under a bijection
        sign = 1
        arr = list(mapped)
        for a in range(len(arr)):
            for b in range(len(arr) - 1 - a):
                if arr[b] > arr[b + 1]:
                    arr[b], arr[b + 1] = arr[b + 1], arr[b]
                    sign = -sign
        w2 = tuple(arr)
        cc = c if sign > 0 else -c
        out[w2] = out.get(w2, ring.zero) + cc
    return fl.algebra.element(out)
