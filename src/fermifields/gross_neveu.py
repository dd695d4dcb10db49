"""Free Dirac and Gross-Neveu actions on the lattice, the interacting
second-derivative kernel, and interacting propagators as terminating
series with Grassmann-even entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from ._core import merge_words
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
        if nt < 3:
            raise ValueError(f"the default cutoff window 1..nt-2 is empty at "
                             f"nt = {nt}; give g, or use nt >= 3")
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

    ``free`` is the scalar order Δ0.  Order k >= 1 is Δ_k = (−Δ0)·V_k
    with the vertex product V_k = W∘Δ_{k−1} (V_1 = W·Δ0, W the even
    element part of S^(2)); its entries have grade exactly 2k, so
    evaluation against a grade-n configuration uses only k <= n//2
    orders.  :attr:`corrections` is the one place Δ_k is built, as an
    :class:`~fermifields.kernels.ElementKernel`: it builds the orders not
    built yet, the first time it is read.

    ``vertices[k-1]`` is V_k as an ``ElementKernel``.  In rational mode
    :func:`interacting_propagator` reads Δ_{k−1} back from
    ``corrections`` to form V_k, so only the last order is left unbuilt.
    The float series it returns leaves ``vertices`` empty: it keeps the
    V_k as dense column blocks (see :class:`_BlockKernel`) and builds no
    Δ_k unless ``corrections`` is read.

    :meth:`per_order_norms` reads the vertex products only.  With
    X_b the dense (rows × words) coefficient block of column b of V_k and
    the Gram matrix G = Δ0ᴴΔ0, ‖Δ_k‖_F² = Σ_{a,a'} G[a,a'] K_k[a,a'] where
    K_k = Σ_b conj(X_b)·X_bᵀ.
    """

    def __init__(self, fl: FieldLattice, max_grade: int, free: Kernel):
        self.fl = fl
        self.max_grade = max_grade
        self.free = free
        self.vertices: list = []          # ElementKernel V_k, k = 1.. (sparse)
        self._corrections: list = []      # the Δ_k built so far, k = 1..

    @property
    def corrections(self) -> list:
        """Δ_1, Δ_2, … as ElementKernels; builds the ones not built yet."""
        built = self._corrections
        while len(built) < self.order_count - 1:
            built.append(self._correction(len(built) + 1))
        return built

    def _correction(self, k: int) -> ElementKernel:
        return self.vertices[k - 1].compose_scalar_left(-self.free.mat)

    @property
    def order_count(self) -> int:
        return 1 + len(self.vertices)

    def per_order_norms(self) -> list:
        """(k, grade, ‖Δ_k‖_F) rows, the k >= 1 norms by the Gram identity."""
        rows = [(0, 0, float(np.sqrt(sum(abs(complex(c)) ** 2
                                         for c in self.free.mat.ravel()))))]
        d0 = np.array(self.free.mat.tolist(), dtype=complex)
        gram = d0.conj().T @ d0
        for k, sq in enumerate(self._gram_sums(gram), start=1):
            rows.append((k, 2 * k, max(sq, 0.0) ** 0.5))
        return rows

    def _gram_sums(self, gram: np.ndarray):
        """Σ G·K_k per order k, G the Gram matrix of Δ0."""
        for v in self.vertices:
            yield float(np.sum(gram * _column_gram(v)).real)

    def __repr__(self):
        return (f"InteractingKernel(orders={self.order_count}, "
                f"max_grade={self.max_grade})")


def _column_blocks(v: ElementKernel):
    """Yield the dense (rows × words) complex coefficient block X_b of each
    column b of ``v``, in order of first appearance, over the words of
    column b numbered in order of first appearance."""
    cols: dict[int, list] = {}
    for (a, b), e in v.entries.items():
        cols.setdefault(b, []).append((a, e._terms))
    for part in cols.values():
        words = {w: i for i, w in enumerate(dict.fromkeys(chain.from_iterable(
            terms for _, terms in part)))}
        x = np.zeros((v.n, len(words)), dtype=complex)
        rows = np.repeat(np.array([a for a, _ in part], dtype=int),
                         [len(terms) for _, terms in part])
        idx = list(map(words.__getitem__,
                       chain.from_iterable(terms for _, terms in part)))
        x[rows, idx] = np.array(
            list(chain.from_iterable(terms.values() for _, terms in part)),
            dtype=complex)
        yield x


def _column_gram(v: ElementKernel) -> np.ndarray:
    """K = Σ_b conj(X_b)·X_bᵀ, X_b the (rows × words) block of column b."""
    out = np.zeros((v.n, v.n), dtype=complex)
    for x in _column_blocks(v):
        out += x.conj() @ x.T
    return out


# A block key is ``column << _SHIFT | word id``: sorted keys run column by
# column, and by word id within a column.
_SHIFT = 32
_WORD = (1 << _SHIFT) - 1
_UNSET = np.iinfo(np.int64).min


def _split(W: ElementKernel):
    """W's rows and columns (sorted), and per monomial w of its entries
    ``(w, I, J, C)``: C[r, c] is the coefficient of w in W[rows[I[r]],
    cols[J[c]]], over the rows I and columns J (positions) where w occurs."""
    rows = sorted({i for i, _ in W.entries})
    cols = sorted({a for _, a in W.entries})
    at_row = {i: r for r, i in enumerate(rows)}
    at_col = {a: c for c, a in enumerate(cols)}
    by_word: dict = {}
    for (i, a), e in W.entries.items():
        for w, c in e.items():
            by_word.setdefault(w, []).append((at_row[i], at_col[a], c))
    parts = []
    for w, terms in by_word.items():
        I = np.array(sorted({r for r, _, _ in terms}), dtype=np.int64)
        J = np.array(sorted({c for _, c, _ in terms}), dtype=np.int64)
        C = np.zeros((len(I), len(J)), dtype=complex)
        for r, c, x in terms:
            C[np.searchsorted(I, r), np.searchsorted(J, c)] += x
        parts.append((w, I, J, C))
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), parts


class _BlockKernel(InteractingKernel):
    """Float-mode series: each V_k as dense complex column blocks.

    Order k's words (grade 2k) are numbered in a table of their own, and
    a block of V_k is a dense matrix X over W's rows whose columns are
    keys ``column << 32 | word id``.  The live source columns of Δ0 are
    grouped by lattice site; each group runs through every order before
    the next group starts, one block per group and order.

    One order step, V_{k+1} = W∘Δ_k, takes Δ_k on W's columns (Y =
    −Δ0[cols, rows]·X_k, or Δ0 itself for V_1) and, per monomial w of W,
    forms the one product C_w·Y[J_w, present] over the keys whose word is
    present on w's columns and shares no generator with w.  The merged
    words come from a per-w map from order k's word ids to signed order
    k+1 ids, filled through ``merge_words`` only for words met so far.
    A first pass finds the new keys (``np.unique``), a second adds each
    product, with its sign, straight into the new block.

    The Gram matrix conj(X)·Xᵀ of every order is summed while the series
    is built.
    """

    def __init__(self, fl: FieldLattice, max_grade: int, free: Kernel,
                 W: ElementKernel):
        super().__init__(fl, max_grade, free)
        d0 = np.array(free.mat.tolist(), dtype=complex)
        self._free = d0
        self._neg_free = -d0
        self._rows, self._cols, self._parts = _split(W)
        self._tables = [([()], {(): 0})]   # order k: grade-2k words, their ids
        self._maps: dict = {}              # (k, w): signed order-k+1 id + 1
        sites = [g.site for g in fl.algebra.generators]
        groups: dict = {}
        for j in np.flatnonzero(d0.any(axis=0)).tolist():
            groups.setdefault(sites[j], []).append(j)
        self._groups = [np.array(g, dtype=np.int64) for g in groups.values()]
        self._grams: list = []             # per order: Σ conj(X)·Xᵀ
        # per group: (keys, X) of V_1, V_2, … up to its last nonzero order
        self._blocks = [self._build(g) for g in range(len(self._groups))]

    def _build(self, g: int) -> list:
        """Run group g through every order, summing each Gram matrix; its
        blocks up to its last nonzero order."""
        stored: list = []
        for k in range(1, self.max_grade // 2 + 1):
            keys, x = self._step(k - 1, *self._source(
                g, self._cols, stored[-1] if stored else None),
                self._parts, len(self._rows))
            if not x.any():
                break
            if k > len(self._grams):
                self._grams.append(np.zeros((len(self._rows),) * 2, dtype=complex))
            self._grams[k - 1] += x.conj() @ x.T
            stored.append((keys, x))
        return stored

    def _source(self, g: int, cols: np.ndarray, below):
        """Keys and rows ``cols`` of Δ_k in group g, from the block ``below``
        of V_k: −Δ0[cols, rows]·X_k, or Δ0's own columns (word id 0, the
        empty word) when ``below`` is None, at k = 0."""
        if below is None:
            group = self._groups[g]
            return group << _SHIFT, self._free[np.ix_(cols, group)]
        keys, x = below
        return keys, self._neg_free[np.ix_(cols, self._rows)] @ x

    def _merged(self, k: int, w: tuple, ids: np.ndarray) -> np.ndarray:
        """Signed (id + 1) of w ∧ u in order k+1's table for each order-k
        word id of u, 0 where w and u share a generator."""
        words = self._tables[k][0]
        if len(self._tables) == k + 1:
            self._tables.append(([], {}))
        out_words, out_ids = self._tables[k + 1]
        m = self._maps.get((k, w))
        if m is None or len(m) < len(words):
            grown = np.full(max(len(words), 2 * (0 if m is None else len(m))),
                            _UNSET, dtype=np.int64)
            if m is not None:
                grown[:len(m)] = m
            m = self._maps[(k, w)] = grown
        got = m[ids]
        unset = got == _UNSET
        if not unset.any():
            return got
        # sorted(set()): np.unique would import numpy.ma (about 1 MB) to
        # check for a mask
        for u in sorted(set(ids[unset].tolist())):
            merged = merge_words(w, words[u])
            if merged is None:
                m[u] = 0
                continue
            sign, word = merged
            i = out_ids.get(word)
            if i is None:
                i = out_ids[word] = len(out_words)
                out_words.append(word)
            m[u] = sign * (i + 1)
        return m[ids]

    def _step(self, k: int, keys: np.ndarray, y: np.ndarray, parts: list,
              nrows: int):
        """Keys and block over ``nrows`` rows of W∘Δ_k, W given by its
        monomial ``parts`` and Δ_k by ``keys`` and its rows ``y`` on W's
        columns."""
        words = keys & _WORD
        cols = keys & ~_WORD
        nonzero = y != 0
        live = nonzero.any(axis=1).tolist()
        todo = []
        for w, I, J, C in parts:
            if not any(live[j] for j in J.tolist()):
                continue
            present = nonzero[J].any(axis=0).nonzero()[0]
            merged = self._merged(k, w, words[present])
            keep = merged != 0
            if keep.any():
                present, merged = present[keep], merged[keep]
                todo.append((I, J, C, present, np.sign(merged),
                             cols[present] | (np.abs(merged) - 1)))
        if not todo:
            return keys[:0], np.zeros((nrows, 0), dtype=complex)
        new, inv = np.unique(np.concatenate([t[-1] for t in todo]),
                             return_inverse=True)
        z = np.zeros((nrows, len(new)), dtype=complex)
        start = 0
        for I, J, C, present, sign, _ in todo:
            stop = start + len(present)
            # one w merges distinct keys into distinct keys: no index repeats
            z[I[:, None], inv[start:stop]] += (C @ y[J[:, None], present]) * sign
            start = stop
        return new, z

    @property
    def order_count(self) -> int:
        return 1 + max(map(len, self._blocks), default=0)

    def _gram_sums(self, gram: np.ndarray):
        on_rows = gram[np.ix_(self._rows, self._rows)]
        for k_k in self._grams:
            yield float(np.sum(on_rows * k_k).real)

    def _correction(self, k: int) -> ElementKernel:
        """Δ_k = −Δ0[:, rows]·X_k, unpacked row by row into term dicts."""
        words = self._tables[k][0]
        to_slots = self._neg_free[:, self._rows]
        acc: dict = {}
        for stored in self._blocks:
            if k > len(stored):
                continue
            keys, x = stored[k - 1]
            col_of = keys >> _SHIFT
            cols, ids = col_of.tolist(), (keys & _WORD).tolist()
            bounds = [0, *(np.flatnonzero(np.diff(col_of)) + 1).tolist(), len(cols)]
            for start, stop in zip(bounds, bounds[1:]):
                j = cols[start]
                ws = [words[u] for u in ids[start:stop]]
                # one product per column: a group's product is large enough,
                # even at 3x2, for OpenBLAS to wake its second thread, whose
                # spin-wait then slows the Python work that follows
                part = to_slots @ x[:, start:stop]
                live = np.flatnonzero(part.any(axis=1))
                for a, row in zip(live.tolist(), part[live].tolist()):
                    acc[(a, j)] = {w: c for w, c in zip(ws, row) if c}
        return ElementKernel(self.fl.algebra, self.fl.n_slots)._from_terms(acc)

    def _defect(self, k0: np.ndarray, W: ElementKernel) -> float:
        """max |K0·Δ_k + W∘Δ_{k−1}| over every order k and column, with
        ``k0`` and ``W`` restricted to the exact rows, on the blocks: K0·Δ_k
        is k0·(−Δ0[:, rows]·X_k), W∘Δ_{k−1} is the order step from the
        stored order k − 1, and the two are added on their (column, word
        id) keys.  No Δ_k term dict is built."""
        k0 = np.array(k0.tolist(), dtype=complex)
        rows, cols, parts = _split(W)
        to_slots = self._neg_free[:, self._rows]
        worst = 0.0
        for g, stored in enumerate(self._blocks):
            below = None
            for k in range(1, self.order_count):
                lk, lower = self._step(k - 1, *self._source(g, cols, below),
                                       parts, len(rows))
                if k > len(stored):   # V_k is 0 on this group
                    worst = max(worst, float(np.abs(lower).max(initial=0.0)))
                    break
                keys, x = below = stored[k - 1]
                res = k0 @ (to_slots @ x)
                at = np.minimum(np.searchsorted(keys, lk), len(keys) - 1)
                hit = keys[at] == lk
                res[np.ix_(rows, at[hit])] += lower[:, hit]
                worst = max(worst, float(np.abs(res).max(initial=0.0)),
                            float(np.abs(lower[:, ~hit]).max(initial=0.0)))
        return worst


def interacting_propagator(S: ActionFunctional,
                           max_grade: int = 6) -> InteractingKernel:
    """Retarded series inverse of the interacting second derivative.

    Built as the terminating expansion Δ_k = (−1)^k (Δ_0 W)^k Δ_0 where W
    is the even element part of S^(2); entry grades are exactly 2k, so
    the series terminates at k = max_grade // 2.  Each order is formed
    through the sparse, site-local W as the vertex product V_1 = W·Δ_0,
    V_k = W∘Δ_{k−1}, and Δ_k = (−Δ_0)·V_k: the sign is carried by the
    scalar matrix −Δ_0, and each product has a single monomial of W on
    its left.

    Rational mode keeps each V_k as an exact sparse ``ElementKernel`` and
    reads Δ_{k−1} back from ``corrections``; the last order is left
    unbuilt.  Float mode keeps each V_k as dense column blocks, one
    numpy product per monomial of W and order (:class:`_BlockKernel`),
    and builds no Δ_k term dict until ``corrections`` is read.

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
    if not fl.ring.exact:
        return _BlockKernel(fl, max_grade, free, W)
    ik = InteractingKernel(fl, max_grade, free)
    for k in range(1, max_grade // 2 + 1):
        vertex = (W.compose_scalar_right(free.mat) if k == 1
                  else W.compose(ik.corrections[-1]))
        if vertex.is_zero():
            break
        ik.vertices.append(vertex)
    return ik


def propagator_defect(S: ActionFunctional, ik: InteractingKernel) -> float:
    """max |S^(2) @ Δ_I − δ| over exact equation rows, graded entrywise.

    Only the exact rows of each product are formed, and W∘Δ_{k−1} is
    recomputed from the stored order k − 1, so each order is checked
    against the one before it; the last order is checked too.

    On a series that keeps dense blocks (the float series of
    :func:`interacting_propagator`) the grade-2k residual K0·Δ_k +
    W∘Δ_{k−1} is formed on the blocks, building no Δ_k term dict.  On any
    other series, which need only have ``fl``, ``free`` and
    ``corrections``, it is accumulated sparsely, entry by entry, from
    ``ik.corrections``: exactly in rational mode.
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
    if isinstance(ik, _BlockKernel):
        return max(worst, ik._defect(k0, W))
    # the second product is added in place into the first's fresh term dicts
    prev = None
    for corr in ik.corrections:
        lower = (W.compose_scalar_right(ik.free.mat) if prev is None
                 else W.compose(prev))
        upper = corr.compose_scalar_left(k0)
        blk = {key: e._terms for key, e in upper.entries.items()}
        for key, e in lower.entries.items():
            _accumulate(blk, key, e._terms, ring)
        for terms in blk.values():
            worst = max(worst, max((abs(complex(c)) for c in terms.values()),
                                   default=0.0))
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
    """Relabel colors by a permutation {old: new}; each relabelled slot is
    merged into its word by ``merge_words``, which gives the Koszul sign."""
    if sorted(perm.values()) != sorted(perm):
        raise ValueError("perm must permute its own keys")
    gens = fl.algebra.generators
    out: dict = {}
    ring = fl.ring
    for w, c in elem.items():
        word = ()
        for i in w:
            g = gens[i]
            slot = fl.slot(g.species, perm.get(g.color, g.color), g.site,
                           g.component)
            sign, word = merge_words(word, (slot,))
            if sign < 0:
                c = -c
        out[word] = out.get(word, ring.zero) + c
    return fl.algebra.element(out)
