"""Free Dirac and Gross-Neveu actions on the lattice, the interacting
second-derivative kernel, and interacting propagators as terminating
series with Grassmann-even entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import frexp, isqrt
from typing import NamedTuple

import numpy as np

from ._core import merge_words
from .algebra import CONJUGATE, FIELD, GrassmannElement
from .dynamics import ActionFunctional, peierls_bracket
from .kernels import ElementKernel
from .lattice import NCOMP, FieldLattice, dirac_green, dirac_matrix
from .linalg import _ExactBlock, matmul, max_abs, ring_of, zeros

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
    zero = fl.ring.zero
    terms: dict = {}
    rows, cols = np.nonzero(M)          # row-major order
    entries = list(zip(rows.tolist(), cols.tolist(), M[rows, cols].tolist()))
    for color in range(1, fl.ncolors + 1):
        psi0 = fl.slot(FIELD, color, 0, 0)
        psb0 = fl.slot(CONJUGATE, color, 0, 0)
        for a, b, c in entries:
            # conj_a ∧ field_b = - field_b ∧ conj_a (canonical word)
            terms[(psi0 + b, psb0 + a)] = zero - c
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


def _quartic(fl: FieldLattice, params: GrossNeveuParams,
             weights) -> GrassmannElement:
    """Σ_x vol w(x) g(x)/(2N) (ρ_x ∧ ρ_x), with λ left formal, N =
    ``fl.ncolors`` and ρ_x = Σ_{color, component} conj ∧ field at site x."""
    ring = fl.ring
    lat = fl.lattice
    vol = ring.coerce(lat.volume_weight())
    half = ring.number(Fraction(1, 2))
    invN = ring.number(Fraction(1, fl.ncolors))
    g = params.cutoff(fl)
    out = fl.algebra.zero()
    for site in range(lat.n_sites):
        w = ring.coerce(weights[site]) * ring.coerce(g[site])
        if not w:
            continue
        P = zeros((fl.block, fl.block), ring)
        for r in range(site * NCOMP, (site + 1) * NCOMP):
            P[r, r] = ring.one
        rho = bilinear_element(fl, P)
        out = out + rho.wedge(rho).scale(vol * w * half * invN)
    return out


def gn_interaction_term(fl: FieldLattice,
                        params: GrossNeveuParams) -> GrassmannElement:
    """Quartic interaction functional F = Σ_x vol g(x)/(2N) (ρ_x ∧ ρ_x).

    λ is left formal so the element can serve as the series insertion.
    """
    return _quartic(fl, params, fl.ones_weights())


def build_gn_action(fl: FieldLattice, params: GrossNeveuParams) -> ActionFunctional:
    """Gross-Neveu action S(f) = S_0(f) + λ F(f), F the quartic cutoff term."""
    free = _free_builder(fl, params.m)

    def build(weights):
        return free(weights) + _quartic(fl, params, weights).scale(params.lam)

    S = ActionFunctional(fl, build, name="gross_neveu")
    S.meta = {"m": params.m}
    return S


# A block key is ``column << _SHIFT | word id``: sorted keys run column by
# column, and by word id within a column.
_SHIFT = 32
_WORD = (1 << _SHIFT) - 1
_UNFILLED = np.iinfo(np.int64).min   # a merge-table entry not filled yet
_FILL_BATCH = 4096                    # merge-table pairs filled per batch


class _Entries(NamedTuple):
    """W as flat per-entry arrays, the entries sorted by column.

    ``rows`` and ``cols`` are W's rows and columns (sorted slot indices);
    entry e is the coefficient ``coef[e]`` of monomial ``mono[e]`` in
    W[rows[row[e]], cols[c]], where ``start[c] <= e < start[c + 1]``.
    """

    rows: np.ndarray
    cols: np.ndarray
    row: np.ndarray
    mono: np.ndarray
    coef: np.ndarray
    start: np.ndarray


class _Order(NamedTuple):
    """One block, nonzeros only: ``vals`` at the flat positions ``at`` =
    key position · rows + row, ascending, so the nonzeros of one key are
    adjacent.  An order of a site group has W's rows; the input Y of an
    order step has W's columns."""

    keys: np.ndarray
    at: np.ndarray
    vals: np.ndarray


class _Columns(NamedTuple):
    """A scalar matrix by its nonzeros, column by column: column j holds
    ``vals[start[j]:start[j + 1]]`` on the rows ``rows[start[j]:start[j +
    1]]``, of ``n`` rows in all."""

    n: int
    start: np.ndarray
    rows: np.ndarray
    vals: np.ndarray


def _columns(a: np.ndarray) -> _Columns:
    j, i = np.nonzero(a.T.astype(bool))
    return _Columns(len(a), np.searchsorted(j, np.arange(a.shape[1] + 1)), i, a[i, j])


def _runs(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """lo[i], lo[i] + 1, …, lo[i] + count[i] − 1 for every i, concatenated."""
    return np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())


def _starts(a: np.ndarray) -> np.ndarray:
    """Whether each entry of a sorted array differs from the one before it;
    the first one does."""
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return new


def _summed(code: np.ndarray, vals: np.ndarray, span: int):
    """The distinct codes, ascending, and the sum of ``vals`` on each, its
    terms in the order given; every code is below ``span``."""
    bits = len(code).bit_length()
    if span << bits < 1 << 63:
        # a stable argsort at the speed of a value sort: the position is
        # packed below the code, so no two packed values are equal
        packed = np.sort(code << bits | np.arange(len(code)))
        order, code = packed & ((1 << bits) - 1), packed >> bits
    else:
        order = np.argsort(code, kind="stable")
        code = code[order]
    first = np.flatnonzero(_starts(code))
    return code[first], np.add.reduceat(vals[order], first)


def _nonzero(keys: np.ndarray, at: np.ndarray, vals: np.ndarray) -> _Order:
    """The block of these sums, its exact zeros dropped."""
    keep = vals.astype(bool)
    return _Order(keys, at, vals) if keep.all() else _Order(keys, at[keep], vals[keep])


def _product(a: _Columns, x: _Order) -> _Order:
    """a·X on X's keys, from the nonzeros of both: one product per pair of
    nonzeros a[i, r], X[r, p], summed on the flat position p · a.n + i."""
    p, r = np.divmod(x.at, len(a.start) - 1)
    lo = a.start[r]
    count = a.start[r + 1] - lo
    e = _runs(lo, count)
    return _nonzero(x.keys, *_summed(np.repeat(p, count) * a.n + a.rows[e],
                                     a.vals[e] * np.repeat(x.vals, count),
                                     len(x.keys) * a.n))


def _parts(a: np.ndarray):
    """``(re, im, s)`` with ``a = (re + i·im)/s`` exactly: exact entries
    as Python ints over the lcm of their denominators, float ones scaled
    by 2^−e, e the binary exponent of the largest modulus, so that a
    product of two parts as large as the largest neither under- nor
    overflows."""
    if ring_of(a).exact:
        b = _ExactBlock.of(a)
        return b.re, b.im, b.den
    e = frexp(float(np.abs(a).max(initial=0.0)))[1]
    return np.ldexp(a.real, -e), np.ldexp(a.imag, -e), Fraction(2) ** -e


def _square(x: _Order, gram, n: int) -> Fraction:
    """Σ_p x_pᴴ·G·x_p over the keys p of the n-row block X, G Hermitian
    and given by its :func:`_parts`: a sum over the pairs of stored
    nonzeros v_i, v_j that share a key of Re conj(v_i)·G[r_i, r_j]·v_j,
    each nonzero with itself once and every other pair twice.  Exact on
    exact parts."""
    gre, gim, gs = gram
    re, im, s = _parts(x.vals)
    p, r = np.divmod(x.at, n)
    total = np.sum(gre[r, r] * (re * re + im * im))
    # the nonzeros of one key are adjacent: the pair (i, i + d) shares a
    # key when (i, i + d − 1) does and i + d is in the same key as i + d − 1
    same = p[1:] == p[:-1]
    pair, d = np.ones(len(p), dtype=bool), 1
    while (pair := pair[:-1] & same[d - 1:]).any():
        i = np.flatnonzero(pair)
        j = i + d
        g = r[i], r[j]
        total += 2 * np.sum(gre[g] * (re[i] * re[j] + im[i] * im[j])
                            - gim[g] * (re[i] * im[j] - im[i] * re[j]))
        d += 1
    return Fraction(total) / (gs * s * s)


def _translated(words: np.ndarray, perm: np.ndarray):
    """Each row of increasing generator ordinals under the slot permutation
    ``perm``, re-sorted, and whether its Koszul sign is odd: one
    transposition per pair of generators that ``perm`` puts out of order."""
    moved = perm[words]
    i, j = np.triu_indices(words.shape[1], 1)
    odd = (moved[:, i] > moved[:, j]).sum(axis=1) % 2
    moved.sort(axis=1)
    return moved, odd


def _filled(table: np.ndarray, at: np.ndarray, fill) -> np.ndarray:
    """``table[at]``, its ``_UNFILLED`` entries filled first: each such
    position once, ascending, as ``table[batch] = fill(batch)`` in batches
    of at most ``_FILL_BATCH``, so that a fill's arrays stay small."""
    got = table[at]
    missing = got == _UNFILLED
    if not missing.any():
        return got
    todo = np.zeros(len(table), dtype=bool)
    todo[at[missing]] = True
    todo = np.flatnonzero(todo)
    for lo in range(0, len(todo), _FILL_BATCH):
        batch = todo[lo:lo + _FILL_BATCH]
        table[batch] = fill(batch)
    return table[at]


def _root(square: Fraction) -> float:
    """√square rounded once to a float, 0.0 for a square <= 0: an integer
    square root floors it to 64 bits or more first, its last bit set when
    the floor is inexact, so that the one rounding of the division sees
    a root above a halfway point as above it."""
    n, d = square.numerator, square.denominator
    if n <= 0:
        return 0.0
    m = max(0, 66 + (d.bit_length() - n.bit_length()) // 2)
    root = isqrt((n << 2 * m) // d)
    return (root | (root * root * d != n << 2 * m)) / (1 << m)


class _MergeTables:
    """Words of every order, numbered in order of first appearance, the
    merge tables of W's monomials against them, and their moves under a
    slot permutation.

    ``words[k]`` holds the grade-2k words met so far, one row of
    increasing generator ordinals per id.  ``merge[k][m, u]`` is ±(id + 1)
    of monomial m ∧ word u in order k+1's table, the sign its Koszul
    sign, or 0 where the two share a generator.  A move table holds
    ±(id + 1) of each order-k word under one permutation, re-sorted, the
    sign its Koszul sign.  Every table entry is ``_UNFILLED`` until it is
    first read, and is then filled by :func:`_filled` by ascending
    position, which numbers new words in that order.
    """

    def __init__(self):
        self._mono_ids: dict = {}                     # monomial word -> id
        self.monomials = np.zeros((0, 0), dtype=np.int64)
        self.words = [np.zeros((1, 0), dtype=np.int64)]
        self._ids = [{b"": 0}]                        # per order: bytes -> id
        self.merge: list = []
        self._moves: dict = {}                # (k, permutation bytes) -> table

    def monomial_ids(self, words: list) -> np.ndarray:
        """The id of each monomial word, numbering new ones in order."""
        ids = self._mono_ids
        got = [ids.setdefault(w, len(ids)) for w in words]
        if len(ids) > len(self.monomials):
            grade = len(next(iter(ids)))
            self.monomials = np.array(list(ids), dtype=np.int64).reshape(-1, grade)
        return np.array(got, dtype=np.int64)

    def lookup(self, k: int, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        """±(id + 1) of monomial m ∧ order-k word u per pair, 0 where they
        share a generator."""
        self._fit(k)
        n = self.merge[k].shape[1]
        return _filled(self.merge[k].ravel(), m * n + u,
                       lambda at: self._merged(k, *np.divmod(at, n)))

    def moved(self, k: int, u: np.ndarray, perm: np.ndarray) -> np.ndarray:
        """±(id + 1) of each order-k word u under the slot permutation
        ``perm``, the sign its Koszul sign."""
        key, words = (k, perm.tobytes()), self.words[k]
        table = self._moves.get(key, np.zeros(0, dtype=np.int64))
        if len(table) < len(words):
            table = self._moves[key] = np.concatenate(
                [table, np.full(len(words) - len(table), _UNFILLED)])
        return _filled(table, u, lambda at: self._intern(k, *_translated(words[at], perm)))

    def _fit(self, k: int):
        """Grow order k's merge table to every monomial and word so far."""
        if len(self.merge) == k:
            self.merge.append(np.zeros((0, 0), dtype=np.int64))
        have = self.merge[k].shape
        need = (len(self.monomials), len(self.words[k]))
        if need[0] <= have[0] and need[1] <= have[1]:
            return
        shape = tuple(h if n <= h else max(n, 2 * h) for n, h in zip(need, have))
        grown = np.full(shape, _UNFILLED, dtype=np.int64)
        grown[:have[0], :have[1]] = self.merge[k]
        self.merge[k] = grown

    def _merged(self, k: int, m: np.ndarray, u: np.ndarray) -> np.ndarray:
        """±(id + 1) of monomial m ∧ order-k word u per pair, 0 where they
        share a generator, numbering new words in order."""
        a, b = self.monomials[m], self.words[k][u]
        # one column pair at a time: whether w and u share a generator, and
        # the Koszul sign of w ∧ u, one transposition per a ∈ w, b ∈ u, b < a
        shared = np.zeros(len(m), dtype=bool)
        odd = np.zeros(len(m), dtype=bool)
        for j in range(a.shape[1]):
            for i in range(b.shape[1]):
                shared |= b[:, i] == a[:, j]
                odd ^= b[:, i] < a[:, j]
        apart = ~shared
        a, b, odd = a[apart], b[apart], odd[apart]
        out = np.zeros(len(m), dtype=np.int64)
        merged = np.sort(np.concatenate([a, b], axis=1), axis=1)
        out[apart] = self._intern(k + 1, merged, odd)
        return out

    def _intern(self, k: int, words: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """±(id + 1) of each word in order k, negative where ``odd``,
        numbering new words by first appearance."""
        if len(self.words) == k:
            self.words.append(np.zeros((0, words.shape[1]), dtype=np.int64))
            self._ids.append({})
        ids = self._ids[k]
        # each row as one bytes object: an exact key for any generator
        # count and grade
        words = np.ascontiguousarray(words)
        raw = words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel().tolist()
        start = len(ids)
        got = np.fromiter((ids.setdefault(w, len(ids)) for w in raw),
                          dtype=np.int64, count=len(raw))
        if len(ids) > start:
            fresh = np.frombuffer(b"".join(islice(ids, start, None)), dtype=np.int64)
            self.words[k] = np.concatenate(
                [self.words[k], fresh.reshape(len(ids) - start, -1)])
        return np.where(odd, -1 - got, 1 + got)


class InteractingKernel:
    """Terminating retarded propagator series with Grassmann-even entries,
    a function of the action ``S`` (kept as ``action``) alone.

    ``free`` is the scalar order Δ0, S's free retarded solve.  Order k >= 1
    is Δ_k = (−Δ0)·V_k with the vertex product V_k = W∘Δ_{k−1} (V_1 =
    W·Δ0, W the even element part of S^(2), its rows restricted to
    ``free.exact_rows``, the nonzero columns of Δ0); its entries have
    grade exactly 2k, so evaluation against a grade-n configuration uses
    only k <= n//2 orders.

    Each V_k is kept as column blocks.  Order k's words (grade 2k) are
    numbered in a table of their own (:class:`_MergeTables`), and a block
    of V_k is a matrix over W's rows whose columns are keys ``column << 32
    | word id``.  The live source columns of Δ0, its exact rows, are
    grouped by lattice site, one block per group and order.  The shift
    (:func:`_translation`), the translation x → x + 1 when it maps W onto
    itself, else the identity, maps the series onto itself and sorts the
    groups into orbits: only the first group of each orbit is built,
    running through every order before the next one starts.  Every other
    group is that group's n-th translate, and :meth:`_order` maps its
    blocks where they are read.  With the identity every group is its own
    orbit and is built.
    A block is only ever held as its nonzeros (:class:`_Order`), from the
    order step that makes it to the last read.

    One order step, V_{k+1} = W∘Δ_k, is one pass of whole-array numpy
    calls, whatever W's monomial count: it takes Δ_k on W's columns
    (Y = −Δ0[cols, rows]·X_k, formed from the nonzeros of X_k, or Δ0
    itself for V_1), expands each nonzero of Y against the entries of W
    (:class:`_Entries`) in the same column, reads each merged word's
    signed id from the merge table of order k, and sums the products that
    land on one (row, key) with one sort.

    Both arithmetic modes run the same steps on the ring arrays of
    :mod:`~fermifields.linalg`; their dtype is the only difference.

    :attr:`corrections` is the one place Δ_k is built, as an
    :class:`~fermifields.kernels.ElementKernel`, from every group's
    blocks: it builds the orders not built yet, the first time it is
    read.  :meth:`per_order_norms` reads no Δ_k: with the Gram matrix
    G = Δ0ᴴΔ0 on W's rows, ‖Δ_k‖_F² is Σ_p x_pᴴ·G·x_p over the key
    columns x_p of the blocks of V_k, summed over the pairs of stored
    nonzeros that share a key, exactly in rational mode, once per orbit.
    """

    def __init__(self, S: ActionFunctional, max_grade: int):
        if max_grade % 2 != 0:
            raise ValueError("max_grade must be even (entries are Grassmann-even)")
        fl = self.fl = S.fl
        self.action = S
        self.max_grade = max_grade
        free = self.free = dirac_green(fl, S.meta["m"], "retarded")
        W = S.second_kernel()[1].restrict_rows(free.exact_rows)
        shift = _translation(fl, W)
        self._corrections: list = []      # the Δ_k built so far, k = 1..
        self._neg_free = -free.mat
        self._tables = _MergeTables()
        self._W = self._entries(W)
        self._back = _columns(self._neg_free[np.ix_(self._W.cols, self._W.rows)])
        sites = fl.slot_sites.tolist()
        groups: dict = {}
        for j in np.flatnonzero(free.exact_rows).tolist():
            groups.setdefault(sites[j], []).append(j)
        self._groups = [np.array(g, dtype=np.int64) for g in groups.values()]
        # per group: (its orbit, n), the group being the shift's n-th
        # translate of the orbit's first group
        index = {s: g for g, s in enumerate(groups)}
        step = [index[sites[shift[j[0]]]] for j in self._groups]
        self._orbit: list = [None] * len(self._groups)
        first = []
        for g in range(len(self._groups)):
            h, n = g, 0
            while self._orbit[h] is None:
                self._orbit[h], h, n = (len(first), n), step[h], n + 1
            if n:
                first.append(g)
        # the shift's n-th power on slots and on the positions of W's rows
        powers = [np.arange(fl.n_slots)]
        while len(powers) <= max((n for _, n in self._orbit), default=0):
            powers.append(shift[powers[-1]])
        self._shifts = [(p, np.searchsorted(self._W.rows, p[self._W.rows]))
                        for p in powers]
        # per orbit: the _Order of V_1, V_2, … of its first group, up to
        # its last nonzero order
        self._blocks = [self._build(g) for g in first]

    @property
    def corrections(self) -> list:
        """Δ_1, Δ_2, … as ElementKernels; builds the ones not built yet."""
        built = self._corrections
        while len(built) < self.order_count - 1:
            built.append(self._correction(len(built) + 1))
        return built

    @property
    def order_count(self) -> int:
        return 1 + max(map(len, self._blocks), default=0)

    def per_order_norms(self) -> list:
        """(k, grade, ‖Δ_k‖_F) rows, the k >= 1 norms by the Gram identity.

        Each square is summed from the exact parts of the stored values
        (:func:`_parts`) into a ``Fraction``, once per orbit and counted
        once for each of its site groups, whose squares are all equal,
        and rooted once (:func:`_root`).  In rational mode it is exact, so
        every norm is the exact norm rounded once; in either mode a norm
        whose square is below the float range still reads."""
        rows = self._W.rows
        re, im, s = _parts(self.free.mat)
        out = [(0, 0, _root(Fraction(np.sum(re * re + im * im)) / (s * s)))]
        a = self.free.mat[:, rows]
        gram = _parts(matmul(np.conjugate(a.T), a))
        size = [0] * len(self._blocks)
        for o, _ in self._orbit:
            size[o] += 1
        for k in range(1, self.order_count):
            out.append((k, 2 * k, _root(sum(
                size[o] * _square(stored[k - 1], gram, len(rows))
                for o, stored in enumerate(self._blocks) if len(stored) >= k))))
        return out

    def _depth(self, g: int) -> int:
        """The number of nonzero orders of group g."""
        return len(self._blocks[self._orbit[g][0]])

    def _order(self, g: int, k: int) -> _Order:
        """The block of V_k of group g: stored for an orbit's first group,
        else mapped from it by the shift's n-th power.  A nonzero moves to
        its translated row and column, its word to the translated word,
        re-sorted and numbered in order k's table, its value taking the
        Koszul sign of the re-sort; the block is then sorted again."""
        o, n = self._orbit[g]
        x = self._blocks[o][k - 1]
        if not n:
            return x
        slots, rows = self._shifts[n]
        word = self._tables.moved(k, x.keys & _WORD, slots)
        keys = slots[x.keys >> _SHIFT] << _SHIFT | (np.abs(word) - 1)
        order = np.argsort(keys)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        p, r = np.divmod(x.at, len(rows))
        vals = x.vals.copy()
        np.negative(vals, out=vals, where=word[p] < 0)
        # every position is distinct, so the sums are the values re-sorted
        return _Order(keys[order], *_summed(rank[p] * len(rows) + rows[r], vals,
                                            len(keys) * len(rows)))

    def __repr__(self):
        return (f"InteractingKernel(orders={self.order_count}, "
                f"max_grade={self.max_grade})")

    def _entries(self, W: ElementKernel) -> _Entries:
        """W as flat per-entry arrays, its monomials numbered in the merge
        tables."""
        rows = sorted({i for i, _ in W.entries})
        cols = sorted({a for _, a in W.entries})
        at_row = {i: r for r, i in enumerate(rows)}
        at_col = {a: c for c, a in enumerate(cols)}
        flat = [(at_row[i], at_col[a], w, x)
                for (i, a), e in W.entries.items() for w, x in e.items()]
        coef = zeros(len(flat), self.fl.ring)
        coef[:] = [t[3] for t in flat]
        # monomials numbered in order of first appearance in W
        mono = self._tables.monomial_ids([t[2] for t in flat])
        col = np.array([t[1] for t in flat], dtype=np.int64)
        order = np.argsort(col, kind="stable")
        return _Entries(
            np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array([t[0] for t in flat], dtype=np.int64)[order], mono[order],
            coef[order],
            np.searchsorted(col[order], np.arange(len(cols) + 1)))

    def _build(self, g: int) -> list:
        """Run group g through every order; its orders up to its last
        nonzero one."""
        last = self.max_grade // 2
        stored: list = []
        y = self._first(g)
        for k in range(1, last + 1):
            x = self._step(k - 1, y)
            if not len(x.vals):
                break
            stored.append(x)
            if k < last:
                y = _product(self._back, x)   # Δ_k = −Δ0[:, rows]·X_k on W's columns
        return stored

    def _first(self, g: int) -> _Order:
        """The rows of Δ0 on W's columns in group g: Δ0's own columns as
        keys, under word id 0, the empty word."""
        group, cols = self._groups[g], self._W.cols
        y = self.free.mat[np.ix_(cols, group)]
        p, c = np.nonzero(y.T.astype(bool))
        return _Order(group << _SHIFT, p * len(cols) + c, y[c, p])

    def _step(self, k: int, y: _Order) -> _Order:
        """W∘Δ_k on W's rows, Δ_k given by its rows ``y`` on W's columns.
        Its keys are every (column, word) that a product reaches, sorted,
        the products that sum to 0 included; its nonzeros are the sums."""
        W = self._W
        p, c = np.divmod(y.at, len(W.cols))
        # e runs over W's entries in column c, for each nonzero (c, p) of y
        lo = W.start[c]
        count = W.start[c + 1] - lo
        e = _runs(lo, count)
        src = np.repeat(np.arange(len(p)), count)   # the nonzero of y
        merged = self._tables.lookup(k, W.mono[e], y.keys[p[src]] & _WORD)
        keep = np.flatnonzero(merged)
        if not len(keep):
            return _Order(y.keys[:0], keep, W.coef[:0])
        e, src, merged = e[keep], src[keep], merged[keep]
        p = p[src]
        value = W.coef[e] * y.vals[src]
        np.negative(value, out=value, where=merged < 0)
        # one sort by (column rank, new word id, row) sums the products and
        # gives the new keys in order
        col = y.keys >> _SHIFT
        cols = col[_starts(col)]
        n, nrows = len(self._tables.words[k + 1]), len(W.rows)
        code, vals = _summed(
            (np.searchsorted(cols, col)[p] * n + np.abs(merged) - 1) * nrows + W.row[e],
            value, len(cols) * n * nrows)
        key, row = np.divmod(code, nrows)
        new = _starts(key)
        key = key[new]
        return _nonzero((cols[key // n] << _SHIFT) | (key % n),
                        (np.cumsum(new) - 1) * nrows + row, vals)

    def _correction(self, k: int) -> ElementKernel:
        """Δ_k = −Δ0[:, rows]·X_k from every group's nonzeros, stored or
        mapped, unpacked into term dicts column by column, each column's
        rows ascending."""
        blocks = [self._order(g, k) for g in range(len(self._groups))
                  if k <= self._depth(g)]
        words = list(map(tuple, self._tables.words[k].tolist()))
        to_slots = _columns(self._neg_free[:, self._W.rows])
        acc: dict = {}
        for x in blocks:
            d = _product(to_slots, x)
            p, slot = np.divmod(d.at, to_slots.n)
            col = (d.keys >> _SHIFT)[p]
            order = np.lexsort((slot, col))   # stable: word ids stay ascending
            for j, a, u, c in zip(col[order].tolist(), slot[order].tolist(),
                                  (d.keys[p[order]] & _WORD).tolist(),
                                  d.vals[order].tolist()):
                acc.setdefault((a, j), {})[words[u]] = c
        return ElementKernel(self.fl.algebra, self.fl.n_slots)._from_terms(acc)

    def _defect(self) -> float:
        """max |W∘Δ_{k−1} − X_k| over every order k and column, from every
        group's nonzeros as :meth:`_order` reads them: the order step from
        the group's order k − 1, less X_k, summed on (key, row).  With E =
        K0·Δ0 − Id on W's rows, K0·Δ_k + W∘Δ_{k−1} = (W∘Δ_{k−1} − X_k) −
        E[:, W rows]·X_k.  It sees a stored order changed after its step
        and, on a mapped group, a step that is not translation-covariant,
        nothing else; no Δ_k term dict is built."""
        n, parts = len(self._W.rows), []
        for g in range(len(self._groups)):
            y = self._first(g)
            for k in range(1, self.order_count):
                lower = self._step(k - 1, y)
                if k > self._depth(g):   # V_k is 0 on this group
                    parts.append(max_abs(lower.vals))
                    break
                x = self._order(g, k)
                # key value · rows + row, −X_k's terms before the step's
                code = np.concatenate([b.keys[b.at // n] * n + b.at % n
                                       for b in (x, lower)])
                _, sums = _summed(code, np.concatenate([-x.vals, lower.vals]),
                                  int(code.max()) + 1)
                parts.append(max_abs(sums))
                if k + 1 < self.order_count:
                    y = _product(self._back, x)
        return max_abs(np.array(parts))


def interacting_propagator(S: ActionFunctional,
                           max_grade: int = 6) -> InteractingKernel:
    """Retarded series inverse of the interacting second derivative.

    Built as the terminating expansion Δ_k = (−1)^k (Δ_0 W)^k Δ_0 where W
    is the even element part of S^(2); entry grades are exactly 2k, so
    the series terminates at k = max_grade // 2.  Each order is formed
    through the sparse, site-local W as the vertex product V_1 = W·Δ_0,
    V_k = W∘Δ_{k−1}, and Δ_k = (−Δ_0)·V_k: the sign is carried by the
    scalar matrix −Δ_0, and each product has a single monomial of W on
    its left.  The series keeps only the nonzeros of each V_k's column
    blocks, built by one whole-array order step per lattice site and
    order, in either arithmetic (:class:`InteractingKernel`), and builds
    no Δ_k term dict until ``corrections`` is read.

    Rows of W outside Δ_0's ``exact_rows`` meet its zero columns and are
    dropped first.  Δ_0 has full column rank on its other columns,
    so Δ_k = 0 exactly when V_k = 0, and a zero V_k ends the series.
    The advanced series is not built: see :func:`interacting_causal`.

    The lattice is periodic in x.  When the translation τ: x → x + 1 is
    a symmetry of W (:func:`_translation`), one site per time slice is
    built and the others are mapped from it where they are read; else
    every site is built, by the same code.
    """
    return InteractingKernel(S, max_grade)


def _translation(fl: FieldLattice, W: ElementKernel) -> np.ndarray:
    """The slot permutation τ of the translation x → x + 1 when it is a
    symmetry of W, else the identity: when W[τi, τa] is W[i, a] with τ on
    each word, re-sorted and given its Koszul sign.  Δ0, the series' other
    input, is the periodic free solve, τ-covariant by construction (in
    float mode to rounding), on exact rows that depend only on species and
    time; K0 enters only the defect's grade-0 block, which maps nothing."""
    lat = fl.lattice
    # slot axes (species and color, time, x, component); τ rolls x
    tau = np.roll(np.arange(fl.n_slots).reshape(-1, lat.nt, lat.nx, NCOMP),
                  -1, axis=2).ravel()
    terms = {(i, a, w): c for (i, a), e in W.entries.items() for w, c in e.items()}
    image: dict = {}
    if terms:
        rows, cols, words = map(list, zip(*terms))
        moved, odd = _translated(np.array(words, dtype=np.int64), tau)
        image = {key: -c if o else c for key, o, c in zip(
            zip(tau[rows].tolist(), tau[cols].tolist(), map(tuple, moved.tolist())),
            odd.tolist(), terms.values())}
    return tau if image == terms else np.arange(fl.n_slots)


def propagator_defect(ik: InteractingKernel) -> float:
    """max |S^(2) @ Δ_I − δ| over exact equation rows, graded entrywise,
    S the series' own action ``ik.action``.

    The grade-0 block is E = K0·Δ0 − Id.  The grade-2k block is the order
    step's own residual W∘Δ_{k−1} − X_k at every site group: the series'
    step on its W from the group's order k − 1, less its stored or mapped
    order k.  As Δ_k = −Δ0[:, W rows]·X_k, K0·Δ_k +
    W∘Δ_{k−1} = (W∘Δ_{k−1} − X_k) − E[:, W rows]·X_k: both blocks are 0
    exactly when S^(2)·Δ_I = δ holds at every grade, and in float mode
    they differ from it by E·X_k, about 1e-16.  The step residual sees
    only a stored order changed after its step and, on a mapped group, a
    step that is not translation-covariant.  No block is made dense and
    no Δ_k term dict is built; in rational mode every residual is exact.
    """
    K0 = ik.action.second_kernel()[0]
    return max_abs(np.array([ik.free.identity_defect(K0.mat), ik._defect()]))


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
