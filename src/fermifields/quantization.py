"""Deformation of the wedge product by two-point kernel contractions.

All exponential series exploit nilpotency: iteration stops as soon as a
contraction application returns zero, so hbar series are exactly finite
at fixed functional grade.  One loop, :func:`_hbar_exp`, forms every such
series as {order: term dict}.  The star commutator and the products and
maps of series sum their parts per order into one term dict, with the
keys, key order and bits of the series folds ``out + …`` they replace;
the factors 1/2 and 1/n! are formed once per ring mode.

Operator conventions (fixed here and asserted by tests); d_i is the left
derivative of :meth:`GrassmannElement.derivatives`:

* the single-argument contraction is  Γ_K = (1/2) Σ K[i,j] d_j d_i,  d_i
  applied first, which makes the time-ordered product agree with the
  star product on temporally ordered supports;
* the single pair contraction Γ_Δ(F, G), the hbar^1 coefficient of
  ``star_with_kernel(Δ, F, G)``, is half the signed pairing of
  :func:`~fermifields.dynamics.peierls_bracket`,
  (1/2) (−1)^{|F|+1} ⟨F^(1), Δ G^(1)⟩;
* the pair contraction on a tensor state F ⊗ G, iterated by the star
  products, contracts one slot of F against one slot of G through the
  kernel: its sign is a right derivative on F times a left derivative
  on G, and the contracted words merge with their Koszul sign, F-words
  before G-words.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ._core import merge_words
from .algebra import Algebra, GrassmannElement, _add_terms
from .kernels import Kernel
from .reports import TOL_FACTOR, check_record
from .scalars import Ring
from .series import FormalSeries, HbarSeries

__all__ = [
    "SymmetricKernel", "star_product", "star_with_kernel",
    "star_commutator", "contraction_operator", "time_ordering",
    "time_ordered_product", "formal_smatrix", "alpha_transform",
    "star_h_sandwich", "star_h_direct", "random_symmetric_kernel",
]


def _mat(kernel):
    return kernel.mat if isinstance(kernel, Kernel) else kernel


@functools.cache
def _reciprocal(mode: str, den: int):
    """1/den in the ring of ``mode``, formed once per mode and den."""
    return Ring(mode).number(Fraction(1, den))


def _half(ring):
    return _reciprocal(ring.mode, 2)


def _inv_factorial(ring, n: int):
    return _reciprocal(ring.mode, math.factorial(n))


class SymmetricKernel(Kernel):
    """Graded-symmetric two-point kernel.

    For anticommuting generators the graded-symmetric class corresponds
    to an *antisymmetric* coefficient matrix (the causal propagator, by
    contrast, has a symmetric matrix); validated on construction by the
    pass rule of :func:`~fermifields.reports.check_record`, exactly in
    rational mode and below ``TOL_FACTOR`` in float mode.
    """

    def __init__(self, mat):
        super().__init__(mat, kind="symmetric")
        rec = check_record("graded_symmetry", {}, [mat + mat.T],
                           None if self.ring.exact else TOL_FACTOR)
        if not rec["passed"]:
            raise ValueError(f"kernel violates graded symmetry "
                             f"(defect {rec['max_residual']:.3g})")


# -- pair contraction (star products) ---------------------------------------

def _gamma_pair_apply(state: dict, mat, factor) -> dict:
    """One contraction on {(word_F, word_G): coeff} tensor states.

    Slot i of word_F meets slot j of word_G with ``factor · mat[i, j]``
    and the sign of a right derivative by i on word_F times a left
    derivative by j on word_G.  ``factor`` is the 1/2 of the
    contraction, times any kernel scale.  A falsy scalar is zero.
    """
    out: dict = {}
    for (wa, wb), c in state.items():
        la = len(wa)
        base = -factor if la % 2 == 0 else factor  # -factor · (−1)^{len wa}
        for pi, i in enumerate(wa):
            row = mat[i]
            sa = -base if pi % 2 == 1 else base
            for pj, j in enumerate(wb):
                k = row[j]
                if not k:
                    continue
                cc = c * k * (-sa if pj % 2 == 1 else sa)
                key = (wa[:pi] + wa[pi + 1:], wb[:pj] + wb[pj + 1:])
                out[key] = out[key] + cc if key in out else cc
    return {k: v for k, v in out.items() if v}


def _merge_state(ring, state: dict) -> dict:
    """Term dict of the wedge of a tensor state: each (word_F, word_G)
    merged with its Koszul sign, zero sums dropped.  The merged words are
    increasing by construction, so only the coefficients are coerced (a
    float kernel's entries are numpy scalars)."""
    terms: dict = {}
    for (wa, wb), c in state.items():
        m = merge_words(wa, wb)
        if m is None:
            continue
        sign, w = m
        cc = -c if sign < 0 else c
        terms[w] = terms.get(w, 0) + cc
    return {w: ring.coerce(c) for w, c in terms.items() if c}


def _check_kernel(mat, F: GrassmannElement, G: GrassmannElement) -> None:
    """Raise unless F and G share an algebra and ``mat`` is n × n over
    its generators."""
    alg = F.algebra
    alg.check_compatible(G.algebra)
    if mat.shape != (alg.n, alg.n):
        raise ValueError("kernel does not match the generator set")


def _hbar_exp(ring, x, step, terms, unit) -> dict[int, dict]:
    """{n: term dict} of Σ_n (unitⁿ/n!) hbarⁿ terms(stepⁿ x), stopping at
    the first empty step (an empty tensor state or a zero element).  An
    order whose terms are all zero is left out."""
    out = {}
    scale = ring.one
    n = 0
    while x:
        s = scale * _inv_factorial(ring, n)
        t = {w: c * s for w, c in terms(x).items()}
        if any(t.values()):
            out[n] = t
        x = step(x)
        n += 1
        scale = scale * unit
    return out


def _add_order(acc: dict, n: int, terms: dict, sub: bool = False) -> None:
    """Add (``sub``: subtract) one order's term dict into the {n: term
    dict} sum ``acc``, as a series ``+`` (``−``) adds a coefficient.

    An order that first appears takes the terms as they are (negated
    for ``sub``), not as ``0 + c``; it owns ``terms`` from then on.  An
    order left with no nonzero term is dropped, so a later one starts
    afresh.
    """
    t = acc.get(n)
    if t is None:
        acc[n] = {w: -c for w, c in terms.items()} if sub else terms
        return
    _add_terms(t, terms, sub)
    if not any(t.values()):
        del acc[n]


def _series(alg: Algebra, orders: dict) -> FormalSeries:
    return HbarSeries(alg, {n: GrassmannElement(alg, t) for n, t in orders.items()})


def _star_terms(mat, unit, F: GrassmannElement, G: GrassmannElement) -> dict[int, dict]:
    """{n: term dict} of the deformed product whose per-contraction
    kernel is ``unit · mat``.

    The scalar ``unit`` rides on the factor 1/2 of each contraction, so
    the kernel matrix itself is never rescaled.
    """
    _check_kernel(mat, F, G)
    ring = F.algebra.ring
    factor = _half(ring) * unit
    # (word_F, word_G) keys are unique: one product per pair of terms
    state = {(wa, wb): ca * cb for wa, ca in F.items() for wb, cb in G.items()}
    return _hbar_exp(ring, state, lambda s: _gamma_pair_apply(s, mat, factor),
                     lambda s: _merge_state(ring, s), ring.one)


def star_with_kernel(kappa, F: GrassmannElement, G: GrassmannElement) -> FormalSeries:
    """Deformed product with per-contraction kernel κ (one hbar per order).

    Coefficient of hbar^n is (1/n!) · m(Γ_κ^n (F ⊗ G)); the plain star
    product is recovered with κ = i·Δ.
    """
    return _series(F.algebra, _star_terms(_mat(kappa), F.algebra.ring.one, F, G))


def star_product(delta, F: GrassmannElement, G: GrassmannElement) -> FormalSeries:
    """Star product exp-of-contractions series; κ = i·Δ per hbar order."""
    return _series(F.algebra, _star_terms(_mat(delta), F.algebra.ring.i, F, G))


def _star_series(delta, sF: FormalSeries, sG: FormalSeries) -> FormalSeries:
    """Σ hbar^(ka+kb) · (sF_ka * sG_kb), summed per order in place."""
    mat = _mat(delta)
    i = sF.algebra.ring.i
    acc: dict[int, dict] = {}
    for ka, ea in sF.coeffs.items():
        for kb, eb in sG.coeffs.items():
            for n, t in _star_terms(mat, i, ea, eb).items():
                _add_order(acc, n + ka + kb, t)
    return _series(sF.algebra, acc)


def star_commutator(delta, F: GrassmannElement, G: GrassmannElement) -> FormalSeries:
    """Graded commutator [F,G]_* = F*G − (−1)^{|F||G|} G*F.

    Summed per hbar order in one term dict: for each pair of homogeneous
    parts, F_p*G_q is added and then (−1)^{pq}·G_q*F_p subtracted, with
    the keys, key order and bits of the series fold
    ``out + F_p*G_q − (−1)^{pq}·G_q*F_p``.
    """
    mat = _mat(delta)
    ring = F.algebra.ring
    minus_one = ring.coerce(-1)
    acc: dict[int, dict] = {}
    for p, Fp in F.homogeneous_parts().items():
        for q, Gq in G.homogeneous_parts().items():
            for n, t in _star_terms(mat, ring.i, Fp, Gq).items():
                _add_order(acc, n, t)
            for n, t in _star_terms(mat, ring.i, Gq, Fp).items():
                if (p * q) % 2 == 1:
                    t = {w: c * minus_one for w, c in t.items()}
                _add_order(acc, n, t, sub=True)
    return _series(F.algebra, acc)


# -- single-argument contraction (time ordering, product equivalence) -------

def contraction_operator(kernel, F: GrassmannElement) -> GrassmannElement:
    """Γ_K(F) = (1/2) Σ K[i,j] d_j d_i F, left derivatives, d_i first.

    The grade-independent normalization makes Γ_K a second-order
    operator with graded Leibniz decomposition Γ_K(A∧B) = Γ_K A ∧ B +
    A ∧ Γ_K B + cross(A,B), where the cross term matches two pair
    contractions of kernel K; this is what lets exp(Γ_K) conjugation of
    the wedge reduce to cross-contractions only.
    """
    alg = F.algebra
    ring = alg.ring
    mat = _mat(kernel)
    half = _half(ring)
    terms: dict = {}
    for i, di in F.derivatives().items():
        row = mat[i]
        for j, dji in di.derivatives().items():
            k = row[j]
            if not k:
                continue
            hk = half * k
            for w, c in dji.items():
                terms[w] = terms.get(w, ring.zero) + c * hk
    return alg.element(terms)


def _exp_map(kernel, F, direction: str, unit) -> FormalSeries:
    """exp(± unit · hbar Γ_K) on an element or series, the sign + for
    ``direction="forward"`` and − for ``"inverse"``."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    if direction == "inverse":
        unit = -unit
    alg = F.algebra

    def exp(e):
        return _hbar_exp(alg.ring, e, lambda x: contraction_operator(kernel, x),
                         lambda x: x._terms, unit)

    if not isinstance(F, FormalSeries):
        return _series(alg, exp(F))
    acc: dict[int, dict] = {}
    for k, e in F.coeffs.items():
        for n, t in exp(e).items():
            _add_order(acc, n + k, t)
    return _series(alg, acc)


def time_ordering(dirac_kernel, F, direction: str = "forward") -> FormalSeries:
    """Time-ordering operator exp(± i hbar Γ_{Δ^D}) on elements or series.

    ``direction="forward"`` is the ordering map, ``"inverse"`` its exact
    inverse (finite series by nilpotency).
    """
    return _exp_map(dirac_kernel, F, direction, F.algebra.ring.i)


def time_ordered_product(dirac_kernel, F, G) -> FormalSeries:
    """F ·_T G = T(T^{-1}F ∧ T^{-1}G); graded-symmetric by construction."""
    inv_F = time_ordering(dirac_kernel, F, "inverse")
    inv_G = time_ordering(dirac_kernel, G, "inverse")
    return time_ordering(dirac_kernel, inv_F.wedge(inv_G), "forward")


def formal_smatrix(dirac_kernel, F: GrassmannElement, max_n: int) -> FormalSeries:
    """Σ_{n<=max_n} (1/n!) F ·_T ... ·_T F (n factors); unit at F = 0.

    T is linear, so it is applied once, to Σ_n (T^{-1}F)^∧n / n!.
    """
    if not F.is_even():
        raise ValueError("interaction term must be even")
    alg = F.algebra
    ring = alg.ring
    inv_F = time_ordering(dirac_kernel, F, "inverse")
    total = power = HbarSeries(alg, {0: alg.one()})
    for n in range(1, max_n + 1):
        power = power.wedge(inv_F)
        if power.is_zero():
            break
        total = total + power.scale(_inv_factorial(ring, n))
    return time_ordering(dirac_kernel, total, "forward")


def alpha_transform(sym_kernel, F, direction: str = "forward") -> FormalSeries:
    """Product-equivalence map exp(± hbar Γ_{Δ1}) on elements or series."""
    return _exp_map(sym_kernel, F, direction, F.algebra.ring.one)


def star_h_sandwich(delta, sym_kernel, F: GrassmannElement,
                    G: GrassmannElement) -> FormalSeries:
    """F *_H G = α(α^{-1}F * α^{-1}G) (the defining sandwich form)."""
    aF = alpha_transform(sym_kernel, F, "inverse")
    aG = alpha_transform(sym_kernel, G, "inverse")
    prod = _star_series(delta, aF, aG)
    return alpha_transform(sym_kernel, prod, "forward")


def star_h_direct(delta, sym_kernel, F: GrassmannElement,
                  G: GrassmannElement) -> FormalSeries:
    """Same product computed directly: per-contraction kernel iΔ + 2Δ1."""
    ring = F.algebra.ring
    kappa = _mat(delta) * ring.i + _mat(sym_kernel) * ring.number(2)
    return star_with_kernel(kappa, F, G)


# -- helpers -----------------------------------------------------------------

def random_symmetric_kernel(n: int, rng, ring) -> SymmetricKernel:
    """Seeded random kernel in the graded-symmetric class."""
    from .linalg import zeros
    mat = zeros((n, n), ring)
    for i in range(n):
        for j in range(i + 1, n):
            if ring.exact:
                c = ring.number(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            else:
                c = complex(round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6))
            mat[i, j] = c
            mat[j, i] = -c
    return SymmetricKernel(mat)
