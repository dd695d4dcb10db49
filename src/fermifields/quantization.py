"""Deformation of the wedge product by two-point kernel contractions.

All exponential series exploit nilpotency: iteration stops as soon as a
contraction application returns zero, so hbar series are exactly finite
at fixed functional grade.

Operator conventions (fixed here and asserted by tests):

* the pair contraction on a tensor factorization F ⊗ G contracts one
  slot of F against one slot of G through the kernel, with Koszul signs
  taken in the doubled algebra (F-words before G-words);
* the single-argument contraction applies the inner derivative to the
  kernel's first index:  Γ_K(F)|_word = (−1)^p (1/2) Σ K[i,j] · (remove
  i first, then j), which makes the time-ordered product agree with the
  star product on temporally ordered supports.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import Algebra, GrassmannElement
from .kernels import Kernel
from .series import FormalSeries, HbarSeries

__all__ = [
    "SymmetricKernel", "gamma_delta", "star_product", "star_with_kernel",
    "star_commutator", "contraction_operator", "time_ordering",
    "time_ordered_product", "formal_smatrix", "alpha_transform",
    "star_h_sandwich", "star_h_direct", "random_symmetric_kernel",
]


def _mat(kernel):
    return kernel.mat if isinstance(kernel, Kernel) else kernel


def _half(ring):
    return ring.number(Fraction(1, 2))


def _inv_factorial(ring, n: int):
    return ring.number(Fraction(1, math.factorial(n)))


class SymmetricKernel(Kernel):
    """Graded-symmetric two-point kernel.

    For anticommuting generators the graded-symmetric class corresponds
    to an *antisymmetric* coefficient matrix (the causal propagator, by
    contrast, has a symmetric matrix); validated on construction.
    """

    def __init__(self, mat, ring, tol: float = 1e-12):
        super().__init__(mat, ring, kind="symmetric")
        n = mat.shape[0]
        worst = 0.0
        for i in range(n):
            for j in range(n):
                worst = max(worst, abs(complex(mat[i, j]) + complex(mat[j, i])))
        if worst > tol:
            raise ValueError(
                f"kernel violates graded symmetry (defect {worst:.3g})")


# -- pair contraction (star products) ---------------------------------------

def _gamma_pair_apply(state: dict, mat, factor) -> dict:
    """One contraction on {(word_F, word_G): coeff} tensor states.

    ``factor`` is the 1/2 of the contraction, times any kernel scale.  A
    falsy scalar is zero, as in ``Ring.is_zero``.
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


def _merge_state(alg: Algebra, state: dict) -> GrassmannElement:
    from ._core import merge_words
    ring = alg.ring
    terms: dict = {}
    for (wa, wb), c in state.items():
        m = merge_words(wa, wb)
        if m is None:
            continue
        sign, w = m
        cc = -c if sign < 0 else c
        terms[w] = terms.get(w, ring.zero) + cc
    return alg.element(terms)


def _tensor_state(mat, F: GrassmannElement, G: GrassmannElement) -> dict:
    """F ⊗ G as {(word_F, word_G): coeff}; ``mat`` must be n × n over the
    generators of F's algebra."""
    alg = F.algebra
    alg.check_compatible(G.algebra)
    if mat.shape != (alg.n, alg.n):
        raise ValueError("kernel does not match the generator set")
    zero = alg.ring.zero
    state = {}
    for wa, ca in F.items():
        for wb, cb in G.items():
            key = (wa, wb)
            state[key] = state.get(key, zero) + ca * cb
    return state


def _star_with(mat, unit, F: GrassmannElement, G: GrassmannElement) -> FormalSeries:
    """Deformed product whose per-contraction kernel is ``unit · mat``.

    The scalar ``unit`` rides on the factor 1/2 of each contraction, so
    the kernel matrix itself is never rescaled.
    """
    state = _tensor_state(mat, F, G)
    alg = F.algebra
    ring = alg.ring
    factor = _half(ring) * unit
    coeffs = {}
    n = 0
    while state:
        e = _merge_state(alg, state).scale(_inv_factorial(ring, n))
        if not e.is_zero():
            coeffs[n] = e
        state = _gamma_pair_apply(state, mat, factor)
        n += 1
    return HbarSeries(alg, coeffs)


def star_with_kernel(kappa, F: GrassmannElement, G: GrassmannElement) -> FormalSeries:
    """Deformed product with per-contraction kernel κ (one hbar per order).

    Coefficient of hbar^n is (1/n!) · m(Γ_κ^n (F ⊗ G)); the plain star
    product is recovered with κ = i·Δ.
    """
    return _star_with(_mat(kappa), F.algebra.ring.one, F, G)


def gamma_delta(delta, F: GrassmannElement, G: GrassmannElement) -> GrassmannElement:
    """Single pair contraction (−1)^{|F|+1} (1/2) Σ Δ[i,j] F^(1)_i ∧ G^(1)_j."""
    mat = _mat(delta)
    state = _tensor_state(mat, F, G)
    return _merge_state(F.algebra, _gamma_pair_apply(state, mat, _half(F.algebra.ring)))


def star_product(delta, F: GrassmannElement, G: GrassmannElement) -> FormalSeries:
    """Star product exp-of-contractions series; κ = i·Δ per hbar order.

    ``.at(h)`` collapses it at a numeric hbar.
    """
    return _star_with(_mat(delta), F.algebra.ring.i, F, G)


def _star_series(delta, sF: FormalSeries, sG: FormalSeries) -> FormalSeries:
    out = HbarSeries(sF.algebra, {})
    for ka, ea in sF.coeffs.items():
        for kb, eb in sG.coeffs.items():
            out = out + star_product(delta, ea, eb).shift(ka + kb)
    return out


def star_commutator(delta, F: GrassmannElement, G: GrassmannElement) -> FormalSeries:
    """Graded commutator [F,G]_* = F*G − (−1)^{|F||G|} G*F."""
    alg = F.algebra
    out = HbarSeries(alg, {})
    for p, Fp in F.homogeneous_parts().items():
        for q, Gq in G.homogeneous_parts().items():
            rev = star_product(delta, Gq, Fp)
            if (p * q) % 2 == 1:
                rev = rev.scale(-1)
            out = out + star_product(delta, Fp, Gq) - rev
    return out


# -- single-argument contraction (time ordering, product equivalence) -------

def contraction_operator(kernel, F: GrassmannElement) -> GrassmannElement:
    """Γ_K(F) = (1/2) Σ K[i,j] · (contract slot i first, then slot j).

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
    for w, c in F.items():
        for pi, i in enumerate(w):
            wi = w[:pi] + w[pi + 1:]
            si = -half if pi % 2 == 1 else half
            row = mat[i]
            for pj, j in enumerate(wi):
                k = row[j]
                if ring.is_zero(k):
                    continue
                cc = c * k * (-si if pj % 2 == 1 else si)
                nw = wi[:pj] + wi[pj + 1:]
                terms[nw] = terms.get(nw, ring.zero) + cc
    return alg.element(terms)


def _exp_contraction(kernel, F: GrassmannElement, unit) -> FormalSeries:
    """Σ_n (unit^n / n!) hbar^n Γ_K^n F as an hbar series."""
    alg = F.algebra
    ring = alg.ring
    coeffs = {}
    cur = F
    n = 0
    scale = ring.one
    while not cur.is_zero():
        coeffs[n] = cur.scale(scale * _inv_factorial(ring, n)) if n else cur
        cur = contraction_operator(kernel, cur)
        n += 1
        scale = scale * ring.coerce(unit)
    return HbarSeries(alg, coeffs)


def _exp_map(kernel, F, direction: str, unit) -> FormalSeries:
    """exp(± unit · hbar Γ_K) on an element or series, the sign + for
    ``direction="forward"`` and − for ``"inverse"``."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    if direction == "inverse":
        unit = -unit
    if not isinstance(F, FormalSeries):
        return _exp_contraction(kernel, F, unit)
    out = HbarSeries(F.algebra, {})
    for k, e in F.coeffs.items():
        out = out + _exp_contraction(kernel, e, unit).shift(k)
    return out


def time_ordering(dirac_kernel, F, direction: str = "forward") -> FormalSeries:
    """Time-ordering operator exp(± i hbar Γ_{Δ^D}) on elements or series.

    ``direction="forward"`` is the ordering map, ``"inverse"`` its exact
    inverse (finite series by nilpotency).
    """
    return _exp_map(dirac_kernel, F, direction, F.algebra.ring.i)


def time_ordered_product(dirac_kernel, F, G) -> FormalSeries:
    """F ·_T G = T(T^{-1}F ∧ T^{-1}G); graded-symmetric by construction."""
    sF = F if isinstance(F, FormalSeries) else HbarSeries(F.algebra, {0: F})
    sG = G if isinstance(G, FormalSeries) else HbarSeries(G.algebra, {0: G})
    inv_F = time_ordering(dirac_kernel, sF, "inverse")
    inv_G = time_ordering(dirac_kernel, sG, "inverse")
    return time_ordering(dirac_kernel, inv_F.wedge(inv_G), "forward")


def formal_smatrix(dirac_kernel, F: GrassmannElement, max_n: int) -> FormalSeries:
    """Σ_{n<=max_n} (1/n!) F ·_T ... ·_T F (n factors); unit at F = 0."""
    if not F.is_even():
        raise ValueError("interaction term must be even")
    alg = F.algebra
    ring = alg.ring
    out = HbarSeries(alg, {0: alg.one()})
    inv_F = time_ordering(dirac_kernel, F, "inverse")
    power = None
    for n in range(1, max_n + 1):
        power = inv_F if power is None else power.wedge(inv_F)
        if power.is_zero():
            break
        term = time_ordering(dirac_kernel, power, "forward")
        out = out + term.scale(_inv_factorial(ring, n))
    return out


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
    return SymmetricKernel(mat, ring)
