"""Generalized actions, response products, Peierls brackets and retarded
intertwining maps as truncated coupling series.

Sign conventions (fixed throughout):

* pairings contract in the order  (d_i F) ∧ kernel[i, j] ∧ (d_j G);
* the retarded product R_S, the advanced product A_S and the Peierls
  bracket are one signed pairing (−1)^{|F|+1}⟨F^(1), K G^(1)⟩, linear
  in the kernel K: :func:`peierls_bracket` with K = Δ^R, Δ^A or
  Δ = Δ^R − Δ^A, the sign taken on the homogeneous parts of F;
* the intertwining map is built by substituting the retarded field
  solution of the perturbed equations of motion into functionals
  (fixed point W = e + λ Δ^R ∂F[W]).  This makes the homomorphism
  property, the ideal intertwining and the order-lowering recursion
  exact identities order by order.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, GrassmannElement
from .kernels import ElementKernel, Kernel
from .lattice import FieldLattice
from .linalg import matmul, zeros
from .series import FormalSeries, TruncatedSeries

__all__ = [
    "ParityError", "ActionFunctional", "eom_generators", "pair_contract",
    "peierls_bracket",
    "SubstitutionMap", "moller_substitution", "moller_map", "higher_retarded",
    "moller_inverse", "bracket_kernel_derivative", "canonical_residual",
    "canonical_check", "poisson_ideal_residual", "poisson_ideal_check",
]

DEFAULT_MAX_GRADE = 10


class ParityError(ValueError):
    """Raised when an even functional is required but an odd one is given."""


class ActionFunctional:
    """Cutoff-to-functional map f ↦ S(f) with cached derivatives.

    ``builder`` maps a site weight vector to an even element whose
    support is contained in the weighted sites.  The default weight is
    the all-ones vector (the finite-lattice stand-in for f ≡ 1 on any
    compact region).
    """

    def __init__(self, fl: FieldLattice, builder, name: str = "action"):
        self.fl = fl
        self.algebra = fl.algebra
        self._builder = builder
        self.name = name
        self._cache: dict = {}
        s1 = self.functional()
        if not s1.is_even():
            raise ParityError(f"{name}: generalized lagrangian must be even")

    def functional(self, weights=None) -> GrassmannElement:
        key = None if weights is None else tuple(weights)
        if key not in self._cache:
            w = self.fl.ones_weights() if weights is None else list(weights)
            self._cache[key] = self._builder(w)
        return self._cache[key]

    __call__ = functional

    def first_derivatives(self) -> dict[int, GrassmannElement]:
        if "d1" not in self._cache:
            self._cache["d1"] = self.functional().derivatives()
        return self._cache["d1"]

    def eom_element(self, h) -> GrassmannElement:
        """⟨S(1)^(1), h⟩ for a slot->coefficient test configuration h."""
        derivs = self.first_derivatives()
        out = self.algebra.zero()
        for i, c in dict(h).items():
            di = derivs.get(i)
            if di is not None:
                out = out + di.scale(c)
        return out

    def second_kernel(self):
        """(scalar part, even element part) of K[j, i] = d_j d_i S."""
        if "d2" not in self._cache:
            n = self.fl.n_slots
            ring = self.algebra.ring
            K0 = zeros((n, n), ring)
            entries: dict[tuple[int, int], GrassmannElement] = {}
            for i, di in self.first_derivatives().items():
                for j, dji in di.derivatives().items():
                    c0 = dji.coefficient(())
                    if not ring.is_zero(c0):
                        K0[j, i] = K0[j, i] + c0
                    rest = dji - self.algebra.scalar(c0)
                    if not rest.is_zero():
                        key = (j, i)
                        entries[key] = entries[key] + rest if key in entries else rest
            self._cache["d2"] = (
                Kernel(K0, ring, "operator", self.fl.slot_times, self.fl.slot_times),
                ElementKernel(self.algebra, n, entries),
            )
        return self._cache["d2"]

    def __repr__(self):
        return f"ActionFunctional({self.name})"


def eom_generators(S: ActionFunctional, basis) -> list:
    """Ideal generators ⟨S(1)^(1), h⟩ for each test configuration h."""
    if not S.functional().is_even():
        raise ParityError("action must be even")
    return [(dict(h), S.eom_element(h)) for h in basis]


# -- kernel pairings -------------------------------------------------------

def _kernel_parts(kernel):
    """Normalize a kernel argument to a list of scalar/element parts."""
    if isinstance(kernel, Kernel):
        return [kernel.mat]
    if isinstance(kernel, (np.ndarray, ElementKernel)):
        return [kernel]
    return [p.mat if isinstance(p, Kernel) else p for p in kernel]


def pair_contract(F: GrassmannElement, kernel, G: GrassmannElement,
                  max_grade: int | None = None) -> GrassmannElement:
    """Σ_{ij} (d_i F) ∧ kernel[i, j] ∧ (d_j G), in this fixed order.

    ``kernel`` may be a scalar matrix, an :class:`ElementKernel`, a
    :class:`Kernel` or a list of such parts (summed).
    """
    alg = F.algebra
    out = alg.zero()
    dF = F.derivatives()
    dG = G.derivatives()
    if not dF or not dG:
        return out
    for part in _kernel_parts(kernel):
        if isinstance(part, ElementKernel):
            for (i, j), entry in part.entries.items():
                fi = dF.get(i)
                gj = dG.get(j)
                if fi is None or gj is None:
                    continue
                term = fi.wedge(entry).wedge(gj)
                if max_grade is not None:
                    term = term.truncate(max_grade)
                out = out + term
        else:
            for i, fi in dF.items():
                row = part[i]
                for j, gj in dG.items():
                    c = row[j]
                    if not c:
                        continue
                    term = fi.wedge(gj).scale(c)
                    if max_grade is not None:
                        term = term.truncate(max_grade)
                    out = out + term
    return out


def peierls_bracket(S: ActionFunctional, kernel, F: GrassmannElement,
                    G: GrassmannElement, max_grade: int | None = None) -> GrassmannElement:
    """(−1)^{|F|+1} ⟨F^(1), kernel G^(1)⟩, extended off homogeneous F.

    With the causal kernel Δ = Δ^R − Δ^A this is the bracket {F, G}_S;
    kernel Δ^R gives the retarded product R_S(F, G) and Δ^A the advanced
    product A_S(F, G).  ``kernel`` is anything :func:`pair_contract`
    takes; ``S`` is the action the kernel belongs to, and the pairing
    reads only the kernel.
    """
    even, odd = F.parity_parts()
    out = F.algebra.zero()
    if not even.is_zero():
        out = out - pair_contract(even, kernel, G, max_grade)
    if not odd.is_zero():
        out = out + pair_contract(odd, kernel, G, max_grade)
    return out


# -- intertwining maps as substitution series -------------------------------

class SubstitutionMap:
    """Algebra endomorphism given by generator-image coupling series.

    ``images[i]`` is the series of the i-th generator's image; order 0 is
    the generator itself.  Applying the map to an element substitutes the
    images into every word (homomorphism by construction).  A series the
    map builds is flagged ``truncated`` when a grade above ``max_grade``
    was cut from it, or from an image or product it was built from.
    """

    def __init__(self, algebra: Algebra, order: int,
                 max_grade: int | None = DEFAULT_MAX_GRADE):
        self.algebra = algebra
        self.order = order
        self.max_grade = max_grade
        self._images: dict[int, FormalSeries] = {}

    # image providers may be overridden (lazily computed in MollerMap)
    def set_image(self, i: int, series: FormalSeries) -> None:
        self._images[i] = series

    def image(self, i: int) -> FormalSeries:
        try:
            return self._images[i]
        except KeyError:
            s = TruncatedSeries(self.algebra, {0: self.algebra.generator(i)},
                                self.order)
            self._images[i] = s
            return s

    def _clip(self, e: GrassmannElement) -> tuple[GrassmannElement, bool]:
        """``e`` cut at ``max_grade``, and whether that dropped a term."""
        if self.max_grade is not None and e.max_grade() > self.max_grade:
            return e.truncate(self.max_grade), True
        return e, False

    def apply(self, elem: GrassmannElement,
              order: int | None = None) -> FormalSeries:
        """Substitute generator images into an element, through λ^order.

        ``order`` defaults to the map's order.  Every series product is
        truncated at it, so coefficients above ``order`` are never formed;
        the result is capped at ``order``, and flagged truncated when an
        order above it or a grade above ``max_grade`` was dropped.
        """
        order = self.order if order is None else min(order, self.order)
        out, cut = self._substitute(elem, order)
        out.truncated = out.truncated or cut
        return out

    def _substitute(self, elem: GrassmannElement, order: int) -> tuple:
        """(:meth:`apply` through ``order``, whether a grade was cut).

        The bool counts grade cuts only, in a product here or in an image
        used; the series' own flag also counts the orders above ``order``.
        """
        alg = self.algebra
        out = TruncatedSeries(alg, {}, order)
        one = TruncatedSeries(alg, {0: alg.one()}, order)
        cut = False
        for w, c in elem.items():
            prod = one
            for g in w:
                img = self.image(g)
                prod = prod.wedge(img)
                clipped = {k: self._clip(e) for k, e in prod.coeffs.items()}
                cut = cut or img.truncated or any(d for _, d in clipped.values())
                prod = TruncatedSeries(alg, {k: e for k, (e, _) in clipped.items()},
                                       order, prod.truncated)
            out = out + prod.scale(c)
        return out, cut

    def apply_series(self, series: FormalSeries) -> FormalSeries:
        """Σ_k λ^k · apply(c_k), through the map's order.

        Coefficient k is substituted only through order ``self.order − k``
        and its image placed at orders k … ``self.order``; coefficients
        above the map's order are dropped and flag the result truncated.
        """
        coeffs: dict[int, GrassmannElement] = {}
        truncated = False
        for k, e in series.coeffs.items():
            if k > self.order:
                truncated = True
                continue
            img = self.apply(e, self.order - k)
            truncated = truncated or img.truncated
            for j, c in img.coeffs.items():
                coeffs[j + k] = coeffs[j + k] + c if j + k in coeffs else c
        return TruncatedSeries(self.algebra, coeffs, self.order, truncated)

    def inverse(self, order: int | None = None) -> "SubstitutionMap":
        """Order-by-order inverse; needs identity leading coefficients.

        Generic in the images; :meth:`MollerMap.inverse` has a closed form.
        """
        order = self.order if order is None else order
        alg = self.algebra
        inv = SubstitutionMap(alg, order, self.max_grade)
        for i in range(alg.n):
            lead = self.image(i).coefficient(0)
            if not (lead - alg.generator(i)).is_zero():
                raise ValueError("leading order is not the identity map")
        for i in range(alg.n):
            coeffs = {0: alg.generator(i)}
            for k in range(1, order + 1):
                partial = TruncatedSeries(alg, dict(coeffs), order)
                val = self.apply_series(partial).coefficient(k)
                if not val.is_zero():
                    coeffs[k] = -val
            inv.set_image(i, TruncatedSeries(alg, coeffs, order))
        return inv


class MollerMap(SubstitutionMap):
    """Retarded intertwining map r_{S+λF,S} via field substitution.

    Generator images solve W = e + λ Δ^R · ∂F[W] order by order; the
    correction to a slot therefore lives in the causal future of the
    interaction support, and ⟨(S+λF)^(1), h⟩ ↦ ⟨S^(1), h⟩ holds exactly
    per order for interior test configurations h.
    """

    def __init__(self, S: ActionFunctional, F: GrassmannElement, dR: Kernel,
                 order: int, max_grade: int | None = DEFAULT_MAX_GRADE):
        if not F.is_even():
            raise ParityError("interaction term must be even")
        super().__init__(S.algebra, order, max_grade)
        self.S = S
        self.F = F
        self._mat = dR.mat
        alg = self.algebra
        self._dF = F.derivatives()
        self._supp = sorted(self._dF)
        # _src[k][j] is the λ^k coefficient of ∂_jF[W]; _cut[k] holds the j
        # whose coefficient lost a grade to max_grade
        self._src: list[dict[int, GrassmannElement]] = []
        self._cut: list[set] = []
        # ∂F involves interaction slots only: their images through order
        # k - 1 give the order k - 1 source, and that gives order k
        ladder = {i: {0: alg.generator(i)} for i in sorted(F.support())}
        for i, coeffs in ladder.items():
            self.set_image(i, TruncatedSeries(alg, coeffs, order))
        for k in range(1, order + 1):
            src, cut = {}, set()
            for j in self._supp:
                series, dropped = self._substitute(self._dF[j], k - 1)
                src[j] = series.coefficient(k - 1)
                if dropped:
                    cut.add(j)
            self._src.append(src)
            self._cut.append(cut)
            for i, coeffs in ladder.items():
                coeffs[k], dropped = self._response(i, src, cut)
                self.set_image(i, TruncatedSeries(
                    alg, coeffs, order, dropped or self._images[i].truncated))

    def _response(self, i: int, src: dict, cut=()) -> tuple:
        """(Σ_j Δ^R[i, j] · src[j] over the interaction's derivative slots,
        cut at ``max_grade``; whether that or a src[j] with j in ``cut``
        that enters the sum lost a grade)."""
        v = self.algebra.zero()
        lost = False
        for j in self._supp:
            c = self._mat[i, j]
            if c:
                v = v + src[j].scale(c)
                lost = lost or j in cut
        v, dropped = self._clip(v)
        return v, lost or dropped

    def image(self, i: int) -> FormalSeries:
        if i in self._images:
            return self._images[i]
        coeffs = {0: self.algebra.generator(i)}
        lost = False
        for k in range(1, self.order + 1):
            coeffs[k], dropped = self._response(i, self._src[k - 1], self._cut[k - 1])
            lost = lost or dropped
        s = TruncatedSeries(self.algebra, coeffs, self.order, lost)
        self._images[i] = s
        return s

    def inverse(self, order: int | None = None) -> SubstitutionMap:
        """Closed-form inverse e_i ↦ e_i − λ Σ_j Δ^R[i, j] ∂_jF.

        The images W solve W = e + λ Δ^R · ∂F[W], so e = W − λ Δ^R · ∂F[W]
        exactly: the inverse is first order in λ, and substituting it
        after this map gives the identity through every order.
        :meth:`SubstitutionMap.inverse` computes the same map order by
        order and serves as its oracle.
        """
        order = self.order if order is None else order
        alg = self.algebra
        inv = SubstitutionMap(alg, order, self.max_grade)
        for i in range(alg.n):
            v, dropped = self._response(i, self._dF)
            if dropped or not v.is_zero():
                inv.set_image(i, TruncatedSeries(
                    alg, {0: alg.generator(i), 1: -v}, order, dropped))
        return inv


def moller_substitution(S: ActionFunctional, F: GrassmannElement, dR: Kernel,
                        order: int, max_grade: int | None = DEFAULT_MAX_GRADE) -> MollerMap:
    return MollerMap(S, F, dR, order, max_grade)


def moller_map(S: ActionFunctional, F: GrassmannElement, G, dR,
               order: int, max_grade: int | None = DEFAULT_MAX_GRADE) -> FormalSeries:
    """Series of r_{S+λF,S}(G) through the given λ order.

    ``G`` may be an element or a λ-series (for instance the perturbed
    ideal generator ⟨S^(1) + λF^(1), h⟩).
    """
    m = moller_substitution(S, F, dR, order, max_grade)
    if isinstance(G, FormalSeries):
        return m.apply_series(G)
    return m.apply(G)


def higher_retarded(S: ActionFunctional, F: GrassmannElement, G: GrassmannElement,
                    n: int, dR, max_grade: int | None = DEFAULT_MAX_GRADE) -> GrassmannElement:
    """n-th order retarded product R_{S,n}(F^{⊗n}, G) = n! · [λ^n] r(G).

    Satisfies R_{S,k}(F^{⊗k}, ⟨S^(1),h⟩) = −k R_{S,k−1}(F^{⊗(k−1)}, ⟨F^(1),h⟩)
    and the grade law |R_{S,n}| = |G| + n(|F|−2) for homogeneous inputs.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return G
    series = moller_map(S, F, G, dR, n, max_grade)
    coeff = series.coefficient(n)
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    return coeff.scale(fact)


def moller_inverse(m: SubstitutionMap, order: int | None = None) -> SubstitutionMap:
    """Formal inverse of a substitution-series map (identity at order 0).

    A :class:`MollerMap` returns its closed form, first order in λ; any
    other map is inverted order by order.
    """
    return m.inverse(order)


# -- canonical transformation and Poisson ideal checks -----------------------

def bracket_kernel_derivative(dR: Kernel, dA: Kernel, KH):
    """d/dλ of the causal kernel of S + λH at λ=0.

    Returns the parts of −Δ^R K_H Δ^R + Δ^A K_H Δ^A; ``KH`` may be a
    scalar matrix or an :class:`ElementKernel`.
    """
    mR, mA, ring = dR.mat, dA.mat, dR.ring
    if isinstance(KH, ElementKernel):
        return [KH.compose_scalar_left(-mR).compose_scalar_right(mR),
                KH.compose_scalar_left(mA).compose_scalar_right(mA)]
    return [-matmul(matmul(mR, KH, ring), mR, ring)
            + matmul(matmul(mA, KH, ring), mA, ring)]


def canonical_residual(S: ActionFunctional, dR: Kernel, dA: Kernel, H, F, G,
                       dDelta) -> GrassmannElement:
    """Defect of the infinitesimal canonical-transformation identity.

    {R_S(H,F), G} + {F, R_S(H,G)} − R_S(H, {F,G}) − (−1)^{|F|+1}⟨F^(1), dΔ G^(1)⟩
    with dΔ the λ-derivative of the causal kernel (symbolic or finite
    difference), supplied as ``dDelta``.
    """
    delta = dR.mat - dA.mat

    def br(X, Y):
        return peierls_bracket(S, delta, X, Y)

    lhs = br(peierls_bracket(S, dR, H, F), G) + br(F, peierls_bracket(S, dR, H, G))
    rhs = peierls_bracket(S, dR, H, br(F, G)) + peierls_bracket(S, dDelta, F, G)
    return lhs - rhs


def poisson_ideal_residual(S: ActionFunctional, F: GrassmannElement, h,
                           G: GrassmannElement, delta) -> GrassmannElement:
    """Defect of the graded Poisson-ideal identity.

    For homogeneous G: {F ∧ ⟨S^(1),h⟩, G} − (−1)^{|G|} {F,G} ∧ ⟨S^(1),h⟩;
    both sides lie in the equations-of-motion ideal.  Extended additively
    over the homogeneous parts of G.
    """
    E = S.eom_element(h)
    FE = F.wedge(E)
    out = F.algebra.zero()
    for p, Gp in G.homogeneous_parts().items():
        lhs = peierls_bracket(S, delta, FE, Gp)
        rhs = peierls_bracket(S, delta, F, Gp).wedge(E)
        if p % 2 == 1:
            rhs = -rhs
        out = out + (lhs - rhs)
    return out


def canonical_check(S: ActionFunctional, dR, dA, H, F, G, dDelta) -> dict:
    """Report for the infinitesimal canonical-transformation identity."""
    from .reports import check_record
    res = canonical_residual(S, dR, dA, H, F, G, dDelta)
    worst = res.max_abs()
    return check_record("canonical_identity",
                        {"H_grades": sorted(H.grades()),
                         "F_grades": sorted(F.grades()),
                         "G_grades": sorted(G.grades())},
                        worst, worst < 1e-9)


def poisson_ideal_check(S: ActionFunctional, F, h, G, delta) -> dict:
    """Report for the Poisson-ideal membership identity."""
    from .reports import check_record
    res = poisson_ideal_residual(S, F, h, G, delta)
    worst = res.max_abs()
    tol = 0.0 if F.algebra.ring.exact else 1e-10
    return check_record("poisson_ideal_identity",
                        {"F_grades": sorted(F.grades()),
                         "G_grades": sorted(G.grades())},
                        worst, worst <= tol)
