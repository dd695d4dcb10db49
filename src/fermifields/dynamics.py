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
  exact identities order by order.  The substitution runs Horner's rule
  on an element's words, img(g) ∧ (sum of the tails after g), each
  order summed in place into one term dict.
"""

from __future__ import annotations

import math

import numpy as np

from ._core import wedge_terms
from .algebra import Algebra, GrassmannElement, _add_terms, left_derivative
from .kernels import ElementKernel, Kernel
from .lattice import FieldLattice
from .linalg import matmul, zeros
from .series import FormalSeries, TruncatedSeries

__all__ = [
    "ParityError", "ActionFunctional", "pair_contract", "peierls_bracket",
    "SubstitutionMap", "moller_substitution", "higher_retarded",
    "bracket_kernel_derivative", "canonical_residual", "poisson_ideal_residual",
]

DEFAULT_MAX_GRADE = 10


class ParityError(ValueError):
    """Raised when an even functional is required but an odd one is given."""


class ActionFunctional:
    """Cutoff-to-functional map f ↦ S(f) with a cached second derivative.

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

    def eom_element(self, h) -> GrassmannElement:
        """⟨S(1)^(1), h⟩ for a slot->coefficient test configuration h."""
        return left_derivative(h, self.functional())

    def second_kernel(self):
        """(scalar part, even element part) of K[j, i] = d_j d_i S."""
        if "d2" not in self._cache:
            n = self.fl.n_slots
            ring = self.algebra.ring
            K0 = zeros((n, n), ring)
            entries: dict[tuple[int, int], GrassmannElement] = {}
            for i, di in self.functional().derivatives().items():
                for j, dji in di.derivatives().items():
                    c0 = dji.coefficient(())
                    if c0:
                        K0[j, i] = K0[j, i] + c0
                    rest = dji - self.algebra.scalar(c0)
                    if not rest.is_zero():
                        entries[(j, i)] = rest
            self._cache["d2"] = (
                Kernel(K0, "operator", self.fl.slot_times),
                ElementKernel(self.algebra, n, entries),
            )
        return self._cache["d2"]

    def __repr__(self):
        return f"ActionFunctional({self.name})"


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
    :class:`Kernel` or a list of such parts (summed).  The terms come
    part by part, an element kernel's in entry order and a scalar one's
    row by row, each cut at ``max_grade``; :meth:`Algebra.sum` adds
    them.
    """
    dF = F.derivatives()
    dG = G.derivatives() if dF else {}
    if not dG:
        return F.algebra.zero()

    def terms():
        for part in _kernel_parts(kernel):
            if isinstance(part, ElementKernel):
                for (i, j), entry in part.entries.items():
                    if i in dF and j in dG:
                        yield dF[i].wedge(entry).wedge(dG[j])
            else:
                for i, fi in dF.items():
                    row = part[i]
                    for j, gj in dG.items():
                        if c := row[j]:
                            yield fi.wedge(gj).scale(c)

    return F.algebra.sum(t if max_grade is None else t.truncate(max_grade)
                         for t in terms())


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
    return F.algebra.sum([-pair_contract(even, kernel, G, max_grade),
                          pair_contract(odd, kernel, G, max_grade)])


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
        the result is capped at ``order``, and flagged truncated when a
        grade above ``max_grade`` was dropped.
        """
        order = self.order if order is None else min(order, self.order)
        return self._substitute(elem, order)

    def _substitute(self, elem: GrassmannElement, order: int) -> FormalSeries:
        """:meth:`apply` through ``order``.

        Horner's rule on the words: grouped by their first generator g,
        which is their smallest, so splitting it off takes no sign, the
        element is c_() + Σ_g img(g) ∧ apply(tails of g), the tails
        summed before the wedge.  Each order is one term dict summed in
        place; each product is cut at ``order`` and at ``max_grade``.
        The series is flagged truncated when an image used was, or a cut
        at ``max_grade`` dropped a term.
        """
        max_grade = self.max_grade
        cut = False

        def horner(words: dict) -> dict[int, dict]:
            nonlocal cut
            out: dict[int, dict] = {}
            groups: dict[int, dict] = {}
            for w, c in words.items():
                if w:
                    groups.setdefault(w[0], {})[w[1:]] = c
                else:
                    out[0] = {(): c}
            for g, tails in groups.items():
                img = self.image(g)
                cut = cut or img.truncated
                rest = horner(tails)
                for ka, ea in img.coeffs.items():
                    for kb, tb in rest.items():
                        if ka + kb > order:
                            continue
                        prod = wedge_terms(ea._terms, tb)
                        if max_grade is not None:
                            kept = {w: c for w, c in prod.items()
                                    if len(w) <= max_grade}
                            if len(kept) < len(prod):
                                cut = cut or any(c for w, c in prod.items()
                                                 if len(w) > max_grade)
                                prod = kept
                        _add_terms(out.setdefault(ka + kb, {}), prod)
            return {k: t for k, t in out.items() if t}

        alg = self.algebra
        coeffs = {k: GrassmannElement(alg, t) for k, t in horner(elem._terms).items()}
        return TruncatedSeries(alg, coeffs, order, cut)

    def apply_series(self, series: FormalSeries) -> FormalSeries:
        """Σ_k λ^k · apply(c_k), through the map's order.

        Coefficient k is substituted only through order ``self.order − k``
        and its image placed at orders k … ``self.order``; coefficients
        above the map's order are dropped.
        """
        coeffs: dict[int, GrassmannElement] = {}
        truncated = False
        for k, e in series.coeffs.items():
            if k > self.order:
                continue
            img = self.apply(e, self.order - k)
            truncated = truncated or img.truncated
            for j, c in img.coeffs.items():
                coeffs[j + k] = coeffs[j + k] + c if j + k in coeffs else c
        return TruncatedSeries(self.algebra, coeffs, self.order, truncated)

    def inverse(self) -> "SubstitutionMap":
        """Order-by-order inverse; needs identity leading coefficients.

        Generic in the images; :meth:`MollerMap.inverse` has a closed form.
        """
        order = self.order
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
        self._mat = dR.mat
        self._dF = F.derivatives()
        self._supp = sorted(self._dF)
        # _src[k][j] is the λ^k coefficient of ∂_jF[W]; _cut[k] holds the j
        # whose coefficient lost a grade to max_grade
        self._src: list[dict[int, GrassmannElement]] = []
        self._cut: list[set] = []
        # ∂F involves interaction slots only, and their images from the
        # sources through order k - 2 give the order k - 1 source
        for k in range(1, order + 1):
            self._images.clear()
            src, cut = {}, set()
            for j in self._supp:
                series = self._substitute(self._dF[j], k - 1)
                src[j] = series.coefficient(k - 1)
                if series.truncated:
                    cut.add(j)
            self._src.append(src)
            self._cut.append(cut)
        self._images.clear()

    def _response(self, i: int, src: dict, cut=()) -> tuple:
        """(Σ_j Δ^R[i, j] · src[j] over the interaction's derivative slots,
        cut at ``max_grade``; whether that or a src[j] with j in ``cut``
        that enters the sum lost a grade)."""
        row = self._mat[i]
        used = [j for j in self._supp if row[j]]
        v, dropped = self._clip(self.algebra.sum(src[j].scale(row[j]) for j in used))
        return v, any(j in cut for j in used) or dropped

    def image(self, i: int) -> FormalSeries:
        """W_i through the orders whose sources are built so far: all of
        them once the map is constructed."""
        if i in self._images:
            return self._images[i]
        coeffs = {0: self.algebra.generator(i)}
        lost = False
        for k, (src, cut) in enumerate(zip(self._src, self._cut), 1):
            coeffs[k], dropped = self._response(i, src, cut)
            lost = lost or dropped
        s = TruncatedSeries(self.algebra, coeffs, self.order, lost)
        self._images[i] = s
        return s

    def inverse(self) -> SubstitutionMap:
        """Closed-form inverse e_i ↦ e_i − λ Σ_j Δ^R[i, j] ∂_jF.

        The images W solve W = e + λ Δ^R · ∂F[W], so e = W − λ Δ^R · ∂F[W]
        exactly: the inverse is first order in λ, and substituting it
        after this map gives the identity through every order.
        :meth:`SubstitutionMap.inverse` computes the same map order by
        order and serves as its oracle.
        """
        alg = self.algebra
        inv = SubstitutionMap(alg, self.order, self.max_grade)
        for i in range(alg.n):
            v, dropped = self._response(i, self._dF)
            if dropped or not v.is_zero():
                inv.set_image(i, TruncatedSeries(
                    alg, {0: alg.generator(i), 1: -v}, self.order, dropped))
        return inv


def moller_substitution(S: ActionFunctional, F: GrassmannElement, dR: Kernel,
                        order: int, max_grade: int | None = DEFAULT_MAX_GRADE) -> MollerMap:
    return MollerMap(S, F, dR, order, max_grade)


def higher_retarded(m: MollerMap, G: GrassmannElement, n: int) -> GrassmannElement:
    """n-th order retarded product R_{S,n}(F^{⊗n}, G) = n! · [λ^n] m(G).

    ``m`` is the Møller map r_{S+λF,S} of :func:`moller_substitution`,
    and ``n`` runs from 0 to its order.  Satisfies
    R_{S,k}(F^{⊗k}, ⟨S^(1),h⟩) = −k R_{S,k−1}(F^{⊗(k−1)}, ⟨F^(1),h⟩) and
    the grade law |R_{S,n}| = |G| + n(|F|−2) for homogeneous inputs.
    """
    if not 0 <= n <= m.order:
        raise ValueError(f"n must be in 0..{m.order}, the map's order")
    if n == 0:
        return G
    return m.apply(G, n).coefficient(n).scale(math.factorial(n))


# -- canonical transformation and Poisson ideal checks -----------------------

def bracket_kernel_derivative(dR: Kernel, KH):
    """d/dλ of the causal kernel of S + λH at λ=0, from Δ^R alone.

    The derivative is −Δ^R K_H Δ^R + Δ^A K_H Δ^A.  With X = −Δ^R K_H Δ^R
    and Δ^A = −(Δ^R)^T, the advanced term is X^T provided K_H is
    antisymmetric, as K_H = H^(2) is for every even H (its entries are
    even, so they commute through the transpose).  Returns ``[X, X^T]``
    for an :class:`ElementKernel` K_H and ``[X + X^T]`` for a scalar one.
    """
    mR = dR.mat
    if isinstance(KH, ElementKernel):
        X = KH.compose_scalar_left(-mR).compose_scalar_right(mR)
        return [X, X.transpose()]
    X = -matmul(matmul(mR, KH), mR)
    return [X + X.T]


def canonical_residual(dR: Kernel, H, F, G, dDelta) -> GrassmannElement:
    """Defect of the infinitesimal canonical-transformation identity.

    {R_S(H,F), G} + {F, R_S(H,G)} − R_S(H, {F,G}) − (−1)^{|F|+1}⟨F^(1), dΔ G^(1)⟩
    with dΔ the λ-derivative of the causal kernel (symbolic or finite
    difference), supplied as ``dDelta``.  The action S enters only
    through its retarded kernel ``dR``; the causal kernel is
    Δ = Δ^R − Δ^A = Δ^R + (Δ^R)^T.
    """
    delta = dR.mat + dR.mat.T

    def br(X, Y, kernel=delta):
        return peierls_bracket(None, kernel, X, Y)

    lhs = br(br(H, F, dR), G) + br(F, br(H, G, dR))
    rhs = br(H, br(F, G), dR) + br(F, G, dDelta)
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

    def defect(p, Gp):
        lhs = peierls_bracket(S, delta, FE, Gp)
        rhs = peierls_bracket(S, delta, F, Gp).wedge(E)
        return lhs + rhs if p % 2 == 1 else lhs - rhs

    return F.algebra.sum(defect(p, Gp) for p, Gp in G.homogeneous_parts().items())

