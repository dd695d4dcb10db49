"""Star products, time ordering, S-matrix and product equivalence."""

import math
import random
from fractions import Fraction

import pytest

from fermifields._core import merge_words
from fermifields.algebra import (CONJUGATE, FIELD, Algebra, GeneratorId,
                                 GrassmannElement, random_element)
from fermifields.dynamics import peierls_bracket
from fermifields.gross_neveu import build_free_action
from fermifields.lattice import (FieldLattice, Lattice, causal_propagator,
                                 dirac_green)
from fermifields.linalg import zeros
from fermifields.quantization import (SymmetricKernel, _add_order,
                                      _gamma_pair_apply, _series,
                                      _star_series, alpha_transform,
                                      contraction_operator, formal_smatrix,
                                      random_symmetric_kernel,
                                      star_commutator, star_h_direct,
                                      star_h_sandwich, star_product,
                                      star_with_kernel,
                                      time_ordered_product, time_ordering)
from fermifields.scalars import Ring
from fermifields.series import HbarSeries


@pytest.fixture
def quant():
    lat = Lattice(4, 2, 1, 1)
    fl = FieldLattice(lat, 1, "rational")
    m = Fraction(1)
    dR = dirac_green(fl, m, "retarded")
    dA = dirac_green(fl, m, "advanced")
    delta = causal_propagator(dR, dA)
    half = fl.ring.number(Fraction(1, 2))
    dirac_prop = delta.copy_with((dR.mat + dA.mat) * half, kind="dirac")
    S = build_free_action(fl, m)
    return fl, S, dR, dA, delta, dirac_prop


def linear(fl, coeffs):
    return fl.algebra.linear(coeffs)


def _shifted(series, n):
    """``series`` times hbar^n."""
    return HbarSeries(series.algebra, {k + n: e for k, e in series.coeffs.items()})


def test_gamma_delta_examples(quant, rng):
    """Γ_Δ(F, G), half the signed pairing of the Peierls bracket."""
    fl, S, dR, dA, delta, dD = quant
    ring = fl.ring
    half = ring.number(Fraction(1, 2))

    def gamma_delta(F, G):
        return peierls_bracket(None, delta.mat, F, G).scale(half)

    # grade-0 arguments annihilate
    assert gamma_delta(fl.algebra.scalar(2), fl.algebra.generator(0)).is_zero()
    assert gamma_delta(fl.algebra.generator(0), fl.algebra.one()).is_zero()
    # linear arguments give (1/2) <f, Δ g> in grade 0
    f = {i: ring.number(rng.randint(-2, 2)) for i in rng.sample(range(fl.n_slots), 4)}
    g = {i: ring.number(rng.randint(-2, 2)) for i in rng.sample(range(fl.n_slots), 4)}
    got = gamma_delta(linear(fl, f), linear(fl, g))
    want = ring.zero
    for i, ci in f.items():
        for j, cj in g.items():
            want = want + ci * delta.mat[i, j] * cj
    assert got.grades() <= {0}
    assert got.coefficient(()) == want * half
    # bilinearity over random decompositions
    A = random_element(fl.algebra, rng, 2, 2)
    B = random_element(fl.algebra, rng, 2, 2)
    C = random_element(fl.algebra, rng, 1, 2)
    lhs = gamma_delta(A + B, C)
    rhs = gamma_delta(A, C) + gamma_delta(B, C)
    assert (lhs - rhs).is_zero()


def test_star_product_linear_fields(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    ring = fl.ring
    f = {i: ring.number(rng.randint(-2, 2)) for i in rng.sample(range(fl.n_slots), 4)}
    g = {i: ring.number(rng.randint(-2, 2)) for i in rng.sample(range(fl.n_slots), 4)}
    F, G = linear(fl, f), linear(fl, g)
    series = star_product(delta, F, G)
    # hbar^0 is the wedge
    assert (series.coefficient(0) - F.wedge(G)).is_zero()
    # hbar^1 is (i/2) <f, Δ g>
    want = ring.zero
    for i, ci in f.items():
        for j, cj in g.items():
            want = want + ci * delta.mat[i, j] * cj
    want = want * ring.i * ring.number(Fraction(1, 2))
    assert series.coefficient(1).coefficient(()) == want
    assert series.orders() in ([0], [0, 1], [1])


def test_star_associativity(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    for _ in range(40):
        slots = rng.sample(range(fl.n_slots), 6)
        F = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        G = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        H = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        left = HbarSeries(fl.algebra, {})
        for k, e in star_product(delta, F, G).coeffs.items():
            left = left + _shifted(star_product(delta, e, H), k)
        right = HbarSeries(fl.algebra, {})
        for k, e in star_product(delta, G, H).coeffs.items():
            right = right + _shifted(star_product(delta, F, e), k)
        assert (left - right).is_zero()


def test_star_commutator_car(quant):
    fl, S, dR, dA, delta, dD = quant
    ring = fl.ring
    psi = list(fl.species_slots(FIELD, 1))
    psb = list(fl.species_slots(CONJUGATE, 1))
    for i in psi:
        for j in psb:
            ei, ej = fl.algebra.generator(i), fl.algebra.generator(j)
            comm = star_commutator(delta, ei, ej)
            expect = ring.i * delta.mat[i, j]
            assert comm.coefficient(0).is_zero()
            assert comm.coefficient(1).coefficient(()) == expect
            # both orderings agree (the graded bracket is symmetric here)
            rev = star_commutator(delta, ej, ei)
            assert (comm - rev).is_zero()


def test_star_commutator_same_parity_cases(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    slots = rng.sample(range(fl.n_slots), 6)
    F = random_element(fl.algebra, rng, 1, 2, slots)
    # odd F: [F, F]_* = 2 F*F, not identically zero
    comm = star_commutator(delta, F, F)
    twice = star_product(delta, F, F).scale(2)
    assert (comm - twice).is_zero()
    # even F: the hbar^0 part of [F, F]_* vanishes
    E = random_element(fl.algebra, rng, 2, 2, slots)
    comm = star_commutator(delta, E, E)
    assert comm.coefficient(0).is_zero()


def test_star_commutator_linear_equals_bracket(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    ring = fl.ring
    for _ in range(10):
        f = {i: ring.number(rng.randint(-2, 2))
             for i in rng.sample(range(fl.n_slots), 4)}
        g = {i: ring.number(rng.randint(-2, 2))
             for i in rng.sample(range(fl.n_slots), 4)}
        F, G = linear(fl, f), linear(fl, g)
        comm = star_commutator(delta, F, G)
        br = peierls_bracket(S, delta.mat, F, G)
        assert (comm.coefficient(1) - br.scale(ring.i)).is_zero()
        for k in comm.orders():
            if k != 1:
                assert comm.coefficient(k).is_zero()


def test_time_ordering_examples(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    ring = fl.ring
    # grade <= 1 is untouched
    F1 = fl.algebra.generator(3) + fl.algebra.scalar(2)
    t1 = time_ordering(dD, F1)
    assert (t1.coefficient(0) - F1).is_zero() and t1.orders() == [0]
    # inverse composition is exact on grade-4 inputs
    for _ in range(5):
        F = random_element(fl.algebra, rng, 4, 3,
                           rng.sample(range(fl.n_slots), 8))
        back = time_ordering(dD, time_ordering(dD, F, "forward"), "inverse")
        assert (back.coefficient(0) - F).is_zero()
        for k in back.orders():
            if k != 0:
                assert back.coefficient(k).is_zero()
    # single quadratic monomial: T adds i hbar * (contraction scalar)
    i = fl.slot(FIELD, 1, 2, 0)
    j = fl.slot(CONJUGATE, 1, 5, 1)
    F = fl.algebra.generator(j).wedge(fl.algebra.generator(i))  # conj ∧ field
    t = time_ordering(dD, F)
    gamma = contraction_operator(dD, F)
    # hand expansion: word (i, j) with coefficient -1 contracts to
    # (1/2)(K[i,j] - K[j,i]) * (-1) = -K[i,j] for the antisymmetric kernel
    want = -dD.mat[i, j] * ring.one
    assert gamma.coefficient(()) == want
    assert t.coefficient(1).coefficient(()) == ring.i * want


def test_time_ordered_product_examples(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    # grade-0 left factor passes through
    F0 = fl.algebra.scalar(Fraction(3, 2))
    G = random_element(fl.algebra, rng, 2, 2, rng.sample(range(fl.n_slots), 6))
    tp = time_ordered_product(dD, F0, G)
    assert (tp.coefficient(0) - F0.wedge(G)).is_zero()
    for k in tp.orders():
        if k != 0:
            assert tp.coefficient(k).is_zero()
    # graded symmetry
    for _ in range(10):
        slots = rng.sample(range(fl.n_slots), 6)
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        F = random_element(fl.algebra, rng, p, 2, slots)
        G = random_element(fl.algebra, rng, q, 2, slots)
        lhs = time_ordered_product(dD, F, G)
        rhs = time_ordered_product(dD, G, F)
        if (p * q) % 2 == 1:
            rhs = rhs.scale(-1)
        assert (lhs - rhs).is_zero()
    # agreement with the star product for temporally ordered supports
    late = [i for i in range(fl.n_slots) if fl.slot_times[i] == 3]
    early = [i for i in range(fl.n_slots) if fl.slot_times[i] == 0]
    for _ in range(5):
        F = random_element(fl.algebra, rng, rng.randint(1, 2), 2,
                           rng.sample(late, 4))
        G = random_element(fl.algebra, rng, rng.randint(1, 2), 2,
                           rng.sample(early, 4))
        diff = time_ordered_product(dD, F, G) - star_product(delta, F, G)
        assert diff.is_zero()


def test_formal_smatrix(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    ring = fl.ring
    # S(0) = 1
    sm = formal_smatrix(dD, fl.algebra.zero(), 3)
    assert (sm.coefficient(0) - fl.algebra.one()).is_zero()
    assert sm.orders() == [0]
    F = random_element(fl.algebra, rng, 2, 2, rng.sample(range(fl.n_slots), 6))
    # n = 1 term is F itself
    sm1 = formal_smatrix(dD, F, 1)
    assert (sm1.coefficient(0) - (fl.algebra.one() + F)).is_zero()
    # n = 2 term is (1/2) F ._T F
    sm2 = formal_smatrix(dD, F, 2)
    direct = HbarSeries(fl.algebra, {0: fl.algebra.one() + F})
    direct = direct + time_ordered_product(dD, F, F).scale(ring.number(Fraction(1, 2)))
    assert (sm2 - direct).is_zero()
    with pytest.raises(ValueError):
        formal_smatrix(dD, fl.algebra.generator(0), 2)


def test_alpha_transform_and_equivalence(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    ring = fl.ring
    n = fl.n_slots
    # zero kernel: identity transform and *_H = *
    from fermifields.linalg import zeros
    zero_kernel = SymmetricKernel(zeros((n, n), ring))
    F = random_element(fl.algebra, rng, 3, 3, rng.sample(range(n), 6))
    G = random_element(fl.algebra, rng, 2, 2, rng.sample(range(n), 6))
    aF = alpha_transform(zero_kernel, F)
    assert (aF.coefficient(0) - F).is_zero() and aF.orders() == [0]
    assert (star_h_sandwich(delta, zero_kernel, F, G)
            - star_product(delta, F, G)).is_zero()
    # random graded-symmetric kernel: roundtrip and two-path equality
    d1 = random_symmetric_kernel(n, rng, ring)
    back = alpha_transform(d1, alpha_transform(d1, F, "forward"), "inverse")
    assert (back.coefficient(0) - F).is_zero()
    for k in back.orders():
        if k != 0:
            assert back.coefficient(k).is_zero()
    for _ in range(8):
        F = random_element(fl.algebra, rng, rng.randint(1, 3), 2,
                           rng.sample(range(n), 6))
        G = random_element(fl.algebra, rng, rng.randint(1, 3), 2,
                           rng.sample(range(n), 6))
        assert (star_h_sandwich(delta, d1, F, G)
                - star_h_direct(delta, d1, F, G)).is_zero()


def test_symmetric_kernel_validation(quant):
    fl, S, dR, dA, delta, dD = quant
    with pytest.raises(ValueError):
        SymmetricKernel(delta.mat)  # symmetric matrix is rejected


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_symmetric_kernel_is_exact_in_rational_mode(mode, rng):
    """A rational kernel off antisymmetry by 1e-14 is rejected; a float
    one is accepted within the 1e-12 tolerance."""
    ring = Ring(mode)
    mat = random_symmetric_kernel(4, rng, ring).mat.copy()
    mat[0, 1] = mat[0, 1] + ring.number(Fraction(1, 10 ** 14))
    if mode == "rational":
        with pytest.raises(ValueError, match="graded symmetry"):
            SymmetricKernel(mat)
    else:
        assert SymmetricKernel(mat).kind == "symmetric"


def test_star_with_kernel_matches_star(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    F = random_element(fl.algebra, rng, 2, 2, rng.sample(range(fl.n_slots), 6))
    G = random_element(fl.algebra, rng, 2, 2, rng.sample(range(fl.n_slots), 6))
    lhs = star_with_kernel(delta.mat * fl.ring.i, F, G)
    assert (lhs - star_product(delta, F, G)).is_zero()


def test_star_with_kernel_matches_star_float_exactly(rng):
    """Float mode: folding i into the contraction factor changes no bit."""
    fl = FieldLattice(Lattice(4, 3, 0.5, 1.0), 1, "float")
    dR = dirac_green(fl, 0.75, "retarded")
    dA = dirac_green(fl, 0.75, "advanced")
    delta = causal_propagator(dR, dA)
    for _ in range(3):
        F = random_element(fl.algebra, rng, 2, 3, rng.sample(range(fl.n_slots), 6))
        G = random_element(fl.algebra, rng, 2, 3, rng.sample(range(fl.n_slots), 6))
        lhs = star_with_kernel(delta.mat * 1j, F, G)
        rhs = star_product(delta, F, G)
        assert sorted(lhs.coeffs) == sorted(rhs.coeffs)
        assert 1 in lhs.coeffs
        for n, e in lhs.coeffs.items():
            assert e.terms() == rhs.coeffs[n].terms()


# -- exact references for the library-derived operators ----------------------

def _word_level_contraction(mat, F):
    """Γ_K(F) by the word-level loop: remove slot i, then slot j, each with
    the position sign of a left derivative."""
    ring = F.algebra.ring
    half = ring.number(Fraction(1, 2))
    terms = {}
    for w, c in F.items():
        for pi, i in enumerate(w):
            wi = w[:pi] + w[pi + 1:]
            si = -half if pi % 2 == 1 else half
            for pj, j in enumerate(wi):
                k = mat[i, j]
                if not k:
                    continue
                nw = wi[:pj] + wi[pj + 1:]
                terms[nw] = (terms.get(nw, ring.zero)
                             + c * k * (-si if pj % 2 == 1 else si))
    return F.algebra.element(terms)


@pytest.mark.parametrize("grade", range(7))
def test_contraction_operator_matches_the_word_level_loop(quant, rng, grade):
    """Γ_K = (1/2) Σ K[i,j] d_j d_i against the word-level loop, for a
    kernel that is not antisymmetric (Γ_K reads only K's antisymmetric
    part, so a sum over i < j alone would differ)."""
    fl = quant[0]
    ring = fl.ring
    n = fl.n_slots
    mat = zeros((n, n), ring)
    for i in range(n):
        for j in range(n):
            mat[i, j] = ring.number(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    assert any(mat[i, j] + mat[j, i] for i in range(n) for j in range(n))
    F = random_element(fl.algebra, rng, grade, 4, rng.sample(range(n), 9))
    want = _word_level_contraction(mat, F)
    assert (contraction_operator(mat, F) - want).is_zero()
    assert want.is_zero() == (grade < 2)


def test_gamma_delta_is_the_first_order_of_star_with_kernel(quant, rng):
    """Γ_Δ(F, G), half the signed pairing, equals the hbar^1 coefficient of
    the tensor-state engine with kernel Δ, inhomogeneous F included."""
    fl, S, dR, dA, delta, dD = quant
    alg = fl.algebra
    half = fl.ring.number(Fraction(1, 2))
    nonzero = 0
    for _ in range(40):
        slots = rng.sample(range(fl.n_slots), 8)
        F = (random_element(alg, rng, rng.randint(0, 4), 2, slots)
             + random_element(alg, rng, rng.randint(0, 4), 2, slots))
        G = random_element(alg, rng, rng.randint(0, 4), 2, slots)
        want = star_with_kernel(delta, F, G).coefficient(1)
        assert (peierls_bracket(None, delta.mat, F, G).scale(half)
                - want).is_zero()
        nonzero += not want.is_zero()
    assert nonzero > 10
    with pytest.raises(ValueError, match="kernel does not match"):
        star_with_kernel(delta.mat[:-1, :-1], F, G)


def test_formal_smatrix_matches_the_per_power_sum(quant, rng):
    """T applied once to Σ (T⁻¹F)^n / n! equals Σ T((T⁻¹F)^n) / n!."""
    fl, S, dR, dA, delta, dD = quant
    alg = fl.algebra
    ring = fl.ring
    slots = rng.sample(range(fl.n_slots), 10)
    # three disjoint bilinears, so that the third power is not 0
    F = (alg.monomial(sorted(slots[0:2])) + alg.monomial(sorted(slots[2:4]))
         + alg.monomial(sorted(slots[4:6]))
         + random_element(alg, rng, 2, 3, slots))
    inv_F = time_ordering(dD, F, "inverse")
    want = HbarSeries(alg, {0: alg.one()})
    power = None
    for n in range(1, 4):
        power = inv_F if power is None else power.wedge(inv_F)
        want = want + time_ordering(dD, power, "forward").scale(
            ring.number(Fraction(1, math.factorial(n))))
    assert not power.coefficient(0).is_zero()
    assert (formal_smatrix(dD, F, 3) - want).is_zero()


# -- per-order sums against the series folds -----------------------------------

def _fold_star_product(delta, F, G):
    """Reference star product: i rides on the contraction factor, and each
    order is an element re-checked through ``Algebra.element`` and scaled,
    collected into a series."""
    alg = F.algebra
    ring = alg.ring
    factor = ring.number(Fraction(1, 2)) * ring.i
    state = {(wa, wb): ca * cb for wa, ca in F.items() for wb, cb in G.items()}
    coeffs = {}
    scale = ring.one
    n = 0
    while state:
        terms = {}
        for (wa, wb), c in state.items():
            m = merge_words(wa, wb)
            if m is not None:
                terms[m[1]] = terms.get(m[1], ring.zero) + (-c if m[0] < 0 else c)
        coeffs[n] = alg.element(terms).scale(
            scale * ring.number(Fraction(1, math.factorial(n))))
        state = _gamma_pair_apply(state, delta.mat, factor)
        n += 1
        scale = scale * ring.one
    return HbarSeries(alg, coeffs)


def _fold_star_commutator(delta, F, G):
    """Reference: ``out + F_p*G_q − (−1)^{pq} G_q*F_p`` as a series fold."""
    out = HbarSeries(F.algebra, {})
    for p, Fp in F.homogeneous_parts().items():
        for q, Gq in G.homogeneous_parts().items():
            rev = _fold_star_product(delta, Gq, Fp)
            if (p * q) % 2 == 1:
                rev = rev.scale(-1)
            out = out + _fold_star_product(delta, Fp, Gq) - rev
    return out


def _fold_star_series(delta, sF, sG):
    out = HbarSeries(sF.algebra, {})
    for ka, ea in sF.coeffs.items():
        for kb, eb in sG.coeffs.items():
            out = out + _shifted(_fold_star_product(delta, ea, eb), ka + kb)
    return out


def _fold_exp_map(kernel, series, unit):
    """Reference exp(unit · hbar Γ_K) on a series: a fold over its orders."""
    alg = series.algebra
    ring = alg.ring
    out = HbarSeries(alg, {})
    for k, e in series.coeffs.items():
        coeffs, x, scale, n = {}, e, ring.one, 0
        while x:
            coeffs[n] = x.scale(scale * ring.number(Fraction(1, math.factorial(n))))
            x = contraction_operator(kernel, x)
            n += 1
            scale = scale * unit
        out = out + _shifted(HbarSeries(alg, coeffs), k)
    return out


def _series_bits(s):
    return [(n, [(w, repr(c)) for w, c in e.items()]) for n, e in s.coeffs.items()]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_star_sums_match_the_series_folds(mode):
    """star_product, star_commutator, _star_series and the exp(Γ_K) maps on
    series give the orders, order order, words, word order and coefficient
    reprs of the series folds they replace, on mixed-grade inputs at 4x3;
    [F, F]_* of an even F cancels every order."""
    m = Fraction(3, 4) if mode == "rational" else 0.75
    fl = FieldLattice(Lattice(4, 3, Fraction(1, 2), 1), 1, mode)
    alg = fl.algebra
    dR = dirac_green(fl, m, "retarded")
    delta = causal_propagator(dR, dirac_green(fl, m, "advanced"))
    sym = random_symmetric_kernel(fl.n_slots, random.Random(5), fl.ring)
    rng = random.Random(13)
    slots = rng.sample(range(fl.n_slots), 10)

    def mixed(grades):
        return alg.sum(random_element(alg, rng, p, 2, slots) for p in grades)

    pairs = [(mixed(range(4)), mixed(range(4))) for _ in range(3)]
    even = mixed((0, 2))
    pairs.append((even, even))
    for F, G in pairs:
        want = _fold_star_product(delta, F, G)
        assert _series_bits(star_product(delta, F, G)) == _series_bits(want)
        want = _fold_star_commutator(delta, F, G)
        assert _series_bits(star_commutator(delta, F, G)) == _series_bits(want)
    assert star_commutator(delta, even, even).coeffs == {}
    # Δᴿ is not symmetric: with F before G in time, G*F has orders that
    # F*G lacks, and they first appear by subtraction, where real float
    # coefficients carry a signed zero that (−1)·c and −c set apart
    time = [fl.lattice.site_time(g.site) for g in alg.generators]
    early = [i for i, t in enumerate(time) if t <= 1]
    late = [i for i, t in enumerate(time) if t >= 2]
    for _ in range(2):
        F, G = (alg.element({w: c.real if mode == "float" else c
                             for w, c in random_element(alg, rng, 3, 3, s).items()})
                for s in (early, late))
        got = star_commutator(dR, F, G)
        assert max(got.coeffs) > max(star_product(dR, F, G).coeffs)
        assert _series_bits(got) == _series_bits(_fold_star_commutator(dR, F, G))
    sF = HbarSeries(alg, {0: pairs[0][0], 1: pairs[1][0], 2: pairs[2][1]})
    sG = HbarSeries(alg, {0: pairs[1][1], 2: pairs[0][1]})
    assert _series_bits(_star_series(delta, sF, sG)) == \
        _series_bits(_fold_star_series(delta, sF, sG))
    assert len(_star_series(delta, sF, sG).coeffs) > 3
    for kernel, got, unit in ((sym, alpha_transform(sym, sF), fl.ring.one),
                              (delta, time_ordering(delta, sF, "inverse"), -fl.ring.i)):
        assert _series_bits(got) == _series_bits(_fold_exp_map(kernel, sF, unit))


def test_add_order_matches_the_series_fold():
    """An order that first appears keeps its terms' signed zeros, also when
    it enters by subtraction; an order that cancels is dropped and comes
    back at the end, as in a fold of series ``+`` and ``−``."""
    alg = Algebra([GeneratorId(0, 1, i, 0) for i in range(4)], mode="float")
    a = {(0,): complex(-0.0, 1.0), (1,): complex(2.0, -0.0)}
    steps = [(0, a, False),
             (1, {(2,): complex(0.5, -0.0)}, True),
             (0, a, False),
             (0, {(0,): complex(-0.0, 2.0), (1,): complex(4.0, -0.0)}, True),
             (0, {(3,): complex(-1.0, -0.0)}, False)]
    acc, want = {}, HbarSeries(alg, {})
    for n, terms, sub in steps:
        _add_order(acc, n, dict(terms), sub)
        step = HbarSeries(alg, {n: GrassmannElement(alg, dict(terms))})
        want = want - step if sub else want + step
    assert _series_bits(_series(alg, acc)) == _series_bits(want)
    assert _series_bits(want) == [(1, [((2,), "(-0.5+0j)")]),
                                  (0, [((3,), "(-1-0j)")])]
