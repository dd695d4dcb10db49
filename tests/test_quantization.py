"""Star products, time ordering, S-matrix and product equivalence."""

from fractions import Fraction

import pytest

from fermifields.algebra import CONJUGATE, FIELD, random_element
from fermifields.dynamics import peierls_bracket
from fermifields.gross_neveu import build_free_action
from fermifields.lattice import (FieldLattice, Lattice, causal_propagator,
                                 dirac_green)
from fermifields.quantization import (SymmetricKernel, alpha_transform,
                                      contraction_operator, formal_smatrix,
                                      gamma_delta, random_symmetric_kernel,
                                      star_commutator, star_h_direct,
                                      star_h_sandwich, star_product,
                                      star_with_kernel,
                                      time_ordered_product, time_ordering)
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


def test_gamma_delta_examples(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    ring = fl.ring
    # grade-0 arguments annihilate
    assert gamma_delta(delta, fl.algebra.scalar(2), fl.algebra.generator(0)).is_zero()
    assert gamma_delta(delta, fl.algebra.generator(0), fl.algebra.one()).is_zero()
    # linear arguments give (1/2) <f, Δ g> in grade 0
    f = {i: ring.number(rng.randint(-2, 2)) for i in rng.sample(range(fl.n_slots), 4)}
    g = {i: ring.number(rng.randint(-2, 2)) for i in rng.sample(range(fl.n_slots), 4)}
    got = gamma_delta(delta, linear(fl, f), linear(fl, g))
    want = ring.zero
    for i, ci in f.items():
        for j, cj in g.items():
            want = want + ci * delta.mat[i, j] * cj
    assert got.grades() <= {0}
    assert got.coefficient(()) == want * ring.number(Fraction(1, 2))
    # bilinearity over random decompositions
    A = random_element(fl.algebra, rng, 2, 2)
    B = random_element(fl.algebra, rng, 2, 2)
    C = random_element(fl.algebra, rng, 1, 2)
    lhs = gamma_delta(delta, A + B, C)
    rhs = gamma_delta(delta, A, C) + gamma_delta(delta, B, C)
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
    # numeric-hbar collapse at 0 recovers the wedge
    assert (star_product(delta, F, G).at(0) - F.wedge(G)).is_zero()


def test_star_associativity(quant, rng):
    fl, S, dR, dA, delta, dD = quant
    for _ in range(40):
        slots = rng.sample(range(fl.n_slots), 6)
        F = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        G = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        H = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        left = HbarSeries(fl.algebra, {})
        for k, e in star_product(delta, F, G).coeffs.items():
            left = left + star_product(delta, e, H).shift(k)
        right = HbarSeries(fl.algebra, {})
        for k, e in star_product(delta, G, H).coeffs.items():
            right = right + star_product(delta, F, e).shift(k)
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
    zero_kernel = SymmetricKernel(zeros((n, n), ring), ring)
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
        SymmetricKernel(delta.mat, fl.ring)  # symmetric matrix is rejected


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
