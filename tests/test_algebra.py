"""Exterior-algebra kernel: wedge, derivatives, evaluation, oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fermifields._core import merge_words
from fermifields.algebra import (Algebra, Configuration, ConfigurationError,
                                 GeneratorId, _random_coeff, evaluate,
                                 left_derivative, random_element)
from fermifields.scalars import QC, _qc
from fermifields.verify import (multilinear_evaluation_oracle,
                                wedge_permutation_oracle)


def test_generator_order_is_lexicographic():
    gens = [GeneratorId(1, 1, 0, 0), GeneratorId(0, 2, 0, 0),
            GeneratorId(0, 1, 3, 1), GeneratorId(0, 1, 3, 0)]
    alg = Algebra(gens)
    assert alg.generators == (GeneratorId(0, 1, 3, 0), GeneratorId(0, 1, 3, 1),
                              GeneratorId(0, 2, 0, 0), GeneratorId(1, 1, 0, 0))
    assert GeneratorId(0, 1, 3, 0) == GeneratorId(0, 1, 3, 0)
    assert GeneratorId(0, 1, 3, 0) != GeneratorId(0, 1, 3, 1)


def test_wedge_basic_signs(alg6):
    e1, e2 = alg6.generator(0), alg6.generator(1)
    assert e1.wedge(e2).terms() == {(0, 1): QC(1)}
    assert e2.wedge(e1).terms() == {(0, 1): QC(-1)}
    assert e1.wedge(e1).is_zero()


def test_wedge_rejects_mismatched_algebras(alg6, fl_rat):
    with pytest.raises(ValueError):
        alg6.generator(0).wedge(fl_rat.algebra.generator(0))


def test_merge_words_sign_matches_sorting():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 9)
        wa = tuple(sorted(rng.sample(range(n), rng.randint(0, n // 2))))
        rest = [i for i in range(n) if i not in wa]
        wb = tuple(sorted(rng.sample(rest, rng.randint(0, len(rest)))))
        out = merge_words(wa, wb)
        concat = list(wa) + list(wb)
        inv = sum(1 for x in range(len(concat)) for y in range(x + 1, len(concat))
                  if concat[x] > concat[y])
        sign, word = out
        assert word == tuple(sorted(concat))
        assert sign == (-1) ** inv


def test_wedge_matches_permutation_sum_oracle(alg6, rng):
    for p in range(0, 4):
        for q in range(0, 7 - p):
            if p + q > 6:
                continue
            a = random_element(alg6, rng, p, 3)
            b = random_element(alg6, rng, q, 3)
            assert (a.wedge(b) - wedge_permutation_oracle(a, p, b, q)).is_zero()


def test_left_derivative_definition_on_basis(alg6):
    # (d_h t)(u) = t(h ∧ u) checked over every basis configuration
    t = alg6.monomial((0, 1)) + alg6.monomial((1, 3), Fraction(2))
    for i in range(6):
        h = alg6.generator(i)
        dt = left_derivative(h, t)
        import itertools
        for r in range(0, 3):
            for word in itertools.combinations(range(6), r):
                u = alg6.monomial(word)
                lhs = evaluate(dt, u)
                rhs = evaluate(t, h.wedge(u)) if not h.wedge(u).is_zero() \
                    else alg6.ring.zero
                assert lhs == rhs


def test_left_derivative_contract_first_slot(alg6):
    t = alg6.monomial((0, 1))
    h = alg6.generator(0)
    assert left_derivative(h, t).terms() == {(1,): QC(1)}
    assert left_derivative(alg6.generator(1), t).terms() == {(0,): QC(-1)}


def test_left_derivative_scalar_is_zero(alg6):
    assert left_derivative(alg6.generator(2), alg6.scalar(3)).is_zero()


def test_left_derivative_requires_grade_one(alg6):
    with pytest.raises(ValueError):
        left_derivative(alg6.monomial((0, 1)), alg6.generator(2))


def test_left_derivative_graded_leibniz(alg6, rng):
    for _ in range(50):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        s = random_element(alg6, rng, p, 3)
        t = random_element(alg6, rng, q, 3)
        h = {rng.randrange(6): alg6.ring.number(rng.randint(-3, 3))}
        lhs = left_derivative(h, s.wedge(t))
        rhs = left_derivative(h, s).wedge(t)
        tail = s.wedge(left_derivative(h, t))
        rhs = rhs + (tail if p % 2 == 0 else -tail)
        assert (lhs - rhs).is_zero()


def test_evaluation_examples(alg6):
    c, d = QC(Fraction(3, 2)), QC(2, 1)
    t = alg6.monomial((0, 1), c)
    u = Configuration(alg6, {(0, 1): d})
    assert evaluate(t, u) == c * d
    # grade mismatch annihilates
    u3 = alg6.monomial((0, 1, 2))
    assert evaluate(t, u3) == QC(0)


def test_evaluation_matches_multilinear_oracle(rng):
    alg = Algebra([GeneratorId(0, 1, i, 0) for i in range(5)], mode="rational")
    for _ in range(20):
        t = random_element(alg, rng, rng.randint(0, 3), 3)
        u = random_element(alg, rng, rng.randint(0, 3), 3)
        assert evaluate(t, u) == multilinear_evaluation_oracle(t, u)


def test_kth_derivative_examples(alg6, rng):
    # one derivative of a grade-1 element recovers its coefficients
    e = alg6.linear({1: QC(2), 4: QC(0, 1)})
    assert e.d(1).terms() == {(): QC(2)}
    assert e.d(4).terms() == {(): QC(0, 1)}
    # d_i d_j is alternating in (i, j)
    t = random_element(alg6, rng, 3, 3)
    for i in range(6):
        for j in range(6):
            assert (t.d(j).d(i) + t.d(i).d(j)).is_zero()
    # unrolled definition: (d_i d_j t)(u) = t(e_j ∧ e_i ∧ u), the inner
    # derivative contributing the innermost wedge factor
    t = alg6.monomial((0, 1, 2))
    import itertools
    for i, j in itertools.permutations(range(4), 2):
        for word in itertools.combinations(range(6), 1):
            u = alg6.monomial(word)
            hh = alg6.generator(j).wedge(alg6.generator(i)).wedge(u)
            assert evaluate(t.d(j).d(i), u) == evaluate(t, hh)


def is_homogeneous(e) -> bool:
    return len(e.grades()) <= 1


def test_homogeneity_and_parity(alg6):
    a = alg6.monomial((0, 1))
    assert is_homogeneous(a) and a.grades() == {2} and a.is_even()
    b = a + alg6.generator(3)
    assert not is_homogeneous(b)
    even, odd = b.parity_parts()
    assert even.grades() == {2} and odd.grades() == {1}


def test_no_stored_zero_coefficients(alg6):
    a = alg6.monomial((0, 1))
    b = alg6.monomial((0, 1), QC(-1))
    assert len(a + b) == 0
    assert (a + b).is_zero()



def _fold(alg, elements):
    out = alg.zero()
    for e in elements:
        out = out + e
    return out


def _bits(e):
    return [(w, repr(c)) for w, c in e.items()]


def test_sum_matches_the_add_fold_in_float(alg6f):
    """Same words, word order and coefficient reprs as zero() + e1 + …:
    0 + (−0.0) makes a part +0.0, and a word that cancels is dropped and
    comes back at the end."""
    elems = [alg6f.element({(0, 1): complex(-0.0, 1.5), (2,): complex(0.25, -0.0),
                            (3, 4): 1 + 2j}),
             alg6f.element({(3, 4): -1 - 2j, (0, 1): complex(-0.0, -1.5)}),
             alg6f.element({(3, 4): 0.5j, (2,): complex(0.5, -0.0), (5,): 1.0})]
    got = alg6f.sum(elems)
    assert _bits(got) == _bits(_fold(alg6f, elems))
    assert _bits(got) == [((2,), "(0.75+0j)"), ((3, 4), "0.5j"), ((5,), "(1+0j)")]
    assert _bits(alg6f.sum(iter(elems[:1]))) == _bits(_fold(alg6f, elems[:1]))
    assert repr(alg6f.sum(elems[:1]).coefficient((0, 1))) == "1.5j"
    assert len(alg6f.sum([])) == 0


def test_sum_matches_the_add_fold_exactly(alg6):
    ring = alg6.ring
    third = ring.number(Fraction(1, 3), Fraction(-2, 5))
    elems = [alg6.element({(0,): third, (1, 2): 2}),
             alg6.element({(0,): -third, (1, 2): ring.number(Fraction(1, 2), 1)}),
             alg6.element({(0,): 5, (1, 2): ring.number(Fraction(-5, 2), -1)}),
             alg6.element({(3,): third})]
    got = alg6.sum(elems)
    assert _bits(got) == _bits(_fold(alg6, elems))
    assert got.terms() == {(0,): QC(5), (3,): third}
    assert list(got.terms()) == [(0,), (3,)]


def test_random_coeff_draws_the_fraction_triples(alg6):
    """_qc(num, num_i, den) is the normalised triple of
    number(num/den, num_i/den) for every draw, and a seeded stream of
    draws is unchanged."""
    ring = alg6.ring
    for num in range(-4, 5):
        for den in range(1, 4):
            for num_i in range(-4, 5):
                want = ring.number(Fraction(num, den), Fraction(num_i, den))
                assert _qc(num, num_i, den)._abd == want._abd
    rng, ref = random.Random(3), random.Random(3)
    for _ in range(50):
        num = ref.randint(-4, 4) or 1
        den = ref.randint(1, 3)
        want = ring.number(Fraction(num, den), Fraction(ref.randint(-4, 4), den))
        assert _random_coeff(alg6, rng)._abd == want._abd


def test_sum_rejects_another_algebra(alg6, alg6f):
    with pytest.raises(ConfigurationError):
        alg6.sum([alg6.one(), alg6f.one()])
    with pytest.raises(ConfigurationError):
        alg6.one() + alg6f.one()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1000))
def test_wedge_graded_commutativity_hypothesis(p, q, seed):
    alg = Algebra([GeneratorId(0, 1, i, 0) for i in range(6)], mode="rational")
    r = random.Random(seed)
    a = random_element(alg, r, p, 2)
    b = random_element(alg, r, q, 2)
    flip = b.wedge(a)
    if (p * q) % 2 == 1:
        flip = -flip
    assert (a.wedge(b) - flip).is_zero()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 1000))
def test_wedge_associativity_hypothesis(p, q, s, seed):
    alg = Algebra([GeneratorId(0, 1, i, 0) for i in range(6)], mode="rational")
    r = random.Random(seed)
    a, b, c = (random_element(alg, r, g, 2) for g in (p, q, s))
    assert (a.wedge(b).wedge(c) - a.wedge(b.wedge(c))).is_zero()

