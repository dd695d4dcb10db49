"""Actions, response products, brackets, intertwining maps."""

import math
import random
from fractions import Fraction

import pytest

from fermifields import verify
from fermifields.algebra import (CONJUGATE, FIELD, evaluate, left_derivative,
                                 random_element)
from fermifields.config import RunConfig
from fermifields.dynamics import (ActionFunctional, MollerMap, ParityError,
                                  SubstitutionMap, _kernel_parts,
                                  bracket_kernel_derivative,
                                  canonical_residual, higher_retarded,
                                  moller_substitution, pair_contract,
                                  peierls_bracket, poisson_ideal_residual)
from fermifields.gross_neveu import (GrossNeveuParams, bilinear_element,
                                     build_free_action, build_gn_action,
                                     gn_interaction_term)
from fermifields.kernels import ElementKernel, Kernel
from fermifields.lattice import (FieldLattice, Lattice, causal_propagator,
                                 dirac_green, dirac_matrix)
from fermifields.linalg import matmul
from fermifields.series import TruncatedSeries
from fermifields.verify import _local_mass_bilinear, _second_matrix


def free_setup(fl, m):
    S = build_free_action(fl, m)
    dR = dirac_green(fl, m, "retarded")
    dA = dirac_green(fl, m, "advanced")
    return S, dR, dA, causal_propagator(dR, dA)


# -- actions and equations of motion ----------------------------------------

def test_action_support_in_cutoff(fl_rat, mass):
    S = build_free_action(fl_rat, mass)
    lat = fl_rat.lattice
    w = [fl_rat.ring.one if lat.site_time(s) == 1 else fl_rat.ring.zero
         for s in range(lat.n_sites)]
    supported = S.functional(w)
    sites = {fl_rat.algebra.generators[i].site for word, _ in supported.items()
             for i in word}
    # conjugate-slot (equation row) sites lie at time 1; field slots reach
    # the backward time neighbor
    row_sites = {fl_rat.algebra.generators[i].site
                 for word, _ in supported.items() for i in word
                 if fl_rat.algebra.generators[i].species == CONJUGATE}
    assert {lat.site_time(s) for s in row_sites} == {1}


def test_action_additivity(fl_rat, mass):
    S = build_free_action(fl_rat, mass)
    lat = fl_rat.lattice
    ring = fl_rat.ring

    def wt(times):
        return [ring.one if lat.site_time(s) in times else ring.zero
                for s in range(lat.n_sites)]

    f, g, h = wt({0}), wt({2}), wt({3})
    add = lambda a, b: [x + y for x, y in zip(a, b)]
    lhs = S.functional(add(add(f, g), h))
    rhs = S.functional(add(f, g)) - S.functional(g) + S.functional(add(g, h))
    assert (lhs - rhs).is_zero()


def test_odd_action_rejected(fl_rat):
    with pytest.raises(ParityError):
        ActionFunctional(fl_rat, lambda w: fl_rat.algebra.generator(0))


def test_eom_generators_free_dirac_rows(fl_rat, mass):
    """Unit conjugate-slot test vector picks out one bilinear row."""
    S = build_free_action(fl_rat, mass)
    M = dirac_matrix(fl_rat, mass)
    base = fl_rat.slot(CONJUGATE, 1, 0, 0)
    for a in (0, 3, 10):
        h = {base + a: fl_rat.ring.one}
        gen = S.eom_element(h)
        assert gen.grades() <= {1}
        # coefficients are the entries of the bilinear matrix row a
        for bb in range(fl_rat.block):
            got = gen.coefficient((fl_rat.slot(FIELD, 1, 0, 0) + bb,))
            assert got == M[a, bb]


def test_eom_generators_gross_neveu_cubic(fl_rat, mass):
    """Interacting generator = free part + cubic term with weight
    lam*g(x)/N * vol, derived symbolically from the quartic action."""
    lam = Fraction(1, 3)
    params = GrossNeveuParams(lam=lam, m=mass)
    S = build_gn_action(fl_rat, params)
    S0 = build_free_action(fl_rat, mass)
    g = params.cutoff(fl_rat)
    lat = fl_rat.lattice
    ring = fl_rat.ring
    vol = ring.coerce(Fraction(lat.dt) * Fraction(lat.dx))
    site = 1 * lat.nx + 0              # interior site (t, x) = (1, 0), g = 1 there
    slot_psb = fl_rat.slot(CONJUGATE, 1, site, 0)
    h = {slot_psb: ring.one}
    cubic = S.eom_element(h) - S0.eom_element(h)
    assert cubic.grades() <= {3}
    # hand-built: (lam g / N) vol * rho_site ∧ psi_{site,comp0}
    rho = fl_rat.algebra.zero()
    for comp in range(2):
        w = (fl_rat.slot(FIELD, 1, site, comp),
             fl_rat.slot(CONJUGATE, 1, site, comp))
        rho = rho + fl_rat.algebra.element({w: -ring.one})
    want = rho.wedge(fl_rat.algebra.generator(fl_rat.slot(FIELD, 1, site, 0)))
    want = want.scale(vol * ring.coerce(lam) * ring.coerce(g[site]))
    assert (cubic - want).is_zero()
    # cutoff support: no cubic term at sites where g vanishes
    site0 = 0 * lat.nx + 0
    h0 = {fl_rat.slot(CONJUGATE, 1, site0, 0): ring.one}
    assert (S.eom_element(h0) - S0.eom_element(h0)).is_zero()


# -- response products --------------------------------------------------------

def test_retarded_product_on_eom(fl_rat, mass, rng):
    S, dR, dA, delta = free_setup(fl_rat, mass)
    interior = fl_rat.interior_slots()
    for _ in range(10):
        F = random_element(fl_rat.algebra, rng, 2, 2,
                           rng.sample(range(fl_rat.n_slots), 6))
        h = {i: fl_rat.ring.number(rng.randint(-2, 2))
             for i in rng.sample(interior, 3)}
        eom = S.eom_element(h)
        got = peierls_bracket(S, dR, F, eom)
        want = -left_derivative(h, F)
        assert (got - want).is_zero()


def test_retarded_product_constant_left_argument(fl_rat, mass):
    S, dR, _, _ = free_setup(fl_rat, mass)
    F = fl_rat.algebra.scalar(Fraction(5, 2))
    G = fl_rat.algebra.generator(0)
    assert peierls_bracket(S, dR, F, G).is_zero()


def test_retarded_product_left_leibniz(fl_rat, mass, rng):
    S, dR, _, _ = free_setup(fl_rat, mass)
    for _ in range(20):
        slots = rng.sample(range(fl_rat.n_slots), 8)
        F1 = random_element(fl_rat.algebra, rng, 2, 2, slots)
        F2 = random_element(fl_rat.algebra, rng, 2, 2, slots)
        G = random_element(fl_rat.algebra, rng, 1, 2, slots)
        lhs = peierls_bracket(S, dR, F1.wedge(F2), G)
        rhs = F1.wedge(peierls_bracket(S, dR, F2, G)) \
            + peierls_bracket(S, dR, F1, G).wedge(F2)
        assert (lhs - rhs).is_zero()


def test_advanced_reversal_relation(fl_rat, mass, rng):
    """A_S(F,G) = (+1)(-1)^{|F||G|} R_S(G,F), pinned by the transpose
    relation between the two kernels."""
    S, dR, dA, _ = free_setup(fl_rat, mass)
    for _ in range(30):
        slots = rng.sample(range(fl_rat.n_slots), 8)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        F = random_element(fl_rat.algebra, rng, p, 2, slots)
        G = random_element(fl_rat.algebra, rng, q, 2, slots)
        adv = peierls_bracket(S, dA, F, G)
        ret = peierls_bracket(S, dR, G, F)
        if (p * q) % 2 == 1:
            ret = -ret
        assert (adv - ret).is_zero()


def test_species_block_zeros_kill_both_products(fl_rat, mass):
    S, dR, dA, _ = free_setup(fl_rat, mass)
    psi = list(fl_rat.species_slots(FIELD, 1))
    F = fl_rat.algebra.monomial((psi[0], psi[1]))
    G = fl_rat.algebra.monomial((psi[4],))
    assert peierls_bracket(S, dR, F, G).is_zero()
    assert peierls_bracket(S, dA, F, G).is_zero()


# -- Peierls bracket -----------------------------------------------------------

def test_bracket_linear_fields_scalar_value(fl_rat, mass, rng):
    S, _, _, delta = free_setup(fl_rat, mass)
    ring = fl_rat.ring
    for _ in range(10):
        f = {i: ring.number(rng.randint(-2, 2))
             for i in rng.sample(range(fl_rat.n_slots), 4)}
        g = {i: ring.number(rng.randint(-2, 2))
             for i in rng.sample(range(fl_rat.n_slots), 4)}
        F = fl_rat.algebra.linear(f)
        G = fl_rat.algebra.linear(g)
        br = peierls_bracket(S, delta.mat, F, G)
        want = ring.zero
        for i, ci in f.items():
            for j, cj in g.items():
                want = want + ci * delta.mat[i, j] * cj
        assert br.grades() <= {0}
        assert br.coefficient(()) == want


def test_bracket_graded_antisymmetry_and_jacobi(fl_rat, mass, rng):
    S, _, _, delta = free_setup(fl_rat, mass)
    for _ in range(30):
        slots = rng.sample(range(fl_rat.n_slots), 8)
        p, q, r = (rng.randint(1, 3) for _ in range(3))
        F = random_element(fl_rat.algebra, rng, p, 2, slots)
        G = random_element(fl_rat.algebra, rng, q, 2, slots)
        H = random_element(fl_rat.algebra, rng, r, 2, slots)

        def br(x, y):
            return peierls_bracket(S, delta.mat, x, y)

        anti = br(F, G) + br(G, F).scale((-1) ** (p * q))
        assert anti.is_zero()
        jac = br(br(F, G), H).scale((-1) ** (p * r)) \
            + br(br(G, H), F).scale((-1) ** (p * q)) \
            + br(br(H, F), G).scale((-1) ** (q * r))
        assert jac.is_zero()


def test_poisson_ideal_identity(fl_rat, mass, rng):
    S, _, _, delta = free_setup(fl_rat, mass)
    interior = fl_rat.interior_slots()
    ring = fl_rat.ring
    # F = 1: the generator brackets to zero against anything
    h = {i: ring.number(rng.randint(-2, 2)) for i in rng.sample(interior, 3)}
    E = S.eom_element(h)
    G = random_element(fl_rat.algebra, rng, 2, 2, rng.sample(range(fl_rat.n_slots), 6))
    assert peierls_bracket(S, delta.mat, E, G).is_zero()
    # graded identity for random F of grade 2
    for _ in range(20):
        slots = rng.sample(range(fl_rat.n_slots), 6)
        F = random_element(fl_rat.algebra, rng, 2, 2, slots)
        G = random_element(fl_rat.algebra, rng, rng.randint(1, 2), 2, slots)
        h = {i: ring.number(rng.randint(-2, 2))
             for i in rng.sample(interior, 3)}
        assert poisson_ideal_residual(S, F, h, G, delta.mat).is_zero()



def _fold_pair_contract(F, kernel, G, max_grade=None):
    """Reference: the pairing as a running ``out = out + term`` fold."""
    out = F.algebra.zero()
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


def _fold_peierls_bracket(kernel, F, G, max_grade=None):
    """Reference: −pairing(even part) + pairing(odd part) as a fold."""
    even, odd = F.parity_parts()
    out = F.algebra.zero()
    if not even.is_zero():
        out = out - _fold_pair_contract(even, kernel, G, max_grade)
    if not odd.is_zero():
        out = out + _fold_pair_contract(odd, kernel, G, max_grade)
    return out


def _bits(e):
    return [(w, repr(c)) for w, c in e.items()]


@pytest.mark.parametrize("max_grade", [None, 3], ids=["uncut", "grade3"])
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_pairing_and_bracket_match_the_fold(mode, max_grade):
    """pair_contract and peierls_bracket give the words, word order and
    coefficient reprs of the running-sum fold, for a scalar matrix, a
    Kernel, an ElementKernel and lists of parts, F of mixed parity."""
    m = Fraction(3, 4) if mode == "rational" else 0.75
    fl = FieldLattice(Lattice(4, 2, 1, 1), 1, mode)
    S = build_gn_action(fl, GrossNeveuParams(lam=1, m=m))
    _, KH = S.second_kernel()
    dR = dirac_green(fl, m, "retarded")
    kernels = [dR.mat, dR, KH, bracket_kernel_derivative(dR, KH), [dR, KH]]
    rng = random.Random(7)
    alg = fl.algebra
    grades = set()
    for _ in range(4):
        F = alg.sum(random_element(alg, rng, p, 3) for p in (1, 2, 3))
        G = alg.sum(random_element(alg, rng, q, 3) for q in (1, 2))
        for kernel in kernels:
            got = pair_contract(F, kernel, G, max_grade)
            assert _bits(got) == _bits(_fold_pair_contract(F, kernel, G, max_grade))
            got = peierls_bracket(S, kernel, F, G, max_grade)
            want = _fold_peierls_bracket(kernel, F, G, max_grade)
            assert _bits(got) == _bits(want)
            grades |= _fold_pair_contract(F, kernel, G).grades()
    # the pairings are nonzero, and a grade-3 cut drops terms
    assert max(grades) > 3
    # no derivative on one side: the zero element
    assert pair_contract(alg.one(), KH, F).is_zero()
    assert peierls_bracket(S, KH, F, alg.one()).is_zero()


# -- intertwining maps ----------------------------------------------------------

def moller_setup(nt=5, nx=2, dt=1, m=Fraction(1)):
    """Rational GN interaction on an nt x nx lattice; nx >= 3 turns the
    spatial Dirac term on."""
    lat = Lattice(nt, nx, dt, 1)
    fl = FieldLattice(lat, 1, "rational")
    S = build_free_action(fl, m)
    params = GrossNeveuParams(lam=Fraction(1, 4), m=m)
    F = gn_interaction_term(fl, params)
    dR = dirac_green(fl, m, "retarded")
    return fl, S, F, dR


def _word_by_word(sub, elem, order):
    """Reference substitution: each word's product of images
    ((1 ∧ img(g1)) ∧ img(g2)) ∧ …, every step cut at ``max_grade``, times
    the word's coefficient, summed word by word as a series fold; flagged
    truncated when an image used was, or a cut dropped a term."""
    alg = sub.algebra
    out = TruncatedSeries(alg, {}, order)
    one = TruncatedSeries(alg, {0: alg.one()}, order)
    cut = False
    for w, c in elem.items():
        prod = one
        for g in w:
            img = sub.image(g)
            prod = prod.wedge(img)
            clipped = {k: sub._clip(e) for k, e in prod.coeffs.items()}
            cut = cut or img.truncated or any(d for _, d in clipped.values())
            prod = TruncatedSeries(alg, {k: e for k, (e, _) in clipped.items()},
                                   order)
        out = out + prod.scale(c)
    return TruncatedSeries(alg, out.coeffs, order, cut)


def _terms(series):
    return {k: e.terms() for k, e in series.coeffs.items()}


@pytest.mark.parametrize("nx,max_grade", [(2, 4), (2, 10), (3, 10)],
                         ids=["5x2-grade4", "5x2-grade10", "5x3-grade10"])
def test_horner_substitution_matches_the_word_by_word_product(monkeypatch, nx,
                                                              max_grade):
    """Horner's rule gives the word-by-word product's coefficients exactly,
    with its truncated flag: for every generator image, for
    each ∂_jF at every order at 5x2, and for random mixed-grade elements;
    the map built through the reference has the same images."""
    fl, S, F, dR = moller_setup(nx=nx)
    alg = fl.algebra
    sub = moller_substitution(S, F, dR, 3, max_grade)
    with monkeypatch.context() as mp:
        mp.setattr(SubstitutionMap, "_substitute", _word_by_word)
        ref = moller_substitution(S, F, dR, 3, max_grade)
    for i in range(fl.n_slots):
        got, want = sub.image(i), ref.image(i)
        assert (_terms(got), got.truncated) == (_terms(want), want.truncated)
    rng = random.Random(11)
    # grades 0-3 at 5x2; 0-2 at 5x3, where a grade-3 word costs a second
    top, count = (4, 3) if nx == 2 else (3, 2)
    elems = [alg.sum(random_element(alg, rng, p, 3) for p in range(top))
             for _ in range(count)]
    if nx == 2:
        elems += list(F.derivatives().values())
    flags = set()
    for e in elems:
        for order in range(4):
            got, want = sub._substitute(e, order), _word_by_word(sub, e, order)
            assert (_terms(got), got.truncated) == (_terms(want), want.truncated)
            flags.add(got.truncated)
    # the flag was exercised: at grade 4 a cut drops terms, and at grade 10,
    # where only orders above the cap are dropped, nothing is flagged
    assert (True in flags) == (max_grade == 4)


def test_moller_requires_even_interaction(fl_rat, mass):
    S, dR, _, _ = free_setup(fl_rat, mass)
    with pytest.raises(ParityError):
        moller_substitution(S, fl_rat.algebra.generator(0), dR, 2)


def test_moller_intertwining_per_order(rng):
    fl, S, F, dR = moller_setup()
    sub = moller_substitution(S, F, dR, 3)
    ring = fl.ring
    interior = fl.interior_slots()
    for _ in range(5):
        h = {i: ring.number(rng.randint(-2, 2))
             for i in rng.sample(interior, 4)}
        eom0 = S.eom_element(h)
        eomF = left_derivative(h, F)
        pert = TruncatedSeries(fl.algebra, {0: eom0, 1: eomF}, 3)
        img = sub.apply_series(pert)
        assert (img.coefficient(0) - eom0).is_zero()
        for k in (1, 2, 3):
            assert img.coefficient(k).is_zero()


def test_moller_homomorphism_orders_0_to_3(rng):
    fl, S, F, dR = moller_setup()
    sub = moller_substitution(S, F, dR, 3)
    for _ in range(5):
        slots = rng.sample(range(fl.n_slots), 6)
        G = random_element(fl.algebra, rng, rng.randint(1, 2), 2, slots)
        H = random_element(fl.algebra, rng, rng.randint(1, 2), 2, slots)
        diff = sub.apply(G.wedge(H)) - sub.apply(G).wedge(sub.apply(H))
        for k in range(4):
            assert diff.coefficient(k).is_zero()


def test_moller_finite_evaluation_against_fixed_configuration(rng):
    """Against a fixed finite-grade configuration only finitely many
    orders contribute: |R_n| = |G| + 2n outgrows any fixed grade."""
    fl, S, F, dR = moller_setup()
    sub = moller_substitution(S, F, dR, 3)
    G = fl.algebra.generator(fl.interior_slots()[0])
    img = sub.apply(G)
    u = random_element(fl.algebra, rng, 3, 5)
    bound = (3 - 1) // 2  # orders with 1 + 2n <= grade(u)
    for k in range(bound + 1, 4):
        assert evaluate(img.coefficient(k), u) == fl.ring.zero


def test_higher_retarded_base_and_recursion(rng):
    fl, S, F, dR = moller_setup()
    ring = fl.ring
    interior = fl.interior_slots()
    slots = rng.sample(range(fl.n_slots), 6)
    G = random_element(fl.algebra, rng, 1, 2, slots)
    sub = moller_substitution(S, F, dR, 3)
    # base case n = 0
    assert (higher_retarded(sub, G, 0) - G).is_zero()
    # n = 1 equals the first-order response of the substitution flavor
    r1 = higher_retarded(sub, G, 1)
    first = moller_substitution(S, F, dR, 1)
    assert (r1 - first.apply(G).coefficient(1)).is_zero()
    # recursion against the perturbed generators, k = 1..3
    h = {i: ring.number(rng.randint(-2, 2)) for i in rng.sample(interior, 4)}
    eom0 = S.eom_element(h)
    eomF = left_derivative(h, F)
    for k in (1, 2, 3):
        lhs = higher_retarded(sub, eom0, k)
        rhs = higher_retarded(sub, eomF, k - 1).scale(-k)
        assert (lhs - rhs).is_zero()
    assert not higher_retarded(sub, eomF, 2).is_zero()


def test_higher_retarded_grade_bookkeeping():
    fl, S, F, dR = moller_setup()
    uncut = moller_substitution(S, F, dR, 2, max_grade=None)
    seen = {1: 0, 2: 0}
    for i in range(fl.n_slots):
        G = fl.algebra.generator(i)
        for n in (1, 2):
            rn = higher_retarded(uncut, G, n)
            if not rn.is_zero():
                seen[n] += 1
                assert rn.grades() == {1 + n * (4 - 2)}
    # the law is not vacuous: corrections exist at both orders
    assert seen[1] > 0 and seen[2] > 0


@pytest.mark.parametrize("max_grade", [None, 4], ids=["uncut", "grade4"])
def test_higher_retarded_reads_the_map_it_is_given(rng, max_grade):
    """R_{S,n} read from one order-3 map equals n!·[λⁿ] of a fresh order-n
    map, term for term, at 3×3, where the spatial Dirac term enters."""
    fl, S, F, dR = moller_setup(nt=3, nx=3)
    m = moller_substitution(S, F, dR, 3, max_grade)
    interior = fl.interior_slots()
    for G in (fl.algebra.generator(interior[0]),
              random_element(fl.algebra, rng, 2, 2, rng.sample(interior, 5))):
        for n in range(4):
            fresh = moller_substitution(S, F, dR, n, max_grade)
            want = fresh.apply(G).coefficient(n).scale(math.factorial(n))
            got = higher_retarded(m, G, n)
            assert list(got.items()) == list(want.items())
        assert not higher_retarded(m, G, 1).is_zero()
    with pytest.raises(ValueError):
        higher_retarded(m, G, 4)
    with pytest.raises(ValueError):
        higher_retarded(m, G, -1)


def test_suite_moller_builds_three_maps(monkeypatch):
    """One pass builds the substitution map, one uncut map for the grade
    law and the quadratic interaction's map, and every check passes."""
    grade_caps = []
    init = MollerMap.__init__

    def counted(self, S, F, dR, order, max_grade):
        grade_caps.append(max_grade)
        init(self, S, F, dR, order, max_grade)

    monkeypatch.setattr(MollerMap, "__init__", counted)
    cfg = RunConfig()
    records = verify.suite_moller(cfg)
    assert grade_caps == [cfg.max_grade, None, cfg.max_grade]
    assert all(r["passed"] for r in records)


def test_eom_element_is_the_derivative_along_h(rng):
    """⟨S(1)^(1), h⟩ is Σ_i h_i ∂_i S(1), words in the same order, for the
    Gross–Neveu action at rational 3×3."""
    fl = FieldLattice(Lattice(3, 3, 1, 1), 1, "rational")
    S = build_gn_action(fl, GrossNeveuParams(lam=Fraction(1, 3),
                                             m=Fraction(3, 4)))
    derivs = S.functional().derivatives()
    for _ in range(5):
        h = {i: fl.ring.number(rng.randint(1, 3))
             for i in rng.sample(fl.interior_slots(), 4)}
        want = fl.algebra.zero()
        for i, c in h.items():
            want = want + derivs[i].scale(c)
        got = S.eom_element(h)
        assert list(got.items()) == list(want.items())
        assert 3 in got.grades()  # the quartic term enters


def test_moller_inverse(rng):
    fl, S, F, dR = moller_setup()
    sub = moller_substitution(S, F, dR, 3)
    inv = sub.inverse()
    # order 0 of the inverse is the identity map
    for i in range(0, fl.n_slots, 7):
        assert (inv.image(i).coefficient(0) - fl.algebra.generator(i)).is_zero()
    for _ in range(4):
        G = random_element(fl.algebra, rng, rng.randint(1, 2), 2,
                           rng.sample(range(fl.n_slots), 6))
        rt = inv.apply_series(sub.apply(G))
        assert (rt.coefficient(0) - G).is_zero()
        for k in (1, 2, 3):
            assert rt.coefficient(k).is_zero()


def test_moller_inverse_geometric_series(alg6):
    """Images e_i + λ e_{i+1} (nilpotent shift) invert to the alternating
    geometric series."""
    order = 4
    sub = SubstitutionMap(alg6, order, max_grade=None)
    n = alg6.n
    for i in range(n):
        coeffs = {0: alg6.generator(i)}
        if i + 1 < n:
            coeffs[1] = alg6.generator(i + 1)
        sub.set_image(i, TruncatedSeries(alg6, coeffs, order))
    inv = sub.inverse()
    for i in range(n):
        series = inv.image(i)
        for k in range(order + 1):
            want = alg6.zero()
            if i + k < n:
                want = alg6.generator(i + k).scale((-1) ** k)
            assert (series.coefficient(k) - want).is_zero()
    # non-unit leading order is rejected
    bad = SubstitutionMap(alg6, 1, max_grade=None)
    bad.set_image(0, TruncatedSeries(alg6, {0: alg6.generator(1)}, 1))
    with pytest.raises(ValueError):
        bad.inverse()


MOLLER_LATTICES = {
    "5x2-order3": (dict(), 3),
    "4x3-order2": (dict(nt=4, nx=3, dt=Fraction(1, 2), m=Fraction(3, 4)), 2),
}


@pytest.mark.parametrize("case", sorted(MOLLER_LATTICES))
def test_moller_inverse_closed_form_matches_oracle(case):
    """e_i - λ Σ_j Δᴿ[i, j] ∂_jF equals the order-by-order inverse."""
    kwargs, order = MOLLER_LATTICES[case]
    fl, S, F, dR = moller_setup(**kwargs)
    sub = moller_substitution(S, F, dR, order)
    closed = sub.inverse()
    oracle = SubstitutionMap.inverse(sub)
    corrected = 0
    for i in range(fl.n_slots):
        got, want = closed.image(i), oracle.image(i)
        assert max(got.orders()) <= 1
        for k in range(order + 1):
            assert got.coefficient(k) == want.coefficient(k)
        corrected += 1 in got.orders()
    assert corrected > 0


def test_moller_inverse_negative_control(rng):
    """Doubling one slot's first-order inverse image breaks the round trip."""
    fl, S, F, dR = moller_setup()
    sub = moller_substitution(S, F, dR, 3)
    inv = sub.inverse()
    i = next(i for i in fl.interior_slots() if 1 in inv.image(i).orders())
    others = [j for j in range(fl.n_slots) if j != i]
    G = fl.algebra.generator(i) + random_element(
        fl.algebra, rng, 2, 2, rng.sample(others, 4))
    assert (inv.apply_series(sub.apply(G)) - TruncatedSeries(
        fl.algebra, {0: G}, 3)).is_zero()
    img = inv.image(i)
    inv.set_image(i, TruncatedSeries(
        fl.algebra, {0: img.coefficient(0), 1: img.coefficient(1).scale(2)}, 3))
    diff = inv.apply_series(sub.apply(G)) - TruncatedSeries(fl.algebra, {0: G}, 3)
    assert diff.max_abs() > 0


def test_moller_apply_order_cap(rng):
    """apply(e, order=j) is apply(e) truncated at j; apply_series matches
    Σ_k λ^k apply(e_k) formed at full order and shifted."""
    fl, S, F, dR = moller_setup()
    order = 3
    sub = moller_substitution(S, F, dR, order)
    elems = [random_element(fl.algebra, rng, rng.randint(1, 3), 3,
                            rng.sample(range(fl.n_slots), 6)) for _ in range(5)]
    for e in elems:
        full = sub.apply(e)
        for j in range(order + 1):
            capped = sub.apply(e, order=j)
            want = full.truncate_order(j)
            assert capped.max_order == j
            assert capped.orders() == want.orders()
            for k in want.orders():
                assert capped.coefficient(k) == want.coefficient(k)
    # order 4 lies above the map's order and must be dropped
    series = TruncatedSeries(fl.algebra, dict(zip((0, 1, 2, 4), elems)))
    reference = TruncatedSeries(fl.algebra, {}, order)
    for k, e in series.coeffs.items():
        reference = reference + TruncatedSeries(
            fl.algebra, {j + k: c for j, c in sub.apply(e).coeffs.items()}, order)
    caps = []
    apply = sub.apply

    def spy(e, order=None):
        caps.append(order)
        return apply(e, order)

    sub.apply = spy
    got = sub.apply_series(series)
    assert caps == [3, 2, 1]  # coefficient k is formed through order 3 - k only
    # the dropped order 4 is no grade cut
    assert got.max_order == order and not got.truncated
    assert got.orders() == reference.orders() == [0, 1, 2, 3]
    for k in range(order + 1):
        assert got.coefficient(k) == reference.coefficient(k)


def test_apply_flags_a_grade_cut_only(alg6):
    """``apply`` flags its series truncated when the grade cap dropped a
    term, and not when only an order above the map's order was dropped."""
    sub = SubstitutionMap(alg6, 1, max_grade=2)
    for i, tail in ((0, alg6.monomial((1, 2))), (3, alg6.generator(4)),
                    (5, alg6.generator(1))):
        sub.set_image(i, TruncatedSeries(alg6, {0: alg6.generator(i), 1: tail}, 1))
    e03 = alg6.monomial((0, 3))
    # e0 e3 ↦ e0 e3 + λ (e0 e4 + e1 e2 e3) + λ² e1 e2 e4: grade 3 is cut
    img = sub.apply(e03)
    assert img.truncated and img.orders() == [0, 1]
    assert img.coefficient(1) == alg6.monomial((0, 4))
    assert not sub.apply(e03, 0).truncated
    assert sub.apply_series(TruncatedSeries(alg6, {0: e03})).truncated
    # e3 e5 ↦ e3 e5 + λ (e3 e1 + e4 e5) + λ² e4 e1: only λ² is dropped
    img = sub.apply(alg6.monomial((3, 5)))
    assert not img.truncated and img.orders() == [0, 1]


def test_truncated_flag_is_carried_per_result():
    """At max_grade 4 an image is flagged truncated exactly when the uncut
    map's image has a grade above 4, also where the cut grades were lost
    in the constructor's sources; e_0, before the interaction, maps to
    itself unflagged although the constructor cut grades."""
    fl, S, F, dR = moller_setup()
    cut = moller_substitution(S, F, dR, 3, max_grade=4)
    full = moller_substitution(S, F, dR, 3, max_grade=None)
    e0 = fl.algebra.generator(0)
    img = cut.apply(e0)
    assert img.orders() == [0] and img.coefficient(0) == e0
    assert not img.truncated
    flagged = []
    for i in range(fl.n_slots):
        lost = any(e.max_grade() > 4 for e in full.image(i).coeffs.values())
        assert cut.image(i).truncated == lost
        if lost:
            flagged.append(i)
    assert flagged
    for i in flagged:
        gen = fl.algebra.generator(i)
        assert cut.apply(gen).truncated and not full.apply(gen).truncated


@pytest.mark.parametrize("max_grade", [None, 4], ids=["uncut", "grade4"])
def test_every_image_solves_the_image_equation(max_grade):
    """For every slot i and order k ≥ 1, [λᵏ] W_i = Σ_j Δᴿ[i, j]·[λᵏ⁻¹]
    m(∂_jF) cut at ``max_grade``, on the interaction's slots and off them.
    W_i is flagged truncated exactly when that sum, or a source [λᵏ⁻¹]
    m(∂_jF) with Δᴿ[i, j] ≠ 0, reaches above ``max_grade`` in the uncut
    map."""
    fl, S, F, dR = moller_setup()
    m = moller_substitution(S, F, dR, 3, max_grade)
    full = moller_substitution(S, F, dR, 3, max_grade=None)
    alg = fl.algebra
    dF = F.derivatives()

    def over(e):
        return max_grade is not None and e.max_grade() > max_grade

    def response(i, src):
        return sum((src[j].scale(dR.mat[i, j]) for j in src if dR.mat[i, j]),
                   alg.zero())

    src = {k: {j: m.apply(d, k - 1).coefficient(k - 1) for j, d in dF.items()}
           for k in range(1, 4)}
    src_full = {k: {j: full.apply(d, k - 1).coefficient(k - 1)
                    for j, d in dF.items()} for k in range(1, 4)}
    inside = {g for w, _ in F.items() for g in w}
    assert inside and len(inside) < fl.n_slots
    flagged = set()
    for i in range(fl.n_slots):
        img = m.image(i)
        lost = False
        for k in range(1, 4):
            want = response(i, src[k])
            if max_grade is not None:
                want = want.truncate(max_grade)
            assert list(img.coefficient(k).items()) == list(want.items())
            lost = lost or over(response(i, src_full[k])) or any(
                over(e) for j, e in src_full[k].items() if dR.mat[i, j])
        assert img.truncated == lost
        if lost:
            flagged.add(i)
    if max_grade is None:
        assert not flagged
    else:   # flags both on the interaction's slots and off them
        assert flagged & inside and flagged - inside


def test_moller_inverse_round_trip_exact_at_nx3(rng):
    """At nx = 3 the spatial Dirac term enters Δᴿ; the closed-form inverse
    still undoes the map exactly through order 3."""
    fl, S, F, dR = moller_setup(nt=4, nx=3, dt=Fraction(1, 2), m=Fraction(3, 4))
    sub = moller_substitution(S, F, dR, 3)
    inv = sub.inverse()
    slots = fl.interior_slots()
    G = random_element(fl.algebra, rng, 2, 2, rng.sample(slots, 5))
    image = sub.apply(G)
    assert any(not image.coefficient(k).is_zero() for k in (1, 2, 3))
    round_trip = inv.apply_series(image)
    assert round_trip.orders() == [0]
    assert round_trip.coefficient(0) == G


def test_quadratic_moller_defect_negative_control(monkeypatch):
    """The sparse matrix reference is identically 0 against the map and
    sees one perturbed entry of Δᴿ when only the reference gets it."""
    fl, S, _, dR = moller_setup()
    cfg = RunConfig()
    assert all(r.is_zero()
               for r in verify._quadratic_moller_residuals(cfg, fl, S, dR, 3))
    bad = dR.mat.copy()
    # the last of the rows the check samples, at the last time slice
    row = range(0, fl.n_slots, max(1, fl.n_slots // 6))[-1]
    col = fl.interior_slots()[0]
    bad[row, col] = bad[row, col] + fl.ring.one
    substitution = verify.moller_substitution
    monkeypatch.setattr(verify, "moller_substitution",
                        lambda S_, H, _dR, order, mg: substitution(S_, H, dR, order, mg))
    assert not all(r.is_zero() for r in verify._quadratic_moller_residuals(
        cfg, fl, S, Kernel(bad, "retarded"), 3))


def test_moller_map_series_api(rng):
    """The map sends an element, and a λ-series, to a λ-series through its
    order; a constant series goes where the element goes."""
    fl, S, F, dR = moller_setup()
    G = random_element(fl.algebra, rng, 2, 2, rng.sample(range(fl.n_slots), 6))
    sub = moller_substitution(S, F, dR, 2)
    series = sub.apply(G)
    assert series.symbol == "lambda" and series.max_order == 2
    assert (series.coefficient(0) - G).is_zero()
    const = sub.apply_series(TruncatedSeries(fl.algebra, {0: G}, 2))
    assert all(const.coefficient(k) == series.coefficient(k) for k in range(3))


# -- canonical transformation check ---------------------------------------------

def test_canonical_identity_quadratic_exact(fl_rat, mass, rng):
    _, dR, _, _ = free_setup(fl_rat, mass)
    Hm = _local_mass_bilinear(fl_rat)
    H = bilinear_element(fl_rat, Hm)
    KH = _second_matrix(fl_rat, H)
    dDelta = bracket_kernel_derivative(dR, KH)
    for _ in range(10):
        slots = rng.sample(range(fl_rat.n_slots), 6)
        F = random_element(fl_rat.algebra, rng, rng.randint(1, 2), 2, slots)
        G = random_element(fl_rat.algebra, rng, rng.randint(1, 2), 2, slots)
        res = canonical_residual(dR, H, F, G, dDelta)
        assert res.is_zero()
    # constant arguments trivialize the identity
    res = canonical_residual(dR, H, fl_rat.algebra.scalar(2),
                             fl_rat.algebra.generator(0), dDelta)
    assert res.is_zero()


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_bracket_kernel_derivative_element_parts(mode):
    """At 3×3, where the spatial Dirac term enters: the retarded part
    −Δ^R K_H Δ^R, formed with −Δ^R on the left, equals the negated product
    term for term, words in the same order (negation is exact, so only the
    sign of a zero float part may differ); its transpose, the advanced
    part, equals Δ^A K_H Δ^A built from the advanced kernel, by value."""
    m = Fraction(3, 4) if mode == "rational" else 0.75
    fl = FieldLattice(Lattice(3, 3, 1, 1), 1, mode)
    _, KH = build_gn_action(fl, GrossNeveuParams(lam=1, m=m)).second_kernel()
    dR, dA = dirac_green(fl, m, "retarded"), dirac_green(fl, m, "advanced")
    ret, adv = bracket_kernel_derivative(dR, KH)
    want = KH.compose_scalar_left(dR.mat).compose_scalar_right(dR.mat).scale(-1)
    assert not want.is_zero()
    assert list(ret.entries) == list(want.entries)
    for key, e in want.entries.items():
        assert list(ret.entries[key].items()) == list(e.items())
    want = KH.compose_scalar_left(dA.mat).compose_scalar_right(dA.mat)
    assert set(adv.entries) == set(want.entries)
    for key, e in want.entries.items():
        assert dict(adv.entries[key].items()) == dict(e.items())


def test_bracket_kernel_derivative_scalar_part_is_exact():
    """For a scalar K_H the one part is −Δ^R K_H Δ^R + Δ^A K_H Δ^A, entry
    for entry in rational arithmetic, at 3×3."""
    m = Fraction(3, 4)
    fl = FieldLattice(Lattice(3, 3, 1, 1), 1, "rational")
    KH = _second_matrix(fl, bilinear_element(fl, _local_mass_bilinear(fl)))
    dR = dirac_green(fl, m, "retarded")
    mR, mA = dR.mat, dirac_green(fl, m, "advanced").mat
    (got,) = bracket_kernel_derivative(dR, KH)
    want = (-matmul(matmul(mR, KH), mR)
            + matmul(matmul(mA, KH), mA))
    assert any(want.ravel())
    assert all(g == w for g, w in zip(got.ravel(), want.ravel()))


def test_fd_oracle_solves_twice(monkeypatch):
    """The finite-difference causal kernel of each step is R + Rᵀ from one
    retarded solve: two solves per canonical check, not four."""
    import fermifields.lattice as lattice_mod
    cfg = RunConfig()
    fl = FieldLattice(Lattice(cfg.nt, cfg.nx, 1.0, 1.0), 1, "float")
    _, dR, _, _ = free_setup(fl, 1.0)
    solve = lattice_mod._retarded_inverse_blocks
    calls = []

    def counted(fl_, M):
        calls.append(fl_)
        return solve(fl_, M)

    monkeypatch.setattr(lattice_mod, "_retarded_inverse_blocks", counted)
    rec_sym, rec_fd = verify._canonical_quadratic_checks(cfg, fl, dR)
    assert len(calls) == 2
    assert rec_sym["passed"] and rec_fd["passed"]


def test_check_reports(fl_rat, mass, rng):
    """The residuals behind the canonical and Poisson-ideal records are
    exactly 0 in rational mode."""
    S, dR, _, delta = free_setup(fl_rat, mass)
    Hm = _local_mass_bilinear(fl_rat)
    H = bilinear_element(fl_rat, Hm)
    KH = _second_matrix(fl_rat, H)
    dDelta = bracket_kernel_derivative(dR, KH)
    F = random_element(fl_rat.algebra, rng, 2, 2)
    G = random_element(fl_rat.algebra, rng, 1, 2)
    assert canonical_residual(dR, H, F, G, dDelta).max_abs() == 0.0
    h = {i: fl_rat.ring.number(1) for i in fl_rat.interior_slots()[:3]}
    assert poisson_ideal_residual(S, F, h, G, delta.mat).max_abs() == 0.0
