"""Gross-Neveu actions, interacting kernels and brackets."""

import csv
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fermifields import gross_neveu, verify
from fermifields._core import merge_words
from fermifields.algebra import CONJUGATE, FIELD, evaluate, random_element
from fermifields.config import RunConfig
from fermifields.dynamics import SubstitutionMap, peierls_bracket
from fermifields.gross_neveu import (GrossNeveuParams, build_free_action,
                                     build_gn_action, gn_interaction_term,
                                     interacting_bracket, interacting_causal,
                                     interacting_propagator, permute_colors,
                                     propagator_defect)
from fermifields.kernels import ElementKernel, Kernel
from fermifields.lattice import (FieldLattice, Lattice, causal_propagator,
                                 dirac_green)
from fermifields.reports import TOL_NUM
from fermifields.series import TruncatedSeries


@pytest.fixture
def gn32():
    """3x2 rational lattice with an interior-supported quartic coupling."""
    lat = Lattice(3, 2, 1, 1)
    fl = FieldLattice(lat, 1, "rational")
    params = GrossNeveuParams(lam=Fraction(1, 4), m=Fraction(1))
    return fl, params, build_gn_action(fl, params)


def site_density(fl, site, color=None):
    ring = fl.ring
    out = fl.algebra.zero()
    colors = [color] if color else range(1, fl.ncolors + 1)
    for c in colors:
        for comp in range(2):
            w = (fl.slot(FIELD, c, site, comp), fl.slot(CONJUGATE, c, site, comp))
            out = out + fl.algebra.element({w: -ring.one})
    return out


def test_free_action_grade_two_even(fl_rat, mass):
    S = build_free_action(fl_rat, mass)
    e = S.functional()
    assert e.grades() == {2}
    assert e.is_even()


def test_free_second_derivative_antisymmetric_in_test_vectors(fl_rat, mass, rng):
    S = build_free_action(fl_rat, mass)
    K0, _ = S.second_kernel()
    ring = fl_rat.ring
    for _ in range(10):
        h1 = {i: ring.number(rng.randint(-2, 2))
              for i in rng.sample(range(fl_rat.n_slots), 4)}
        h2 = {i: ring.number(rng.randint(-2, 2))
              for i in rng.sample(range(fl_rat.n_slots), 4)}
        pair = lambda a, b: sum((ca * cb * K0.mat[i, j]
                                 for i, ca in a.items() for j, cb in b.items()),
                                ring.zero)
        assert pair(h1, h2) == -pair(h2, h1)


def test_gn_action_reduces_to_free_at_zero_coupling(fl_rat, mass):
    params = GrossNeveuParams(lam=0, m=mass)
    S = build_gn_action(fl_rat, params)
    S0 = build_free_action(fl_rat, mass)
    assert (S.functional() - S0.functional()).is_zero()


def test_gn_quartic_respects_cutoff_support(fl_rat, mass):
    lat = fl_rat.lattice
    g = [Fraction(1) if lat.site_time(s) == 1 else Fraction(0)
         for s in range(lat.n_sites)]
    params = GrossNeveuParams(lam=Fraction(1, 2), m=mass, g=g)
    S = build_gn_action(fl_rat, params)
    S0 = build_free_action(fl_rat, mass)
    quartic = S.functional() - S0.functional()
    assert quartic.grades() <= {4}
    times = {lat.site_time(fl_rat.algebra.generators[i].site)
             for w, _ in quartic.items() for i in w}
    assert times == {1}


def test_gn_second_derivative_closed_form(gn32):
    """d_{conj k} d_{field l} of the quartic is
    vol*(lam g/2N) * (-2 delta_{kl} rho + 2 conj_l ∧ field_k): the
    color-trace part carries weight lam*g/N (the gn2 insertion) and the
    exchange part couples component pairs."""
    fl, params, S = gn32
    ring = fl.ring
    lat = fl.lattice
    _, W = S.second_kernel()
    vol = ring.coerce(Fraction(lat.dt) * Fraction(lat.dx))
    lam = ring.coerce(params.lam)
    g = params.cutoff(fl)
    for site in range(lat.n_sites):
        c = vol * lam * ring.coerce(g[site]) * ring.number(Fraction(1, 2))
        rho = site_density(fl, site)
        for a in range(2):
            for b in range(2):
                j = fl.slot(CONJUGATE, 1, site, a)
                i = fl.slot(FIELD, 1, site, b)
                got = W.entries.get((j, i), fl.algebra.zero())
                want = fl.algebra.zero()
                if a == b:
                    want = want + rho.scale(-2)
                exch = fl.algebra.element(
                    {(fl.slot(FIELD, 1, site, a),
                      fl.slot(CONJUGATE, 1, site, b)): -ring.one})
                want = (want + exch.scale(2)).scale(c)
                assert (got - want).is_zero()
                # antisymmetry of the kernel
                rev = W.entries.get((i, j), fl.algebra.zero())
                assert (got + rev).is_zero()
        # same-species exchange blocks exist for multi-component spinors
        jj = fl.slot(FIELD, 1, site, 0)
        ii = fl.slot(FIELD, 1, site, 1)
        same = W.entries.get((jj, ii), fl.algebra.zero())
        if not c:
            assert same.is_zero()
        else:
            assert not same.is_zero()
            assert same.grades() == {2}


def test_gn_second_derivative_against_configuration_insertion(gn32, rng):
    """Evaluating the kernel at 1 ⊕ u1∧u2 reproduces the free bilinear
    plus the (ubar1 u2 − ubar2 u1) color-trace insertion at weight
    lam g/N, plus the derived exchange terms."""
    fl, params, S = gn32
    ring = fl.ring
    lat = fl.lattice
    K0, W = S.second_kernel()
    g = params.cutoff(fl)
    lam = ring.coerce(params.lam)

    u1 = {i: ring.number(rng.randint(-2, 2)) for i in range(fl.n_slots)}
    u2 = {i: ring.number(rng.randint(-2, 2)) for i in range(fl.n_slots)}
    UU = fl.algebra.linear(u1).wedge(fl.algebra.linear(u2))

    def sp(ubar, u, s):
        return sum((ubar[fl.slot(CONJUGATE, 1, s, c)] * u[fl.slot(FIELD, 1, s, c)]
                    for c in range(2)), ring.zero)

    for site in range(lat.n_sites):
        w = lam * ring.coerce(g[site])  # vol = 1 here
        cross = sp(u1, u2, site) - sp(u2, u1, site)
        for a in range(2):
            j = fl.slot(CONJUGATE, 1, site, a)
            i = fl.slot(FIELD, 1, site, a)
            e = W.entries.get((j, i), fl.algebra.zero())
            got = evaluate(e, UU)
            # exchange part evaluated directly
            exch = fl.algebra.element(
                {(fl.slot(FIELD, 1, site, a),
                  fl.slot(CONJUGATE, 1, site, a)): -ring.one})
            got_direct = got - w * evaluate(exch, UU)
            # the conjugate-row entry carries the "- c.c." side of the
            # insertion; its transpose carries the + side, so the
            # h-contracted sum reproduces  w * cross * (h1bar h2 - h2bar h1)
            assert got_direct == -(w * cross)
            e_t = W.entries.get((i, j), fl.algebra.zero())
            got_t = evaluate(e_t, UU) + w * evaluate(exch, UU)
            assert got_t == w * cross


def test_interacting_propagator_structure(gn32):
    fl, params, S = gn32
    ik = interacting_propagator(S, max_grade=4)
    free = dirac_green(fl, params.m, "retarded")
    assert np.all(np.array([[ik.free.mat[i, j] == free.mat[i, j]
                             for j in range(fl.n_slots)]
                            for i in range(fl.n_slots)]))
    # entry grades are exactly 2k
    for k, corr in enumerate(ik.corrections, start=1):
        assert corr.grades() == {2 * k}
    with pytest.raises(ValueError):
        interacting_propagator(S, max_grade=3)


def test_interacting_propagator_inverse_identity(gn32):
    """S^(2)·Δ_I = Id on exact rows for the retarded series, and for the
    advanced series Δᴬ_k = −(Δ_k)ᵀ over the advanced free kernel, whose
    grade-2k residuals the sparse oracle forms from its orders."""
    fl, params, S = gn32
    ik = interacting_propagator(S, max_grade=4)
    assert propagator_defect(S, ik) == 0.0
    assert _sparse_defect(S, ik) == 0.0
    ika = SimpleNamespace(free=dirac_green(fl, params.m, "advanced"),
                          corrections=[c.transpose().scale(-1)
                                       for c in ik.corrections])
    assert ika.free.identity_defect(S.second_kernel()[0].mat) == 0.0
    assert _sparse_defect(S, ika, full=True) == 0.0


def test_interacting_first_order_dense_oracle(gn32):
    """k = 1 term equals -Δ0 W Δ0 composed densely and independently."""
    fl, params, S = gn32
    ring = fl.ring
    ik = interacting_propagator(S, max_grade=2)
    _, W = S.second_kernel()
    n = fl.n_slots
    free = ik.free.mat
    k1 = ik.corrections[0]
    for i in range(n):
        for j in range(n):
            acc = fl.algebra.zero()
            for (a, b), e in W.entries.items():
                c = free[i, a] * free[b, j]
                if c:
                    acc = acc + e.scale(c)
            assert (k1.get(i, j) + acc).is_zero()


def test_series_termination_and_evaluation_count(gn32, rng):
    """Against a grade-n configuration only k <= n//2 terms contribute,
    and adding a further order changes nothing."""
    fl, params, S = gn32
    ik4 = interacting_propagator(S, max_grade=4)
    ik6 = interacting_propagator(S, max_grade=6)
    u = random_element(fl.algebra, rng, 2, 4)  # grade-2 configuration
    for (i, j) in list(ik4.corrections[0].entries)[:10]:
        # k = 1 entries (grade 2) see a grade-2 configuration
        assert evaluate(ik4.corrections[0].get(i, j), u) is not None
    if len(ik4.corrections) > 1:
        for (i, j), e in ik4.corrections[1].entries.items():
            assert evaluate(e, u) == fl.ring.zero  # grade-4 entry annihilates
    # shared orders agree exactly; the extra order has strictly higher grade
    for k, corr in enumerate(ik4.corrections, start=1):
        other = ik6.corrections[k - 1]
        for key in set(corr.entries) | set(other.entries):
            assert (corr.get(*key) - other.get(*key)).is_zero()
    for corr in ik6.corrections[len(ik4.corrections):]:
        assert corr.grades() <= {6}
        assert all(g > 4 for g in corr.grades())


def test_interacting_bracket_free_limit_and_antisymmetry(gn32, rng):
    fl, params, S = gn32
    params0 = GrossNeveuParams(lam=0, m=params.m)
    S0 = build_gn_action(fl, params0)
    dR = dirac_green(fl, params.m, "retarded")
    dA = dirac_green(fl, params.m, "advanced")
    delta = causal_propagator(dR, dA)
    slots = rng.sample(range(fl.n_slots), 6)
    F = random_element(fl.algebra, rng, 1, 2, slots)
    G = random_element(fl.algebra, rng, 2, 2, slots)
    assert (interacting_bracket(S0, F, G, 6)
            - peierls_bracket(S0, delta.mat, F, G, max_grade=6)).is_zero()
    br_fg = interacting_bracket(S, F, G, 6)
    br_gf = interacting_bracket(S, G, F, 6)
    assert (br_fg + br_gf.scale((-1) ** (1 * 2))).is_zero()
    assert not br_fg.is_zero()


def test_one_pairing_is_linear_in_the_kernel_at_nx3(rng):
    """R_S − A_S is the pairing with Δ = Δᴿ − Δᴬ, and at λ = 0 the
    interacting causal kernel is Δ alone; nx = 3 turns the spatial Dirac
    term on."""
    m = Fraction(3, 4)
    fl = FieldLattice(Lattice(3, 3, Fraction(1, 2), 1), 1, "rational")
    S0 = build_gn_action(fl, GrossNeveuParams(lam=0, m=m))
    dR, dA = dirac_green(fl, m, "retarded"), dirac_green(fl, m, "advanced")
    delta = causal_propagator(dR, dA)
    nonzero = 0
    for _ in range(20):
        slots = rng.sample(range(fl.n_slots), 8)
        # mixed parity, so the sign is taken per homogeneous part of F
        F = (random_element(fl.algebra, rng, rng.randint(1, 2), 2, slots)
             + random_element(fl.algebra, rng, 3, 2, slots))
        G = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        want = peierls_bracket(S0, delta, F, G)
        assert peierls_bracket(S0, dR, F, G) - peierls_bracket(S0, dA, F, G) == want
        nonzero += not want.is_zero()
    assert nonzero > 0
    parts = interacting_causal(interacting_propagator(S0, 6))
    assert len(parts) == 1 and (parts[0] == delta.mat).all()


def test_color_symmetry_two_colors(rng):
    lat = Lattice(3, 2, 1, 1)
    fl = FieldLattice(lat, 2, "rational")
    params = GrossNeveuParams(lam=Fraction(1, 3), m=Fraction(1))
    S = build_gn_action(fl, params)
    perm = {1: 2, 2: 1}
    # the action itself is color symmetric
    assert (permute_colors(fl, S.functional(), perm) - S.functional()).is_zero()
    slots = [fl.slot(FIELD, 1, 2, 0), fl.slot(CONJUGATE, 1, 3, 1),
             fl.slot(FIELD, 2, 2, 1), fl.slot(CONJUGATE, 2, 2, 0)]
    F = random_element(fl.algebra, rng, 2, 2, slots)
    G = random_element(fl.algebra, rng, 1, 2, slots)
    lhs = permute_colors(fl, interacting_bracket(S, F, G, 4), perm)
    rhs = interacting_bracket(S, permute_colors(fl, F, perm),
                              permute_colors(fl, G, perm), 4)
    assert (lhs - rhs).is_zero()


def test_per_order_norm_rows(gn32):
    fl, params, S = gn32
    ik = interacting_propagator(S, max_grade=4)
    rows = ik.per_order_norms()
    assert rows[0][:2] == (0, 0)
    for k, g, v in rows[1:]:
        assert g == 2 * k and v >= 0.0


def test_gn_action_is_free_plus_lambda_quartic_at_nonunit_volume():
    """At dt = 1/2 (vol = 1/2) with two colors, S_GN = S_0 + λ F exactly and
    F is the hand formula Σ_x vol g(x)/(2N) ρ_x ∧ ρ_x, so a dropped or
    doubled volume factor shows."""
    lat = Lattice(4, 2, Fraction(1, 2), 1)
    fl = FieldLattice(lat, 2, "rational")
    p = GrossNeveuParams(lam=Fraction(1, 3), m=Fraction(2, 5))
    F = gn_interaction_term(fl, p)
    assert build_gn_action(fl, p).functional() == \
        build_free_action(fl, p.m).functional() + F.scale(p.lam)
    ring = fl.ring
    vol = ring.number(Fraction(1, 2))
    g = p.cutoff(fl)
    want = fl.algebra.zero()
    for site in range(lat.n_sites):
        rho = site_density(fl, site)
        want = want + rho.wedge(rho).scale(
            vol * ring.coerce(g[site]) * ring.number(Fraction(1, 4)))
    assert not F.is_zero()
    assert F == want


# -- the series against the left-associated product chain ----------------------

def _product_chain(S, kind, max_grade):
    """Δ_k = (−1)^k (Δ0∘W)^k Δ0 as left·Δ_{k−1} with left = Δ0∘W, each
    order negated with ``scale(-1)``."""
    free = dirac_green(S.fl, S.meta["m"], kind).mat
    _, W = S.second_kernel()
    left = W.compose_scalar_left(free)
    chain = [left.compose_scalar_right(free).scale(-1)]
    while len(chain) < max_grade // 2:
        nxt = left.compose(chain[-1]).scale(-1)
        if nxt.is_zero():
            break
        chain.append(nxt)
    return chain


@pytest.mark.parametrize("ncolors, max_grade", [(1, 6), (2, 4)])
def test_interacting_propagator_equals_product_chain_exactly(ncolors, max_grade):
    """At nx = 3 the spatial Dirac term is nonzero; in rational mode the
    block series gives the entries of the left-associated chain and of the
    sparse eager chain exactly."""
    fl = FieldLattice(Lattice(3, 3, 1, 1), ncolors, "rational")
    S = build_gn_action(fl, GrossNeveuParams(lam=Fraction(1, 3),
                                             m=Fraction(3, 4)))
    ik = interacting_propagator(S, max_grade)
    chain = _product_chain(S, "retarded", max_grade)
    assert len(ik.corrections) == len(chain) == max_grade // 2
    _assert_same_entries(ik.corrections, chain)
    _assert_same_entries(ik.corrections, _eager_orders(S, "retarded", max_grade))


def _assert_same_entries(got, want):
    """Same orders, and in each the same entry keys and, per key, the same
    term dict (in any order)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.entries.keys() == w.entries.keys()
        assert all(dict(g.entries[k].items()) == dict(e.items())
                   for k, e in w.entries.items())


def _assert_close(got, want):
    """Every coefficient within 1e-12 of the entry's max-abs.  A word that
    one association cancels to exactly 0 may sit on one side only, and
    then only below that bound."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key in g.entries.keys() | w.entries.keys():
            a, b = g.get(*key), w.get(*key)
            bound = 1e-12 * max(a.max_abs(), b.max_abs())
            for word in {x for x, _ in a.items()} | {x for x, _ in b.items()}:
                assert abs(a.coefficient(word) - b.coefficient(word)) <= bound


@pytest.fixture(scope="module")
def float43():
    """4x3 float action with its grade-6 retarded series."""
    fl = FieldLattice(Lattice(4, 3, 1, 1), 1, "float")
    S = build_gn_action(fl, GrossNeveuParams(lam=0.125, m=0.75))
    return S, interacting_propagator(S, 6)


def test_interacting_propagator_agrees_with_product_chain_in_float(float43):
    S, ik = float43
    chain = _product_chain(S, "retarded", 6)
    assert len(ik.corrections) == len(chain) == 3
    _assert_close(ik.corrections, chain)


@pytest.mark.parametrize("nx, ncolors, max_grade, g", [
    (3, 1, 6, None), (2, 2, 4, None), (2, 1, 10, [1] * 6)],
    ids=["3x3-grade6", "3x2-2colors-grade4", "3x2-cutoff-on-every-site"])
def test_interacting_causal_is_the_signed_transposed_series_exactly(
        nx, ncolors, max_grade, g):
    """The parts built from the retarded series alone equal those built
    from independent product chains of both kinds, the advanced one
    included, entry by entry and exactly."""
    fl = FieldLattice(Lattice(3, nx, 1, 1), ncolors, "rational")
    S = build_gn_action(fl, GrossNeveuParams(lam=Fraction(1, 3),
                                             m=Fraction(3, 4), g=g))
    got = interacting_causal(interacting_propagator(S, max_grade))
    # [ΔR0 − ΔA0, *ΔR_k, *(−ΔA_k)] from the product chains of both kinds
    dR = dirac_green(fl, S.meta["m"], "retarded").mat
    dA = dirac_green(fl, S.meta["m"], "advanced").mat
    want = [dR - dA, *_product_chain(S, "retarded", max_grade),
            *(c.scale(-1) for c in _product_chain(S, "advanced", max_grade))]
    assert len(got) == len(want) > 1
    assert (got[0] == want[0]).all()
    _assert_same_entries(got[1:], want[1:])


def test_interacting_causal_agrees_with_the_advanced_chain_in_float(float43):
    """The retarded half is the series itself, checked against its chain
    above; the advanced half is checked against the advanced chain."""
    S, ik = float43
    got = interacting_causal(ik)
    dA = dirac_green(S.fl, S.meta["m"], "advanced").mat
    assert len(got) == 7 and (got[0] == ik.free.mat - dA).all()
    assert got[1:4] == ik.corrections
    _assert_close(got[4:], [c.scale(-1) for c in _product_chain(S, "advanced", 6)])


def test_suite_gn_builds_one_series_per_action_and_grade(monkeypatch):
    """Brackets, the Poisson-ideal check and both sides of the colour check
    share the series they need: 7 builds in one pass."""
    real = gross_neveu.interacting_propagator
    calls = []

    def counted(S, max_grade=6):
        calls.append((S, max_grade))
        return real(S, max_grade)

    monkeypatch.setattr(gross_neveu, "interacting_propagator", counted)
    monkeypatch.setattr(verify, "interacting_propagator", counted)
    records = verify.suite_gn(RunConfig())
    assert all(r["passed"] for r in records)
    assert len(calls) == 7


def test_suite_gn_quartic_canonical_identity_is_exact(monkeypatch):
    """Negative control: the quartic canonical identity runs in rational
    arithmetic, so a residual of 10⁻¹² fails it like any nonzero one."""
    real = verify.canonical_residual

    def off(*args):
        res = real(*args)
        return res + res.algebra.scalar(Fraction(1, 10**12))

    monkeypatch.setattr(verify, "canonical_residual", off)
    by = {r["check"]: r for r in verify.suite_gn(RunConfig())}
    rec = by["gn_canonical_identity_quartic"]
    assert not rec["passed"] and rec["max_residual"] == 1e-12
    assert all(r["passed"] for name, r in by.items()
               if name != "gn_canonical_identity_quartic")


def _perturbed_block(ik, k, eps):
    """``ik`` with ``eps`` added to one coefficient of the stored block of
    V_{k+1}: the last nonzero one on an exact row of the last orbit that
    reaches that order, so every group of that orbit reads it moved."""
    order = [b for b in ik._blocks if len(b) > k][-1][k]
    exact = ik.free.exact_rows[ik._W.rows]
    i = np.flatnonzero(exact[order.at % len(ik._W.rows)])[-1]
    order.vals[i] += eps
    return ik


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_propagator_defect_sees_a_perturbed_correction(mode):
    """Negative control: a coefficient of the stored block of V_1, or of
    V_2, the top order, moved on an exact row (by 1 or by 10⁻⁴⁰⁰, below
    the float range, in rational mode; by 1e-6 in float mode) fails the
    defect, while the series itself passes it: exactly 0 in rational mode,
    below ``TOL_NUM`` in float mode."""
    fl = FieldLattice(Lattice(3, 3, 1, 1), 1, mode)
    ring = fl.ring
    S = build_gn_action(fl, GrossNeveuParams(lam=ring.number(Fraction(1, 3)),
                                             m=ring.number(Fraction(3, 4))))
    epsilons, bound = (((ring.one, ring.number(Fraction(1, 10**400))), 0.0)
                       if ring.exact else ((1e-6,), TOL_NUM))
    ik = interacting_propagator(S, 4)
    assert ik.order_count == 3 and not ik._corrections
    assert max(len(b) for b in ik._blocks) == 2
    clean = propagator_defect(S, ik)
    assert clean == 0.0 if ring.exact else clean < TOL_NUM
    if ring.exact:
        assert clean == _sparse_defect(S, ik, full=True)
    for eps in epsilons:
        for k in (0, 1):
            ik = _perturbed_block(interacting_propagator(S, 4), k, eps)
            got = propagator_defect(S, ik)
            assert got > bound
            if ring.exact:
                # K0·Δ0 = Id on the exact rows, so the order step's residual
                # loses nothing of the full one
                assert got == _sparse_defect(S, ik, full=True)


def _sparse_defect(S, ik, full=False):
    """Oracle for the grade-2k part of ``propagator_defect``: the sparse
    residual K0·Δ_k + W∘Δ_{k−1} on exact rows, K0·Δ_k formed by
    ``compose_scalar_left`` and the two added entry by entry, and its
    largest |coefficient|.  K0 is kept on the exact rows that are rows of
    the series' W, where K0·Δ_k is −X_k up to the grade-0 residual, so
    this is the order step's residual; with ``full``, on every exact row,
    so this is the full residual."""
    K0, W = S.second_kernel()
    rows = ik.free.exact_rows
    if not full:
        rows = rows & np.isin(np.arange(len(rows)), ik._W.rows)
    k0 = K0.mat.copy()
    k0[~rows] = 0
    W = W.restrict_rows(ik.free.exact_rows)
    worst, prev = 0.0, None
    for corr in ik.corrections:
        lower = (W.compose_scalar_right(ik.free.mat) if prev is None
                 else W.compose(prev))
        residual = corr.compose_scalar_left(k0) + lower
        worst = max([worst, *(e.max_abs() for e in residual.entries.values())])
        prev = corr
    return worst


@pytest.fixture(scope="module")
def float32_two_colors():
    """3x2 float action with two colours and its grade-4 retarded series."""
    fl = FieldLattice(Lattice(3, 2, 1, 1), 2, "float")
    S = build_gn_action(fl, GrossNeveuParams(lam=0.125, m=0.75))
    return S, interacting_propagator(S, 4)


@pytest.mark.parametrize("series, orders", [("float43", 3),
                                            ("float32_two_colors", 2)],
                         ids=["4x3-grade6", "3x2-2colors-grade4"])
@pytest.mark.parametrize("scaled", [False, True], ids=["series", "scaled"])
def test_float_propagator_defect_matches_the_sparse_oracle(
        request, monkeypatch, series, orders, scaled):
    """The float residual on the stored blocks agrees with the sparse one to
    1e-15, both on the series and on one whose stored blocks of order k
    are scaled by 1 + k/1000, where every grade-2k residual is far from
    0.  The sparse residual reads the corrections unpacked from the same
    blocks.  The grade-0 block is set aside, so the defect is the grade-2k
    part alone."""
    S, ik = request.getfixturevalue(series)
    if scaled:
        ik = interacting_propagator(S, ik.max_grade)
        for stored in ik._blocks:
            for k, order in enumerate(stored, 1):
                order.vals[:] *= 1 + k / 1000
    assert len(ik.corrections) == orders
    want = _sparse_defect(S, ik)
    assert (want > 1e-6) if scaled else (want < TOL_NUM)
    monkeypatch.setattr(Kernel, "identity_defect", lambda self, op: 0.0)
    assert abs(propagator_defect(S, ik) - want) <= 1e-15


@pytest.mark.parametrize("case", ["one-site-unchecked", "every-row-checked"])
def test_float_propagator_defect_on_keys_the_series_lacks(monkeypatch, case):
    """The defect's order steps run on the entries of W on the checked
    rows, not on the series' W.  With the rows of one interacting site
    left unchecked they miss some stored keys (the stored orders are
    scaled by 1 + k/1000 here, so that the residual is far from 0).  With
    every row checked and the cutoff on every site, W keeps entries on
    dead columns of Δ0 that the series dropped, and they reach keys the
    series lacks.  Either way the float residual agrees with the sparse
    oracle within 1e-15·max(1, residual); on the dead rows alone, with no
    row of the series' W checked, it is the largest coefficient of
    W∘Δ_{k−1}."""
    g = [1] * 12 if case == "every-row-checked" else None
    fl = FieldLattice(Lattice(4, 3, 1, 1), 1, "float")
    S = build_gn_action(fl, GrossNeveuParams(lam=0.125, m=0.75, g=g))
    ik = interacting_propagator(S, 6)
    if g is None:
        gens = fl.algebra.generators
        site = gens[ik._W.rows[0]].site
        rows = ik.free.exact_rows.copy()
        rows[[i for i, gen in enumerate(gens) if gen.site == site]] = False
        for stored in ik._blocks:
            for k, order in enumerate(stored, 1):
                order.vals[:] *= 1 + k / 1000
    else:
        rows = np.ones(fl.n_slots, dtype=bool)
    ik.free = Kernel(ik.free.mat, ik.free.kind, ik.free.times, rows)
    stepped = []
    step = ik._step

    def recorded(k, *args):
        order = step(k, *args)
        stepped.extend((k + 1, key) for key in order.keys.tolist())
        return order

    ik._step = recorded
    want = _sparse_defect(S, ik)
    assert want > 1e-6
    monkeypatch.setattr(Kernel, "identity_defect", lambda self, op: 0.0)
    assert abs(propagator_defect(S, ik) - want) <= 1e-15 * max(want, 1.0)
    stored = {(k, key) for b in _group_orders(ik) for k, order in enumerate(b, 1)
              for key in order.keys.tolist()}
    if g is None:
        assert set(stepped) < stored
        return
    assert set(stepped) - stored
    # on the entries of W on dead rows alone every key is one the series
    # lacks, and with no checked row the residual is W∘Δ_{k−1} itself
    _, W = S.second_kernel()
    W = W.restrict_rows([not any(col) for col in ik.free.mat.T])
    lowers = [W.compose_scalar_right(ik.free.mat),
              *(W.compose(c) for c in ik.corrections[:-1])]
    want = max(e.max_abs() for lower in lowers for e in lower.entries.values())
    got = ik._defect(np.zeros(fl.n_slots, dtype=bool), W)
    assert want > 0.1 and abs(got - want) <= 1e-15 * want


# -- per-order norms from the vertex products ------------------------------------

def _eager_chain(S, kind, max_grade):
    """(V_k, Δ_k) with V_1 = W·Δ0, V_k = W∘Δ_{k−1} and Δ_k = (−Δ0)·V_k as
    sparse ElementKernels, every order built at once and a zero order
    ending the series."""
    free = dirac_green(S.fl, S.meta["m"], kind).mat
    _, W = S.second_kernel()
    chain = []
    vertex = W.compose_scalar_right(free)
    for k in range(1, max_grade // 2 + 1):
        if k > 1:
            vertex = W.compose(chain[-1][1])
        order = vertex.compose_scalar_left(-free)
        if order.is_zero():
            break
        chain.append((vertex, order))
    return chain


def _eager_orders(S, kind, max_grade):
    return [order for _, order in _eager_chain(S, kind, max_grade)]


def _reference_norms(ik):
    return [float(np.sqrt(sum(abs(complex(c)) ** 2 for e in corr.entries.values()
                              for _, c in e.items())))
            for corr in ik.corrections]


@pytest.fixture(scope="module")
def float43_order8():
    """4x3 float series to order 4, its norms read before anything else,
    with the number of order steps taken and of Δ_k built by then; later
    order steps are counted in ``steps`` too."""
    fl = FieldLattice(Lattice(4, 3, 1, 1), 1, "float")
    S = build_gn_action(fl, GrossNeveuParams(lam=0.125, m=0.75))
    ik = interacting_propagator(S, 8)
    steps = []
    step = ik._step

    def counted(*args):
        steps.append(args[0])
        return step(*args)

    ik._step = counted
    norms = ik.per_order_norms()
    return SimpleNamespace(S=S, ik=ik, norms=norms, steps=steps,
                           steps_at_norms=len(steps), built=len(ik._corrections))


def test_per_order_norms_match_the_built_orders_in_float(float43_order8):
    ik, norms = float43_order8.ik, float43_order8.norms
    assert [(k, g) for k, g, _ in norms] == [(k, 2 * k) for k in range(5)]
    want = _reference_norms(ik)
    assert len(want) == 4
    for (_, _, got), ref in zip(norms[1:], want):
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_per_order_norms_leave_the_last_order_unbuilt(float43_order8):
    """The norms read the stored blocks of the series: no order step and
    no Δ_k.  The last order Δ_4 is built, from its stored blocks and with
    no order step, the first time ``corrections`` is read, and then
    agrees with the sparse eager chain."""
    f = float43_order8
    assert f.steps_at_norms == 0 and f.built == 0
    assert f.ik.order_count == 5 and max(len(b) for b in f.ik._blocks) == 4
    _assert_matches_the_chain(f.ik, f.norms, f.ik.free.mat,
                              _eager_chain(f.S, "retarded", 8))
    assert len(f.steps) == f.steps_at_norms


# -- the float blocks against independent series ---------------------------------

def _gram_norms(free, vertices):
    """‖(−Δ0)·V_k‖_F by the Gram identity Σ G[a,a']·K[a,a'], with G = Δ0ᴴΔ0
    and K = Σ_b conj(X_b)·X_bᵀ, X_b the dense (rows × words) block of column
    b of V_k packed here from its entries."""
    d0 = np.array(free.tolist(), dtype=complex)
    gram = d0.conj().T @ d0
    norms = []
    for v in vertices:
        cols: dict = {}
        for (a, b), e in v.entries.items():
            for w, c in e.items():
                cols.setdefault(b, {}).setdefault(w, {})[a] = c
        k = np.zeros_like(gram)
        for words in cols.values():
            x = np.zeros((len(gram), len(words)), dtype=complex)
            for i, by_row in enumerate(words.values()):
                for a, c in by_row.items():
                    x[a, i] = c
            k += x.conj() @ x.T
        norms.append(max(float(np.sum(gram * k).real), 0.0) ** 0.5)
    return norms


def _assert_matches_the_chain(ik, norms, free, chain):
    """Same order count as the sparse chain; per order k, the same entry
    keys and words but for terms below 1e-15·max|c| (an exact cancellation
    may differ), every coefficient within 1e-15·max|c|, and the norm
    within 1e-15 of the chain's Gram-identity norm."""
    assert ik.order_count == 1 + len(chain)
    got = ik.corrections
    for k, ((_, want), have) in enumerate(zip(chain, got), 1):
        bound = 1e-15 * max(e.max_abs() for e in want.entries.values())
        for key in have.entries.keys() | want.entries.keys():
            a, b = dict(have.get(*key).items()), dict(want.get(*key).items())
            for w in a.keys() ^ b.keys():
                assert abs(a.get(w, 0) or b.get(w, 0)) <= bound, (k, key, w)
            for w in a.keys() | b.keys():
                assert abs(a.get(w, 0) - b.get(w, 0)) <= bound, (k, key, w)
    assert [(k, g) for k, g, _ in norms] == [(k, 2 * k) for k in range(1 + len(chain))]
    for (_, _, n), ref in zip(norms[1:], _gram_norms(free, [v for v, _ in chain])):
        assert abs(n - ref) <= 1e-15 * ref


@pytest.mark.parametrize("nt, nx, ncolors, max_grade, g", [
    (3, 2, 2, 6, None), (3, 2, 1, 10, [1] * 6), (4, 3, 1, 0, None),
    (4, 3, 1, 2, None)],
    ids=["3x2-2colors-grade6", "3x2-cutoff-on-every-site", "4x3-grade0",
         "4x3-grade2"])
def test_float_blocks_match_the_sparse_eager_chain(nt, nx, ncolors, max_grade, g):
    """The float series, its orders unpacked from the blocks and its norms
    from the Gram matrices, against the sparse chain run in float.  With
    g = 1 on every site W has rows and columns on dead columns of Δ0.  The
    4x3 series at grade 8 is checked in
    ``test_per_order_norms_leave_the_last_order_unbuilt``."""
    fl = FieldLattice(Lattice(nt, nx, 1, 1), ncolors, "float")
    S = build_gn_action(fl, GrossNeveuParams(lam=1 / 3, m=0.75, g=g))
    ik = interacting_propagator(S, max_grade)
    if g is not None:
        free = ik.free.mat
        dead = {j for j in range(fl.n_slots) if not any(free[:, j])}
        assert any(i in dead or a in dead for i, a in S.second_kernel()[1].entries)
    chain = _eager_chain(S, "retarded", max_grade)
    assert len(chain) == max_grade // 2
    _assert_matches_the_chain(ik, ik.per_order_norms(), ik.free.mat, chain)


def test_float_blocks_match_the_exact_series():
    """At 3x3 to grade 8 the float series agrees with the rational one:
    each norm within 1e-13 relative, each coefficient within 1e-13 of its
    order's largest."""
    def series(mode):
        fl = FieldLattice(Lattice(3, 3, 1, 1), 1, mode)
        ring = fl.ring
        S = build_gn_action(fl, GrossNeveuParams(lam=ring.number(Fraction(1, 3)),
                                                 m=ring.number(Fraction(3, 4))))
        return interacting_propagator(S, 8)

    exact, approx = series("rational"), series("float")
    assert exact.order_count == approx.order_count == 5
    for (k, g, a), (kf, gf, b) in zip(exact.per_order_norms(),
                                      approx.per_order_norms()):
        assert (k, g) == (kf, gf) and abs(a - b) <= 1e-13 * a
    for want, got in zip(exact.corrections, approx.corrections):
        bound = 1e-13 * max(e.max_abs() for e in want.entries.values())
        for key in want.entries.keys() | got.entries.keys():
            a, b = dict(want.get(*key).items()), dict(got.get(*key).items())
            for w in a.keys() | b.keys():
                assert abs(complex(a.get(w, 0)) - b.get(w, 0)) <= bound


# -- the order step against the per-monomial oracle -----------------------------

def _split(W):
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


class _PerMonomialSteps:
    """Oracle order step: one product C_w·Y[J_w, present] per monomial w
    of W into a dense block, the merged word ids from per-(order, w) maps
    filled one ``merge_words`` call at a time, in order of first
    appearance."""

    def __init__(self):
        self.tables = [([()], {(): 0})]   # order k: grade-2k words, their ids
        self.maps: dict = {}              # (k, w): signed order-k+1 id + 1

    def merged(self, k, w, ids):
        words = self.tables[k][0]
        if len(self.tables) == k + 1:
            self.tables.append(([], {}))
        out_words, out_ids = self.tables[k + 1]
        m = self.maps.setdefault((k, w), {})
        for u in sorted(set(ids.tolist()) - m.keys()):
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
        return np.array([m[u] for u in ids.tolist()], dtype=np.int64)

    def step(self, k, keys, y, parts, nrows):
        words = keys & gross_neveu._WORD
        cols = keys & ~gross_neveu._WORD
        nonzero = y != 0
        todo = []
        for w, I, J, C in parts:
            present = nonzero[J].any(axis=0).nonzero()[0]
            merged = self.merged(k, w, words[present])
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
            z[I[:, None], inv[start:stop]] += (C @ y[J[:, None], present]) * sign
            start = stop
        return new, z


def _oracle_blocks(S, ik):
    """The oracle's word tables and, per site group of ``ik``, its dense
    blocks (keys, X) of V_1, V_2, … up to the group's last nonzero order,
    run from the same W, groups and sources as ``ik``.

    The next input Y = −Δ0[cols, rows]·X is summed over the nonzeros of
    X in the order the series sums it (``gross_neveu._product``), once it
    is checked against the BLAS product to 1e-15 of its largest modulus:
    a cell whose exact value is 0 reads 0 or rounding noise depending on
    the order its products are summed in, and so do the cells of the next
    order that it reaches."""
    _, W = S.second_kernel()
    W = W.restrict_rows([any(col) for col in ik.free.mat.T])
    rows, cols, parts = _split(W)
    back = ik._neg_free[np.ix_(cols, rows)]
    steps = _PerMonomialSteps()
    out = []
    for group in ik._groups:
        keys, y = group << gross_neveu._SHIFT, ik._free[np.ix_(cols, group)]
        blocks = []
        for k in range(1, ik.max_grade // 2 + 1):
            keys, x = steps.step(k - 1, keys, y, parts, len(rows))
            if not x.any():
                break
            blocks.append((keys, x))
            y = _dense(gross_neveu._product(gross_neveu._columns(back),
                                            _nonzeros(keys, x)), len(cols))
            blas = back @ x
            assert np.abs(y - blas).max() <= 1e-15 * np.abs(blas).max()
        out.append(blocks)
    return steps.tables, out


def _nonzeros(keys, x):
    """The stored order of a dense (rows × keys) block."""
    at = np.flatnonzero(x.T)
    return gross_neveu._Order(keys, at, x.T.ravel()[at])


def _dense(order, nrows):
    """The dense (rows × keys) block of a stored order."""
    x = np.zeros(len(order.keys) * nrows, dtype=complex)
    x[order.at] = order.vals
    return x.reshape(len(order.keys), nrows).T


def _group_orders(ik):
    """Per site group of ``ik``, its blocks of V_1, V_2, … as the accessor
    returns them: stored for an orbit's first group, mapped for the rest."""
    return [[ik._order(g, k) for k in range(1, ik._depth(g) + 1)]
            for g in range(len(ik._groups))]


def _by_word(keys, x, words):
    """A dense (rows × keys) block as {(column, word): its column of X},
    each word id read in the table ``words``."""
    return {(key >> gross_neveu._SHIFT, words[key & gross_neveu._WORD]): x[:, i]
            for i, key in enumerate(keys.tolist())}


def _float_gn(nt, nx, ncolors, lam=0.125, g=None):
    fl = FieldLattice(Lattice(nt, nx, 1, 1), ncolors, "float")
    return build_gn_action(fl, GrossNeveuParams(lam=lam, m=0.75, g=g))


@pytest.mark.parametrize("nt, nx, ncolors, lam, g, max_grade", [
    (4, 3, 1, 0.125, None, 8), (3, 2, 2, 0.125, None, 6),
    (3, 2, 1, 1 / 3, [1] * 6, 10), (4, 3, 1, 0.0, None, 6)],
    ids=["4x3-grade8", "3x2-2colors-grade6", "3x2-cutoff-on-every-site",
         "4x3-lambda0"])
def test_stored_orders_match_the_per_monomial_oracle(nt, nx, ncolors, lam, g,
                                                      max_grade):
    """Per group and order, the block that the accessor returns against the
    oracle's dense block of that group, both read by (column, word): every
    coefficient within 1e-15·max|c| of the order, and no zero stored.  The
    first group of an orbit, whose block is stored, has the oracle's keys
    and one stored entry per nonzero of the oracle's block.  The block of
    another group is mapped from it, and its keys may differ from the
    oracle's by keys whose every coefficient is below that bound: sums
    whose exact value is 0, rounding noise on one side.  At λ = 0, W is
    empty and so is every block."""
    S = _float_gn(nt, nx, ncolors, lam, g)
    ik = interacting_propagator(S, max_grade)
    tables, want = _oracle_blocks(S, ik)
    got = _group_orders(ik)
    assert [len(b) for b in got] == [len(b) for b in want]
    assert any(want) == (lam != 0)
    for k in range(1, ik.order_count):
        words = list(map(tuple, ik._tables.words[k].tolist()))
        bound = 1e-15 * max(np.abs(x).max() for b in want if len(b) >= k
                            for _, x in [b[k - 1]])
        for (_, n), orders, blocks in zip(ik._orbit, got, want):
            if len(blocks) < k:
                continue
            order, (keys, x) = orders[k - 1], blocks[k - 1]
            assert np.all(order.vals != 0)
            have = _by_word(order.keys, _dense(order, len(x)), words)
            oracle = _by_word(keys, x, tables[k][0])
            if not n:
                assert have.keys() == oracle.keys()
                assert len(order.vals) == np.count_nonzero(x)
            zero = np.zeros(len(x))
            for key in have.keys() | oracle.keys():
                assert np.abs(have.get(key, zero) - oracle.get(key, zero)).max() <= bound


# -- translation covariance -----------------------------------------------------

def _gn43(mode):
    """The 4x3 action at the CI's config: dt = 1/2, m = 3/4, λ = 1/8."""
    fl = FieldLattice(Lattice(4, 3, Fraction(1, 2), 1), 1, mode)
    ring = fl.ring
    return build_gn_action(fl, GrossNeveuParams(lam=ring.number(Fraction(1, 8)),
                                                m=ring.number(Fraction(3, 4))))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_mapped_orders_equal_a_direct_build_of_their_group(mode):
    """At 4x3, grade 6, x → x + 1 is a symmetry: one group per time slice
    is built, and the other two of its slice are its first and second
    translates.  Each of them, as the accessor maps it, against a direct
    build of that group by the same per-group builder, over the same word
    tables: equal key for key and value for value in rational mode; in
    float mode every coefficient, a key on one side only included, within
    1e-15 of the norm of the group's block."""
    ik = interacting_propagator(_gn43(mode), 6)
    assert ik._orbit == [(t, n) for t in range(4) for n in range(3)]
    assert len(ik._blocks) == 4 and ik.order_count == 4
    rows = len(ik._W.rows)
    checked = 0
    for g, (_, n) in enumerate(ik._orbit):
        if not n:
            continue
        direct = ik._build(g)
        assert len(direct) == ik._depth(g)
        for k, want in enumerate(direct, 1):
            got = ik._order(g, k)
            if mode == "rational":
                assert np.array_equal(got.keys, want.keys)
                assert np.array_equal(got.at, want.at)
                assert np.array_equal(got.vals, want.vals)
            else:
                words = list(map(tuple, ik._tables.words[k].tolist()))
                have, built = (_by_word(o.keys, _dense(o, rows), words)
                               for o in (got, want))
                bound = 1e-15 * np.sqrt(np.sum(np.abs(want.vals) ** 2))
                zero = np.zeros(rows)
                for key in have.keys() | built.keys():
                    assert np.abs(have.get(key, zero) - built.get(key, zero)).max() <= bound
            checked += 1
    assert checked == 18


def test_a_cutoff_that_breaks_the_translation_builds_every_group():
    """With a cutoff that depends on x, x → x + 1 is no symmetry of W, so
    every site group is its own orbit and is built.  The rational 3x3
    grade-4 series equals the sparse eager chain term for term, and its
    defect is exactly 0."""
    fl = FieldLattice(Lattice(3, 3, 1, 1), 1, "rational")
    S = build_gn_action(fl, GrossNeveuParams(
        lam=Fraction(1, 3), m=Fraction(3, 4), g=[0, 0, 0, 1, 2, 0, 0, 0, 0]))
    ik = interacting_propagator(S, 4)
    assert all(n == 0 for _, n in ik._orbit)
    assert len(ik._blocks) == len(ik._groups) == 9
    assert ik.order_count == 3
    _assert_same_entries(ik.corrections, _eager_orders(S, "retarded", 4))
    assert propagator_defect(S, ik) == 0.0


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_propagators_fail_under_the_vertex_mutant(tmp_path, monkeypatch, mode):
    """The vertex mutant flips the sign of the order 1 → 2 merges of the
    monomials with an even id.  Its order step is not translation-covariant,
    and the defect runs it on the groups that are mapped, not built: so
    ``propagators`` at the CI's 4x3 config exits 1, its interacting defect
    at least ``TOL_NUM`` in either mode, while its rational free defects
    still read 0."""
    from fermifields.cli import main

    real = gross_neveu._MergeTables.lookup

    def mutant(self, k, m, u):
        merged = real(self, k, m, u)
        return np.where(m % 2 == 0, -merged, merged) if k == 1 else merged

    monkeypatch.setattr(gross_neveu._MergeTables, "lookup", mutant)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lattice.nt = 4\nlattice.nx = 3\nlattice.dt = 1/2\n"
                   f"mass = 3/4\nlambda = 1/8\narithmetic = {mode}\n")
    out = tmp_path / "out"
    assert main(["propagators", "--config", str(cfg), "--out", str(out)]) == 1
    with open(out / "defects.csv", newline="") as fh:
        got = {r["check"]: float(r["max_defect"]) for r in csv.DictReader(fh)}
    assert got["interacting_defect"] >= TOL_NUM
    if mode == "rational":
        assert got["factorization"] == got["green_identity_interior_rows"] == 0.0


@pytest.mark.parametrize("nt, nx, ncolors, max_grade", [
    (4, 3, 1, 8), (3, 3, 2, 6)], ids=["4x3-grade8", "3x3-2colors-grade6"])
def test_merge_tables_match_merge_words(nt, nx, ncolors, max_grade):
    """Every filled entry of every order's merge table, one that no longer
    holds the ``_UNFILLED`` sentinel, is ``merge_words(w, u)``: 0 where the
    words share a generator, else the sign times (id + 1) of the merged
    word.  The 3x3 lattice with two colours has 72 generators."""
    S = _float_gn(nt, nx, ncolors)
    ik = interacting_propagator(S, max_grade)
    tables = ik._tables
    assert S.fl.n_slots == 72 if ncolors == 2 else True
    monomials = list(map(tuple, tables.monomials.tolist()))
    filled = 0
    for k, merge in enumerate(tables.merge):
        words = list(map(tuple, tables.words[k].tolist()))
        above = list(map(tuple, tables.words[k + 1].tolist()))
        for m, u in zip(*np.nonzero(merge != gross_neveu._UNFILLED)):
            got, want = merge[m, u], merge_words(monomials[m], words[u])
            if want is None:
                assert got == 0
            else:
                assert got != 0
                assert (np.sign(got), above[abs(got) - 1]) == want
            filled += 1
    assert filled > 1000


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_cli_series_builds_no_element_kernel_product(tmp_path, monkeypatch, mode):
    """``propagators`` and ``gn-series`` form the series, its norms and its
    defect on the stored blocks alone, in either arithmetic."""
    from fermifields.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("ElementKernel product on the CLI path")

    monkeypatch.setattr(ElementKernel, "compose", refuse)
    monkeypatch.setattr(ElementKernel, "compose_scalar_left", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"lattice.nt = 3\nlattice.nx = 3\narithmetic = {mode}\n"
                   "mass = 3/4\nlambda = 1/8\n")
    for cmd in ("propagators", "gn-series"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)]) == 0
    rows = (tmp_path / "propagators" / "interacting_retarded_orders.csv")
    assert len(rows.read_text().splitlines()) == 5


def test_per_order_norms_match_the_built_orders_in_rational():
    """The norms read the stored blocks and build no Δ_k; the orders built
    afterwards equal the sparse eager chain term for term, and every norm,
    Δ0's too, is their exact Frobenius norm rounded once to a float (here
    by a 60-digit decimal root)."""
    fl = FieldLattice(Lattice(3, 3, 1, 1), 1, "rational")
    S = build_gn_action(fl, GrossNeveuParams(lam=Fraction(1, 3),
                                             m=Fraction(3, 4)))
    ik = interacting_propagator(S, 6)
    norms = ik.per_order_norms()
    assert max(len(b) for b in ik._blocks) == 3 and not ik._corrections
    _assert_same_entries(ik.corrections, _eager_orders(S, "retarded", 6))
    squares = [sum(c.re ** 2 + c.im ** 2 for c in ik.free.mat.ravel().tolist() if c)]
    squares += [sum(c.re ** 2 + c.im ** 2 for e in corr.entries.values()
                    for _, c in e.items()) for corr in ik.corrections]
    with localcontext(prec=60):
        want = [float((Decimal(q.numerator) / q.denominator).sqrt())
                for q in squares]
    assert norms == [(k, 2 * k, v) for k, v in enumerate(want)]
    assert len(want) == 4


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_per_order_norms_read_an_order_whose_square_underflows(mode):
    """At λ = 10⁻³⁰⁰ every |coefficient|² of V_1 is below the float range.
    The norms sum each square exactly in rational mode and on parts
    scaled by a power of 2 in float mode, so the k = 1 norm is 10⁻³⁰⁰
    times the λ = 1 norm, to 1e-12 relative, not 0.0."""
    def norms(lam):
        fl = FieldLattice(Lattice(3, 3, 1, 1), 1, mode)
        ring = fl.ring
        S = build_gn_action(fl, GrossNeveuParams(lam=ring.number(lam),
                                                 m=ring.number(Fraction(3, 4))))
        return interacting_propagator(S, 4).per_order_norms()

    tiny, one = norms(Fraction(1, 10**300)), norms(1)
    assert tiny[1][:2] == (1, 2) and one[1][2] > 0.1
    assert tiny[1][2] == pytest.approx(1e-300 * one[1][2], rel=1e-12, abs=0)


def test_series_build_holds_no_dense_top_order_block(monkeypatch):
    """No block is ever held dense, built or mapped.  At 4x3, float, grade
    8, the top order of the largest group, read through the accessor, has
    17 874 keys on W's 24 rows, so one dense block of it is 24 × 17 874
    complex slots (6.9 MB).  A fresh build's tracemalloc peak, less what
    the built series keeps, stays below that; so does, in another fresh
    build, the peak of each built group, less what its build keeps, the
    first group's merge-table fills included, and the peak of mapping the
    top order of each group not built."""
    import gc
    import tracemalloc

    S = _float_gn(4, 3, 1)
    gc.collect()
    tracemalloc.start()
    try:
        ik = interacting_propagator(S, 8)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    transient = [peak - kept]
    del ik
    build = gross_neveu.InteractingKernel._build

    def measured(self, g):
        tracemalloc.reset_peak()
        kept = build(self, g)
        now, peak = tracemalloc.get_traced_memory()
        transient.append(peak - now)
        return kept

    monkeypatch.setattr(gross_neveu.InteractingKernel, "_build", measured)
    gc.collect()
    tracemalloc.start()
    try:
        ik = interacting_propagator(S, 8)
        for g, (_, n) in enumerate(ik._orbit):
            if n and ik._depth(g):
                tracemalloc.reset_peak()
                kept = ik._order(g, ik._depth(g))
                now, peak = tracemalloc.get_traced_memory()
                transient.append(peak - now)
                del kept
    finally:
        tracemalloc.stop()
    top = max(len(b[-1].keys) for b in _group_orders(ik) if b)
    assert (len(ik._W.rows), top, ik.order_count) == (24, 17874, 5)
    # the whole build, 4 built groups, one per time slice, and 6 mapped
    # ones with an order
    assert len(transient) == 11
    assert max(transient) < 24 * 17874 * 16


def test_summed_takes_a_stable_order_either_way():
    """The sort behind every sum over duplicate (row, key) products has two
    ways: a value sort of code and position packed in one int64, and a
    stable argsort where they do not fit.  Both give the distinct codes,
    ascending, and the same sums bit for bit, each within 1e-14 of adding
    its values (about eight, of modulus about 1) one by one."""
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    code = rng.integers(0, 50, 400)
    want: dict = {}
    for c, v in zip(code.tolist(), vals.tolist()):
        want[c] = want.get(c, 0) + v
    packed = gross_neveu._summed(code, vals, 50)
    stable = gross_neveu._summed(code << 55, vals, 50 << 55)
    assert packed[0].tolist() == sorted(want)
    assert (stable[0] >> 55).tolist() == sorted(want)
    assert np.array_equal(packed[1], stable[1])
    assert np.abs(packed[1] - [want[c] for c in sorted(want)]).max() <= 1e-14


@pytest.mark.parametrize("kind", ["retarded", "advanced"])
def test_series_with_a_cutoff_on_every_site_matches_the_eager_chain(kind):
    """With g = 1 on every site, W has rows on the zero columns of Δ0 (a
    boundary time slice).  Those rows add nothing, so the stored blocks
    leave them out, and the series still stops where the eager chain of
    either kind stops.  It matches the retarded chain term for term, and
    its signed transpose −(Δ_k)ᵀ matches the advanced chain exactly."""
    fl = FieldLattice(Lattice(3, 2, 1, 1), 1, "rational")
    S = build_gn_action(fl, GrossNeveuParams(lam=Fraction(1, 3),
                                             m=Fraction(3, 4), g=[1] * 6))
    ik = interacting_propagator(S, 10)
    free = ik.free.mat
    dead = {j for j in range(fl.n_slots) if not any(free[:, j])}
    _, W = S.second_kernel()
    assert dead and any(i in dead for i, _ in W.entries)
    assert not dead & set(ik._W.rows.tolist())
    eager = _eager_orders(S, kind, 10)
    assert ik.order_count == 1 + len(eager)
    if kind == "advanced":
        _assert_same_entries([c.transpose().scale(-1) for c in ik.corrections],
                             eager)
    else:
        norms = ik.per_order_norms()
        _assert_same_entries(ik.corrections, eager)
        for (_, _, got), ref in zip(norms[1:], _reference_norms(ik)):
            assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_permute_colors_matches_the_substitution_of_permuted_generators(rng):
    """At 3 colours a 3-cycle reorders words across colours; the sign that
    merge_words gives matches the homomorphism that sends each generator to
    its relabelled one."""
    fl = FieldLattice(Lattice(3, 2, 1, 1), 3, "rational")
    alg = fl.algebra
    perm = {1: 2, 2: 3, 3: 1}
    sub = SubstitutionMap(alg, 0, max_grade=None)
    for i, g in enumerate(alg.generators):
        j = fl.slot(g.species, perm[g.color], g.site, g.component)
        sub.set_image(i, TruncatedSeries(alg, {0: alg.generator(j)}, 0))
    for grade in range(7):
        F = random_element(alg, rng, grade, 4)
        want = sub.apply(F).coefficient(0)
        assert (permute_colors(fl, F, perm) - want).is_zero()
        assert want.is_zero() == F.is_zero()
    with pytest.raises(ValueError, match="permute"):
        permute_colors(fl, F, {1: 2})


def test_default_cutoff_window_needs_three_times():
    """At nt = 2 the default window 1..nt-2 is empty: the library refuses
    it instead of building the free theory; an explicit cutoff still
    builds an interacting series."""
    fl = FieldLattice(Lattice(2, 2, 1, 1), 1, "rational")
    params = GrossNeveuParams(lam=Fraction(1, 4), m=Fraction(1))
    with pytest.raises(ValueError, match="cutoff window"):
        params.cutoff(fl)
    with pytest.raises(ValueError, match="cutoff window"):
        build_gn_action(fl, params)
    S = build_gn_action(fl, GrossNeveuParams(lam=Fraction(1, 4),
                                             m=Fraction(1), g=[1] * 4))
    assert any(interacting_propagator(S, 2)._blocks)
