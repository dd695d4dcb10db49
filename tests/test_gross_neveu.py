"""Gross-Neveu actions, interacting kernels and brackets."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fermifields import gross_neveu, verify
from fermifields.algebra import CONJUGATE, FIELD, evaluate, random_element
from fermifields.config import RunConfig
from fermifields.dynamics import peierls_bracket
from fermifields.gross_neveu import (GrossNeveuParams, build_free_action,
                                     build_gn_action, gn_interaction_term,
                                     interacting_bracket, interacting_causal,
                                     interacting_propagator, permute_colors,
                                     propagator_defect)
from fermifields.kernels import ElementKernel, Kernel
from fermifields.lattice import (FieldLattice, Lattice, causal_propagator,
                                 dirac_green)
from fermifields.reports import TOL_NUM


@pytest.fixture
def gn32():
    """3x2 rational lattice with an interior-supported quartic coupling."""
    lat = Lattice(3, 2, 1, 1)
    fl = FieldLattice(lat, 1, "rational")
    params = GrossNeveuParams(ncolors=1, lam=Fraction(1, 4), m=Fraction(1))
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
    params = GrossNeveuParams(ncolors=1, lam=0, m=mass)
    S = build_gn_action(fl_rat, params)
    S0 = build_free_action(fl_rat, mass)
    assert (S.functional() - S0.functional()).is_zero()


def test_gn_quartic_respects_cutoff_support(fl_rat, mass):
    lat = fl_rat.lattice
    g = [Fraction(1) if lat.site_time(s) == 1 else Fraction(0)
         for s in range(lat.n_sites)]
    params = GrossNeveuParams(ncolors=1, lam=Fraction(1, 2), m=mass, g=g)
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
    advanced series Δᴬ_k = −(Δ_k)ᵀ over the advanced free kernel."""
    fl, params, S = gn32
    ik = interacting_propagator(S, max_grade=4)
    assert propagator_defect(S, ik) == 0.0
    # propagator_defect reads fl, free and corrections only
    ika = SimpleNamespace(fl=fl, free=dirac_green(fl, params.m, "advanced"),
                          corrections=[c.transpose().scale(-1)
                                       for c in ik.corrections])
    assert propagator_defect(S, ika) == 0.0


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
    params0 = GrossNeveuParams(ncolors=1, lam=0, m=params.m)
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
    S0 = build_gn_action(fl, GrossNeveuParams(ncolors=1, lam=0, m=m))
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
    params = GrossNeveuParams(ncolors=2, lam=Fraction(1, 3), m=Fraction(1))
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
    p = GrossNeveuParams(ncolors=2, lam=Fraction(1, 3), m=Fraction(2, 5))
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
    sparse-vertex association gives the chain's entries exactly."""
    fl = FieldLattice(Lattice(3, 3, 1, 1), ncolors, "rational")
    S = build_gn_action(fl, GrossNeveuParams(ncolors=ncolors, lam=Fraction(1, 3),
                                             m=Fraction(3, 4)))
    ik = interacting_propagator(S, max_grade)
    chain = _product_chain(S, "retarded", max_grade)
    assert len(ik.corrections) == len(chain) == max_grade // 2
    _assert_same_entries(ik.corrections, chain)


def _assert_same_entries(got, want):
    """Same orders, and in each the same entry keys and equal entries."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.entries.keys() == w.entries.keys()
        assert all(g.entries[k] == e for k, e in w.entries.items())


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
    S = build_gn_action(fl, GrossNeveuParams(ncolors=1, lam=0.125, m=0.75))
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
    S = build_gn_action(fl, GrossNeveuParams(ncolors=ncolors, lam=Fraction(1, 3),
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


def _perturbed(ik, k, eps):
    """``ik`` with ``eps`` added to one coefficient of order k, in its last
    entry on an exact row; reading ``ik.corrections`` builds the last order
    first."""
    fl = ik.fl
    corr = ik.corrections[k]
    (i, j), e = next((key, e) for key, e in reversed(corr.entries.items())
                     if ik.free.exact_rows[key[0]])
    w, _ = next(iter(e.items()))
    entries = dict(corr.entries)
    entries[(i, j)] = e + fl.algebra.element({w: eps})
    ik.corrections[k] = ElementKernel(fl.algebra, corr.n, entries)
    return ik


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_propagator_defect_sees_a_perturbed_correction(mode):
    """Negative control: a coefficient of Δ_1, or of the last, lazily built
    order Δ_2, moved on an exact row (by 1 in rational mode, by 1e-6 in
    float mode) fails the defect, while the series itself passes it:
    exactly 0 in rational mode, below ``TOL_NUM`` in float mode."""
    fl = FieldLattice(Lattice(3, 3, 1, 1), 1, mode)
    ring = fl.ring
    S = build_gn_action(fl, GrossNeveuParams(
        ncolors=1, lam=ring.number(Fraction(1, 3)), m=ring.number(Fraction(3, 4))))
    eps, bound = (ring.one, 0.0) if ring.exact else (1e-6, TOL_NUM)
    ik = interacting_propagator(S, 4)
    assert len(ik._corrections) == 1 and len(ik.vertices) == 2
    clean = propagator_defect(S, ik)
    assert clean == 0.0 if ring.exact else clean < TOL_NUM
    for k in (0, 1):
        ik = _perturbed(interacting_propagator(S, 4), k, eps)
        assert propagator_defect(S, ik) > bound


def _sparse_defect(S, ik):
    """Oracle for the grade-2k part of ``propagator_defect``: the sparse
    residual K0·Δ_k + W∘Δ_{k−1} on exact rows, K0·Δ_k formed by
    ``compose_scalar_left`` and the two added entry by entry, and its
    largest |coefficient|."""
    K0, W = S.second_kernel()
    rows = ik.free.exact_rows
    k0 = K0.mat.copy()
    k0[~rows] = 0
    W = W.restrict_rows(rows)
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
    S = build_gn_action(fl, GrossNeveuParams(ncolors=2, lam=0.125, m=0.75))
    return S, interacting_propagator(S, 4)


@pytest.mark.parametrize("series, orders", [("float43", 3),
                                            ("float32_two_colors", 2)],
                         ids=["4x3-grade6", "3x2-2colors-grade4"])
@pytest.mark.parametrize("scaled", [False, True], ids=["series", "scaled"])
def test_float_propagator_defect_matches_the_sparse_oracle(
        request, monkeypatch, series, orders, scaled):
    """The dense per-column float residual agrees with the sparse one to
    1e-15, both on the series and on one whose order k is scaled by
    1 + k/1000, where every grade-2k residual is far from 0.  The grade-0
    block is set aside, so the defect is the grade-2k part alone."""
    S, ik = request.getfixturevalue(series)
    if scaled:
        ik = SimpleNamespace(fl=ik.fl, free=ik.free, corrections=[
            c.scale(1 + k / 1000) for k, c in enumerate(ik.corrections, 1)])
    assert len(ik.corrections) == orders
    want = _sparse_defect(S, ik)
    assert (want > 1e-6) if scaled else (want < TOL_NUM)
    monkeypatch.setattr(Kernel, "identity_defect", lambda self, op: 0.0)
    assert abs(propagator_defect(S, ik) - want) <= 1e-15


def test_column_blocks_pack_every_term_in_first_appearance_order(
        float32_two_colors):
    """Per column b, each kernel's block holds every (row, word,
    coefficient) of that column and nothing else, over one word index in
    order of first appearance, kernel by kernel; columns come in order of
    first appearance."""
    _, ik = float32_two_colors
    kernels = (ik.corrections[1], ik.vertices[0], ik.corrections[0])
    cols = list(dict.fromkeys(b for v in kernels for _, b in v.entries))
    got = list(gross_neveu._column_blocks(*kernels))
    assert len(got) == len(cols)
    for b, blocks in zip(cols, got):
        words: list = []
        for v in kernels:
            for (_, c), e in v.entries.items():
                for w, _ in e.items():
                    if c == b and w not in words:
                        words.append(w)
        assert len(blocks) == len(kernels)
        for v, x in zip(kernels, blocks):
            want = np.zeros((v.n, len(words)), dtype=complex)
            for (a, c), e in v.entries.items():
                if c == b:
                    for w, coef in e.items():
                        want[a, words.index(w)] = coef
            assert x.shape == want.shape
            assert np.array_equal(x, want)


# -- per-order norms from the vertex products ------------------------------------

def _eager_orders(S, kind, max_grade):
    """Δ_k = (−Δ0)·(W∘Δ_{k−1}), Δ_1 = (−Δ0)·(W·Δ0), every order built at
    once and a zero order ending the series."""
    free = dirac_green(S.fl, S.meta["m"], kind).mat
    _, W = S.second_kernel()
    orders = []
    current = W.compose_scalar_right(free)
    for k in range(1, max_grade // 2 + 1):
        if k > 1:
            current = W.compose(current)
        current = current.compose_scalar_left(-free)
        if current.is_zero():
            break
        orders.append(current)
    return orders


def _reference_norms(ik):
    return [float(np.sqrt(sum(abs(complex(c)) ** 2 for e in corr.entries.values()
                              for _, c in e.items())))
            for corr in ik.corrections]


def _assert_same_bits(got, want):
    """Same entry keys and word order, and the same coefficients: the same
    bits for floats (as repr would show them), the same values for QC."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g.entries) == list(w.entries)
        for key, e in w.entries.items():
            f = g.entries[key]
            assert [word for word, _ in f.items()] == [word for word, _ in e.items()]
            a = [c for _, c in f.items()]
            b = [c for _, c in e.items()]
            if isinstance(b[0], complex):
                assert np.array(a).tobytes() == np.array(b).tobytes()
            else:
                assert a == b


@pytest.fixture(scope="module")
def float43_order8():
    """4x3 float series to order 4, its norms read before anything else."""
    fl = FieldLattice(Lattice(4, 3, 1, 1), 1, "float")
    S = build_gn_action(fl, GrossNeveuParams(ncolors=1, lam=0.125, m=0.75))
    ik = interacting_propagator(S, 8)
    norms = ik.per_order_norms()
    return S, ik, norms, len(ik._corrections)


def test_per_order_norms_match_the_built_orders_in_float(float43_order8):
    _, ik, norms, _ = float43_order8
    assert [(k, g) for k, g, _ in norms] == [(k, 2 * k) for k in range(5)]
    want = _reference_norms(ik)
    assert len(want) == 4
    for (_, _, got), ref in zip(norms[1:], want):
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_per_order_norms_leave_the_last_order_unbuilt(float43_order8):
    """The norms read only the vertex products; the last order is built on
    the first read of ``corrections``, with the eager chain's bits."""
    S, ik, _, built = float43_order8
    assert len(ik.vertices) == 4 and built == 3
    _assert_same_bits(ik.corrections, _eager_orders(S, "retarded", 8))


def test_per_order_norms_match_the_built_orders_in_rational():
    fl = FieldLattice(Lattice(3, 3, 1, 1), 1, "rational")
    S = build_gn_action(fl, GrossNeveuParams(ncolors=1, lam=Fraction(1, 3),
                                             m=Fraction(3, 4)))
    ik = interacting_propagator(S, 6)
    norms = ik.per_order_norms()
    assert len(ik._corrections) == 2
    want = _reference_norms(ik)
    assert len(want) == 3
    for (_, _, got), ref in zip(norms[1:], want):
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", ["retarded", "advanced"])
def test_series_with_a_cutoff_on_every_site_matches_the_eager_chain(kind):
    """With g = 1 on every site, W has rows on the zero columns of Δ0 (a
    boundary time slice).  Those rows add nothing, so the stored vertex
    products leave them out, and the series still stops where the eager
    chain of either kind stops.  It matches the retarded chain bit for
    bit, and its signed transpose −(Δ_k)ᵀ matches the advanced chain
    exactly."""
    fl = FieldLattice(Lattice(3, 2, 1, 1), 1, "rational")
    S = build_gn_action(fl, GrossNeveuParams(ncolors=1, lam=Fraction(1, 3),
                                             m=Fraction(3, 4), g=[1] * 6))
    ik = interacting_propagator(S, 10)
    free = ik.free.mat
    dead = {j for j in range(fl.n_slots) if not any(free[:, j])}
    _, W = S.second_kernel()
    assert dead and any(i in dead for i, _ in W.entries)
    assert not any(i in dead for v in ik.vertices for i, _ in v.entries)
    eager = _eager_orders(S, kind, 10)
    assert ik.order_count == 1 + len(eager)
    if kind == "advanced":
        _assert_same_entries([c.transpose().scale(-1) for c in ik.corrections],
                             eager)
    else:
        norms = ik.per_order_norms()
        _assert_same_bits(ik.corrections, eager)
        for (_, _, got), ref in zip(norms[1:], _reference_norms(ik)):
            assert got == pytest.approx(ref, rel=1e-12, abs=0)
