"""Invariant verification suites.

Each suite returns a list of check records (see :mod:`.reports`).  The
suites mirror the acceptance gates: algebraic identities run in exact
rational arithmetic and must come out identically zero; numeric defect
norms run in float arithmetic against fixed tolerances.  A check hands
its residuals to :func:`~fermifields.reports.check_record`, which alone
decides whether it passes.  Seeded generators make every run
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from .algebra import (CONJUGATE, FIELD, Algebra, GeneratorId, GrassmannElement,
                      left_derivative, evaluate, random_element)
from .config import ConfigError, RunConfig
from .dynamics import (ActionFunctional, bracket_kernel_derivative,
                       canonical_residual, higher_retarded,
                       moller_substitution, peierls_bracket, poisson_ideal_residual)
from .gross_neveu import (GrossNeveuParams, bilinear_element, build_free_action,
                          build_gn_action, gn_interaction_term,
                          interacting_bracket, interacting_causal,
                          interacting_propagator, permute_colors,
                          propagator_defect)
from .kernels import ElementKernel
from .lattice import (DiracOperator, FieldLattice, Lattice, causal_propagator,
                      dirac_green, dirac_matrix, free_second_derivative,
                      green_from_bilinear, kg_green)
from .linalg import matmul, max_abs, zeros
from .quantization import (_star_series, alpha_transform,
                           random_symmetric_kernel, star_commutator,
                           star_h_direct, star_h_sandwich, star_product,
                           time_ordered_product, time_ordering)
from .reports import (TOL_FACTOR, TOL_FD, TOL_GREEN, TOL_NUM, TOL_SCALED,
                      check_record)
from .scalars import Ring
from .series import HbarSeries, TruncatedSeries

__all__ = ["SUITES", "run_suites", "wedge_permutation_oracle",
           "multilinear_evaluation_oracle"]


def _rng(cfg: RunConfig, salt: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{salt}")


def _plain_algebra(n: int, mode: str) -> Algebra:
    return Algebra([GeneratorId(0, 1, i, 0) for i in range(n)], mode=mode)


def _free_theory(lat: Lattice, mode: str, m):
    """One-color free Dirac theory on ``lat``: (fl, S, Δᴿ, Δᴬ, Δ)."""
    fl = FieldLattice(lat, 1, mode)
    S = build_free_action(fl, m)
    dR = dirac_green(fl, m, "retarded")
    dA = dirac_green(fl, m, "advanced")
    return fl, S, dR, dA, causal_propagator(dR, dA)


def _elements(rng, alg: Algebra, pool, k: int, *grades) -> list:
    """``k`` slots sampled from ``pool``, then one 2-term random element on
    them per grade; a ``(lo, hi)`` grade is drawn just before its element."""
    slots = rng.sample(pool, k)
    return [random_element(alg, rng, g if isinstance(g, int) else rng.randint(*g),
                           2, slots) for g in grades]


def _direction(rng, ring: Ring, pool, k: int) -> dict:
    """A direction h: ``k`` slots sampled from ``pool``, weights in [−2, 2]."""
    return {i: ring.number(rng.randint(-2, 2)) for i in rng.sample(pool, k)}


# -- independent oracles -----------------------------------------------------

def _tensor_value(e: GrassmannElement, idx: tuple):
    """Antisymmetric tensor value at an arbitrary index tuple."""
    ring = e.algebra.ring
    if len(set(idx)) != len(idx):
        return ring.zero
    word = tuple(sorted(idx))
    # parity of the sorting permutation = parity of inversions of idx
    inv = sum(1 for a in range(len(idx)) for b in range(a + 1, len(idx))
              if idx[a] > idx[b])
    c = e.coefficient(word)
    return -c if inv % 2 == 1 else c


def wedge_permutation_oracle(a: GrassmannElement, p: int,
                             b: GrassmannElement, q: int) -> GrassmannElement:
    """Wedge via the permutation-sum formula with 1/(p! q!) weights."""
    alg = a.algebra
    ring = alg.ring
    n = alg.n
    norm_c = ring.number(Fraction(1, math.factorial(p) * math.factorial(q)))
    terms = {}
    for word in itertools.combinations(range(n), p + q):
        acc = ring.zero
        for perm in itertools.permutations(range(p + q)):
            inv = sum(1 for x in range(p + q) for y in range(x + 1, p + q)
                      if perm[x] > perm[y])
            sgn = -1 if inv % 2 else 1
            left = tuple(word[perm[k]] for k in range(p))
            right = tuple(word[perm[k]] for k in range(p, p + q))
            val = _tensor_value(a, left) * _tensor_value(b, right)
            acc = acc + (-val if sgn < 0 else val)
        acc = acc * norm_c
        if acc:
            terms[word] = acc
    return alg.element(terms)


def multilinear_evaluation_oracle(t: GrassmannElement, u: GrassmannElement):
    """Σ_p (1/p!) Σ_{all index tuples} T[idx] · u[idx]."""
    alg = t.algebra
    ring = alg.ring
    acc = ring.zero
    for p in sorted(t.grades() | u.grades()):
        norm_c = ring.number(Fraction(1, math.factorial(p)))
        for idx in itertools.product(range(alg.n), repeat=p):
            val = _tensor_value(t, idx) * _tensor_value(u, idx)
            acc = acc + val * norm_c
    return acc


# -- suite: grassmann kernel -------------------------------------------------

def suite_grassmann(cfg: RunConfig) -> list:
    rng = _rng(cfg, "grassmann")
    cases = 1000

    def law_defects():
        n = rng.randint(6, 8)
        alg = _plain_algebra(n, "rational")
        pa, pb, pc = (rng.randint(0, 4) for _ in range(3))
        a = random_element(alg, rng, pa, 3)
        b = random_element(alg, rng, pb, 3)
        c = random_element(alg, rng, pc, 2)
        # graded commutativity
        comm = a.wedge(b) - (b.wedge(a) if (pa * pb) % 2 == 0
                             else -b.wedge(a))
        # associativity
        assoc = a.wedge(b).wedge(c) - a.wedge(b.wedge(c))
        # graded Leibniz for a random direction
        h = {rng.randrange(n): alg.ring.number(rng.randint(-3, 3))
             for _ in range(2)}
        leib = (left_derivative(h, a.wedge(b))
                - left_derivative(h, a).wedge(b)
                - (a.wedge(left_derivative(h, b)) if pa % 2 == 0
                   else -a.wedge(left_derivative(h, b))))
        # derivative anticommutativity
        i, j = rng.randrange(n), rng.randrange(n)
        return comm, assoc, leib, a.d(i).d(j) + a.d(j).d(i)

    records = [check_record(
        "grassmann_laws_rational", {"cases": cases, "seed": cfg.seed},
        (d for _ in range(cases) for d in law_defects()))]

    # permutation-sum oracle for all p+q <= 6 over 6 generators
    alg = _plain_algebra(6, "rational")

    def oracle_gap(p, q):
        a = random_element(alg, rng, p, 3)
        b = random_element(alg, rng, q, 3)
        return a.wedge(b) - wedge_permutation_oracle(a, p, b, q)

    records.append(check_record(
        "wedge_permutation_oracle", {"max_total_grade": 6, "seed": cfg.seed},
        (oracle_gap(p, q) for p in range(5) for q in range(7 - p))))

    # evaluation pairing against the multilinear reconstruction
    alg5 = _plain_algebra(5, "rational")

    def pairing_gap():
        t, u = (random_element(alg5, rng, rng.randint(0, 3), 3) for _ in range(2))
        return evaluate(t, u) - multilinear_evaluation_oracle(t, u)

    # evaluation of a basis monomial picks the matching dual coefficient
    def monomial_gap():
        u = random_element(alg5, rng, 3, 4)
        return evaluate(alg5.monomial((0, 2, 4)), u) - u.coefficient((0, 2, 4))

    records.append(check_record(
        "evaluation_pairing_oracle", {"generators": 5, "seed": cfg.seed},
        [*(pairing_gap() for _ in range(25)), monomial_gap()]))
    return records


# -- suite: green functions --------------------------------------------------

def suite_green(cfg: RunConfig) -> list:
    ring = Ring("float")
    lat = Lattice(cfg.nt, cfg.nx, float(cfg.dt), float(cfg.dx))
    m = float(cfg.mass)
    dop = DiracOperator(lat, m, ring)
    records = [check_record(
        "dirac_factorization", {"nt": lat.nt, "nx": lat.nx, "m": m},
        [dop.factorization_defect()], TOL_FACTOR)]

    gR = kg_green(lat, m, "retarded", ring)
    gA = kg_green(lat, m, "advanced", ring)
    box = dop.box_site + (m * m) * np.eye(lat.n_sites)
    records.append(check_record(
        "kg_green_identity", {"nt": lat.nt, "nx": lat.nx, "m": m},
        [gR.identity_defect(lat.volume_weight() * box)], TOL_GREEN))
    records.append(check_record(
        "kg_green_support_and_transpose", {"nt": lat.nt, "nx": lat.nx},
        [gR.support_violation(), gA.support_violation(),
         max_abs(np.asarray(gA.mat) - np.asarray(gR.mat).T)]))

    fl = FieldLattice(lat, cfg.colors, "float")
    dR = dirac_green(fl, m, "retarded")
    dA = dirac_green(fl, m, "advanced")
    K = free_second_derivative(fl, m)
    records.append(check_record(
        "dirac_green_identity_interior_rows",
        {"nt": lat.nt, "nx": lat.nx, "m": m, "colors": cfg.colors},
        [dR.identity_defect(K.mat), dA.identity_defect(K.mat)], TOL_GREEN))

    delta = causal_propagator(dR, dA)
    dm = np.asarray(delta.mat)
    records.append(check_record(
        "dirac_support_transpose_symmetry", {"nt": lat.nt, "nx": lat.nx},
        [dR.support_violation(), dA.support_violation(),
         max_abs(np.asarray(dR.mat) + np.asarray(dA.mat).T), max_abs(dm - dm.T)]))

    # species-block shape of the causal kernel: [[0, K], [K^T, 0]], with a
    # nonzero K (zero diagonal blocks; the conjugate-field block is the
    # transpose)
    b = fl.block * fl.ncolors
    records.append(check_record(
        "causal_block_structure", {"nt": lat.nt, "nx": lat.nx},
        [max_abs(dm[:b, :b]), max_abs(dm[b:, b:]),
         max_abs(dm[b:, :b] - dm[:b, b:].T), float(max_abs(dm[:b, b:]) == 0.0)]))
    return records


# -- suite: Peierls bracket ---------------------------------------------------

def suite_bracket(cfg: RunConfig) -> list:
    rng = _rng(cfg, "bracket")
    fl, S, dR, dA, delta = _free_theory(Lattice(cfg.nt, cfg.nx, cfg.dt, cfg.dx),
                                        "rational", cfg.mass)
    alg, ring = fl.algebra, fl.ring
    dmat = delta.mat

    slots = range(fl.n_slots)
    interior = fl.interior_slots()
    anti, leib = [], []
    for _ in range(100):
        sub = rng.sample(slots, 8)
        p, q, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        F, G, H = (random_element(alg, rng, g, 2, sub) for g in (p, q, r))
        br_gf = peierls_bracket(S, dmat, G, F)
        anti.append(peierls_bracket(S, dmat, F, G)
                    + (br_gf if (p * q) % 2 == 0 else -br_gf))
        rhs = peierls_bracket(S, dmat, F, H).wedge(G)
        if (q * r) % 2 == 1:
            rhs = -rhs
        rhs = rhs + F.wedge(peierls_bracket(S, dmat, G, H))
        leib.append(peierls_bracket(S, dmat, F.wedge(G), H) - rhs)
    records = [
        check_record("bracket_graded_antisymmetry_exact",
                     {"cases": 100, "seed": cfg.seed}, anti),
        check_record("bracket_graded_leibniz_exact",
                     {"cases": 100, "seed": cfg.seed}, leib)]

    # graded Jacobi, float mode, 200 random homogeneous triples
    flf, Sf, dRf, _, deltaf = _free_theory(
        Lattice(cfg.nt, cfg.nx, float(cfg.dt), float(cfg.dx)), "float",
        float(cfg.mass))
    rngf = _rng(cfg, "jacobi")

    def br(x, y):
        return peierls_bracket(Sf, deltaf.mat, x, y)

    def jacobi_gap():
        sub = rngf.sample(range(flf.n_slots), 8)
        grades = [rngf.randint(1, 3) for _ in range(3)]
        F, G, H = (random_element(flf.algebra, rngf, g, 2, sub) for g in grades)
        pf, pg, ph = grades
        total = br(br(F, G), H).scale((-1.0) ** (pf * ph)) \
            + br(br(G, H), F).scale((-1.0) ** (pf * pg)) \
            + br(br(H, F), G).scale((-1.0) ** (pg * ph))
        return total.max_abs() / max(F.max_abs() * G.max_abs() * H.max_abs(), 1.0)

    records.append(check_record(
        "bracket_graded_jacobi", {"cases": 200, "seed": cfg.seed},
        (jacobi_gap() for _ in range(200)), TOL_NUM))

    # Poisson ideal identity (exact, interior test configurations)
    def ideal_gap():
        F, G = _elements(rng, alg, slots, 6, (1, 2), (1, 2))
        return poisson_ideal_residual(S, F, _direction(rng, ring, interior, 3),
                                      G, dmat)

    records.append(check_record(
        "poisson_ideal_identity_exact", {"cases": 100, "seed": cfg.seed},
        (ideal_gap() for _ in range(100))))

    # first-order response against equations of motion (exact)
    def response_gaps():
        (F,) = _elements(rng, alg, slots, 6, 2)
        h = _direction(rng, ring, interior, 3)
        eom = S.eom_element(h)
        target = -left_derivative(h, F)
        return (peierls_bracket(S, dR, F, eom) - target,
                peierls_bracket(S, dA, F, eom) - target)

    records.append(check_record(
        "response_on_eom_generators_exact", {"cases": 25, "seed": cfg.seed},
        (d for _ in range(25) for d in response_gaps())))

    # relation between advanced and reversed retarded products (derived)
    def reversal_gap():
        sub = rng.sample(slots, 8)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        F, G = (random_element(alg, rng, g, 2, sub) for g in (p, q))
        ret = peierls_bracket(S, dR, G, F)
        return peierls_bracket(S, dA, F, G) - (-ret if (p * q) % 2 == 1 else ret)

    records.append(check_record(
        "advanced_equals_signed_reversed_retarded", {"cases": 50},
        (reversal_gap() for _ in range(50))))

    # structural zeros: same-species supports have no kernel link
    psi = fl.species_slots(FIELD, 1)
    F = alg.monomial((psi[0], psi[1]))
    G = alg.monomial((psi[2],))
    records.append(check_record(
        "structural_kernel_zeros", {},
        [peierls_bracket(S, dR, F, G), peierls_bracket(S, dA, F, G)]))

    # canonical transformation: quadratic local perturbation, symbolic
    # kernel derivative against the central finite difference oracle
    records.extend(_canonical_quadratic_checks(cfg, flf, dRf))
    return records


def _local_mass_bilinear(fl: FieldLattice):
    """Mass-type bilinear matrix supported on interior times."""
    ring = fl.ring
    lat = fl.lattice
    w = fl.window_weights(1, lat.nt - 2)
    Hm = zeros((fl.block, fl.block), ring)
    vol = ring.coerce(lat.volume_weight())
    for s in range(lat.n_sites):
        c = vol * ring.coerce(w[s])
        for comp in range(2):
            row = s * 2 + comp
            Hm[row, row] = Hm[row, row] + c
    return Hm


def _second_matrix(fl: FieldLattice, H: GrassmannElement):
    """Scalar second-derivative matrix K[j, i] = d_j d_i H of a quadratic H."""
    K0, _ = ActionFunctional(fl, lambda _w: H, name="quadratic").second_kernel()
    return K0.mat


def _canonical_quadratic_checks(cfg: RunConfig, fl, dR):
    rng = _rng(cfg, "canonical")
    Hm = _local_mass_bilinear(fl)
    H = bilinear_element(fl, Hm)
    sym = bracket_kernel_derivative(dR, _second_matrix(fl, H))

    def scaled_gap():
        F, G = _elements(rng, fl.algebra, range(fl.n_slots), 6, (1, 2), (1, 2))
        res = canonical_residual(dR, H, F, G, sym)
        return res.max_abs() / max(F.max_abs() * G.max_abs(), 1.0)

    rec_sym = check_record("canonical_identity_symbolic", {"seed": cfg.seed},
                           (scaled_gap() for _ in range(6)), TOL_SCALED)

    # central finite difference of the perturbed causal kernel R + R^T,
    # one retarded solve per step
    eps = 1e-5
    M = dirac_matrix(fl, float(cfg.mass))
    plus, minus = (green_from_bilinear(fl, M + (sgn * eps) * Hm).mat
                   for sgn in (+1, -1))
    dDelta_fd = ((plus + plus.T) - (minus + minus.T)) / (2 * eps)
    scale = max(max_abs(sym[0]), 1.0)
    rec_fd = check_record("canonical_identity_fd_oracle", {"step": eps},
                          [max_abs(sym[0] - dDelta_fd) / scale], TOL_FD)
    return rec_sym, rec_fd


# -- suite: intertwining maps -------------------------------------------------

def suite_moller(cfg: RunConfig) -> list:
    rng = _rng(cfg, "moller")
    # nt = 5 leaves three interior time slices, so coupling corrections
    # survive through third order and the k <= 3 checks are non-vacuous
    # (run_suites admits lambda_order 1..3)
    fl, S, dR, _, _ = _free_theory(Lattice(5, 2, cfg.dt, cfg.dx), "rational",
                                   cfg.mass)
    alg, ring = fl.algebra, fl.ring
    F = gn_interaction_term(fl, GrossNeveuParams(lam=cfg.lam, m=cfg.mass))
    order = cfg.lambda_order
    slots = range(fl.n_slots)
    interior = fl.interior_slots()
    sub = moller_substitution(S, F, dR, order, cfg.max_grade)

    def series(coeffs):
        return TruncatedSeries(alg, coeffs, order)

    # ideal intertwining per order (id2)
    def intertwining_gap():
        h = _direction(rng, ring, interior, 3)
        eom_free = S.eom_element(h)
        image = sub.apply_series(series({0: eom_free, 1: left_derivative(h, F)}))
        return image - series({0: eom_free})

    records = [check_record(
        "moller_ideal_intertwining", {"orders": order, "seed": cfg.seed},
        (intertwining_gap() for _ in range(6)), order=order)]

    # homomorphism per order
    def homomorphism_gap():
        G, H = _elements(rng, alg, slots, 6, (1, 2), (1, 2))
        return sub.apply(G.wedge(H)) - sub.apply(G).wedge(sub.apply(H))

    records.append(check_record(
        "moller_homomorphism", {"orders": order, "seed": cfg.seed},
        (homomorphism_gap() for _ in range(6)), order=order))

    # order-lowering recursion, k = 1..3
    h = _direction(rng, ring, interior, 4)
    eom_free = S.eom_element(h)
    eom_pert = left_derivative(h, F)
    records.append(check_record(
        "moller_recursion", {"k_max": order, "seed": cfg.seed},
        (higher_retarded(sub, eom_free, k)
         - higher_retarded(sub, eom_pert, k - 1).scale(-k)
         for k in range(1, order + 1)), order=order))

    # grade bookkeeping |R_n| = |G| + n(|F|-2), on a map that cuts no grade:
    # residual 1 for an order whose R_n has any other grade
    G1 = alg.generator(interior[0])
    uncut = moller_substitution(S, F, dR, order, max_grade=None)

    def grade_gap(n):
        rn = higher_retarded(uncut, G1, n)
        return float(not (rn.is_zero() or rn.grades() == {1 + 2 * n}))

    records.append(check_record(
        "moller_grade_formula", {"orders": order},
        (grade_gap(n) for n in range(1, order + 1))))

    # inverse map through the truncation order
    inv = sub.inverse()

    def round_trip_gap():
        (G,) = _elements(rng, alg, slots, 6, (1, 3))
        return inv.apply_series(sub.apply(G)) - series({0: G})

    records.append(check_record(
        "moller_inverse_roundtrip", {"orders": order, "seed": cfg.seed},
        (round_trip_gap() for _ in range(4)), order=order))

    # support: a word before the interaction has no corrections, as Δᴿ[i, j]
    # = 0 for every j in the interaction's support
    early = [i for i in slots if fl.slot_times[i] == 0]
    img = sub.apply(alg.monomial((early[0], early[2])))
    records.append(check_record(
        "moller_support_condition", {"orders": order},
        (img.coefficient(k) for k in range(1, order + 1)), order=order))

    # quadratic interaction: images match matrix perturbation theory
    records.append(check_record(
        "moller_quadratic_matches_matrix_theory", {"orders": order},
        _quadratic_moller_residuals(cfg, fl, S, dR, order), order=order))
    return records


def _quadratic_moller_residuals(cfg, fl, S, dR, order):
    """Grade-1 images under a quadratic perturbation minus the matrix
    series, per order and sampled slot."""
    ring = fl.ring
    n = fl.n_slots
    H = bilinear_element(fl, _local_mass_bilinear(fl))
    sub = moller_substitution(S, H, dR, order, cfg.max_grade)
    # K_H[j, i] = d_j d_i H; image recursion W = (Id - lam * dR K_H^T)^{-1} e,
    # so the order-k image of e_i is row i of (dR K_H^T)^k
    step = matmul(dR.mat, _second_matrix(fl, H).T)
    sampled = list(range(0, n, max(1, n // 6)))
    rows = zeros((len(sampled), n), ring)
    for r, i in enumerate(sampled):
        rows[r, i] = ring.one
    for k in range(0, order + 1):
        for r, i in enumerate(sampled):
            yield (sub.image(i).coefficient(k)
                   - fl.algebra.linear(dict(enumerate(rows[r]))))
        rows = matmul(rows, step)


# -- suite: interacting model --------------------------------------------------

def suite_gn(cfg: RunConfig) -> list:
    rng = _rng(cfg, "gn")
    lat = Lattice(3, 2, cfg.dt, cfg.dx)
    fl, _, dR, _, delta = _free_theory(lat, "rational", cfg.mass)
    alg, ring = fl.algebra, fl.ring
    n = fl.n_slots
    params = GrossNeveuParams(lam=cfg.lam, m=cfg.mass)
    S = build_gn_action(fl, params)

    ik = interacting_propagator(S, max_grade=4)
    records = [check_record(
        "gn_propagator_defect_grade4", {"lattice": "3x2", "lam": str(cfg.lam)},
        [propagator_defect(ik)])]

    # termination: one more order changes nothing at fixed grade; every
    # order of either build is compared, a missing one read as zero
    ik6 = interacting_propagator(S, max_grade=6)
    records.append(check_record(
        "gn_series_termination", {"grades": [4, 6]},
        (corr + -other for corr, other in itertools.zip_longest(
            ik.corrections, ik6.corrections, fillvalue=ElementKernel(alg, n)))))

    # lambda = 0 reduces to the free theory: no corrections to Δ0
    S0 = build_gn_action(fl, GrossNeveuParams(lam=0, m=cfg.mass))
    records.append(check_record(
        "gn_lambda_zero_reduction", {},
        [float(bool(interacting_propagator(S0, max_grade=4).corrections))]))

    # k = 1 correction against an independent dense composition
    _, W = S.second_kernel()
    dense = {}
    for i in range(n):
        for j in range(n):
            acc = alg.zero()
            for (a, b), e in W.entries.items():
                c = ik.free.mat[i, a]
                d = ik.free.mat[b, j]
                if not c or not d:
                    continue
                acc = acc + e.scale(c * d)
            dense[(i, j)] = -acc
    k1 = ik.corrections[0] if ik.corrections else ElementKernel(alg, n)
    records.append(check_record(
        "gn_first_correction_dense_oracle", {},
        [k1 + -ElementKernel(alg, n, dense)]))

    # interacting bracket: graded antisymmetry and free reduction
    causal = interacting_causal(ik6)
    slots = rng.sample(range(n), 6)
    F = random_element(alg, rng, 1, 2, slots)
    G = random_element(alg, rng, 2, 2, slots)
    anti = (peierls_bracket(S, causal, F, G, max_grade=6)
            + peierls_bracket(S, causal, G, F, max_grade=6))
    br_free = peierls_bracket(S0, delta.mat, F, G, max_grade=6)
    records.append(check_record(
        "gn_bracket_antisymmetry_and_free_limit", {"seed": cfg.seed},
        [anti, interacting_bracket(S0, F, G, max_grade=6) - br_free]))

    # Poisson ideal with interacting generators at first series order
    h = _direction(rng, ring, fl.interior_slots(), 3)
    Fi = random_element(alg, rng, 2, 2, slots)
    Gi = random_element(alg, rng, 1, 2, slots)
    records.append(check_record(
        "gn_poisson_ideal_interacting", {"seed": cfg.seed},
        [poisson_ideal_residual(S, Fi, h, Gi, causal).truncate(6)]))

    # canonical identity with the quartic perturbation, first order (exact)
    Hq = gn_interaction_term(fl, params)
    _, WH = build_gn_action(
        fl, GrossNeveuParams(lam=1, m=cfg.mass)).second_kernel()
    sym = bracket_kernel_derivative(dR, WH)

    def quartic_gap():
        Fq, Gq = _elements(rng, alg, range(n), 6, (1, 2), (1, 2))
        return canonical_residual(dR, Hq, Fq, Gq, sym)

    records.append(check_record(
        "gn_canonical_identity_quartic", {"seed": cfg.seed},
        (quartic_gap() for _ in range(4))))

    # finite-difference oracle for the quartic kernel derivative
    fl_f, _, dRff, _, _ = _free_theory(lat, "float", float(cfg.mass))
    eps = 1e-5

    def first_correction(lam):
        ik_eps = interacting_propagator(build_gn_action(
            fl_f, GrossNeveuParams(lam=lam, m=float(cfg.mass))),
            max_grade=2)
        return (ik_eps.corrections[0] if ik_eps.corrections
                else ElementKernel(fl_f.algebra, fl_f.n_slots))

    fd_corr = (first_correction(eps) + -first_correction(-eps)).scale(1.0 / (2 * eps))
    _, WHf = build_gn_action(
        fl_f, GrossNeveuParams(lam=1, m=float(cfg.mass))).second_kernel()
    sym_f = bracket_kernel_derivative(dRff, WHf)[0]
    records.append(check_record(
        "gn_kernel_derivative_fd_oracle", {"step": eps}, [fd_corr + -sym_f], TOL_FD))

    # color symmetry (float, two colors)
    flc = FieldLattice(lat, 2, "float")
    params2 = GrossNeveuParams(lam=float(cfg.lam), m=float(cfg.mass))
    S2 = build_gn_action(flc, params2)
    rngc = _rng(cfg, "color")
    # all at site 2: at equal time and one site the kernel links each
    # colour's field slot to its conjugate one
    slots2 = [flc.slot(FIELD, 1, 2, 0), flc.slot(CONJUGATE, 1, 2, 1),
              flc.slot(FIELD, 2, 2, 1), flc.slot(CONJUGATE, 2, 2, 0)]
    Fc = random_element(flc.algebra, rngc, 2, 2, slots2)
    Gc = random_element(flc.algebra, rngc, 1, 2, slots2)
    perm = {1: 2, 2: 1}
    causal2 = interacting_causal(interacting_propagator(S2, max_grade=4))
    lhs = permute_colors(flc, peierls_bracket(S2, causal2, Fc, Gc, max_grade=4),
                         perm)
    rhs = peierls_bracket(S2, causal2, permute_colors(flc, Fc, perm),
                          permute_colors(flc, Gc, perm), max_grade=4)
    records.append(check_record(
        "gn_color_symmetry", {"colors": 2},
        [lhs - rhs, float(lhs.is_zero())], TOL_FACTOR))
    return records


# -- suite: quantization --------------------------------------------------------

def suite_quant(cfg: RunConfig) -> list:
    rng = _rng(cfg, "quant")
    fl, S, dR, _, delta = _free_theory(Lattice(4, 2, cfg.dt, cfg.dx), "rational",
                                       cfg.mass)
    alg, ring = fl.algebra, fl.ring
    slots = range(fl.n_slots)
    dirac_prop = delta.copy_with((dR.mat - dR.mat.T) * ring.number(Fraction(1, 2)),
                                 kind="dirac")

    def hbar(coeffs):
        return HbarSeries(alg, coeffs)

    # CAR for all basis pairs
    def car_gaps(i, j):
        ei, ej = alg.generator(i), alg.generator(j)
        expect = hbar({1: alg.scalar(ring.i * delta.mat[i, j])})
        return (star_commutator(delta, ei, ej) - expect,
                star_commutator(delta, ej, ei) - expect)

    records = [check_record(
        "car_identity_all_basis_pairs", {"lattice": "4x2"},
        (d for i in fl.species_slots(FIELD, 1)
         for j in fl.species_slots(CONJUGATE, 1) for d in car_gaps(i, j)))]

    # associativity: 200 random triples, exact
    def associativity_gap():
        F, G, H = _elements(rng, alg, slots, 6, (1, 3), (1, 3), (1, 3))
        return (_star_series(delta, star_product(delta, F, G), hbar({0: H}))
                - _star_series(delta, hbar({0: F}), star_product(delta, G, H)))

    records.append(check_record(
        "star_associativity_exact", {"cases": 200, "seed": cfg.seed},
        (associativity_gap() for _ in range(200))))

    # hbar^0 reduction and linear classical limit
    def product_gap():
        F, G = _elements(rng, alg, slots, 6, (1, 3), (1, 3))
        return star_product(delta, F, G).truncate_order(0) - F.wedge(G)

    def commutator_gap():
        F, G = (alg.linear(_direction(rng, ring, slots, 3)) for _ in range(2))
        br = peierls_bracket(S, delta.mat, F, G)
        return star_commutator(delta, F, G) - hbar({1: br.scale(ring.i)})

    records.append(check_record(
        "star_classical_reductions", {"cases": 50, "seed": cfg.seed},
        [*(product_gap() for _ in range(25)),
         *(commutator_gap() for _ in range(25))]))

    # time ordering: exact inverse and graded symmetry of the product
    def inverse_gap():
        F = random_element(alg, rng, 4, 3, rng.sample(slots, 8))
        forward = time_ordering(dirac_prop, F, "forward")
        return time_ordering(dirac_prop, forward, "inverse") - F

    def symmetry_gap():
        sub = rng.sample(slots, 6)
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        F, G = (random_element(alg, rng, g, 2, sub) for g in (p, q))
        rhs = time_ordered_product(dirac_prop, G, F)
        return (time_ordered_product(dirac_prop, F, G)
                - (rhs.scale(-1) if (p * q) % 2 == 1 else rhs))

    records.append(check_record(
        "time_ordering_inverse_and_symmetry", {"seed": cfg.seed},
        [*(inverse_gap() for _ in range(10)), *(symmetry_gap() for _ in range(10))]))

    # ordered supports: F strictly later than G gives the star product
    late = [i for i in slots if fl.slot_times[i] == 3]
    early = [i for i in slots if fl.slot_times[i] == 0]

    def ordered_gap():
        F, G = (random_element(alg, rng, rng.randint(1, 2), 2, rng.sample(pool, 4))
                for pool in (late, early))
        return time_ordered_product(dirac_prop, F, G) - star_product(delta, F, G)

    records.append(check_record(
        "time_ordered_equals_star_on_ordered_supports", {"seed": cfg.seed},
        (ordered_gap() for _ in range(10))))

    # product equivalence with a random graded-symmetric kernel
    d1 = random_symmetric_kernel(fl.n_slots, rng, ring)

    def equivalence_gaps():
        F, G = _elements(rng, alg, slots, 6, (1, 3), (1, 3))
        back = alpha_transform(d1, alpha_transform(d1, F, "forward"), "inverse")
        return (star_h_sandwich(delta, d1, F, G) - star_h_direct(delta, d1, F, G),
                back - F)

    records.append(check_record(
        "star_h_equivalence", {"seed": cfg.seed},
        (d for _ in range(10) for d in equivalence_gaps())))
    return records


# -- orchestration ---------------------------------------------------------------

SUITES = {
    "grassmann": suite_grassmann,
    "green": suite_green,
    "bracket": suite_bracket,
    "moller": suite_moller,
    "gn": suite_gn,
    "quant": suite_quant,
}


def run_suites(cfg: RunConfig, names=None) -> tuple[list, bool]:
    names = list(SUITES) if names is None else list(names)
    if not names:
        raise ConfigError("no suite selected")
    for i, name in enumerate(names):
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}")
        if name in names[:i]:
            raise ConfigError(f"suite {name!r} is listed twice")
    # bracket samples its directions from the interior times 1..nt-2
    if "bracket" in names and cfg.nt < 3:
        raise ConfigError(f"suite 'bracket' needs lattice.nt >= 3, got {cfg.nt}")
    # moller's own nt = 5 lattice has coupling corrections through order 3
    # only (see suite_moller), and at order 0 three of its records check
    # nothing
    if "moller" in names and not 1 <= cfg.lambda_order <= 3:
        raise ConfigError("suite 'moller' needs truncation.lambda_order in "
                          f"1..3, got {cfg.lambda_order}")
    records = []
    for name in names:
        for rec in SUITES[name](cfg):
            rec["suite"] = name
            records.append(rec)
    return records, all(r["passed"] for r in records)
