"""Invariant verification suites.

Each suite returns a list of check records (see :mod:`.reports`).  The
suites mirror the acceptance gates: algebraic identities run in exact
rational arithmetic and must come out identically zero; numeric defect
norms run in float arithmetic against fixed tolerances.  Seeded
generators make every run reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from .algebra import (CONJUGATE, FIELD, Algebra, GeneratorId, GrassmannElement,
                      left_derivative, evaluate, random_element)
from .config import RunConfig
from .dynamics import (ActionFunctional, bracket_kernel_derivative,
                       canonical_residual, higher_retarded,
                       moller_substitution, moller_inverse,
                       peierls_bracket, poisson_ideal_residual)
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
from .reports import check_record
from .scalars import Ring
from .series import HbarSeries, TruncatedSeries

__all__ = ["SUITES", "run_suites", "wedge_permutation_oracle",
           "multilinear_evaluation_oracle"]

TOL_GREEN = 1e-10
TOL_FACTOR = 1e-12
TOL_NUM = 1e-10


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
        if not ring.is_zero(acc):
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
    records = []
    cases = 1000
    worst = 0.0
    for _ in range(cases):
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
        anti = a.d(i).d(j) + a.d(j).d(i)
        for defect in (comm, assoc, leib, anti):
            worst = max(worst, defect.max_abs())
    records.append(check_record(
        "grassmann_laws_rational", {"cases": cases, "seed": cfg.seed},
        worst, worst == 0.0))

    # permutation-sum oracle for all p+q <= 6 over 6 generators
    alg = _plain_algebra(6, "rational")
    worst = 0.0
    for p in range(0, 5):
        for q in range(0, 7 - p):
            if p + q > 6:
                continue
            a = random_element(alg, rng, p, 3)
            b = random_element(alg, rng, q, 3)
            defect = a.wedge(b) - wedge_permutation_oracle(a, p, b, q)
            worst = max(worst, defect.max_abs())
    records.append(check_record(
        "wedge_permutation_oracle", {"max_total_grade": 6, "seed": cfg.seed},
        worst, worst == 0.0))

    # evaluation pairing against the multilinear reconstruction
    alg5 = _plain_algebra(5, "rational")
    worst = 0.0
    for _ in range(25):
        t = random_element(alg5, rng, rng.randint(0, 3), 3)
        u = random_element(alg5, rng, rng.randint(0, 3), 3)
        diff = evaluate(t, u) - multilinear_evaluation_oracle(t, u)
        worst = max(worst, abs(complex(diff)))
    # evaluation of a basis monomial picks the matching dual coefficient
    mono = alg5.monomial((0, 2, 4))
    u = random_element(alg5, rng, 3, 4)
    diff = evaluate(mono, u) - u.coefficient((0, 2, 4))
    worst = max(worst, abs(complex(diff)))
    records.append(check_record(
        "evaluation_pairing_oracle", {"generators": 5, "seed": cfg.seed},
        worst, worst == 0.0))
    return records


# -- suite: green functions --------------------------------------------------

def suite_green(cfg: RunConfig) -> list:
    records = []
    ring = Ring("float")
    lat = Lattice(cfg.nt, cfg.nx, float(cfg.dt), float(cfg.dx))
    m = float(cfg.mass)
    dop = DiracOperator(lat, m, ring)
    factorization = dop.factorization_defect()
    records.append(check_record(
        "dirac_factorization", {"nt": lat.nt, "nx": lat.nx, "m": m},
        factorization, factorization < TOL_FACTOR))

    gR = kg_green(lat, m, "retarded", ring)
    gA = kg_green(lat, m, "advanced", ring)
    vol = lat.dt * lat.dx
    ident = np.eye(lat.n_sites)
    box = np.asarray(dop.box_site, dtype=complex) + (m * m) * ident
    defect = max_abs(vol * (box @ np.asarray(gR.mat, dtype=complex)) - ident)
    records.append(check_record(
        "kg_green_identity", {"nt": lat.nt, "nx": lat.nx, "m": m},
        defect, defect < TOL_GREEN))
    sup = max(gR.support_violation(), gA.support_violation())
    trans = max_abs(np.asarray(gA.mat) - np.asarray(gR.mat).T)
    records.append(check_record(
        "kg_green_support_and_transpose", {"nt": lat.nt, "nx": lat.nx},
        max(sup, trans), sup == 0.0 and trans == 0.0))

    fl = FieldLattice(lat, cfg.colors, "float")
    dR = dirac_green(fl, m, "retarded")
    dA = dirac_green(fl, m, "advanced")
    K = free_second_derivative(fl, m)
    worst = max(dR.identity_defect(K.mat), dA.identity_defect(K.mat))
    records.append(check_record(
        "dirac_green_identity_interior_rows",
        {"nt": lat.nt, "nx": lat.nx, "m": m, "colors": cfg.colors},
        worst, worst < TOL_GREEN))

    sup = max(dR.support_violation(), dA.support_violation())
    rel = max_abs(np.asarray(dR.mat) + np.asarray(dA.mat).T)
    delta = causal_propagator(dR, dA)
    sym = max_abs(np.asarray(delta.mat) - np.asarray(delta.mat).T)
    records.append(check_record(
        "dirac_support_transpose_symmetry", {"nt": lat.nt, "nx": lat.nx},
        max(sup, rel, sym), sup == 0.0 and rel == 0.0 and sym == 0.0))

    # species-block shape of the causal kernel: [[0, K], [K^T, 0]]
    # (zero diagonal blocks; the conjugate-field block is the transpose)
    b = fl.block * fl.ncolors
    dm = np.asarray(delta.mat)
    blk = max(max_abs(dm[:b, :b]), max_abs(dm[b:, b:]),
              max_abs(dm[b:, :b] - dm[:b, b:].T))
    nonzero = max_abs(dm[:b, b:])
    records.append(check_record(
        "causal_block_structure", {"nt": lat.nt, "nx": lat.nx},
        blk, blk == 0.0 and nonzero > 0.0))
    return records


# -- suite: Peierls bracket ---------------------------------------------------

def suite_bracket(cfg: RunConfig) -> list:
    records = []
    rng = _rng(cfg, "bracket")
    fl, S, dR, dA, delta = _free_theory(Lattice(cfg.nt, cfg.nx, cfg.dt, cfg.dx),
                                        "rational", cfg.mass)
    dmat = delta.mat
    if cfg.debug_corrupt_kernel:
        # test hook: break the kernel's symmetry above the diagonal so the
        # graded antisymmetry of the bracket must fail
        dmat = dmat.copy()
        eps = fl.ring.number(Fraction(1, 1000))
        for i in range(fl.n_slots):
            for j in range(i + 1, fl.n_slots):
                dmat[i, j] = dmat[i, j] + eps

    slots = list(range(fl.n_slots))
    worst_anti = 0.0
    worst_leib = 0.0
    for _ in range(100):
        sub = rng.sample(slots, 8)
        p, q, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        F = random_element(fl.algebra, rng, p, 2, sub)
        G = random_element(fl.algebra, rng, q, 2, sub)
        H = random_element(fl.algebra, rng, r, 2, sub)
        br_fg = peierls_bracket(S, dmat, F, G)
        br_gf = peierls_bracket(S, dmat, G, F)
        anti = br_fg + (br_gf if (p * q) % 2 == 0 else -br_gf)
        worst_anti = max(worst_anti, anti.max_abs())
        lhs = peierls_bracket(S, dmat, F.wedge(G), H)
        rhs = peierls_bracket(S, dmat, F, H).wedge(G)
        if (q * r) % 2 == 1:
            rhs = -rhs
        rhs = rhs + F.wedge(peierls_bracket(S, dmat, G, H))
        worst_leib = max(worst_leib, (lhs - rhs).max_abs())
    records.append(check_record(
        "bracket_graded_antisymmetry_exact", {"cases": 100, "seed": cfg.seed},
        worst_anti, worst_anti == 0.0))
    records.append(check_record(
        "bracket_graded_leibniz_exact", {"cases": 100, "seed": cfg.seed},
        worst_leib, worst_leib == 0.0))

    # graded Jacobi, float mode, 200 random homogeneous triples
    flf, Sf, dRf, dAf, deltaf = _free_theory(
        Lattice(cfg.nt, cfg.nx, float(cfg.dt), float(cfg.dx)), "float",
        float(cfg.mass))
    rngf = _rng(cfg, "jacobi")
    worst = 0.0
    for _ in range(200):
        sub = rngf.sample(range(flf.n_slots), 8)
        grades = [rngf.randint(1, 3) for _ in range(3)]
        F, G, H = (random_element(flf.algebra, rngf, g, 2, sub) for g in grades)
        pf, pg, ph = grades

        def br(x, y):
            return peierls_bracket(Sf, deltaf.mat, x, y)

        total = br(br(F, G), H).scale((-1.0) ** (pf * ph)) \
            + br(br(G, H), F).scale((-1.0) ** (pf * pg)) \
            + br(br(H, F), G).scale((-1.0) ** (pg * ph))
        scale = max(F.max_abs() * G.max_abs() * H.max_abs(), 1.0)
        worst = max(worst, total.max_abs() / scale)
    records.append(check_record(
        "bracket_graded_jacobi", {"cases": 200, "seed": cfg.seed},
        worst, worst < TOL_NUM))

    # Poisson ideal identity (exact, interior test configurations)
    interior = fl.interior_slots()
    worst = 0.0
    for _ in range(100):
        sub = rng.sample(slots, 6)
        F = random_element(fl.algebra, rng, rng.randint(1, 2), 2, sub)
        G = random_element(fl.algebra, rng, rng.randint(1, 2), 2, sub)
        h = {i: fl.ring.number(rng.randint(-2, 2))
             for i in rng.sample(interior, 3)}
        res = poisson_ideal_residual(S, F, h, G, dmat)
        worst = max(worst, res.max_abs())
    records.append(check_record(
        "poisson_ideal_identity_exact", {"cases": 100, "seed": cfg.seed},
        worst, worst == 0.0))

    # first-order response against equations of motion (exact)
    worst = 0.0
    for _ in range(25):
        sub = rng.sample(slots, 6)
        F = random_element(fl.algebra, rng, 2, 2, sub)
        h = {i: fl.ring.number(rng.randint(-2, 2))
             for i in rng.sample(interior, 3)}
        eom = S.eom_element(h)
        lhs_r = peierls_bracket(S, dR, F, eom)
        lhs_a = peierls_bracket(S, dA, F, eom)
        target = -left_derivative(h, F)
        worst = max(worst, (lhs_r - target).max_abs(),
                    (lhs_a - target).max_abs())
    records.append(check_record(
        "response_on_eom_generators_exact", {"cases": 25, "seed": cfg.seed},
        worst, worst == 0.0))

    # relation between advanced and reversed retarded products (derived)
    worst = 0.0
    for _ in range(50):
        sub = rng.sample(slots, 8)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        F = random_element(fl.algebra, rng, p, 2, sub)
        G = random_element(fl.algebra, rng, q, 2, sub)
        adv = peierls_bracket(S, dA, F, G)
        ret = peierls_bracket(S, dR, G, F)
        if (p * q) % 2 == 1:
            ret = -ret
        worst = max(worst, (adv - ret).max_abs())
    records.append(check_record(
        "advanced_equals_signed_reversed_retarded", {"cases": 50},
        worst, worst == 0.0))

    # structural zeros: same-species supports have no kernel link
    psi = fl.species_slots(FIELD, 1)
    F = fl.algebra.monomial((psi[0], psi[1]))
    G = fl.algebra.monomial((psi[2],))
    rz = peierls_bracket(S, dR, F, G)
    az = peierls_bracket(S, dA, F, G)
    worst = max(rz.max_abs(), az.max_abs())
    records.append(check_record(
        "structural_kernel_zeros", {}, worst, worst == 0.0))

    # canonical transformation: quadratic local perturbation, symbolic
    # kernel derivative against the central finite difference oracle
    rec_sym, rec_fd = _canonical_quadratic_checks(cfg, flf, Sf, dRf, dAf)
    records.append(rec_sym)
    records.append(rec_fd)
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


def _canonical_quadratic_checks(cfg: RunConfig, fl, S, dR, dA):
    rng = _rng(cfg, "canonical")
    Hm = _local_mass_bilinear(fl)
    H = bilinear_element(fl, Hm)
    KH = _second_matrix(fl, H)
    sym = bracket_kernel_derivative(dR, dA, KH)
    worst = 0.0
    for _ in range(6):
        slots = rng.sample(range(fl.n_slots), 6)
        F = random_element(fl.algebra, rng, rng.randint(1, 2), 2, slots)
        G = random_element(fl.algebra, rng, rng.randint(1, 2), 2, slots)
        res = canonical_residual(S, dR, dA, H, F, G, sym)
        scale = max(F.max_abs() * G.max_abs(), 1.0)
        worst = max(worst, res.max_abs() / scale)
    rec_sym = check_record(
        "canonical_identity_symbolic", {"seed": cfg.seed}, worst, worst < 1e-9)

    # central finite difference of the perturbed retarded/advanced kernels
    eps = 1e-5
    m = float(cfg.mass)
    M = dirac_matrix(fl, m)
    dDelta_fd = None
    for sgn in (+1, -1):
        Mp = M + (sgn * eps) * Hm
        dRp = green_from_bilinear(fl, Mp, "retarded")
        dAp = green_from_bilinear(fl, Mp, "advanced")
        dmat = dRp.mat - dAp.mat
        dDelta_fd = dmat if dDelta_fd is None else (dDelta_fd - dmat)
    dDelta_fd = dDelta_fd / (2 * eps)
    fd_gap = max_abs(sym[0] - dDelta_fd)
    scale = max(max_abs(sym[0]), 1.0)
    rec_fd = check_record(
        "canonical_identity_fd_oracle", {"step": eps},
        fd_gap / scale, fd_gap / scale < 1e-6)
    return rec_sym, rec_fd


# -- suite: intertwining maps -------------------------------------------------

def suite_moller(cfg: RunConfig) -> list:
    records = []
    rng = _rng(cfg, "moller")
    # nt = 5 leaves three interior time slices, so coupling corrections
    # survive through third order and the k <= 3 checks are non-vacuous
    fl, S, dR, _, _ = _free_theory(Lattice(5, 2, cfg.dt, cfg.dx), "rational",
                                   cfg.mass)
    F = gn_interaction_term(fl, GrossNeveuParams(ncolors=1, lam=cfg.lam, m=cfg.mass))
    order = min(cfg.lambda_order, 3)
    interior = fl.interior_slots()
    sub = moller_substitution(S, F, dR, order, cfg.max_grade)

    # ideal intertwining per order (id2)
    worst = 0.0
    for _ in range(6):
        h = {i: fl.ring.number(rng.randint(-2, 2))
             for i in rng.sample(interior, 3)}
        eom_free = S.eom_element(h)
        eom_pert = left_derivative(h, F)
        series = TruncatedSeries(fl.algebra, {0: eom_free, 1: eom_pert}, order)
        image = sub.apply_series(series)
        diff = image - TruncatedSeries(fl.algebra, {0: eom_free}, order)
        worst = max(worst, diff.max_abs())
    records.append(check_record(
        "moller_ideal_intertwining", {"orders": order, "seed": cfg.seed},
        worst, worst == 0.0, order=order))

    # homomorphism per order
    worst = 0.0
    for _ in range(6):
        slots = rng.sample(range(fl.n_slots), 6)
        G = random_element(fl.algebra, rng, rng.randint(1, 2), 2, slots)
        H = random_element(fl.algebra, rng, rng.randint(1, 2), 2, slots)
        lhs = sub.apply(G.wedge(H))
        rhs = sub.apply(G).wedge(sub.apply(H))
        worst = max(worst, (lhs - rhs).max_abs())
    records.append(check_record(
        "moller_homomorphism", {"orders": order, "seed": cfg.seed},
        worst, worst == 0.0, order=order))

    # order-lowering recursion, k = 1..3
    worst = 0.0
    h = {i: fl.ring.number(rng.randint(-2, 2)) for i in rng.sample(interior, 4)}
    eom_free = S.eom_element(h)
    eom_pert = left_derivative(h, F)
    for k in range(1, order + 1):
        lhs = higher_retarded(S, F, eom_free, k, dR, cfg.max_grade)
        rhs = higher_retarded(S, F, eom_pert, k - 1, dR, cfg.max_grade).scale(-k)
        worst = max(worst, (lhs - rhs).max_abs())
    records.append(check_record(
        "moller_recursion", {"k_max": order, "seed": cfg.seed},
        worst, worst == 0.0, order=order))

    # grade bookkeeping |R_n| = |G| + n(|F|-2)
    ok = True
    G1 = fl.algebra.generator(interior[0])
    for n in range(1, order + 1):
        rn = higher_retarded(S, F, G1, n, dR, max_grade=None)
        if not rn.is_zero():
            ok = ok and rn.grades() == {1 + 2 * n}
    records.append(check_record(
        "moller_grade_formula", {"orders": order}, 0.0 if ok else 1.0, ok))

    # inverse map through the truncation order
    inv = moller_inverse(sub)
    worst = 0.0
    for _ in range(4):
        slots = rng.sample(range(fl.n_slots), 6)
        G = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        round_trip = inv.apply_series(sub.apply(G))
        diff = round_trip - TruncatedSeries(fl.algebra, {0: G}, order)
        worst = max(worst, diff.max_abs())
    records.append(check_record(
        "moller_inverse_roundtrip", {"orders": order, "seed": cfg.seed},
        worst, worst == 0.0, order=order))

    # support: corrections vanish on configurations before the interaction
    early = [i for i in range(fl.n_slots) if fl.slot_times[i] == 0]
    u = fl.algebra.element({(early[0], early[2]): fl.ring.one})
    G = fl.algebra.monomial((early[0], early[2]))
    img = sub.apply(G)
    worst = 0.0
    for k in range(1, order + 1):
        worst = max(worst, abs(complex(evaluate(img.coefficient(k), u))))
    records.append(check_record(
        "moller_support_condition", {"orders": order},
        worst, worst == 0.0, order=order))

    # quadratic interaction: images match matrix perturbation theory
    worstq = _quadratic_moller_defect(cfg, fl, S, dR, order)
    records.append(check_record(
        "moller_quadratic_matches_matrix_theory", {"orders": order},
        worstq, worstq == 0.0, order=order))
    return records


def _quadratic_moller_defect(cfg, fl, S, dR, order) -> float:
    """Grade-1 images under a quadratic perturbation vs matrix series."""
    ring = fl.ring
    n = fl.n_slots
    H = bilinear_element(fl, _local_mass_bilinear(fl))
    sub = moller_substitution(S, H, dR, order, cfg.max_grade)
    # K_H[j, i] = d_j d_i H; image recursion W = (Id - lam * dR K_H^T)^{-1} e,
    # so the order-k image of e_i is row i of (dR K_H^T)^k
    step = matmul(dR.mat, _second_matrix(fl, H).T, ring)
    sampled = list(range(0, n, max(1, n // 6)))
    rows = zeros((len(sampled), n), ring)
    for r, i in enumerate(sampled):
        rows[r, i] = ring.one
    worst = 0.0
    for k in range(0, order + 1):
        for r, i in enumerate(sampled):
            coeff = sub.image(i).coefficient(k)
            want = fl.algebra.linear(dict(enumerate(rows[r])))
            worst = max(worst, (coeff - want).max_abs())
        rows = matmul(rows, step, ring)
    return worst


# -- suite: interacting model --------------------------------------------------

def suite_gn(cfg: RunConfig) -> list:
    records = []
    rng = _rng(cfg, "gn")
    lat = Lattice(3, 2, cfg.dt, cfg.dx)
    fl, Sfree, dR, dA, delta = _free_theory(lat, "rational", cfg.mass)
    params = GrossNeveuParams(ncolors=1, lam=cfg.lam, m=cfg.mass)
    S = build_gn_action(fl, params)

    ik = interacting_propagator(S, "retarded", max_grade=4)
    defect = propagator_defect(S, ik, max_grade=4)
    records.append(check_record(
        "gn_propagator_defect_grade4", {"lattice": "3x2", "lam": str(cfg.lam)},
        defect, defect == 0.0))

    # termination: one more order changes nothing at fixed grade
    ik6 = interacting_propagator(S, "retarded", max_grade=6)
    worst = 0.0
    for k, corr in enumerate(ik.corrections, start=1):
        other = ik6.corrections[k - 1]
        for key in set(corr.entries) | set(other.entries):
            diff = corr.get(*key) - other.get(*key)
            worst = max(worst, diff.truncate(4).max_abs())
    extra = 0
    for corr in ik6.corrections[len(ik.corrections):]:
        for e in corr.entries.values():
            extra = max(extra, e.truncate(4).max_abs())
    records.append(check_record(
        "gn_series_termination", {"grades": [4, 6]},
        max(worst, extra), worst == 0.0 and extra == 0.0))

    # lambda = 0 reduces to the free theory bit for bit
    params0 = GrossNeveuParams(ncolors=1, lam=0, m=cfg.mass)
    S0 = build_gn_action(fl, params0)
    ik0 = interacting_propagator(S0, "retarded", max_grade=4)
    same = (not ik0.corrections) and all(
        ik0.free.mat[i, j] == dR.mat[i, j]
        for i in range(fl.n_slots) for j in range(fl.n_slots))
    records.append(check_record(
        "gn_lambda_zero_reduction", {}, 0.0 if same else 1.0, same))

    # k = 1 correction against an independent dense composition
    _, W = S.second_kernel()
    n = fl.n_slots
    ring = fl.ring
    dense = {}
    for i in range(n):
        for j in range(n):
            acc = fl.algebra.zero()
            for (a, b), e in W.entries.items():
                c = ik.free.mat[i, a]
                d = ik.free.mat[b, j]
                if not c or not d:
                    continue
                acc = acc + e.scale(c * d)
            if not acc.is_zero():
                dense[(i, j)] = -acc
    worst = 0.0
    k1 = ik.corrections[0] if ik.corrections else ElementKernel(fl.algebra, n)
    for key in set(dense) | set(k1.entries):
        got = k1.get(*key)
        want = dense.get(key, fl.algebra.zero())
        worst = max(worst, (got - want).max_abs())
    records.append(check_record(
        "gn_first_correction_dense_oracle", {}, worst, worst == 0.0))

    # interacting bracket: graded antisymmetry and free reduction
    slots = rng.sample(range(fl.n_slots), 6)
    F = random_element(fl.algebra, rng, 1, 2, slots)
    G = random_element(fl.algebra, rng, 2, 2, slots)
    br_fg = interacting_bracket(S, F, G, max_grade=6)
    br_gf = interacting_bracket(S, G, F, max_grade=6)
    anti = br_fg + br_gf.scale((-1) ** (1 * 2))
    br0 = interacting_bracket(S0, F, G, max_grade=6)
    br_free = peierls_bracket(S0, delta.mat, F, G, max_grade=6)
    worst = max(anti.max_abs(), (br0 - br_free).max_abs())
    records.append(check_record(
        "gn_bracket_antisymmetry_and_free_limit", {"seed": cfg.seed},
        worst, worst == 0.0))

    # Poisson ideal with interacting generators at first series order
    interior = fl.interior_slots()
    h = {i: ring.number(rng.randint(-2, 2)) for i in rng.sample(interior, 3)}
    Fi = random_element(fl.algebra, rng, 2, 2, slots)
    Gi = random_element(fl.algebra, rng, 1, 2, slots)
    res = poisson_ideal_residual(S, Fi, h, Gi, interacting_causal(S, 6))
    worst = res.truncate(6).max_abs()
    records.append(check_record(
        "gn_poisson_ideal_interacting", {"seed": cfg.seed},
        worst, worst == 0.0))

    # canonical identity with the quartic perturbation, first order
    Hq = gn_interaction_term(fl, params)
    _, WH = build_gn_action(
        fl, GrossNeveuParams(ncolors=1, lam=1, m=cfg.mass)).second_kernel()
    sym = bracket_kernel_derivative(dR, dA, WH)
    worst = 0.0
    for _ in range(4):
        slots = rng.sample(range(fl.n_slots), 6)
        Fq = random_element(fl.algebra, rng, rng.randint(1, 2), 2, slots)
        Gq = random_element(fl.algebra, rng, rng.randint(1, 2), 2, slots)
        res = canonical_residual(Sfree, dR, dA, Hq, Fq, Gq, sym)
        worst = max(worst, res.max_abs())
    records.append(check_record(
        "gn_canonical_identity_quartic", {"seed": cfg.seed},
        worst, worst < 1e-9))

    # finite-difference oracle for the quartic kernel derivative
    fl_f, _, dRff, _, _ = _free_theory(lat, "float", float(cfg.mass))
    eps = 1e-5
    diff_parts = None
    for sgn in (+1, -1):
        p_eps = GrossNeveuParams(ncolors=1, lam=sgn * eps, m=float(cfg.mass))
        ik_eps = interacting_propagator(build_gn_action(fl_f, p_eps),
                                        "retarded", max_grade=2)
        corr = (ik_eps.corrections[0] if ik_eps.corrections
                else ElementKernel(fl_f.algebra, fl_f.n_slots))
        diff_parts = corr if diff_parts is None else diff_parts + corr.scale(-1)
    fd_corr = diff_parts.scale(1.0 / (2 * eps))
    _, WHf = build_gn_action(
        fl_f, GrossNeveuParams(ncolors=1, lam=1, m=float(cfg.mass))).second_kernel()
    sym_f = bracket_kernel_derivative(dRff, dRff, WHf)[0]
    gap = 0.0
    for key in set(fd_corr.entries) | set(sym_f.entries):
        gap = max(gap, (fd_corr.get(*key) - sym_f.get(*key)).max_abs())
    records.append(check_record(
        "gn_kernel_derivative_fd_oracle", {"step": eps}, gap, gap < 1e-6))

    # color symmetry (float, two colors)
    flc = FieldLattice(lat, 2, "float")
    params2 = GrossNeveuParams(ncolors=2, lam=float(cfg.lam), m=float(cfg.mass))
    S2 = build_gn_action(flc, params2)
    rngc = _rng(cfg, "color")
    slots2 = [flc.slot(FIELD, 1, 2, 0), flc.slot(CONJUGATE, 1, 3, 1),
              flc.slot(FIELD, 2, 2, 1), flc.slot(CONJUGATE, 2, 2, 0)]
    Fc = random_element(flc.algebra, rngc, 2, 2, slots2)
    Gc = random_element(flc.algebra, rngc, 1, 2, slots2)
    perm = {1: 2, 2: 1}
    lhs = permute_colors(flc, interacting_bracket(S2, Fc, Gc, max_grade=4), perm)
    rhs = interacting_bracket(S2, permute_colors(flc, Fc, perm),
                              permute_colors(flc, Gc, perm), max_grade=4)
    worst = (lhs - rhs).max_abs()
    records.append(check_record(
        "gn_color_symmetry", {"colors": 2}, worst, worst < 1e-12))
    return records


# -- suite: quantization --------------------------------------------------------

def suite_quant(cfg: RunConfig) -> list:
    records = []
    rng = _rng(cfg, "quant")
    fl, S, dR, dA, delta = _free_theory(Lattice(4, 2, cfg.dt, cfg.dx), "rational",
                                        cfg.mass)
    ring = fl.ring
    dirac_prop = delta.copy_with((dR.mat + dA.mat) * ring.number(Fraction(1, 2)),
                                 kind="dirac")

    # CAR for all basis pairs
    psi = list(fl.species_slots(FIELD, 1))
    psb = list(fl.species_slots(CONJUGATE, 1))
    worst = 0.0
    for i in psi:
        ei = fl.algebra.generator(i)
        for j in psb:
            ej = fl.algebra.generator(j)
            comm = star_commutator(delta, ei, ej)
            rev = star_commutator(delta, ej, ei)
            expect = fl.algebra.scalar(ring.i * delta.mat[i, j])
            bad = (comm.coefficient(1) - expect).max_abs()
            bad = max(bad, comm.coefficient(0).max_abs())
            bad = max(bad, (rev.coefficient(1) - expect).max_abs())
            for k in comm.orders():
                if k > 1:
                    bad = max(bad, comm.coefficient(k).max_abs())
            worst = max(worst, bad)
    records.append(check_record(
        "car_identity_all_basis_pairs", {"lattice": "4x2"},
        worst, worst == 0.0))

    # associativity: 200 random triples, exact
    worst = 0.0
    for _ in range(200):
        slots = rng.sample(range(fl.n_slots), 6)
        F = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        G = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        H = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        left = _star_series(delta, star_product(delta, F, G),
                            HbarSeries(fl.algebra, {0: H}))
        right = _star_series(delta, HbarSeries(fl.algebra, {0: F}),
                             star_product(delta, G, H))
        worst = max(worst, (left - right).max_abs())
    records.append(check_record(
        "star_associativity_exact", {"cases": 200, "seed": cfg.seed},
        worst, worst == 0.0))

    # hbar^0 reduction and linear classical limit
    worst = 0.0
    for _ in range(25):
        slots = rng.sample(range(fl.n_slots), 6)
        F = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        G = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        worst = max(worst, (star_product(delta, F, G).coefficient(0)
                            - F.wedge(G)).max_abs())
    for _ in range(25):
        f = {i: ring.number(rng.randint(-2, 2))
             for i in rng.sample(range(fl.n_slots), 3)}
        g = {i: ring.number(rng.randint(-2, 2))
             for i in rng.sample(range(fl.n_slots), 3)}
        F = fl.algebra.linear(f)
        G = fl.algebra.linear(g)
        comm = star_commutator(delta, F, G)
        br = peierls_bracket(S, delta.mat, F, G)
        bad = (comm.coefficient(1) - br.scale(ring.i)).max_abs()
        for k in comm.orders():
            if k != 1:
                bad = max(bad, comm.coefficient(k).max_abs())
        worst = max(worst, bad)
    records.append(check_record(
        "star_classical_reductions", {"cases": 50, "seed": cfg.seed},
        worst, worst == 0.0))

    # time ordering: exact inverse and graded symmetry of the product
    worst = 0.0
    for _ in range(10):
        slots = rng.sample(range(fl.n_slots), 8)
        F = random_element(fl.algebra, rng, 4, 3, slots)
        back = time_ordering(dirac_prop,
                             time_ordering(dirac_prop, F, "forward"),
                             "inverse")
        bad = (back.coefficient(0) - F).max_abs()
        bad = max(bad, max((back.coefficient(k).max_abs()
                            for k in back.orders() if k != 0), default=0.0))
        worst = max(worst, bad)
    for _ in range(10):
        slots = rng.sample(range(fl.n_slots), 6)
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        F = random_element(fl.algebra, rng, p, 2, slots)
        G = random_element(fl.algebra, rng, q, 2, slots)
        lhs = time_ordered_product(dirac_prop, F, G)
        rhs = time_ordered_product(dirac_prop, G, F)
        if (p * q) % 2 == 1:
            rhs = rhs.scale(-1)
        worst = max(worst, (lhs - rhs).max_abs())
    records.append(check_record(
        "time_ordering_inverse_and_symmetry", {"seed": cfg.seed},
        worst, worst == 0.0))

    # ordered supports: F strictly later than G gives the star product
    late = [i for i in range(fl.n_slots) if fl.slot_times[i] == 3]
    early = [i for i in range(fl.n_slots) if fl.slot_times[i] == 0]
    worst = 0.0
    for _ in range(10):
        F = random_element(fl.algebra, rng, rng.randint(1, 2), 2,
                           rng.sample(late, 4))
        G = random_element(fl.algebra, rng, rng.randint(1, 2), 2,
                           rng.sample(early, 4))
        tp = time_ordered_product(dirac_prop, F, G)
        sp = star_product(delta, F, G)
        ks = set(tp.orders()) | set(sp.orders())
        worst = max(worst, max(((tp.coefficient(k) - sp.coefficient(k)).max_abs()
                                for k in ks), default=0.0))
    records.append(check_record(
        "time_ordered_equals_star_on_ordered_supports", {"seed": cfg.seed},
        worst, worst == 0.0))

    # product equivalence with a random graded-symmetric kernel
    d1 = random_symmetric_kernel(fl.n_slots, rng, ring)
    worst = 0.0
    for _ in range(10):
        slots = rng.sample(range(fl.n_slots), 6)
        F = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        G = random_element(fl.algebra, rng, rng.randint(1, 3), 2, slots)
        s1 = star_h_sandwich(delta, d1, F, G)
        s2 = star_h_direct(delta, d1, F, G)
        worst = max(worst, (s1 - s2).max_abs())
        back = alpha_transform(d1, alpha_transform(d1, F, "forward"), "inverse")
        diff0 = back.coefficient(0) - F
        worst = max(worst, diff0.max_abs(),
                    max((back.coefficient(k).max_abs()
                         for k in back.orders() if k != 0), default=0.0))
    records.append(check_record(
        "star_h_equivalence", {"seed": cfg.seed}, worst, worst == 0.0))
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
    names = list(SUITES) if not names else list(names)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    records = []
    for name in names:
        for rec in SUITES[name](cfg):
            rec["suite"] = name
            records.append(rec)
    return records, all(r["passed"] for r in records)
