"""Lattice operators, Green's functions, supports and block structure."""

from fractions import Fraction

import numpy as np
import pytest

from fermifields.lattice import (CausalityError, DiracOperator, FieldLattice,
                                 Lattice, causal_propagator, dirac_green,
                                 dirac_matrix, free_second_derivative,
                                 green_from_bilinear, kg_green,
                                 _retarded_inverse_blocks, _space_block,
                                 _species_blocks)
from fermifields.linalg import eye, kron2, mat_inv, matmul, max_abs, zeros
from fermifields.scalars import QC, Ring


def hand_unrolled_retarded(nt, dt, m, source):
    """Independent forward recursion for the single-point operator.

    Solves [G(t) - 2G(t-1) + G(t-2)]/dt^2 + m^2 G(t) = delta_{t,source}/vol
    with vanishing past (the time part of the factorized Box at one
    spatial point), by hand.
    """
    vol = dt * dt  # dx = dt here
    g = [0.0] * nt
    for t in range(nt):
        acc = (1.0 / vol if t == source else 0.0)
        if t - 1 >= 0:
            acc += 2.0 * g[t - 1] / dt ** 2
        if t - 2 >= 0:
            acc -= g[t - 2] / dt ** 2
        g[t] = acc / (1.0 / dt ** 2 + m * m)
    for t in range(source):
        assert g[t] == 0.0
    return g


def test_lattice_validation():
    with pytest.raises(CausalityError):
        Lattice(4, 2, dt=2, dx=1)
    with pytest.raises(ValueError):
        Lattice(1, 2)
    with pytest.raises(ValueError):
        Lattice(4, 0)


def test_factorization_identity_exact():
    ring = Ring("rational")
    lat = Lattice(4, 3, Fraction(1, 2), Fraction(1))
    dop = DiracOperator(lat, Fraction(1, 3), ring)
    assert dop.factorization_defect() == 0.0


def test_rational_kernels_reject_float_mass():
    """Rational mode takes exact masses only; a float is not converted,
    also once an exact-mass solve is cached on the lattice."""
    lat = Lattice(3, 2, Fraction(1, 2), 1)
    fl = FieldLattice(lat, 1, "rational")
    with pytest.raises(TypeError, match="rational mode"):
        dirac_green(fl, 0.5, "retarded")
    with pytest.raises(TypeError, match="rational mode"):
        kg_green(lat, 0.5, "retarded", Ring("rational"))
    dirac_green(fl, 1, "retarded")
    with pytest.raises(TypeError, match="rational mode"):
        dirac_green(fl, 0.5, "retarded")
    with pytest.raises(TypeError, match="rational mode"):
        dirac_green(fl, 1.0, "advanced")


def test_kg_green_single_point_recursion():
    """Forward recursion oracle; linear growth (t - s + 1) at unit weights."""
    lat = Lattice(6, 1, 1.0, 1.0)
    g = kg_green(lat, 0.0, "retarded", Ring("float"))
    col0 = [complex(g.mat[t, 0]).real for t in range(6)]
    oracle = hand_unrolled_retarded(6, 1.0, 0.0, 0)
    assert col0 == pytest.approx(oracle)
    assert col0 == pytest.approx([1, 2, 3, 4, 5, 6])
    # shifted source column: G[t, s] = (t - s + 1) * dt^2 / vol for t >= s
    for s in range(6):
        for t in range(6):
            want = float(max(t - s + 1, 0))
            assert complex(g.mat[t, s]).real == pytest.approx(want)
    # massive case against the same independent recursion
    gm = kg_green(lat, 0.7, "retarded", Ring("float"))
    oracle = hand_unrolled_retarded(6, 1.0, 0.7, 2)
    got = [complex(gm.mat[t, 2]).real for t in range(6)]
    assert got == pytest.approx(oracle)


def test_kg_green_identity_and_support():
    ring = Ring("float")
    lat = Lattice(5, 3, 0.5, 1.0)
    m = 0.8
    dop = DiracOperator(lat, m, ring)
    g = kg_green(lat, m, "retarded", ring)
    box = np.asarray(dop.box_site, dtype=complex) + m * m * np.eye(lat.n_sites)
    vol = lat.dt * lat.dx
    defect = np.abs(vol * (box @ np.asarray(g.mat, dtype=complex))
                    - np.eye(lat.n_sites)).max()
    assert defect < 1e-10
    assert g.support_violation() == 0.0
    ga = kg_green(lat, m, "advanced", ring)
    assert ga.support_violation() == 0.0
    assert max_abs(np.asarray(ga.mat) - np.asarray(g.mat).T) == 0.0


def test_kg_green_rejects_bad_kind():
    with pytest.raises(ValueError):
        kg_green(Lattice(4, 2), 1, "sideways", Ring("float"))


def test_dirac_green_identity_on_interior_rows(fl_float):
    m = 1.0
    dR = dirac_green(fl_float, m, "retarded")
    dA = dirac_green(fl_float, m, "advanced")
    K = free_second_derivative(fl_float, m)
    n = fl_float.n_slots
    ident = np.eye(n)
    for kern in (dR, dA):
        prod = np.asarray(K.mat @ kern.mat, dtype=complex)
        assert np.abs((prod - ident)[kern.exact_rows, :]).max() < 1e-10
    # the exact-row sets are exactly the predicted interior patterns
    nt = fl_float.lattice.nt
    times = fl_float.slot_times
    species = fl_float.slot_species
    expect_R = (species == 1) | (times <= nt - 2)
    expect_A = (species == 0) | (times >= 1)
    assert (dR.exact_rows == expect_R).all()
    assert (dA.exact_rows == expect_A).all()
    # boundary rows genuinely fail: the finite lattice cannot do better
    prod = np.asarray(K.mat @ dR.mat, dtype=complex)
    assert np.abs((prod - ident)[~dR.exact_rows, :]).max() > 1e-3
    # the library defect reads the same rows
    for kern in (dR, dA):
        assert kern.identity_defect(K.mat) < 1e-10
    all_rows = dR.copy_with(dR.mat)
    all_rows.exact_rows = np.ones(n, dtype=bool)
    assert all_rows.identity_defect(K.mat) > 1e-3
    all_rows.exact_rows = None
    assert all_rows.identity_defect(K.mat) > 1e-3


def test_dirac_green_supports_and_transposes(fl_float):
    dR = dirac_green(fl_float, 1.0, "retarded")
    dA = dirac_green(fl_float, 1.0, "advanced")
    assert dR.support_violation() == 0.0
    assert dA.support_violation() == 0.0
    # retarded(x, y) = -advanced(y, x)^T exactly
    assert max_abs(np.asarray(dR.mat) + np.asarray(dA.mat).T) == 0.0
    delta = causal_propagator(dR, dA)
    dm = np.asarray(delta.mat)
    assert max_abs(dm - dm.T) == 0.0
    assert max_abs(dm) > 0.0
    # degenerate difference vanishes
    zero = causal_propagator(dR, dR.copy_with(dR.mat, "advanced"))
    assert zero.max_abs() == 0.0


def test_causal_propagator_rejects_swapped_kinds_and_mixed_rings(fl_float):
    """Swapped arguments would return -Δ, and kernels over two rings
    cannot be subtracted: both raise before any arithmetic."""
    dR = dirac_green(fl_float, 1.0, "retarded")
    dA = dirac_green(fl_float, 1.0, "advanced")
    with pytest.raises(ValueError, match="retarded then an advanced"):
        causal_propagator(dA, dR)
    with pytest.raises(ValueError, match="retarded then an advanced"):
        causal_propagator(dR, dR)
    exact = FieldLattice(Lattice(4, 2, Fraction(1, 2), 1), 1, "rational")
    with pytest.raises(ValueError, match="ring"):
        causal_propagator(dR, dirac_green(exact, 1, "advanced"))


BLOCK_FORMULA_CASES = [
    pytest.param("float", 4, 2, 0.5, 1.0, id="float-4x2"),
    pytest.param("rational", 4, 3, Fraction(1, 2), Fraction(3, 4), id="rational-4x3"),
    pytest.param("rational", 5, 4, Fraction(2, 3), Fraction(1, 3), id="rational-5x4"),
]


def _block_formula_residual(fl, dop, m_kg):
    """max |P + Dstar @ (G_KG ⊗ 1_spinor)| for the retarded block P."""
    ring = fl.ring
    gR = kg_green(fl.lattice, m_kg, "retarded", ring)
    b = fl.block
    P = dirac_green(fl, dop.m, "retarded").mat[:b, b:]
    return max_abs(P + dop.Dstar @ kron2(gR.mat, eye(2, ring)))


@pytest.mark.parametrize("mode,nt,nx,dt,m", BLOCK_FORMULA_CASES)
def test_dirac_green_block_formula(mode, nt, nx, dt, m):
    """Field/conjugate block equals -(Dstar @ (G_R ⊗ 1_spinor)): the
    lattice form of S = (iγ·∂ + m) G, exactly in rational mode.  At
    nx >= 3 the spatial Dirac term enters; a Klein-Gordon kernel at a
    shifted mass is the negative control."""
    one = 1 if mode == "rational" else 1.0
    lat = Lattice(nt, nx, dt, one)
    fl = FieldLattice(lat, 1, mode)
    dop = DiracOperator(lat, m, fl.ring)
    residual = _block_formula_residual(fl, dop, m)
    if mode == "rational":
        assert residual == 0.0
    else:
        assert residual < 1e-10
    shift = Fraction(1, 7) if mode == "rational" else 1 / 7
    assert _block_formula_residual(fl, dop, m + shift) > 1e-3


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("nt, nx, ncolors, dt", [
    (2, 1, 1, Fraction(1)), (3, 2, 2, Fraction(1, 2)), (4, 3, 1, Fraction(1, 3))],
    ids=["2x1", "3x2-2colors", "4x3"])
@pytest.mark.parametrize("m", [Fraction(3, 4), Fraction(0)], ids=["m3/4", "m0"])
def test_dirac_green_live_columns_are_its_exact_rows(mode, nt, nx, ncolors, dt, m):
    """The nonzero columns of Δᴿ are exactly its exact rows, which the
    interacting series reads as Δᴿ's live columns.  Per colour Δᴿ =
    [[0, P], [Q, 0]]: P has an invertible diagonal block at every time and
    Q is strictly retarded with an invertible first sub-diagonal block, so
    only the field slots at the last time have a zero column."""
    exact = mode == "rational"
    fl = FieldLattice(Lattice(nt, nx, dt if exact else float(dt), 1), ncolors, mode)
    dR = dirac_green(fl, m if exact else float(m), "retarded")
    assert np.array_equal(dR.mat.astype(bool).any(axis=0), dR.exact_rows)
    assert 0 < np.count_nonzero(~dR.exact_rows) < fl.n_slots


def test_dirac_matrix_is_weighted_dirac_operator():
    """dirac_matrix and DiracOperator.D share one construction:
    dirac_matrix(fl, m, w) == vol * D with equation rows scaled by w."""
    lat = Lattice(4, 3, Fraction(1, 2), 1)
    fl = FieldLattice(lat, 1, "rational")
    m = Fraction(3, 4)
    w = fl.window_weights(1, 2)
    M = dirac_matrix(fl, m, w)
    D = DiracOperator(lat, m, fl.ring).D
    vol = lat.volume_weight()
    n = fl.block
    assert M.shape == D.shape == (n, n)
    for i in range(n):
        for j in range(n):
            assert M[i, j] == vol * D[i, j] * w[i // 2]
    assert any(M[i, j] != 0 for i in range(n) for j in range(n))


def test_dirac_green_single_point_columns():
    """m = 0, one spatial point: columns are D-star applied to the scalar
    retarded Green's function column by column."""
    lat = Lattice(6, 1, 1.0, 1.0)
    fl = FieldLattice(lat, 1, "float")
    ring = fl.ring
    dop = DiracOperator(lat, 0.0, ring)
    g = kg_green(lat, 0.0, "retarded", ring)
    dR = dirac_green(fl, 0.0, "retarded")
    b = fl.block
    P = np.asarray(dR.mat[:b, b:], dtype=complex)
    gs = np.kron(np.asarray(g.mat, dtype=complex), np.eye(2))
    for col in range(b):
        want = -np.asarray(dop.Dstar, dtype=complex) @ gs[:, col]
        assert np.abs(P[:, col] - want).max() < 1e-12


def test_free_second_derivative_matches_action(fl_rat, mass):
    from fermifields.gross_neveu import build_free_action
    S = build_free_action(fl_rat, mass)
    K0, W = S.second_kernel()
    assert W.is_zero()
    K = free_second_derivative(fl_rat, mass)
    n = fl_rat.n_slots
    for i in range(n):
        for j in range(n):
            assert K0.mat[i, j] == K.mat[i, j]
    # antisymmetry of the second derivative matrix
    for i in range(n):
        for j in range(n):
            assert K.mat[i, j] == -K.mat[j, i]


def test_green_from_bilinear_perturbed(fl_float):
    """A perturbed local bilinear still yields exact interior inverses."""
    m = 1.0
    M = dirac_matrix(fl_float, m)
    pert = M.copy()
    for s in range(fl_float.lattice.n_sites):
        for c in range(2):
            row = s * 2 + c
            pert[row, row] += 0.1
    dR = green_from_bilinear(fl_float, pert)
    # direct check: assemble the second-derivative matrix of the
    # perturbed bilinear and test the interior identity
    from fermifields.gross_neveu import bilinear_element
    from fermifields.dynamics import ActionFunctional
    S = ActionFunctional(fl_float, lambda w: bilinear_element(fl_float, pert))
    K0, _ = S.second_kernel()
    n = fl_float.n_slots
    prod = np.asarray(K0.mat @ dR.mat, dtype=complex)
    assert np.abs((prod - np.eye(n))[dR.exact_rows, :]).max() < 1e-10


def test_kernel_csv_json_roundtrip(tmp_path, fl_float):
    dR = dirac_green(fl_float, 1.0, "retarded")
    dR.to_csv(tmp_path / "k.csv")
    dR.to_json(tmp_path / "k.json")
    import csv, json
    with open(tmp_path / "k.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "col", "re", "im"]
    payload = json.loads((tmp_path / "k.json").read_text())
    assert payload["kind"] == "retarded"
    assert payload["shape"] == [fl_float.n_slots, fl_float.n_slots]
    i, j, re, im = payload["entries"][0]
    assert complex(dR.mat[i, j]) == complex(re, im)


def _rational_fl_4x3():
    return FieldLattice(Lattice(4, 3, Fraction(1, 2), 1), 1, "rational")


def test_dirac_green_solves_once_per_lattice_and_mass(monkeypatch):
    """Both kinds and every equal mass share one retarded solve per
    FieldLattice; green_from_bilinear stays uncached."""
    import fermifields.lattice as lattice_mod
    from fermifields.scalars import QC
    solve = lattice_mod._retarded_inverse_blocks
    calls = []

    def counted(fl, M):
        calls.append(fl)
        return solve(fl, M)

    monkeypatch.setattr(lattice_mod, "_retarded_inverse_blocks", counted)
    fl = _rational_fl_4x3()
    dirac_green(fl, 1, "retarded")
    dirac_green(fl, Fraction(1), "advanced")
    dirac_green(fl, QC(1), "retarded")
    assert len(calls) == 1
    dirac_green(fl, Fraction(1, 2), "advanced")
    dirac_green(fl, Fraction(1, 2), "retarded")
    assert len(calls) == 2
    dirac_green(FieldLattice(fl.lattice, 1, "rational"), 1, "retarded")
    assert len(calls) == 3
    M = dirac_matrix(fl, 1)
    green_from_bilinear(fl, M)
    green_from_bilinear(fl, M)
    assert len(calls) == 5


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_memoised_dirac_green_equals_fresh_solve(mode):
    """Cached kernels equal an uncached retarded solve exactly, and the
    advanced kernel is exactly its signed transpose."""
    if mode == "rational":
        fl, m = _rational_fl_4x3(), Fraction(3, 4)
    else:
        fl, m = FieldLattice(Lattice(4, 3, 0.5, 1.0), 1, "float"), 0.75
    fresh = green_from_bilinear(fl, dirac_matrix(fl, m))
    assert fresh.kind == "retarded"
    kinds = ("retarded", "advanced", "retarded", "advanced")
    cached = {kind: dirac_green(fl, m, kind) for kind in kinds}
    for kind, got in cached.items():
        assert got.kind == kind
        assert np.all(got.mat == (fresh.mat if kind == "retarded" else -fresh.mat.T))
        assert np.array_equal(got.times, fresh.times)
    dR = cached["retarded"]
    assert np.array_equal(dR.exact_rows, fresh.exact_rows)
    assert any(dR.mat[i, j] != 0 for i in range(fl.n_slots)
               for j in range(fl.n_slots))


def test_memoised_retarded_matrix_is_read_only():
    """The retarded, advanced and causal matrices of a memoised solve are
    shared by every caller, so none of them can be written into."""
    for fl in (_rational_fl_4x3(), FieldLattice(Lattice(4, 3, 0.5, 1.0), 1, "float")):
        dR = dirac_green(fl, 1, "retarded")
        dA = dirac_green(fl, 1, "advanced")
        delta = causal_propagator(dR, dA)
        for mat in (dR.mat, dA.mat, delta.mat):
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = fl.ring.one
            with pytest.raises(ValueError, match="read-only"):
                mat[:2, :2] += fl.ring.one
        assert dirac_green(fl, 1, "advanced").mat is dA.mat
        assert causal_propagator(dR, dA).mat is delta.mat


def _same_entries(a, b):
    """Equal term for term; float parts also equal in sign, zeros included."""
    if a.dtype == object:
        return a.shape == b.shape and bool(np.all(a == b))
    return all(np.array_equal(f(a), f(b)) for f in (
        np.real, np.imag, lambda z: np.signbit(z.real), lambda z: np.signbit(z.imag)))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_tiled_advanced_and_causal_equal_reference(mode):
    """The memoised advanced and causal matrices, tiled from the retarded
    solve's lag blocks in rational mode, equal the signed transpose and
    the difference slot by slot (float: bit for bit, signed zeros too)."""
    for nt in range(2, 6):
        for nx in range(1, 4):
            for ncolors in (1, 2):
                for dt in (1, Fraction(1, 2)):
                    if mode == "rational":
                        lat, m = Lattice(nt, nx, dt, 1), Fraction(3, 4)
                    else:
                        lat, m = Lattice(nt, nx, float(dt), 1.0), 0.75
                    fl = FieldLattice(lat, ncolors, mode)
                    dR = dirac_green(fl, m, "retarded")
                    dA = dirac_green(fl, m, "advanced")
                    delta = causal_propagator(dR, dA)
                    case = (nt, nx, ncolors, dt)
                    assert _same_entries(dA.mat, -dR.mat.T), case
                    assert _same_entries(delta.mat, dR.mat - dA.mat), case


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_causal_propagator_of_other_pairs_is_the_difference(mode):
    """Only the retarded and advanced matrices of one memoised solve give
    its causal matrix; every other pair is the fresh difference, even
    where a link keyed on the lattice alone would find a solve."""
    if mode == "rational":
        lat, m1, m2 = Lattice(4, 3, Fraction(1, 2), 1), Fraction(3, 4), Fraction(1, 3)
    else:
        lat, m1, m2 = Lattice(4, 3, 0.5, 1.0), 0.75, 1 / 3
    fl, other = FieldLattice(lat, 1, mode), FieldLattice(lat, 1, mode)
    dR, dA = dirac_green(fl, m1, "retarded"), dirac_green(fl, m1, "advanced")
    pairs = [
        (dR, dirac_green(fl, m2, "advanced")),        # another mass
        (dirac_green(fl, m2, "retarded"), dA),
        (dR, dirac_green(other, m1, "advanced")),     # another FieldLattice
        (dirac_green(other, m2, "retarded"), dA),
        (dR.copy_with(dR.mat), dA),                   # copy_with kernels
        (dR, dA.copy_with(dA.mat)),
        (dR, dA.copy_with(dA.mat * 2)),
    ]
    for i, (r, a) in enumerate(pairs):
        got = causal_propagator(r, a)
        assert _same_entries(got.mat, r.mat - a.mat), i
        assert got.mat.flags.writeable, i
    assert not causal_propagator(dR, dA).mat.flags.writeable


def _time_varying_weights(fl):
    """Nonzero site weights that differ on every time slice."""
    lat = fl.lattice
    return [Fraction(lat.site_time(s) + 2, 2) for s in range(lat.n_sites)]


def _time_block(A, nb, t, s):
    return A[t * nb:(t + 1) * nb, s * nb:(s + 1) * nb]


def _is_block_toeplitz(A, nb, nt):
    return all(np.all(_time_block(A, nb, t, s) == _time_block(A, nb, t - s, 0))
               for t in range(nt) for s in range(t + 1))


@pytest.mark.parametrize("nt,nx,ncolors", [
    pytest.param(2, 3, 1, id="2x3"),
    pytest.param(5, 3, 1, id="5x3"),
    pytest.param(4, 3, 2, id="4x3-2colors"),
])
@pytest.mark.parametrize("varying", [False, True], ids=["invariant", "weighted"])
def test_retarded_inverse_blocks_exact(nt, nx, ncolors, varying):
    """P = -M^{-1} and M^T Q = Id on the rows of time <= nt-2, exactly,
    with Q strictly retarded.  A time-invariant M gives block-Toeplitz
    P and Q; per-slice weights break the shift."""
    fl = FieldLattice(Lattice(nt, nx, Fraction(1, 2), 1), ncolors, "rational")
    ring = fl.ring
    weights = _time_varying_weights(fl) if varying else None
    M = dirac_matrix(fl, Fraction(3, 4), weights)
    P, Q = _retarded_inverse_blocks(fl, M)
    assert np.all(P == -mat_inv(M))
    nb = nx * 2
    times = np.repeat(np.arange(nt), nb)
    assert all(q == 0 for q in Q[times[:, None] <= times[None, :]])
    defect = matmul(M.T, Q) - eye(fl.block, ring)
    assert all(x == 0 for x in defect[times <= nt - 2].ravel())
    assert any(x != 0 for x in defect[times == nt - 1].ravel())
    assert _is_block_toeplitz(P, nb, nt) != varying
    # at nt = 2 Q has a single nonzero block, (1, 0)
    assert _is_block_toeplitz(Q, nb, nt) != (varying and nt > 2)


@pytest.mark.parametrize("nt,nx", [(2, 3), (5, 3)])
def test_kg_green_block_toeplitz_exact(nt, nx):
    """Rational kg_green: block (t, s) is block (t - s, 0), and
    vol * (Box + m^2) @ G = Id exactly."""
    ring = Ring("rational")
    lat = Lattice(nt, nx, Fraction(1, 2), 1)
    m = Fraction(3, 4)
    G = kg_green(lat, m, "retarded", ring).mat
    assert _is_block_toeplitz(G, nx, nt)
    dop = DiracOperator(lat, m, ring)
    ns = lat.n_sites
    box = dop.box_site + eye(ns, ring) * dop.mass_sq
    vol = ring.coerce(lat.volume_weight())
    assert np.all(matmul(box, G) * vol == eye(ns, ring))


def test_retarded_inverse_blocks_mat_inv_count(monkeypatch):
    """A time-invariant M costs 2 block inverses, one diagonal and one
    transposed sub-diagonal; a time-varying M costs 2*nt - 1."""
    import fermifields.lattice as lattice_mod
    inv = lattice_mod.mat_inv
    calls = []

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(lattice_mod, "mat_inv", counted)
    fl = _rational_fl_4x3()
    nt = fl.lattice.nt
    dirac_green(fl, 1, "retarded")
    assert len(calls) == 2
    calls.clear()
    green_from_bilinear(fl, dirac_matrix(fl, 1))
    assert len(calls) == 2
    calls.clear()
    green_from_bilinear(fl, dirac_matrix(fl, 1, _time_varying_weights(fl)))
    assert len(calls) == 2 * nt - 1


# Oracles of the integer-numerator block step: the same forward
# substitution on QC entries through linalg.matmul, every source time
# stepped, and the same Klein-Gordon chain.

def _qc_retarded_inverse_blocks(fl, M):
    ring = fl.ring
    nt = fl.lattice.nt
    nb = fl.lattice.nx * 2

    def blk(t, s):
        return M[t * nb:(t + 1) * nb, s * nb:(s + 1) * nb]

    Dd_inv = [mat_inv(blk(t, t)) for t in range(nt)]
    Ms_t_inv = [None] + [mat_inv(blk(t, t - 1).T.copy())
                         for t in range(1, nt)]
    P = zeros((fl.block, fl.block), ring)
    Q = zeros((fl.block, fl.block), ring)
    for s in range(nt):
        cur = Dd_inv[s]
        P[s * nb:(s + 1) * nb, s * nb:(s + 1) * nb] = -cur
        for t in range(s + 1, nt):
            cur = -matmul(Dd_inv[t], matmul(blk(t, t - 1), cur))
            P[t * nb:(t + 1) * nb, s * nb:(s + 1) * nb] = -cur
        if s + 1 < nt:
            qblk = Ms_t_inv[s + 1]
            Q[(s + 1) * nb:(s + 2) * nb, s * nb:(s + 1) * nb] = qblk
            for t in range(s + 1, nt - 1):
                qblk = -matmul(Ms_t_inv[t + 1], matmul(blk(t, t).T, qblk))
                Q[(t + 1) * nb:(t + 2) * nb, s * nb:(s + 1) * nb] = qblk
    return P, Q


def _qc_kg_chain(lattice, m, ring):
    nt, nx, ns = lattice.nt, lattice.nx, lattice.n_sites
    Xs = _space_block(lattice, ring)
    inv_dt2 = ring.one / ring.coerce(lattice.dt ** 2)
    m_c = ring.coerce(m)
    A0 = eye(nx, ring) * (inv_dt2 + m_c * m_c) - matmul(Xs, Xs)
    A0_inv = mat_inv(A0)
    chain = [A0_inv * (ring.one / ring.coerce(lattice.volume_weight()))]
    for d in range(1, nt):
        rhs = chain[d - 1] * (-2 * inv_dt2)
        if d >= 2:
            rhs = rhs + chain[d - 2] * inv_dt2
        chain.append(-matmul(A0_inv, rhs))
    G = zeros((ns, ns), ring)
    for t in range(nt):
        for s in range(t + 1):
            G[t * nx:(t + 1) * nx, s * nx:(s + 1) * nx] = chain[t - s]
    return G


def _written_zeros(a):
    return sum(1 for x in a.ravel() if type(x) is QC and not x)


ORACLE_CASES = [
    pytest.param(2, 1, 1, id="2x1"),
    pytest.param(2, 2, 2, id="2x2-2colors"),
    pytest.param(2, 4, 1, id="2x4"),
    pytest.param(3, 4, 2, id="3x4-2colors"),
    pytest.param(10, 4, 1, id="10x4"),
]


@pytest.mark.parametrize("nt,nx,ncolors", ORACLE_CASES)
@pytest.mark.parametrize("varying", [False, True], ids=["toeplitz", "weighted"])
def test_retarded_inverse_blocks_equal_the_qc_substitution(nt, nx, ncolors, varying):
    """The integer-numerator block step gives P and Q entry for entry
    equal to the QC forward substitution, on block-Toeplitz and weighted
    M, and writes no QC zero: a slot whose sum cancels holds the int 0."""
    fl = FieldLattice(Lattice(nt, nx, Fraction(2, 3), 1), ncolors, "rational")
    weights = _time_varying_weights(fl) if varying else None
    M = dirac_matrix(fl, Fraction(5, 7), weights)
    got, want = _retarded_inverse_blocks(fl, M), _qc_retarded_inverse_blocks(fl, M)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.all(g == w)
        assert _written_zeros(g) == 0
    if not varying:
        dR = dirac_green(fl, Fraction(5, 7), "retarded").mat
        assert np.all(dR == _species_blocks(fl, *want))
        assert _written_zeros(dR) == 0


@pytest.mark.parametrize("nt,nx", [(2, 1), (2, 2), (2, 4), (10, 4)])
def test_kg_green_equals_the_qc_chain(nt, nx):
    """kg_green's integer-numerator chain equals the QC chain entry for
    entry and writes no QC zero."""
    ring = Ring("rational")
    lat = Lattice(nt, nx, Fraction(2, 3), 1)
    G = kg_green(lat, Fraction(5, 7), "retarded", ring).mat
    want = _qc_kg_chain(lat, Fraction(5, 7), ring)
    assert np.all(G == want)
    assert _written_zeros(G) == 0
