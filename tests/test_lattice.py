"""Lattice operators, Green's functions, supports and block structure."""

from fractions import Fraction

import numpy as np
import pytest

from fermifields.lattice import (CausalityError, DiracOperator, FieldLattice,
                                 Lattice, causal_propagator, dirac_green,
                                 dirac_matrix, free_second_derivative,
                                 green_from_bilinear, kg_green)
from fermifields.linalg import eye, kron2, max_abs
from fermifields.scalars import Ring


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
    return max_abs(P + dop.Dstar @ kron2(gR.mat, eye(2, ring), ring))


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
    dR = green_from_bilinear(fl_float, pert, "retarded")
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
    green_from_bilinear(fl, M, "retarded")
    green_from_bilinear(fl, M, "retarded")
    assert len(calls) == 5


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_memoised_dirac_green_equals_fresh_solve(mode):
    """Cached kernels equal an uncached solve exactly, and the advanced
    kernel is exactly the signed transpose of the retarded one."""
    if mode == "rational":
        fl, m = _rational_fl_4x3(), Fraction(3, 4)
    else:
        fl, m = FieldLattice(Lattice(4, 3, 0.5, 1.0), 1, "float"), 0.75
    M = dirac_matrix(fl, m)
    kinds = ("retarded", "advanced", "retarded", "advanced")
    cached = {kind: dirac_green(fl, m, kind) for kind in kinds}
    for kind, got in cached.items():
        fresh = green_from_bilinear(fl, M, kind)
        assert got.kind == fresh.kind == kind
        assert np.all(got.mat == fresh.mat)
        assert np.array_equal(got.exact_rows, fresh.exact_rows)
        assert np.array_equal(got.row_times, fresh.row_times)
    dR, dA = cached["retarded"], cached["advanced"]
    assert np.all(dA.mat == -dR.mat.T)
    assert any(dR.mat[i, j] != 0 for i in range(fl.n_slots)
               for j in range(fl.n_slots))


def test_memoised_retarded_matrix_is_read_only():
    fl = _rational_fl_4x3()
    dR = dirac_green(fl, 1, "retarded")
    with pytest.raises(ValueError, match="read-only"):
        dR.mat[0, 0] = fl.ring.one
    with pytest.raises(ValueError, match="read-only"):
        dR.mat[:2, :2] += fl.ring.one
    # the advanced kernel is a fresh array; writing it leaves the cache alone
    dA = dirac_green(fl, 1, "advanced")
    dA.mat[0, 1] = fl.ring.one
    assert dirac_green(fl, 1, "advanced").mat[0, 1] == -dR.mat[1, 0]
