"""ElementKernel compositions against an entrywise element reference,
Kernel's whole-array reads against the per-entry loops they replaced, and
the rule that arrays and kernels carry their own arithmetic."""

import csv
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fermifields.algebra import Algebra, GeneratorId, GrassmannElement
from fermifields.gross_neveu import (GrossNeveuParams, build_free_action,
                                     build_gn_action, interacting_propagator)
from fermifields.kernels import ElementKernel, Kernel
from fermifields.lattice import (FieldLattice, Lattice, causal_propagator,
                                 dirac_green, dirac_matrix, free_second_derivative,
                                 green_from_bilinear, kg_green)
from fermifields.linalg import eye, kron2, mat_inv, matmul, max_abs, ring_of, zeros
from fermifields.scalars import QC, Ring

N = 4
MODES = ("rational", "float")


def _algebra(mode):
    return Algebra([GeneratorId(0, 1, i, 0) for i in range(7)], mode=mode)


def _coeff(ring, rng):
    # Mostly real values of either sign: in float mode their products
    # carry signed zeros, which show any change in summation order.
    re = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 4]))
    im = rng.choice([Fraction(0), Fraction(0), Fraction(rng.randint(-2, 2), 3)])
    return ring.number(re, im)


def _element(alg, rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        w = tuple(sorted(rng.sample(range(alg.n), rng.choice((0, 2, 2, 4)))))
        terms[w] = _coeff(alg.ring, rng)
    return alg.element(terms)


def _kernel(alg, rng, density=0.5):
    return ElementKernel(alg, N, {(i, j): _element(alg, rng)
                                  for i in range(N) for j in range(N)
                                  if rng.random() < density})


def _matrix(ring, rng):
    mat = zeros((N, N), ring)
    for i in range(N):
        for j in range(N):
            if rng.random() < 0.6:
                mat[i, j] = _coeff(ring, rng)
    return mat


# -- reference: entry products as elements, added with ``+`` -----------------

def _add(out, key, term):
    out[key] = out[key] + term if key in out else term


def _ref_compose(a, b):
    out = {}
    for (i, k), e in a.entries.items():
        for (k2, j), f in b.entries.items():
            if k2 == k:
                prod = e.wedge(f)
                if not prod.is_zero():
                    _add(out, (i, j), prod)
    return ElementKernel(a.algebra, a.n, out)


def _ref_scalar_left(mat, kern):
    out = {}
    for (k, j), e in kern.entries.items():
        for i in range(kern.n):
            if mat[i, k]:
                _add(out, (i, j), e.scale(mat[i, k]))
    return ElementKernel(kern.algebra, kern.n, out)


def _ref_scalar_right(kern, mat):
    out = {}
    for (i, k), e in kern.entries.items():
        for j in range(kern.n):
            if mat[k, j]:
                _add(out, (i, j), e.scale(mat[k, j]))
    return ElementKernel(kern.algebra, kern.n, out)


def _assert_same(got, ref):
    """Rational: equal entries.  Float: the same floats, words in the same order."""
    if got.algebra.ring.exact:
        assert got.entries.keys() == ref.entries.keys()
        assert all(got.entries[k] == e for k, e in ref.entries.items())
    else:
        def snapshot(kern):
            return [(key, [(w, repr(c)) for w, c in e.items()])
                    for key, e in kern.entries.items()]
        assert snapshot(got) == snapshot(ref)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(4))
def test_compositions_match_element_reference(mode, seed):
    rng = random.Random(seed)
    alg = _algebra(mode)
    a, b = _kernel(alg, rng), _kernel(alg, rng)
    mat = _matrix(alg.ring, rng)
    _assert_same(a.compose(b), _ref_compose(a, b))
    _assert_same(a.compose_scalar_left(mat), _ref_scalar_left(mat, a))
    _assert_same(a.compose_scalar_right(mat), _ref_scalar_right(a, mat))
    # a composition's output feeds the next one, as in the GN series
    ab = a.compose(b)
    _assert_same(ab.compose(a), _ref_compose(_ref_compose(a, b), a))


@pytest.mark.parametrize("mode", MODES)
def test_compositions_match_element_reference_at_3x3(mode):
    """W = S_int^(2) and Δᴿ at 3×3 with two colours, where the spatial Dirac
    term enters and W's entries hold up to three words: an entry of W·(WΔᴿ)
    or Δᴿ(WΔᴿ) sums up to 25 products, so float summation order shows.
    (With one colour W·(WΔᴿ) is 0 and W's entries hold one word.)"""
    m = Fraction(3, 4) if mode == "rational" else 0.75
    fl = FieldLattice(Lattice(3, 3, 1, 1), 2, mode)
    _, W = build_gn_action(fl, GrossNeveuParams(lam=Fraction(1, 8), m=m)).second_kernel()
    dR = dirac_green(fl, m, "retarded").mat
    right = W.compose_scalar_right(dR)
    _assert_same(W.compose_scalar_left(dR), _ref_scalar_left(dR, W))
    _assert_same(right, _ref_scalar_right(W, dR))
    _assert_same(right.compose_scalar_left(dR), _ref_scalar_left(dR, right))
    composed = W.compose(right)
    assert not composed.is_zero()
    _assert_same(composed, _ref_compose(W, right))


@pytest.mark.parametrize("mode", MODES)
def test_compositions_drop_cancelled_words_and_entries(mode):
    alg = _algebra(mode)
    ring = alg.ring
    x, y, z = (alg.monomial(w) for w in ((0, 1), (2, 3), (4, 5)))
    a = ElementKernel(alg, 2, {(0, 0): x, (0, 1): x})
    b = ElementKernel(alg, 2, {(0, 0): y, (1, 0): -y, (0, 1): y, (1, 1): z - y})
    got = a.compose(b)
    # (0, 0): x∧y − x∧y = 0;  (0, 1): x∧y + x∧(z − y) = x∧z
    assert (0, 0) not in got.entries
    assert list(got.entries[(0, 1)].items()) == [((0, 1, 4, 5), ring.one)]
    _assert_same(got, _ref_compose(a, b))

    mat = zeros((2, 2), ring)
    mat[0, 0], mat[0, 1], mat[1, 1] = ring.one, -ring.one, ring.one
    k = ElementKernel(alg, 2, {(0, 0): x, (1, 0): x, (1, 1): y})
    left = k.compose_scalar_left(mat)      # (0, 0): x − x = 0
    assert (0, 0) not in left.entries
    _assert_same(left, _ref_scalar_left(mat, k))
    right = k.transpose().compose_scalar_right(mat.T)
    assert (0, 0) not in right.entries
    _assert_same(right, _ref_scalar_right(k.transpose(), mat.T))


@pytest.mark.parametrize("mode", MODES)
def test_compose_skips_exact_zero_terms_of_a_product(mode):
    """(x01 + x23)∧(x23 − x01 + x45) holds x0123 with coefficient exactly 0.
    That word is neither stored nor added: in float mode adding 0j would
    turn the −0.0 imaginary part of the −2 already there into +0.0."""
    alg = _algebra(mode)
    ring = alg.ring
    x01, x23, x45 = (alg.monomial(w) for w in ((0, 1), (2, 3), (4, 5)))
    a = ElementKernel(alg, 2, {(0, 0): -x01, (0, 1): x01 + x23, (1, 1): x01 + x23})
    b = ElementKernel(alg, 2, {(0, 0): x23.scale(2), (1, 0): x23 - x01 + x45})
    got = a.compose(b)
    minus_two = ring.number(-2) if ring.exact else complex(-2.0, -0.0)

    def items(key):
        return [(w, repr(c)) for w, c in got.entries[key].items()]

    one = repr(ring.one)
    assert items((1, 0)) == [((0, 1, 4, 5), one), ((2, 3, 4, 5), one)]
    assert items((0, 0)) == [((0, 1, 2, 3), repr(minus_two)),
                             ((0, 1, 4, 5), one), ((2, 3, 4, 5), one)]
    _assert_same(got, _ref_compose(a, b))


@pytest.mark.parametrize("mode", MODES)
def test_compositions_with_empty_kernel(mode):
    rng = random.Random(7)
    alg = _algebra(mode)
    empty = ElementKernel(alg, N)
    k = _kernel(alg, rng)
    mat = _matrix(alg.ring, rng)
    for out in (empty.compose(k), k.compose(empty), empty.compose(empty),
                empty.compose_scalar_left(mat), empty.compose_scalar_right(mat)):
        assert out.is_zero() and out.n == N


def test_interacting_propagator_orders_do_not_depend_on_max_grade(fl_rat, mass):
    """A larger ``max_grade`` only appends orders, so one series serves
    every smaller cap (``gn-series`` reads both from one series)."""
    S = build_gn_action(fl_rat, GrossNeveuParams(lam=Fraction(1, 4), m=mass))
    ik8 = interacting_propagator(S, 8)
    ik6 = interacting_propagator(S, 6)
    assert len(ik8.corrections) == 4 and len(ik6.corrections) == 3
    for c8, c6 in zip(ik8.corrections, ik6.corrections):
        assert c8.entries.keys() == c6.entries.keys()
        assert all(c8.entries[k] == e for k, e in c6.entries.items())


# -- reference: Kernel's reads one entry at a time ------------------------------
# These are the per-entry loops that Kernel and linalg.max_abs ran before
# they read the whole array through ``astype(complex)``.

def _ref_max_abs(a):
    flat = a.ravel()
    if flat.size == 0:
        return 0.0
    return max(abs(complex(x)) for x in flat)


def _ref_support_violation(k):
    if k.times is None:
        return 0.0
    if k.kind == "retarded":
        bad = k.times[:, None] < k.times[None, :]
    elif k.kind == "advanced":
        bad = k.times[:, None] > k.times[None, :]
    else:
        return 0.0
    worst = 0.0
    rows, cols = np.nonzero(bad)
    for i, j in zip(rows, cols):
        worst = max(worst, abs(complex(k.mat[i, j])))
    return worst


def _ref_identity_defect(k, op):
    prod = matmul(op, k.mat)
    rows = k.exact_rows
    worst = 0.0
    for i in range(prod.shape[0]):
        if rows is not None and not rows[i]:
            continue
        row = prod[i]
        for j in range(prod.shape[1]):
            worst = max(worst, abs(complex(row[j]) - (1 if i == j else 0)))
    return worst


def _ref_to_csv(k, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "re", "im"])
        n, m = k.mat.shape
        for i in range(n):
            for j in range(m):
                c = complex(k.mat[i, j])
                if c != 0:
                    writer.writerow([i, j, repr(c.real), repr(c.imag)])


def _ref_to_json(k, path):
    n, m = k.mat.shape
    entries = []
    for i in range(n):
        for j in range(m):
            c = complex(k.mat[i, j])
            if c != 0:
                entries.append([i, j, c.real, c.imag])
    payload = {"kind": k.kind, "shape": [n, m], "entries": entries}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def _read_matrix(ring, rng, n=6):
    """A matrix whose float entries often carry a -0.0 part, and whose
    exact empty slots hold the int 0; one exact slot holds a written
    ``QC`` zero, as a cancelled sum leaves."""
    mat = zeros((n, n), ring)
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                continue
            if ring.exact:
                mat[i, j] = _coeff(ring, rng)
            else:
                parts = [0.0, -0.0, rng.choice([-1.5, 0.25, 3.0]) * rng.random()]
                mat[i, j] = complex(rng.choice(parts), rng.choice(parts))
    if ring.exact:
        mat[n - 1, 0] = ring.zero
    return mat


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["retarded", "advanced", "causal"])
@pytest.mark.parametrize("exact_rows", ["set", "unset"])
@pytest.mark.parametrize("seed", range(3))
def test_kernel_reads_match_per_entry_loops(tmp_path, mode, kind, exact_rows, seed):
    """support_violation, identity_defect and max_abs give the loops' float
    bits; to_csv and to_json write the loops' bytes."""
    ring = Ring(mode)
    rng = random.Random(f"{mode}:{kind}:{exact_rows}:{seed}")
    times = np.arange(6) // 2
    rows = np.array([rng.random() < 0.6 for _ in times]) if exact_rows == "set" else None
    k = Kernel(_read_matrix(ring, rng), kind, times, rows)
    op = _read_matrix(ring, rng)
    if not ring.exact:
        assert any(np.signbit(x.real) or np.signbit(x.imag)
                   for x in k.mat.ravel().tolist() if x != 0)
    else:
        assert any(type(x) is int for x in k.mat.ravel().tolist())
    assert repr(k.support_violation()) == repr(_ref_support_violation(k))
    assert repr(k.identity_defect(op)) == repr(_ref_identity_defect(k, op))
    assert repr(k.max_abs()) == repr(_ref_max_abs(k.mat))
    for a in (k.mat, op, matmul(op, k.mat), k.mat[:0]):
        assert repr(max_abs(a)) == repr(_ref_max_abs(a))
    for write, ref in ((Kernel.to_csv, _ref_to_csv), (Kernel.to_json, _ref_to_json)):
        write(k, tmp_path / "got")
        ref(k, tmp_path / "want")
        assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


@pytest.mark.parametrize("slot", [(1, 1), (1, 2)], ids=["diagonal", "off-diagonal"])
def test_identity_defect_sees_a_rational_below_the_float_range(slot):
    """The rational identity moved by 10⁻⁴⁰⁰ at one slot, on the diagonal
    or off it, has a nonzero defect against ``eye``: δ is subtracted in
    the ring, before ``max_abs`` reads the residual.  With that row
    outside ``exact_rows`` the defect is 0.0."""
    ring = Ring("rational")
    mat = eye(3, ring)
    mat[slot] = ring.number((slot[0] == slot[1]) + Fraction(1, 10**400))
    assert Kernel(mat).identity_defect(eye(3, ring)) == math.ulp(0.0)
    rows = np.array([True, False, True])
    assert Kernel(mat, exact_rows=~rows).identity_defect(eye(3, ring)) == math.ulp(0.0)
    assert Kernel(mat, exact_rows=rows).identity_defect(eye(3, ring)) == 0.0


# -- values carry their arithmetic ---------------------------------------------

def _bits(v):
    """A scalar's exact triple, or a complex float's parts with their signs."""
    return v._abd if isinstance(v, QC) else (v.real.hex(), v.imag.hex())


def _ring_matrix(ring, rng, n, m, density=1.0):
    """An n x m ring array; entries left out hold the zeros of ``zeros``."""
    a = zeros((n, m), ring)
    for i in range(n):
        for j in range(m):
            if rng.random() < density:
                a[i, j] = ring.number(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)),
                                      Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return a


@pytest.mark.parametrize("mode", MODES)
def test_values_carry_their_arithmetic(mode):
    """A kernel reads its ring from its matrix and holds its slot or site
    times; ``matmul``, ``mat_inv`` and ``kron2`` run exact arithmetic on
    object arrays and give numpy's bits on complex ones; a term-dict sum
    into a word the element lacks starts from the int 0, with the bits of
    ``0j ± c`` in float mode."""
    ring = Ring(mode)
    h, m = (Fraction(1, 2), Fraction(3, 4)) if ring.exact else (0.5, 0.75)
    fl = FieldLattice(Lattice(4, 3, h, 1), 1, mode)
    lat = fl.lattice
    dR, dA = dirac_green(fl, m, "retarded"), dirac_green(fl, m, "advanced")
    kernels = [(k, fl.slot_times) for k in (
        dR, dA, causal_propagator(dR, dA), green_from_bilinear(fl, dirac_matrix(fl, m)),
        free_second_derivative(fl, m), build_free_action(fl, m).second_kernel()[0])]
    kernels += [(kg_green(lat, m, kind, ring), lat.site_times())
                for kind in ("retarded", "advanced")]
    for k, times in kernels:
        assert k.ring.mode == mode and ring_of(k.mat).mode == mode
        assert np.array_equal(k.times, times)

    rng = random.Random(f"arith:{mode}")
    a, b = _ring_matrix(ring, rng, 4, 4), _ring_matrix(ring, rng, 4, 3, density=0.6)
    if ring.exact:
        assert a.dtype == b.dtype == object
        exact = (QC, int)
        prod = matmul(a, b)
        assert all(type(x) in exact for x in prod.ravel())
        assert all(x == y for x, y in zip(prod.ravel(), (a @ b).ravel()))
        inv = mat_inv(a)
        assert all(type(x) in exact for x in inv.ravel())
        assert all(x == (1 if i == j else 0) for (i, j), x in np.ndenumerate(matmul(a, inv)))
        kr = kron2(a, b)
        assert all(type(x) in exact for x in kr.ravel())
        assert all(x == y for x, y in zip(kr.ravel(), np.kron(a, b).ravel()))
    else:
        assert a.dtype == b.dtype == complex
        # kron2 forms numpy's scalar products; np.kron's vectorised ones
        # can round differently in the last bit
        rb, cb = b.shape
        products = np.array([[a[i // rb, j // cb] * b[i % rb, j % cb]
                              for j in range(a.shape[1] * cb)]
                             for i in range(a.shape[0] * rb)])
        for got, want in ((matmul(a, b), a @ b), (mat_inv(a), np.linalg.inv(a)),
                          (kron2(a, b), products)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    alg = _algebra(mode)
    w = (1, 2)
    coeffs = ([ring.number(Fraction(-1, 3), 2), ring.number(0, Fraction(5, 2))]
              if ring.exact else [complex(-0.0, -0.0), complex(-0.0, 1.5),
                                  complex(2.0, -0.0), complex(-0.0, -2.5)])
    for c in coeffs:
        x = GrassmannElement(alg, {w: c})
        for got, want in ((alg.zero() + x, ring.zero + c), (alg.zero() - x, ring.zero - c)):
            assert {u: _bits(v) for u, v in got.items()} == ({w: _bits(want)} if want else {})
