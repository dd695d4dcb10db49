"""The one pass rule: :func:`fermifields.reports.check_record`."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fermifields.algebra import Algebra, GeneratorId
from fermifields.kernels import ElementKernel, Kernel
from fermifields.linalg import zeros
from fermifields.reports import TOL_NUM, check_record
from fermifields.scalars import Ring
from fermifields.series import TruncatedSeries


def _algebra():
    return Algebra([GeneratorId(0, 1, i, 0) for i in range(4)], mode="rational")


def test_exact_check_fails_on_any_nonzero_residual():
    alg = _algebra()
    ring = Ring("rational")
    assert not check_record("c", {}, [1e-300])["passed"]
    rec = check_record("c", {}, [alg.element({(0, 1): Fraction(1, 10**12)})])
    assert not rec["passed"] and rec["max_residual"] == 1e-12
    # nonzero rationals below the float range still fail
    tiny = Fraction(1, 10**400)
    for r in (alg.element({(2,): tiny}), ring.number(tiny)):
        rec = check_record("c", {}, [r])
        assert not rec["passed"] and rec["max_residual"] == math.ulp(0.0)
    rec = check_record("c", {}, [alg.zero(), ring.zero, 0.0])
    assert rec["passed"] and rec["max_residual"] == 0.0


@pytest.mark.parametrize("entry, worst", [(None, 0.0),
                                           (Fraction(1, 10**400), math.ulp(0.0))])
def test_exact_check_on_a_scalar_kernel(entry, worst):
    """An all-zero exact Kernel passes; one holding a nonzero rational that
    reads 0.0 as a float fails at ``math.ulp(0.0)``, as an element does."""
    ring = Ring("rational")
    mat = zeros((2, 2), ring)
    if entry is not None:
        mat[0, 1] = ring.number(entry)
    rec = check_record("c", {}, [Kernel(mat)])
    assert rec["passed"] is (entry is None) and rec["max_residual"] == worst


def test_float_check_passes_strictly_below_tol():
    assert not check_record("c", {}, [TOL_NUM], TOL_NUM)["passed"]
    below = math.nextafter(TOL_NUM, 0.0)
    rec = check_record("c", {}, [below], TOL_NUM)
    assert rec["passed"] and rec["max_residual"] == below


def test_mixed_residuals_fold_to_their_largest_max_abs():
    alg = _algebra()
    ring = Ring("rational")
    element = alg.element({(0,): Fraction(1, 2)})
    series = TruncatedSeries(alg, {1: alg.element({(1,): 2})}, 2)
    kernel = ElementKernel(alg, 2, {(0, 1): alg.element({(0, 3): -3})})
    residuals = [element, series, kernel, 0.25, ring.number(Fraction(3, 2))]
    for tol in (None, 4.0):
        assert check_record("c", {}, residuals, tol)["max_residual"] == 3.0
    assert check_record("c", {}, residuals, 4.0)["passed"]
    assert not check_record("c", {}, residuals, 3.0)["passed"]


def test_no_residuals_read_zero_and_pass():
    for tol in (None, TOL_NUM):
        rec = check_record("c", {}, [], tol)
        assert rec["passed"] and rec["max_residual"] == 0.0
        rec = check_record("c", {}, iter(()), tol)
        assert rec["passed"] and rec["max_residual"] == 0.0


def test_nan_residual_fails():
    """A NaN anywhere in a residual fails it, not only a NaN met first."""
    nan = float("nan")
    alg = Algebra([GeneratorId(0, 1, i, 0) for i in range(4)], mode="float")
    small = alg.element({(): 1e-12})
    cases = [
        [0.5, nan, 0.25],
        [alg.element({(0,): 1e-12, (1,): nan})],
        [TruncatedSeries(alg, {1: small, 2: alg.element({(1,): nan})}, 2)],
        [ElementKernel(alg, 2, {(0, 0): small, (0, 1): alg.element({(0, 1): nan})})],
        [Kernel(np.array([[1e-12, nan]], dtype=complex))],
    ]
    for residuals in cases:
        for tol in (None, TOL_NUM, 1.0):
            rec = check_record("c", {}, residuals, tol)
            assert not rec["passed"] and math.isnan(rec["max_residual"])
