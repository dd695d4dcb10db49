"""Truncated formal series arithmetic."""

from fractions import Fraction

import pytest

from fermifields.series import HbarSeries, TruncatedSeries


def test_truncation_flag_and_order_cap(alg6):
    a = TruncatedSeries(alg6, {0: alg6.one(), 2: alg6.generator(0)}, max_order=2)
    b = TruncatedSeries(alg6, {1: alg6.generator(1)}, max_order=2)
    prod = a.wedge(b)
    # 2 + 1 exceeds the cap: dropped silently but recorded
    assert prod.truncated
    assert prod.orders() == [1]
    assert (prod.coefficient(1) - alg6.generator(1)).is_zero()
    shifted = b.shift(2)
    assert shifted.truncated and shifted.orders() == []


def test_series_at_numeric_value(alg6):
    s = TruncatedSeries(alg6, {0: alg6.scalar(1), 1: alg6.generator(0),
                               2: alg6.generator(1)}, max_order=3)
    val = s.at(Fraction(1, 2))
    want = alg6.scalar(1) + alg6.generator(0).scale(Fraction(1, 2)) \
        + alg6.generator(1).scale(Fraction(1, 4))
    assert (val - want).is_zero()


def test_symbol_mismatch_rejected(alg6):
    lam = TruncatedSeries(alg6, {0: alg6.one()})
    hb = HbarSeries(alg6, {0: alg6.one()})
    with pytest.raises(ValueError):
        lam.wedge(hb)


def test_truncate_order(alg6):
    s = TruncatedSeries(alg6, {0: alg6.monomial((0, 1, 2)),
                               1: alg6.generator(3)})
    cut = s.truncate_order(0)
    assert cut.orders() == [0] and cut.truncated


def test_zero_coefficients_dropped(alg6):
    s = TruncatedSeries(alg6, {0: alg6.zero(), 1: alg6.generator(0)})
    assert s.orders() == [1]
    json_form = s.to_json()
    assert json_form["symbol"] == "lambda"
    assert list(json_form["coefficients"]) == ["1"]
