"""Truncated formal series arithmetic."""

import pytest

from fermifields.series import HbarSeries, TruncatedSeries


def test_truncation_flag_and_order_cap(alg6):
    """An order above ``max_order`` is dropped unflagged: ``max_order``
    records that cut, and ``truncated`` means only a grade cut."""
    a = TruncatedSeries(alg6, {0: alg6.one(), 2: alg6.generator(0)}, max_order=2)
    b = TruncatedSeries(alg6, {1: alg6.generator(1)}, max_order=2)
    prod = a.wedge(b)
    # 2 + 1 exceeds the cap
    assert not prod.truncated
    assert prod.orders() == [1]
    assert (prod.coefficient(1) - alg6.generator(1)).is_zero()
    dropped = TruncatedSeries(alg6, {0: alg6.one(), 3: alg6.generator(2)},
                              max_order=2)
    assert dropped.orders() == [0] and not dropped.truncated
    # a flagged series flags every series built from it
    flagged = TruncatedSeries(alg6, {0: alg6.one()}, max_order=2, truncated=True)
    assert flagged.wedge(b).truncated and b.wedge(flagged).truncated
    assert (flagged + b).truncated and (b - flagged).truncated
    assert (-flagged).truncated and flagged.scale(2).truncated
    assert flagged.truncate_order(0).truncated


def test_symbol_mismatch_rejected(alg6):
    lam = TruncatedSeries(alg6, {0: alg6.one()})
    hb = HbarSeries(alg6, {0: alg6.one()})
    with pytest.raises(ValueError):
        lam.wedge(hb)


def test_truncate_order(alg6):
    s = TruncatedSeries(alg6, {0: alg6.monomial((0, 1, 2)),
                               1: alg6.generator(3)})
    cut = s.truncate_order(0)
    assert cut.orders() == [0] and cut.max_order == 0 and not cut.truncated


def test_zero_coefficients_dropped(alg6):
    s = TruncatedSeries(alg6, {0: alg6.zero(), 1: alg6.generator(0)})
    assert s.orders() == [1]
