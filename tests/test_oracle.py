from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethykit import oracle
from plethykit.errors import BudgetExceeded, LengthExceedsDimension
from plethykit.hookcontent import p_poly
from plethykit.oracle import specialize_bialternant, specialize_ssyt
from plethykit.partition import b_statistic, complement, partitions_of, weight
from plethykit.qpoly import ONE, QPolynomial, q_analog

from .test_partition import partitions


def test_bialternant_known_values():
    assert specialize_bialternant((), 3) == ONE
    # s_(1)(1, q, q^2) = 1 + q + q^2
    assert specialize_bialternant((1,), 2) == q_analog(3)
    # s_(2)(1, q) = 1 + q + q^2
    assert specialize_bialternant((2,), 1) == q_analog(3)
    # s_(1,1)(1, q) = q
    assert specialize_bialternant((1, 1), 1) == QPolynomial([0, 1])
    # s_(2,2)(1, q) = q^2
    assert specialize_bialternant((2, 2), 1) == QPolynomial([0, 0, 1])
    with pytest.raises(LengthExceedsDimension):
        specialize_bialternant((1, 1), 0)


def test_ssyt_known_values():
    assert specialize_ssyt((), 2) == ONE
    assert specialize_ssyt((1,), 2) == q_analog(3)
    assert specialize_ssyt((2, 2), 1) == QPolynomial([0, 0, 1])
    assert specialize_ssyt((2,), 3).eval_at_one() == 10
    assert specialize_ssyt((1, 1, 1), 2).eval_at_one() == 1
    with pytest.raises(LengthExceedsDimension):
        specialize_ssyt((1, 1), 0)


def test_budget_is_enforced(monkeypatch):
    assert oracle.FILLING_BUDGET == 10_000_000
    # (2,) has exactly 10 fillings with entries <= 4.
    monkeypatch.setattr(oracle, "FILLING_BUDGET", 9)
    with pytest.raises(BudgetExceeded):
        specialize_ssyt((2,), 3)
    # exactly at the count is fine
    monkeypatch.setattr(oracle, "FILLING_BUDGET", 10)
    assert specialize_ssyt((2,), 3).eval_at_one() == 10


def test_routes_agree_exhaustively_small():
    for d in range(5):
        for n in range(7):
            for p in partitions_of(n, d + 1):
                assert specialize_bialternant(p, d) == specialize_ssyt(p, d)


@settings(deadline=None)
@given(partitions(max_weight=8, max_parts=4), st.integers(0, 5))
def test_routes_agree_and_match_hook_content(p, d):
    if len(p) > d + 1:
        return
    direct = specialize_bialternant(p, d)
    assert direct == specialize_ssyt(p, d)
    # The specialization is q^b(p) times the hook-content polynomial.
    assert direct == p_poly(p, d).shifted(b_statistic(p))


@given(partitions(max_weight=8, max_parts=4), st.integers(0, 5))
def test_eval_at_one_counts_tableaux(p, d):
    if len(p) > d + 1:
        return
    assert specialize_bialternant(p, d).eval_at_one() == specialize_ssyt(p, d).eval_at_one()


@given(partitions(max_weight=8, max_parts=4), st.integers(0, 5))
def test_complement_reverses_the_specialization(p, d):
    # Complementation in the (d+1)-row box mirrors the coefficient list.
    if len(p) > d + 1 or not p:
        return
    comp = complement(p, d + 1)
    f = specialize_bialternant(p, d)
    g = specialize_bialternant(comp, d)
    assert f.reverse().shifted(b_statistic(comp)) == g


def test_bialternant_handles_wide_rows():
    # Coefficients here exceed 2^64 territory only for huge shapes, but the
    # packing must stay collision free for the largest acceptance shapes.
    f = specialize_bialternant((8,), 6)
    g = specialize_ssyt((8,), 6)
    assert f == g
    # a single row of 8 cells with entries <= 7: C(8 + 6, 6) fillings
    assert f.eval_at_one() == comb(14, 6)
