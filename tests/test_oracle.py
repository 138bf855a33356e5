from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethykit.errors import LengthExceedsDimension
from plethykit.hookcontent import p_poly
from plethykit.oracle import _vandermonde, specialize_bialternant, specialize_ssyt
from plethykit.partition import b_statistic, complement, partitions_of, weight
from plethykit.qpoly import ONE, QPolynomial, q_analog

from .test_partition import partitions


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (destroys m): the
    elimination reference for the Vandermonde product."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            for r in range(c + 1, n):
                if m[r][c]:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[c][c]
        crow = m[c]
        for r in range(c + 1, n):
            row = m[r]
            head = row[c]
            for cc in range(c + 1, n):
                row[cc] = (row[cc] * pivot - head * crow[cc]) // prev
            row[c] = 0
        prev = pivot
    return sign * m[-1][-1]


def _vandermonde_matrix(nodes):
    return [[y**j for j in range(len(nodes))] for y in nodes]


def test_vandermonde_matches_elimination_exhaustively_small():
    # Every exponent set of up to five rows below 8, with nodes packed as
    # in specialize_bialternant, in its descending order and ascending.
    for bits in (1, 64):
        for k in range(6):
            for exps in combinations(range(8), k):
                for order in (exps, exps[::-1]):
                    nodes = [1 << (bits * e) for e in order]
                    reference = _bareiss_det(_vandermonde_matrix(nodes))
                    assert _vandermonde(nodes) == reference, (bits, order)
    # The reference itself, where elimination must swap rows or stop.
    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    assert _bareiss_det([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 0


@given(st.lists(st.integers(-50, 50), max_size=6, unique=True))
def test_vandermonde_matches_elimination_on_distinct_nodes(nodes):
    det = _vandermonde(nodes)
    assert det == _bareiss_det(_vandermonde_matrix(nodes))
    assert det != 0


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


def _fillings_reference(p, d):
    """s_p(1, q, ..., q^d) by visiting every semistandard filling of p with
    entries in {1..d+1}: rows weakly increase, columns strictly increase."""
    cells = [(i, j) for i, row_len in enumerate(p) for j in range(row_len)]
    rows = [[0] * row_len for row_len in p]
    coeffs = [0] * (weight(p) * d + 1)

    def fill(t, exponent):
        if t == len(cells):
            coeffs[exponent] += 1
            return
        i, j = cells[t]
        low = max(rows[i][j - 1] if j else 1, rows[i - 1][j] + 1 if i else 1)
        for val in range(low, d + 2):
            rows[i][j] = val
            fill(t + 1, exponent + val - 1)

    fill(0, 0)
    return QPolynomial(coeffs)


def test_routes_agree_exhaustively_small():
    for d in range(5):
        for n in range(7):
            for p in partitions_of(n, d + 1):
                reference = _fillings_reference(p, d)
                assert specialize_bialternant(p, d) == reference, (p, d)
                assert specialize_ssyt(p, d) == reference, (p, d)


def test_shared_memo_matches_a_fresh_memo_for_every_d():
    # One memo passed along the d loop of a shape, as oracle-check does.
    lam, top = (3, 2, 2, 1), 9
    shared = {}
    for d in range(len(lam) - 1, top + 1):
        assert specialize_ssyt(lam, d, shared) == specialize_ssyt(lam, d), d
    # The padded shapes of (lam, d) all recur under (lam, d + 1), so the
    # shared memo holds exactly what one call at the largest d builds.
    fresh = {}
    specialize_ssyt(lam, top, fresh)
    assert shared == fresh


def test_ssyt_past_the_old_budget():
    # (6, 6) has 32,821,152 fillings with entries <= 13: too many to visit
    # one at a time, so the route must count them without enumerating.
    f = specialize_ssyt((6, 6), 12)
    assert f == p_poly((6, 6), 12).shifted(b_statistic((6, 6)))
    assert f.eval_at_one() == 32_821_152


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
