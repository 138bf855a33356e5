from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plethykit.errors import NotSLIsomorphic, ZeroWeight
from plethykit.partition import add, weight
from plethykit.plethysm import SLInstance, dual, normalize
from plethykit.twist import (
    TwistSolution,
    _min_y_solution,
    nu2,
    nu2_obstruction,
    solve_twist,
    verify_twist,
)

from .test_plethysm import sl_instances


@st.composite
def sl_isomorphic_pairs(draw):
    kind = draw(st.sampled_from(["same", "dual", "normalize", "hermite", "pad"]))
    if kind == "hermite":
        p = draw(st.integers(1, 5))
        q = draw(st.integers(1, 5))
        return SLInstance((p,), q), SLInstance((q,), p)
    a = draw(sl_instances(max_weight=6, max_d=4))
    if kind == "same":
        return a, a
    if kind == "dual":
        return a, dual(a)
    if kind == "normalize":
        return a, normalize(a)
    k = draw(st.integers(0, 2))
    return a, SLInstance(add(a.lam, (k,) * (a.d + 1)), a.d)


def _brute_min_key(a, b, bound, y_cap):
    """Independent minimal-key search over the same (l, m) grid."""
    wl, wm, d, e = weight(a.lam), weight(b.lam), a.d, b.d
    best = None
    for y in range(y_cap + 1):
        for l in range(bound + 1):
            for m in range(bound + 1):
                rhs = (wm + m * (e + 1)) * (e + 2 * y)
                big_b = wl + l * (d + 1)
                if big_b == 0:
                    if rhs == 0:
                        key = (y, 0, l, m)
                        best = key if best is None else min(best, key)
                    continue
                q, r = divmod(rhs, big_b)
                if r or q < d or (q - d) % 2:
                    continue
                key = (y, (q - d) // 2, l, m)
                best = key if best is None else min(best, key)
    return best


def test_twist_solution_fields():
    t = TwistSolution(1, 2, 3, 4)
    assert (t.l, t.m, t.x, t.y) == (1, 2, 3, 4)
    assert tuple(t) == (1, 2, 3, 4)


def test_min_y_solution_known_values():
    # 3y - 2x = 1: y=1, x=1
    assert _min_y_solution(3, 2, 1) == (1, 1)
    # 4y - 6x = 2: smallest y is 2, giving x = 1
    assert _min_y_solution(4, 6, 2) == (1, 2)
    assert _min_y_solution(4, 6, 1) is None  # gcd 2 does not divide 1
    assert _min_y_solution(0, 0, 0) == (0, 0)
    assert _min_y_solution(0, 0, 5) is None
    assert _min_y_solution(0, 3, -6) == (2, 0)
    assert _min_y_solution(0, 3, 6) is None
    assert _min_y_solution(3, 0, 6) == (0, 2)
    assert _min_y_solution(3, 0, -6) is None


@given(st.integers(0, 30), st.integers(0, 30), st.integers(-200, 200))
def test_min_y_solution_matches_brute_force(a, b, c):
    got = _min_y_solution(a, b, c)
    expected = None
    for y in range(400):
        if a * y - c < 0:
            if b > 0:
                continue
        if b == 0:
            if a * y == c:
                expected = (0, y)
                break
            continue
        if (a * y - c) % b == 0 and (a * y - c) // b >= 0:
            expected = ((a * y - c) // b, y)
            break
    assert got == expected
    if got is not None:
        x, y = got
        assert x >= 0 and y >= 0
        assert a * y - b * x == c


def test_solve_twist_witness_pair():
    a = SLInstance((2,), 2)
    b = SLInstance((1, 1), 3)
    sol = solve_twist(a, b)
    assert sol == TwistSolution(l=1, m=2, x=2, y=0)
    # both sides of the twisted weight equation come to 30
    assert (weight(a.lam) + sol.l * (a.d + 1)) * (a.d + 2 * sol.x) == 30
    assert (weight(b.lam) + sol.m * (b.d + 1)) * (b.d + 2 * sol.y) == 30
    assert verify_twist(a, b, sol)
    # the untwisted pair is SL- but not GL-isomorphic
    assert not verify_twist(a, b, TwistSolution(0, 0, 0, 0))


def test_solve_twist_trivial_cases():
    a = SLInstance((3, 1), 2)
    assert solve_twist(a, a) == TwistSolution(0, 0, 0, 0)
    h1 = SLInstance((4,), 3)
    h2 = SLInstance((3,), 4)
    assert solve_twist(h1, h2) == TwistSolution(0, 0, 0, 0)
    assert verify_twist(h1, h2, TwistSolution(0, 0, 0, 0))


def test_solve_twist_requires_sl_isomorphism():
    with pytest.raises(NotSLIsomorphic):
        solve_twist(SLInstance((1,), 1), SLInstance((2,), 1))


@given(sl_isomorphic_pairs())
@settings(max_examples=80, deadline=None)
def test_solve_twist_solutions_verify(pair):
    a, b = pair
    sol = solve_twist(a, b, bound=12)
    if sol is None:
        return
    assert 0 <= sol.l <= 12 and 0 <= sol.m <= 12
    assert sol.x >= 0 and sol.y >= 0
    assert verify_twist(a, b, sol)


@given(sl_isomorphic_pairs())
@settings(max_examples=40, deadline=None)
def test_solve_twist_returns_the_minimal_key(pair):
    a, b = pair
    sol = solve_twist(a, b, bound=6)
    assume(sol is not None and sol.y <= 25)
    assert _brute_min_key(a, b, bound=6, y_cap=sol.y) == (sol.y, sol.x, sol.l, sol.m)


def test_nu2_known_values():
    assert nu2(1) == 0
    assert nu2(2) == 1
    assert nu2(12) == 2
    assert nu2(96) == 5
    for bad in (0, -4):
        with pytest.raises(ZeroWeight):
            nu2(bad)


def test_nu2_obstruction_known_values():
    assert nu2_obstruction(SLInstance((2,), 3), SLInstance((4,), 7))
    assert not nu2_obstruction(SLInstance((3,), 3), SLInstance((4,), 7))
    # valuations differ but the minimum is 0: no obstruction
    assert not nu2_obstruction(SLInstance((1,), 3), SLInstance((2,), 3))
    # One empty side is enough, in either order; nu2 would raise
    # ZeroWeight too, so the message shows which guard caught it.
    for a, b in [(SLInstance((), 2), SLInstance((1,), 1)), (SLInstance((1,), 1), SLInstance((), 2))]:
        with pytest.raises(ZeroWeight, match="both partitions must have positive weight"):
            nu2_obstruction(a, b)


def _twist_exists(wl, d, wm, e, bound):
    """Whether some l, m <= bound lets the solver's own equation step,
    ``_min_y_solution``, find a nonnegative (x, y): the scan of
    ``solve_twist`` without its SL check, for bare weights and degrees."""
    half_gap = (wl * d - wm * e) // 2
    for l in range(bound + 1):
        big_b = wl + l * (d + 1)
        for m in range(bound + 1):
            big_a = wm + m * (e + 1)
            c = half_gap + l * comb(d + 1, 2) - m * comb(e + 1, 2)
            if _min_y_solution(big_a, big_b, c) is not None:
                return True
    return False


def test_nu2_obstruction_is_exact_on_a_grid():
    """On every parity-consistent (|lam|, d, |mu|, e) with weights <= 20
    and d, e <= 20, the predicate holds iff no (l, m) below
    max(|lam|, |mu|) admits a twist, the witness range the module
    docstring proves."""
    single = [(w, d) for w in range(1, 21) for d in range(21)]
    checked = obstructed = 0
    for wl, d in single:
        a = SLInstance((wl,), d)
        for wm, e in single:
            if (wl * d - wm * e) % 2:
                continue
            predicate = nu2_obstruction(a, SLInstance((wm,), e))
            assert predicate != _twist_exists(wl, d, wm, e, max(wl, wm) - 1), (wl, d, wm, e)
            checked += 1
            obstructed += predicate
    assert checked == 112_400
    assert obstructed > 0


@st.composite
def obstructed_tuples(draw):
    """(|lam|, d, |mu|, e) with d, e = 3 mod 4 and 2-adic valuations of
    the weights that differ, the smaller one below min(nu2(d+1), nu2(e+1))."""
    d = 4 * draw(st.integers(0, 60)) + 3
    e = 4 * draw(st.integers(0, 60)) + 3
    alpha = draw(st.integers(1, min(nu2(d + 1), nu2(e + 1)) - 1))
    beta = draw(st.integers(1, 8).filter(lambda v: v != alpha))
    wl = 2**alpha * (2 * draw(st.integers(0, 20)) + 1)
    wm = 2**beta * (2 * draw(st.integers(0, 20)) + 1)
    if draw(st.booleans()):
        return wm, e, wl, d
    return wl, d, wm, e


@given(obstructed_tuples())
@settings(max_examples=40, deadline=None)
def test_obstructed_tuples_have_no_twist(t):
    wl, d, wm, e = t
    assert nu2_obstruction(SLInstance((wl,), d), SLInstance((wm,), e))
    assert not _twist_exists(wl, d, wm, e, 40)


@given(
    st.integers(1, 200), st.integers(0, 200), st.integers(1, 200), st.integers(0, 200)
)
@settings(max_examples=200, deadline=None)
def test_unobstructed_tuples_twist_within_the_proved_range(wl, d, wm, e):
    assume((wl * d - wm * e) % 2 == 0)
    assume(not nu2_obstruction(SLInstance((wl,), d), SLInstance((wm,), e)))
    assert _twist_exists(wl, d, wm, e, max(wl, wm) - 1)
