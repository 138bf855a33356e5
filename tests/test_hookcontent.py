import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethykit.errors import InexactDivision, LengthExceedsDimension
from plethykit.hookcontent import _over_one_minus, _times_one_minus, p_poly, sl_key
from plethykit.partition import (
    b_statistic,
    cells,
    complement,
    conjugate,
    content,
    hook_length,
    partitions_of,
    weight,
)
from plethykit.qpoly import ONE, QPolynomial, q_analog

from .test_partition import partitions


def _analog_product(values):
    out = ONE
    for a in values:
        out = out * q_analog(a)
    return out


def test_hook_poly_known_values():
    # The hook product H_p = prod [h(u)] is what P divides out of the
    # content product: P^d_p * H_p = C^d_p.
    assert p_poly((), 2) == ONE
    assert p_poly((1,), 0) == ONE
    # hooks of (2,) and of (1, 1) are {2, 1}; contents at d = 1 are
    # {2, 3} and {2, 1}
    assert p_poly((2,), 1) * q_analog(2) == q_analog(2) * q_analog(3)
    assert p_poly((1, 1), 1) * q_analog(2) == q_analog(2)
    # hooks of (2, 2) are {3, 2, 2, 1}; contents at d = 2 are {3, 4, 2, 3}
    hooks = q_analog(3) * q_analog(2) * q_analog(2)
    assert p_poly((2, 2), 2) * hooks == q_analog(3) * q_analog(4) * q_analog(2) * q_analog(3)


@given(partitions(max_weight=12))
def test_hook_poly_is_the_analog_product_of_hooks(p):
    # C^d_p / P^d_p is the same conjugation-invariant hook product for
    # every d.
    hooks = _analog_product(hook_length(p, u) for u in cells(p))
    conj = conjugate(p)
    assert hooks == _analog_product(hook_length(conj, u) for u in cells(conj))
    for d in (max(len(p) - 1, 0), len(p) + 2):
        contents = _analog_product(d + 1 + content(p, u) for u in cells(p))
        assert contents.exact_div(p_poly(p, d)) == hooks


def test_over_one_minus_divides_exactly_or_raises():
    # Short branch, len(f) <= b: only the zero polynomial divides.
    assert _over_one_minus([0, 0], 2) == [0]
    with pytest.raises(InexactDivision):
        _over_one_minus([1], 2)
    with pytest.raises(InexactDivision):
        _over_one_minus([0, 3], 2)
    # Recurrence branch: an exact quotient comes back, a remainder
    # leaves a nonzero tail.
    f = [1, 2, 3]
    assert _over_one_minus(_times_one_minus(f, 2), 2) == f
    assert _over_one_minus([1, 0, -1], 2) == [1]
    with pytest.raises(InexactDivision):
        _over_one_minus([1, 0, 0], 2)  # 1 + q^2 leaves remainder 2 mod 1 - q^2
    with pytest.raises(InexactDivision):
        _over_one_minus([1, 1], 1)  # 1 + q leaves remainder 2 mod 1 - q


def test_content_poly_known_values():
    # C^d_p = prod [d+1+c(u)] is P^d_p times the hook product.
    assert p_poly((1,), 5) == q_analog(6)
    # contents of (2,) are {0,1}: [4]*[5]
    assert p_poly((2,), 3) * q_analog(2) == q_analog(4) * q_analog(5)
    # contents of (1,1) are {0,-1}: [4]*[3]
    assert p_poly((1, 1), 3) * q_analog(2) == q_analog(4) * q_analog(3)
    with pytest.raises(LengthExceedsDimension):
        p_poly((1, 1, 1), 1)


def test_p_poly_known_values():
    assert p_poly((), 4) == ONE
    assert p_poly((1,), 3) == q_analog(4)
    assert p_poly((2,), 3).coefficients == (1, 1, 2, 2, 2, 1, 1)
    assert p_poly((1, 1), 3).coefficients == (1, 1, 2, 1, 1)
    assert p_poly((2, 1), 1).coefficients == (1, 1)
    with pytest.raises(LengthExceedsDimension):
        p_poly((2, 2, 2), 1)


def test_dimension_known_values():
    # P at q = 1 is dim S_p(C^{d+1}).
    assert p_poly((2,), 3).eval_at_one() == 10
    assert p_poly((1, 1), 3).eval_at_one() == 6
    assert p_poly((), 7).eval_at_one() == 1
    assert p_poly((1, 1, 1), 2).eval_at_one() == 1
    for d in range(6):
        assert p_poly((1,), d).eval_at_one() == d + 1


def test_single_rows_are_gaussian_binomials():
    # P for a single row (m) equals the Gaussian binomial [m+d choose d].
    for m in range(1, 6):
        for d in range(1, 5):
            nums = list(range(m + 1, m + d + 1))
            dens = list(range(1, d + 1))
            expected = _analog_product(nums).exact_div(_analog_product(dens))
            assert p_poly((m,), d) == expected


@given(partitions(max_weight=10), st.integers(0, 8))
def test_p_poly_divides_content_by_hooks_exactly(p, d):
    if len(p) > d + 1:
        with pytest.raises(LengthExceedsDimension):
            p_poly(p, d)
        with pytest.raises(LengthExceedsDimension):
            sl_key(p, d)
        return
    contents = _analog_product(d + 1 + content(p, u) for u in cells(p))
    hooks = _analog_product(hook_length(p, u) for u in cells(p))
    expected = contents.exact_div(hooks)
    assert p_poly(p, d) == expected
    # The key is P's factorization into q-integers: prod [n]^{c_n}.
    key = sl_key(p, d)
    above = _analog_product(n for n, c in key for _ in range(c))
    below = _analog_product(n for n, c in key for _ in range(-c))
    assert above.exact_div(below) == expected
    assert sum(c for _, c in key) == 0


def test_sl_key_known_values():
    assert sl_key((), 3) == frozenset()
    # contents of (2,) at d = 3 are {4, 5}, hooks {2, 1}
    assert sl_key((2,), 3) == {(4, 1), (5, 1), (2, -1), (1, -1)}
    # (1, 1) at d = 1 is the trivial module: contents {2, 1}, hooks {2, 1}
    assert sl_key((1, 1), 1) == frozenset()
    with pytest.raises(LengthExceedsDimension):
        sl_key((1, 1, 1), 1)


def test_sl_key_partitions_like_p_poly_exhaustively():
    # Every (p, d) with |p| <= 12 and length(p) - 1 <= d <= 10: the
    # key and the expanded polynomial split them into the same classes.
    instances = [
        (p, d)
        for n in range(13)
        for p in partitions_of(n, n)
        for d in range(max(len(p) - 1, 0), 11)
    ]
    by_key, by_poly = {}, {}
    for p, d in instances:
        by_key.setdefault(sl_key(p, d), set()).add((p, d))
        by_poly.setdefault(p_poly(p, d), set()).add((p, d))
    assert len(instances) == 2052
    assert len(by_key) == len(by_poly) == 1341
    classes = {frozenset(members) for members in by_key.values()}
    assert classes == {frozenset(members) for members in by_poly.values()}


@st.composite
def _instances(draw, max_weight=12, max_d=10):
    p = draw(partitions(max_weight=max_weight, max_parts=max_d + 1))
    return p, draw(st.integers(max(len(p) - 1, 0), max_d))


@given(_instances(), _instances(), st.booleans())
def test_equal_keys_iff_equal_p_poly(a, b, mirror):
    # Mirroring b onto the box complement of a makes equal pairs common.
    if mirror:
        b = (complement(a[0], a[1] + 1), a[1])
    assert (sl_key(*a) == sl_key(*b)) == (p_poly(*a) == p_poly(*b))


@given(partitions(max_weight=10), st.integers(0, 8))
def test_p_poly_shape_invariants(p, d):
    if len(p) > d + 1:
        return
    f = p_poly(p, d)
    assert f[0] == 1
    assert f.is_palindromic()
    assert f.degree == weight(p) * d - 2 * b_statistic(p)
    assert all(c > 0 for c in f.coefficients)


@given(partitions(max_weight=10), st.integers(0, 8))
def test_p_poly_complement_symmetry(p, d):
    # Complementing inside a (d+1)-row box leaves P unchanged.
    if len(p) > d + 1:
        return
    assert p_poly(complement(p, d + 1), d) == p_poly(p, d)


def test_dimension_matches_weyl_formula():
    # dim = prod over cells (d+1+c(u))/h(u), computed in exact rationals.
    for p in [(3, 1), (2, 2), (4,), (3, 2, 1), (1, 1, 1, 1)]:
        for d in range(len(p) - 1, len(p) + 3):
            num = den = 1
            for i, row in enumerate(p, start=1):
                for j in range(1, row + 1):
                    num *= d + 1 + (j - i)
                    den *= hook_length(p, (i, j))
            assert p_poly(p, d).eval_at_one() == num // den
            assert num % den == 0


def test_degree_formula_known_values():
    # deg P^d_p = |p|*d - 2*b(p)
    assert p_poly((2,), 3).degree == 6
    assert p_poly((1, 1), 3).degree == 4
    assert p_poly((2, 2), 2).degree == 4
    assert p_poly((), 5).degree == 0


def test_p_poly_cache_returns_equal_objects():
    assert p_poly((3, 1), 4) is p_poly((3, 1), 4)


def test_hook_content_handles_large_staircase_shapes():
    # A shape of the size the staircase families produce.
    p = (9, 9, 5, 5, 5, 5, 3, 3, 3, 3)
    f = p_poly(p, 9)
    assert f[0] == 1
    assert f.is_palindromic()
    assert f.degree == weight(p) * 9 - 2 * b_statistic(p)
