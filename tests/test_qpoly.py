"""Polynomials in q as plain coefficient tuples: the schoolbook ring
operations of ``tests/reference.py``, and the two tuple idioms the CLI
applies to the package's polynomials, the shift by q^b and the JSON
form as decimal strings."""

from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from plethykit import cli
from plethykit.errors import InexactDivision

from .reference import ONE, canonical_poly, exact_div, mul, q_analog, trim
from .test_cli import lines, run

COEFF = st.integers(min_value=-(2**64), max_value=2**64)


@st.composite
def qpolys(draw, max_degree=40, nonzero=False):
    coeffs = draw(st.lists(COEFF, max_size=max_degree + 1))
    poly = trim(coeffs)
    if nonzero and not poly:
        lead = draw(st.integers(1, 2**64))
        poly = tuple(coeffs) + (lead,)
    return canonical_poly(poly)


def test_q_analog_known_values():
    assert q_analog(1) == ONE
    assert q_analog(2) == (1, 1)
    assert q_analog(5) == (1, 1, 1, 1, 1)
    for bad in (0, -3, 1.5):
        with pytest.raises(ValueError):
            q_analog(bad)


def _at(f, x):
    """f evaluated at the integer x."""
    return sum(c * x**i for i, c in enumerate(f))


def test_arithmetic_known_values():
    f = (1, 1)
    assert mul(f, f) == (1, 2, 1)
    assert mul((2,), f) == (2, 2)
    assert mul(f, ()) == ()
    # (1+q)(1+q^2) = 1+q+q^2+q^3 = [4]
    assert mul((1, 1), (1, 0, 1)) == q_analog(4)


@given(qpolys(), qpolys(), qpolys(), st.integers(-3, 3))
def test_ring_axioms(f, g, h, x):
    assert canonical_poly(mul(f, g)) == mul(g, f)
    assert mul(mul(f, g), h) == mul(f, mul(g, h))
    assert mul(f, ONE) == f
    # evaluation at an integer is a ring homomorphism
    assert _at(mul(f, g), x) == _at(f, x) * _at(g, x)


def test_exact_div_known_values():
    assert exact_div(q_analog(4), q_analog(2)) == (1, 0, 1)
    assert exact_div(q_analog(6), q_analog(3)) == (1, 0, 0, 1)
    assert exact_div((2, 4), (2,)) == (1, 2)
    with pytest.raises(InexactDivision):
        exact_div(q_analog(5), q_analog(2))
    with pytest.raises(InexactDivision):
        exact_div((1,), (1, 1))
    with pytest.raises(InexactDivision):
        exact_div((1, 2), (2,))
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ())


@given(qpolys(), qpolys(nonzero=True))
def test_exact_div_inverts_multiplication(f, g):
    assert canonical_poly(exact_div(mul(f, g), g)) == f


@given(st.integers(1, 10), st.integers(1, 10))
def test_q_analog_multiplicativity(a, b):
    # [a*b] = [a] * [b] with q replaced by q^a.
    spread = [0] * ((b - 1) * a + 1)
    for i in range(b):
        spread[i * a] = 1
    assert q_analog(a * b) == mul(q_analog(a), tuple(spread))


def test_shifted():
    # oracle-check writes q^b * P as (0,) * b + P: the product with q^b
    # for every nonzero polynomial, and P is never zero.
    assert (0,) * 2 + (1, 1) == mul((0, 0, 1), (1, 1)) == (0, 0, 1, 1)
    assert (0,) * 0 + (1, 1) == (1, 1)
    assert (0,) * 3 + (5,) == mul((0, 0, 0, 1), (5,))


def _printed_route(f):
    """How oracle-check prints a tableau route that returns f, at the one
    instance lambda = (1,), d = 0, where the other two routes give 1."""
    with mock.patch.object(cli, "specialize_ssyt", lambda p, d, memo=None: f):
        result = run("oracle-check", "--max-weight", "1", "--max-d", "0")
    assert result.exit_code == 1
    return lines(result)[0]["routes"]["tableau"]


def test_json_round_trip_uses_decimal_strings():
    assert _printed_route((1, 0, -12, 10**30)) == ["1", "0", "-12", str(10**30)]
    assert _printed_route(()) == []


@given(qpolys())
def test_json_round_trip(f):
    assume(f != ONE)
    assert tuple(int(c) for c in _printed_route(f)) == f
