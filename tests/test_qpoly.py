import pytest
from hypothesis import given
from hypothesis import strategies as st

from plethykit.errors import InexactDivision
from plethykit.qpoly import QPolynomial

from .reference import ONE, exact_div, mul, q_analog

COEFF = st.integers(min_value=-(2**64), max_value=2**64)


@st.composite
def qpolys(draw, max_degree=40, nonzero=False):
    coeffs = draw(st.lists(COEFF, max_size=max_degree + 1))
    poly = QPolynomial(coeffs)
    if nonzero and not poly:
        lead = draw(st.integers(1, 2**64))
        poly = QPolynomial(coeffs + [lead])
    return poly


def test_construction_normalizes_trailing_zeros():
    assert QPolynomial([1, 2, 0, 0]).coefficients == (1, 2)
    assert QPolynomial([0, 0]).coefficients == ()
    assert QPolynomial().degree == -1
    assert not QPolynomial()
    assert QPolynomial([5]).degree == 0


def test_construction_rejects_non_integers():
    with pytest.raises(ValueError):
        QPolynomial([1.5])
    with pytest.raises(ValueError):
        QPolynomial([True])


def test_immutability():
    f = QPolynomial([1, 2])
    with pytest.raises(AttributeError):
        f._coeffs = (3,)


def test_q_analog_known_values():
    assert q_analog(1) == ONE
    assert q_analog(2).coefficients == (1, 1)
    assert q_analog(5).coefficients == (1, 1, 1, 1, 1)
    for bad in (0, -3, 1.5):
        with pytest.raises(ValueError):
            q_analog(bad)


def _at(f, x):
    """f evaluated at the integer x."""
    return sum(c * x**i for i, c in enumerate(f.coefficients))


def test_arithmetic_known_values():
    two = QPolynomial([2])
    f = QPolynomial([1, 1])
    assert mul(f, f) == QPolynomial([1, 2, 1])
    assert mul(two, f) == QPolynomial([2, 2])
    assert mul(f, QPolynomial()) == QPolynomial()
    # (1+q)(1+q^2) = 1+q+q^2+q^3 = [4]
    assert mul(QPolynomial([1, 1]), QPolynomial([1, 0, 1])) == q_analog(4)


@given(qpolys(), qpolys(), qpolys(), st.integers(-3, 3))
def test_ring_axioms(f, g, h, x):
    assert mul(f, g) == mul(g, f)
    assert mul(mul(f, g), h) == mul(f, mul(g, h))
    assert mul(f, ONE) == f
    # evaluation at an integer is a ring homomorphism
    assert _at(mul(f, g), x) == _at(f, x) * _at(g, x)


def test_exact_div_known_values():
    assert exact_div(q_analog(4), q_analog(2)) == QPolynomial([1, 0, 1])
    assert exact_div(q_analog(6), q_analog(3)) == QPolynomial([1, 0, 0, 1])
    assert exact_div(QPolynomial([2, 4]), QPolynomial([2])) == QPolynomial([1, 2])
    with pytest.raises(InexactDivision):
        exact_div(q_analog(5), q_analog(2))
    with pytest.raises(InexactDivision):
        exact_div(QPolynomial([1]), QPolynomial([1, 1]))
    with pytest.raises(InexactDivision):
        exact_div(QPolynomial([1, 2]), QPolynomial([2]))
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, QPolynomial())


@given(qpolys(), qpolys(nonzero=True))
def test_exact_div_inverts_multiplication(f, g):
    assert exact_div(mul(f, g), g) == f


@given(st.integers(1, 10), st.integers(1, 10))
def test_q_analog_multiplicativity(a, b):
    # [a*b] = [a] * [b] with q replaced by q^a.
    spread = [0] * ((b - 1) * a + 1)
    for i in range(b):
        spread[i * a] = 1
    assert q_analog(a * b) == mul(q_analog(a), QPolynomial(spread))


def test_shifted():
    assert QPolynomial([1, 1]).shifted(2) == QPolynomial([0, 0, 1, 1])
    assert QPolynomial([1, 1]).shifted(0) == QPolynomial([1, 1])
    assert QPolynomial().shifted(3) == QPolynomial()
    with pytest.raises(ValueError):
        ONE.shifted(-1)


def test_json_round_trip_uses_decimal_strings():
    f = QPolynomial([1, 0, -12, 10**30])
    data = f.to_json()
    assert data == ["1", "0", "-12", str(10**30)]
    assert QPolynomial().to_json() == []


@given(qpolys())
def test_json_round_trip(f):
    assert tuple(int(c) for c in f.to_json()) == f.coefficients
