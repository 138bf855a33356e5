import pytest
from hypothesis import given
from hypothesis import strategies as st

from plethykit.errors import InexactDivision, NonPositiveArgument, ZeroPolynomial
from plethykit.qpoly import ONE, QPolynomial, q_analog

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


def test_getitem_beyond_degree_is_zero():
    f = QPolynomial([1, 0, 7])
    assert f[0] == 1
    assert f[1] == 0
    assert f[2] == 7
    assert f[3] == 0
    assert f[100] == 0


def test_q_analog_known_values():
    assert q_analog(1) == ONE
    assert q_analog(2).coefficients == (1, 1)
    assert q_analog(5).coefficients == (1, 1, 1, 1, 1)
    for bad in (0, -3, 1.5):
        with pytest.raises(NonPositiveArgument):
            q_analog(bad)


def test_arithmetic_known_values():
    two = QPolynomial([2])
    f = QPolynomial([1, 1])
    assert (f + f) == QPolynomial([2, 2])
    assert (f - f) == QPolynomial()
    assert (f * f) == QPolynomial([1, 2, 1])
    assert (two * f) == QPolynomial([2, 2])
    # (1+q)(1+q^2) = 1+q+q^2+q^3 = [4]
    assert QPolynomial([1, 1]) * QPolynomial([1, 0, 1]) == q_analog(4)


@given(qpolys(), qpolys(), qpolys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f + QPolynomial() == f
    assert f * ONE == f
    assert f - f == QPolynomial()


def test_exact_div_known_values():
    assert q_analog(4).exact_div(q_analog(2)) == QPolynomial([1, 0, 1])
    assert q_analog(6).exact_div(q_analog(3)) == QPolynomial([1, 0, 0, 1])
    f = QPolynomial([2, 4])
    assert f.exact_div(QPolynomial([2])) == QPolynomial([1, 2])
    with pytest.raises(InexactDivision):
        q_analog(5).exact_div(q_analog(2))
    with pytest.raises(InexactDivision):
        QPolynomial([1]).exact_div(QPolynomial([1, 1]))
    with pytest.raises(InexactDivision):
        QPolynomial([1, 2]).exact_div(QPolynomial([2]))
    with pytest.raises(ZeroPolynomial):
        ONE.exact_div(QPolynomial())


@given(qpolys(), qpolys(nonzero=True))
def test_exact_div_inverts_multiplication(f, g):
    assert (f * g).exact_div(g) == f


@given(st.integers(1, 10), st.integers(1, 10))
def test_q_analog_multiplicativity(a, b):
    # [a*b] = [a] * [b] with q replaced by q^a.
    spread = [0] * ((b - 1) * a + 1)
    for i in range(b):
        spread[i * a] = 1
    assert q_analog(a * b) == q_analog(a) * QPolynomial(spread)


def test_reverse_and_palindromic():
    f = QPolynomial([1, 2, 3])
    assert f.reverse() == QPolynomial([3, 2, 1])
    assert q_analog(7).is_palindromic()
    assert QPolynomial([1, 2, 1]).is_palindromic()
    assert not QPolynomial([1, 2]).is_palindromic()
    assert ONE.is_palindromic()
    with pytest.raises(ZeroPolynomial):
        QPolynomial().reverse()


@given(qpolys(nonzero=True))
def test_reverse_involution_without_low_zeros(f):
    # Reversing twice strips factors of q; shift them back to compare.
    low = next(i for i, c in enumerate(f.coefficients) if c)
    assert f.reverse().reverse().shifted(low) == f


def test_eval_at_one_and_shift():
    assert q_analog(6).eval_at_one() == 6
    assert QPolynomial().eval_at_one() == 0
    assert QPolynomial([1, -1, 2]).eval_at_one() == 2
    assert QPolynomial([1, 1]).shifted(2) == QPolynomial([0, 0, 1, 1])
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
