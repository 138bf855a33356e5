"""Exact univariate polynomial arithmetic over Python's big integers.

A polynomial in the variable q is stored as a dense tuple of integer
coefficients indexed by exponent, with no trailing zero: the zero
polynomial is the empty tuple and every nonzero polynomial ends in its
(nonzero) leading coefficient.  All arithmetic is exact; nothing in this
module (or package) ever touches floating point.
"""

from collections.abc import Iterable

from .errors import InexactDivision, NonPositiveArgument, ZeroPolynomial


class QPolynomial:
    """An immutable integer polynomial in q."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be integers, got {c!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "_coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    # ------------------------------------------------------------------
    # structure

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __getitem__(self, exponent: int) -> int:
        """Coefficient of q**exponent (0 beyond the degree)."""
        if 0 <= exponent < len(self._coeffs):
            return self._coeffs[exponent]
        return 0

    def __repr__(self) -> str:
        return f"QPolynomial({list(self._coeffs)})"

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-c for c in self._coeffs)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return QPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return QPolynomial(out)

    def exact_div(self, divisor: "QPolynomial") -> "QPolynomial":
        """The exact quotient self / divisor over the integers.

        Raises InexactDivision if the division leaves a remainder or
        would need a non-integer coefficient, and ZeroPolynomial when
        dividing by zero.
        """
        if not divisor:
            raise ZeroPolynomial("division by the zero polynomial")
        if not self:
            return QPolynomial()
        rem = list(self._coeffs)
        div = divisor._coeffs
        lead = div[-1]
        qdeg = len(rem) - len(div)
        if qdeg < 0:
            raise InexactDivision(f"{self!r} is not divisible by {divisor!r}")
        quot = [0] * (qdeg + 1)
        for i in range(qdeg, -1, -1):
            top = rem[i + len(div) - 1]
            if top % lead:
                raise InexactDivision(f"{self!r} is not divisible by {divisor!r}")
            quot[i] = top // lead
            if quot[i]:
                for j, c in enumerate(div):
                    rem[i + j] -= quot[i] * c
        if any(rem):
            raise InexactDivision(f"{self!r} is not divisible by {divisor!r}")
        return QPolynomial(quot)

    # ------------------------------------------------------------------
    # the operations the rest of the package is built on

    def reverse(self) -> "QPolynomial":
        """q^degree * self(1/q), i.e. the coefficient tuple reversed.

        Raises ZeroPolynomial on the zero polynomial, which has no degree.
        """
        if not self._coeffs:
            raise ZeroPolynomial("the zero polynomial cannot be reversed")
        return QPolynomial(reversed(self._coeffs))

    def is_palindromic(self) -> bool:
        return self.reverse() == self

    def eval_at_one(self) -> int:
        """Sum of the coefficients; the dimension count for character values."""
        return sum(self._coeffs)

    def shifted(self, k: int) -> "QPolynomial":
        """self * q**k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if not self._coeffs:
            return QPolynomial()
        return QPolynomial((0,) * k + self._coeffs)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, index = exponent."""
        return [str(c) for c in self._coeffs]


ONE = QPolynomial([1])


def q_analog(a: int) -> QPolynomial:
    """[a] = 1 + q + ... + q^(a-1).

    Raises NonPositiveArgument unless a >= 1.
    """
    if not isinstance(a, int) or isinstance(a, bool) or a < 1:
        raise NonPositiveArgument(f"[a] requires a positive integer, got {a!r}")
    return QPolynomial([1] * a)
