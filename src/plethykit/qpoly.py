"""Exact integer polynomials in q, as the package prints and compares them.

A polynomial in the variable q is stored as a dense tuple of integer
coefficients indexed by exponent, with no trailing zero: the zero
polynomial is the empty tuple and every nonzero polynomial ends in its
(nonzero) leading coefficient.  The arithmetic that builds them works on
plain coefficient lists (``hookcontent``, ``oracle``); nothing in this
package ever touches floating point.
"""

from collections.abc import Iterable


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

    def __repr__(self) -> str:
        return f"QPolynomial({list(self._coeffs)})"

    def shifted(self, k: int) -> "QPolynomial":
        """self * q**k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if not self._coeffs:
            return QPolynomial()
        return QPolynomial((0,) * k + self._coeffs)

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, index = exponent."""
        return [str(c) for c in self._coeffs]

