"""Hook products, content products, and the central polynomial P^d_lambda.

P^d_lambda(q) is the exact quotient of the content product
C^d_lambda = prod [d+1+c(u)] by the hook product H_lambda = prod [h(u)].
It is palindromic, has constant term 1, degree |lambda|*d - 2*b(lambda),
and its value at q=1 is the dimension of the Schur module
S_lambda(C^{d+1}).  Equality of P polynomials is the complete
SL(2)-isomorphism invariant used by the plethysm module.

Products and quotients of q-analogs are computed through their
(1 - q^a) factorizations: multiplying by (1 - q^a) and dividing by
(1 - q^b) are both single passes over the coefficient array, which keeps
the large staircase instances cheap.
"""

from collections import Counter
from functools import lru_cache
from itertools import accumulate

from .errors import InexactDivision, LengthExceedsDimension
from .partition import Partition, conjugate
from .qpoly import QPolynomial


def _hook_multiset(p: Partition) -> list[int]:
    conj = conjugate(p)
    return [
        (row - j) + (conj[j - 1] - i) + 1
        for i, row in enumerate(p, start=1)
        for j in range(1, row + 1)
    ]


def _content_multiset(p: Partition, d: int) -> list[int]:
    return [
        d + 1 + (j - i)
        for i, row in enumerate(p, start=1)
        for j in range(1, row + 1)
    ]


def _times_one_minus(f: list[int], a: int) -> list[int]:
    """f(q) * (1 - q^a)."""
    out = f + [0] * a
    out[a:] = [x - y for x, y in zip(out[a:], f)]
    return out


def _over_one_minus(f: list[int], b: int) -> list[int]:
    """f(q) / (1 - q^b), which must be exact.

    The quotient satisfies h[i] = f[i] + h[i-b]; running that recurrence
    to the top degree must leave zeros in the last b slots, otherwise
    the division had a remainder.
    """
    if len(f) <= b:
        if any(f):
            raise InexactDivision(f"(1 - q^{b}) does not divide exactly")
        return [0]
    out = list(f)
    for r in range(b):
        out[r::b] = accumulate(f[r::b])
    if any(out[len(f) - b:]):
        raise InexactDivision(f"(1 - q^{b}) does not divide exactly")
    return out[: len(f) - b]


def _analog_ratio(numerators: list[int], denominators: list[int]) -> list[int]:
    """Coefficients of prod [a] / prod [b], assuming the ratio is polynomial.

    Both lists have one entry per cell, so after cancelling equal factors
    the rest pairs up through [a]/[b] = (1 - q^a)/(1 - q^b).  All
    multiplications happen before any division, so every intermediate
    division step stays exact.
    """
    num = Counter(numerators)
    den = Counter(denominators)
    shared = num & den
    f = [1]
    for a in sorted((num - shared).elements()):
        f = _times_one_minus(f, a)
    for b in sorted((den - shared).elements()):
        f = _over_one_minus(f, b)
    return f


@lru_cache(maxsize=8192)
def p_poly(p: Partition, d: int) -> QPolynomial:
    """P^d_p = C^d_p / H_p as an exact integer polynomial.

    Raises LengthExceedsDimension unless length(p) <= d+1.
    """
    if len(p) > d + 1:
        raise LengthExceedsDimension(f"{p} has more than {d + 1} rows")
    return QPolynomial(_analog_ratio(_content_multiset(p, d), _hook_multiset(p)))

