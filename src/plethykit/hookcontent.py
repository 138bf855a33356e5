"""Hook products, content products, and the central polynomial P^d_lambda.

P^d_lambda(q) is the exact quotient of the content product
C^d_lambda = prod [d+1+c(u)] by the hook product H_lambda = prod [h(u)].
It is palindromic, has constant term 1, degree |lambda|*d - 2*b(lambda),
and its value at q=1 is the dimension of the Schur module
S_lambda(C^{d+1}).

Equal P polynomials are the complete SL(2)-isomorphism invariant, and
``sl_key`` decides it without expanding P: the key is the net exponent
of each q-integer [n] in C/H.  Instances are compared and grouped by
their keys; ``p_poly`` is the key's printed form, expanded only where a
polynomial is shown or compared as one.

The expansion goes through the (1 - q^n) factorization: multiplying by
(1 - q^a) and dividing by (1 - q^b) are both single passes over the
coefficient array, which keeps the large staircase instances cheap.
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


def sl_key(p: Partition, d: int) -> frozenset[tuple[int, int]]:
    """The SL invariant of (p, d): the pairs (n, c_n) with c_n != 0, where
    c_n is the number of cells with d+1+c(u) = n minus the number with
    h(u) = n, so that P^d_p = prod [n]^{c_n} (Stanley, EC2, Thm 7.21.2).

    Two instances have equal keys exactly when they have equal P.  Each
    [n] = prod_{k | n, k > 1} Phi_k, and cyclotomic polynomials are
    distinct irreducibles, so P fixes the exponent e_k = sum_{k | n} c_n
    of every Phi_k, k >= 2, and Moebius inversion over divisibility
    recovers every c_n with n >= 2 from the e_k.  Both multisets have
    |p| entries, so sum c_n = 0 and c_1 = -sum_{n >= 2} c_n is fixed by
    the rest: keeping n = 1 leaves the key canonical, and it makes the
    (1 - q^n) factors of the numerator and the denominator equal in
    number, so (1 - q)^|p| cancels without a correction.

    Raises LengthExceedsDimension unless length(p) <= d+1.
    """
    if len(p) > d + 1:
        raise LengthExceedsDimension(f"{p} has more than {d + 1} rows")
    net = Counter(_content_multiset(p, d))
    net.subtract(_hook_multiset(p))
    return frozenset((n, c) for n, c in net.items() if c)


@lru_cache(maxsize=8192)
def p_poly(p: Partition, d: int) -> QPolynomial:
    """P^d_p = C^d_p / H_p as an exact integer polynomial, the expansion
    of sl_key(p, d).

    All multiplications by (1 - q^n) happen before any division, each
    group in increasing n, so every intermediate division stays exact.

    Raises LengthExceedsDimension unless length(p) <= d+1.
    """
    f = [1]
    for n, c in sorted(sl_key(p, d), key=lambda nc: (nc[1] < 0, nc[0])):
        step = _times_one_minus if c > 0 else _over_one_minus
        for _ in range(abs(c)):
            f = step(f, n)
    return QPolynomial(f)
