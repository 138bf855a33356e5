"""Two independent brute-force routes to s_lambda(1, q, ..., q^d).

Both are ground-truth checks for the hook-content pipeline and share no
code with it:

* ``specialize_bialternant`` evaluates the ratio of alternant
  determinants det(x_j^{lambda_i + k - i}) / det(x_j^{k - i}) at
  x_j = q^{j-1}.  The determinants are taken over plain integers with q
  packed as a large power of two, so ordinary fraction-free elimination
  applies and the Schur coefficients can be read back off the quotient's
  base-2^B digits.
* ``specialize_ssyt`` enumerates semistandard fillings one by one and
  accumulates q^(sum of entries - cells).
"""

from .errors import (
    BudgetExceeded,
    ConsistencyError,
    InexactDivision,
    LengthExceedsDimension,
)
from .partition import Partition, weight
from .qpoly import QPolynomial

FILLING_BUDGET = 10_000_000


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (destroys m)."""
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


def specialize_bialternant(p: Partition, d: int) -> QPolynomial:
    """s_p(1, q, ..., q^d) via the alternant determinant ratio.

    Every coefficient counts a subset of fillings of the diagram with
    entries in {1..d+1}, so it is bounded by (d+1)^|p|; packing q as
    2^B with 2^B above that bound makes the base-2^B digits of the
    integer quotient exactly the polynomial's coefficients.

    Raises LengthExceedsDimension unless length(p) <= d+1.
    """
    k = d + 1
    if len(p) > k:
        raise LengthExceedsDimension(f"{p} has more than {k} rows")
    lam = list(p) + [0] * (k - len(p))
    bits = max(64, weight(p) * k.bit_length() + 2)
    num_exps = [lam[i] + k - 1 - i for i in range(k)]
    den_exps = [k - 1 - i for i in range(k)]
    num = _bareiss_det([[1 << (bits * j * e) for j in range(k)] for e in num_exps])
    den = _bareiss_det([[1 << (bits * j * e) for j in range(k)] for e in den_exps])
    quotient, rem = divmod(num, den)
    if rem:
        raise InexactDivision("alternant ratio left a remainder")
    if quotient <= 0:
        raise ConsistencyError("alternant ratio must be a positive value")
    coeffs = []
    while quotient:
        quotient, digit = divmod(quotient, 1 << bits)
        coeffs.append(digit)
    return QPolynomial(coeffs)


def _enumerate_fillings(p: Partition, k: int):
    """Yield the entry-sum-minus-cells exponent of every semistandard
    filling of p with entries in {1..k}: rows weakly increase left to
    right, columns strictly increase top to bottom."""
    cells = [(i, j) for i, row_len in enumerate(p) for j in range(row_len)]
    rows = [[0] * row_len for row_len in p]
    total = len(cells)
    budget = FILLING_BUDGET
    seen = 0

    def fill(t: int, exponent: int):
        nonlocal seen
        if t == total:
            seen += 1
            if seen > budget:
                raise BudgetExceeded(
                    f"more than {budget} fillings of {p} with entries <= {k}"
                )
            yield exponent
            return
        i, j = cells[t]
        low = rows[i][j - 1] if j else 1
        if i and rows[i - 1][j] >= low:
            low = rows[i - 1][j] + 1
        for val in range(low, k + 1):
            rows[i][j] = val
            yield from fill(t + 1, exponent + val - 1)
        rows[i][j] = 0

    yield from fill(0, 0)


def specialize_ssyt(p: Partition, d: int) -> QPolynomial:
    """s_p(1, q, ..., q^d) by direct semistandard-tableau enumeration.

    Raises LengthExceedsDimension unless length(p) <= d+1, and
    BudgetExceeded when more than FILLING_BUDGET fillings exist.
    """
    if len(p) > d + 1:
        raise LengthExceedsDimension(f"{p} has more than {d + 1} rows")
    coeffs = [0] * (weight(p) * d + 1)
    for exponent in _enumerate_fillings(p, d + 1):
        coeffs[exponent] += 1
    return QPolynomial(coeffs)

