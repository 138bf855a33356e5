"""Two independent brute-force routes to s_lambda(1, q, ..., q^d).

Both are ground-truth checks for the hook-content pipeline and share no
code with it:

* ``specialize_bialternant`` evaluates the ratio of alternant
  determinants det(x_j^{lambda_i + k - i}) / det(x_j^{k - i}) at
  x_j = q^{j-1}.  The determinants are taken over plain integers with q
  packed as a large power of two, and the Schur coefficients are read
  back off the exact integer quotient's base-2^B digits.  With q packed,
  both matrices have entries y_i^j, y_i = 2^(B e_i), so each is a
  Vandermonde matrix and its determinant is the product
  prod_{i<i'} (y_{i'} - y_i) (Macdonald, *Symmetric Functions*, I §3).
  The route stays independent of the hook-content route: it uses only
  the bialternant formula and the Vandermonde identity, a product over
  pairs of rows evaluated as one exact integer, and never the
  hook-content theorem's product over cells.  A remainder in the
  quotient raises InexactDivision and a non-positive quotient raises
  ConsistencyError.
* ``specialize_ssyt`` sums q^(sum of entries - cells) over semistandard
  tableaux with entries in {1..n}, n = d+1, by the branching rule
  (Macdonald, *Symmetric Functions*, I §5): removing the entries n
  from a tableau of shape lambda leaves one of shape mu, where mu
  interlaces lambda (lambda_{i+1} <= mu_i <= lambda_i), so with
  x_i = q^{i-1}

      s_lambda(x_1..x_n) = sum_mu s_mu(x_1..x_{n-1}) q^{(n-1)(|lambda|-|mu|)}.

  Each shape is expanded once per memo, which counts the tableaux
  without visiting them one at a time.  The shapes reached from
  (lambda, d+1) include every shape reached from (lambda, d), so a
  caller that walks d for one lambda can pass the same memo to each
  call.
"""

from itertools import product

from .errors import ConsistencyError, InexactDivision, LengthExceedsDimension
from .partition import Partition, weight
from .qpoly import QPolynomial


def _vandermonde(nodes: list[int]) -> int:
    """det(nodes[i]^j) over plain integers, as prod_{i<i'} (nodes[i'] - nodes[i])."""
    det = 1
    for i, y in enumerate(nodes):
        for z in nodes[i + 1 :]:
            det *= z - y
    return det


def specialize_bialternant(p: Partition, d: int) -> QPolynomial:
    """s_p(1, q, ..., q^d) via the alternant determinant ratio.

    Both alternants are Vandermonde determinants in the packed powers of
    q, so each is taken as the product of its node differences.  Every
    coefficient counts a subset of fillings of the diagram with
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
    num = _vandermonde([1 << (bits * (lam[i] + k - 1 - i)) for i in range(k)])
    den = _vandermonde([1 << (bits * (k - 1 - i)) for i in range(k)])
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


def _schur(lam: tuple[int, ...], memo: dict) -> list[int]:
    """Coefficients of s_lam(1, q, ..., q^(n-1)), n = len(lam), with lam
    zero-padded to n parts; memo maps each such lam to its list."""
    n = len(lam)
    if n == 1 or lam[0] == 0:
        return [1]
    if lam in memo:
        return memo[lam]
    total = sum(lam)
    coeffs = []
    for mu in product(*(range(lam[i + 1], lam[i] + 1) for i in range(n - 1))):
        shift = (n - 1) * (total - sum(mu))
        sub = _schur(mu, memo)
        if len(coeffs) < shift + len(sub):
            coeffs.extend([0] * (shift + len(sub) - len(coeffs)))
        for e, c in enumerate(sub, shift):
            coeffs[e] += c
    memo[lam] = coeffs
    return coeffs


def specialize_ssyt(p: Partition, d: int, memo: dict | None = None) -> QPolynomial:
    """s_p(1, q, ..., q^d) by the branching rule over semistandard tableaux.

    memo maps zero-padded shapes to their coefficient lists.  Pass one
    dict to every call for the same p (any d) to expand each shape once;
    by default each call starts a fresh one.

    Raises LengthExceedsDimension unless length(p) <= d+1.
    """
    if len(p) > d + 1:
        raise LengthExceedsDimension(f"{p} has more than {d + 1} rows")
    padded = tuple(p) + (0,) * (d + 1 - len(p))
    return QPolynomial(_schur(padded, {} if memo is None else memo))
