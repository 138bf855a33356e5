"""Two independent brute-force routes to s_lambda(1, q, ..., q^d).

Both are ground-truth checks for the hook-content pipeline and share no
code with it.  Each returns the coefficient tuple, indexed by exponent
and with no trailing zero, that ``hookcontent.p_poly`` returns:

* ``specialize_bialternant`` evaluates the ratio of alternant
  determinants det(x_j^{lambda_i + k - i}) / det(x_j^{k - i}) at
  x_j = q^{j-1}.  The determinants are taken over plain integers with q
  packed as 2^B, B the bit length of the coefficient bound (d+1)^|lambda|
  rounded up to whole bytes, and the Schur coefficients are read back
  off the exact integer quotient's bytes, B/8 to a coefficient, in one
  pass.  The denominator depends only on (d+1, B), so a caller can keep
  it across calls in a dict, as ``cli`` does for one run.  With q packed,
  both matrices have entries y_i^j, y_i = 2^(B e_i), so each is a
  Vandermonde matrix and its determinant is the product
  prod_{i<i'} (y_{i'} - y_i) (Macdonald, *Symmetric Functions*, I §3).
  The route stays independent of the hook-content route: it uses only
  the bialternant formula and the Vandermonde identity, a product over
  pairs of rows multiplied in a balanced tree into one exact integer,
  and never the hook-content theorem's product over cells.  A remainder
  in the quotient raises InexactDivision and a non-positive quotient
  raises ConsistencyError.
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
from math import prod

from .errors import ConsistencyError, InexactDivision, LengthExceedsDimension
from .partition import Partition, excerpt


def _vandermonde(nodes: list[int]) -> int:
    """det(nodes[i]^j) over plain integers, as prod_{i<i'} (nodes[i'] - nodes[i]).

    The differences are multiplied in a balanced tree, level by level,
    each level taking the product of every run of 16, so the top levels
    join factors of like size: one running product over all of them
    takes time quadratic in the determinant's length.  Runs of 16, not
    pairs, leave the small determinants of ``oracle-check`` (k <= 6) to
    one product: on the 541 determinants of its 9/7 run a pairwise tree
    took 1.9 times as long as the running product, runs of 16 1.1 times.
    """
    factors = [z - y for i, y in enumerate(nodes) for z in nodes[i + 1 :]]
    while len(factors) > 16:
        factors = [prod(factors[i : i + 16]) for i in range(0, len(factors), 16)]
    return prod(factors)


def specialize_bialternant(p: Partition, d: int, dens: dict | None = None) -> tuple[int, ...]:
    """s_p(1, q, ..., q^d) via the alternant determinant ratio.

    Both alternants are Vandermonde determinants in the packed powers of
    q, so each is taken as the product of its node differences.  Every
    coefficient counts a subset of fillings of the diagram with
    entries in {1..d+1}, so it is below 2^B for B the bit length of
    (d+1)^|p|, rounded up to whole bytes; packing q as 2^B makes the
    B-bit digits of the integer quotient exactly the polynomial's
    coefficients, read off its bytes in one pass.

    The denominator depends only on (d+1, B).  dens maps those pairs to
    their denominators: pass one dict to every call to build each once;
    by default each call starts a fresh one.

    Raises LengthExceedsDimension unless length(p) <= d+1.
    """
    k = d + 1
    if len(p) > k:
        raise LengthExceedsDimension(f"{excerpt(str(p))} has more than {k} rows")
    lam = list(p) + [0] * (k - len(p))
    step = -(-(k ** sum(p)).bit_length() // 8)
    bits = 8 * step
    dens = {} if dens is None else dens
    if (k, bits) not in dens:
        dens[k, bits] = _vandermonde([1 << (bits * (k - 1 - i)) for i in range(k)])
    num = _vandermonde([1 << (bits * (lam[i] + k - 1 - i)) for i in range(k)])
    quotient, rem = divmod(num, dens[k, bits])
    if rem:
        raise InexactDivision("alternant ratio left a remainder")
    if quotient <= 0:
        raise ConsistencyError("alternant ratio must be a positive value")
    raw = quotient.to_bytes(-(-quotient.bit_length() // 8), "little")
    return tuple(int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step))


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


def specialize_ssyt(p: Partition, d: int, memo: dict | None = None) -> tuple[int, ...]:
    """s_p(1, q, ..., q^d) by the branching rule over semistandard tableaux.

    memo maps zero-padded shapes to their coefficient lists.  Pass one
    dict to every call (any p, any d) to expand each shape once; by
    default each call starts a fresh one.

    Raises LengthExceedsDimension unless length(p) <= d+1.
    """
    if len(p) > d + 1:
        raise LengthExceedsDimension(f"{excerpt(str(p))} has more than {d + 1} rows")
    padded = tuple(p) + (0,) * (d + 1 - len(p))
    return tuple(_schur(padded, {} if memo is None else memo))
