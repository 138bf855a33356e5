"""Hook products, content products, and the central polynomial P^d_lambda.

P^d_lambda(q) is the exact quotient of the content product
C^d_lambda = prod [d+1+c(u)] by the hook product H_lambda = prod [h(u)].
It is palindromic, has constant term 1, degree |lambda|*d - 2*b(lambda),
and its value at q=1 is the dimension of the Schur module
S_lambda(C^{d+1}).

Equal P polynomials are the complete SL(2)-isomorphism invariant, and
``sl_key`` decides it without expanding P: the key is the net exponent
of each q-integer [n] in C/H, flattened into one tuple of ints.  It
counts contents and hooks a rectangle at a time, one rectangle per
block of equal rows for the contents and one per (row block, column
block) pair for the hooks, so its cost grows with the number of
distinct parts and the diagram's width and height, not with the cell
count or with d.  Instances are compared and grouped by their keys,
read through ``SLInstance.key``; ``p_poly`` is the key's printed form,
expanded only where a polynomial is shown or compared as one.

The expansion goes through the (1 - q^n) factorization: multiplying by
(1 - q^a) and dividing by (1 - q^b) are both single passes over the
coefficient array, which keeps the large staircase instances cheap.
"""

from functools import lru_cache
from itertools import accumulate, chain

from .errors import InexactDivision, LengthExceedsDimension
from .partition import Partition
from .qpoly import QPolynomial


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


def sl_key(p: Partition, d: int) -> tuple[int, ...]:
    """The SL invariant of (p, d): the flat tuple (n_1, c_1, n_2, c_2, ...)
    of the pairs (n, c_n) with c_n != 0, n strictly increasing, where c_n
    is the number of cells with d+1+c(u) = n minus the number with
    h(u) = n, so that P^d_p = prod [n]^{c_n} (Stanley, EC2, Thm 7.21.2).

    Two instances have equal keys exactly when they have equal P.  Each
    [n] = prod_{k | n, k > 1} Phi_k, and cyclotomic polynomials are
    distinct irreducibles, so P fixes the exponent e_k = sum_{k | n} c_n
    of every Phi_k, k >= 2, and Moebius inversion over divisibility
    recovers every c_n with n >= 2 from the e_k.  Both multisets have
    |p| entries, so sum c_n = 0 and c_1 = -sum_{n >= 2} c_n is fixed by
    the rest: keeping n = 1 leaves the key canonical, and it makes the
    (1 - q^n) factors of the numerator and the denominator equal in
    number, so (1 - q)^|p| cancels without a correction.  The tuple lists
    each nonzero c_n once, in increasing n, so equal c_n give equal tuples.

    Both multisets are counted by blocks, not by cells.  The runs of
    equal parts L_1 > ... > L_r cut the rows into r blocks: row block k
    has m_k rows and ends at row R_k = m_1 + ... + m_k.  The columns
    L_{l+1} < j <= L_l (L_{r+1} = 0) all have height R_l and form
    column block l, of width w_l = L_l - L_{l+1}.

    * Contents: row block k is an m_k x L_k rectangle whose values
      d+1+c(u) are d+2-R_k + a + b, 0 <= a < m_k, 0 <= b < L_k.
    * Hooks: row block k meets column block l inside the diagram exactly
      when l >= k, in an m_k x w_l rectangle whose hooks are
      L_k - L_l + R_l - R_k + 1 + a + b, 0 <= a < m_k, 0 <= b < w_l.

    The multiset {low + a + b : 0 <= a < h, 0 <= b < w} has generating
    function q^low (1 - q^h)(1 - q^w) / (1 - q)^2.  So a content
    rectangle adds +1, -1, -1, +1 at low, low+h, low+w, low+h+w of a
    second-difference array, a hook rectangle adds the negatives, and
    two prefix sums leave c_n in the slot of n.  Hooks lie in 1, ...,
    L_1 + len(p) - 1 and contents in d+2-len(p), ..., d+L_1.  With
    size = L_1 + len(p) + 2 and split = min(d+2-len(p), size), slot j
    stands for n = j below split and for n = j + d+2-len(p) - split from
    split on: one range when the two overlap, the hooks and then the
    contents when they do not.  The array has at most 2 * size slots, so
    the cost is O(r^2 + L_1 + len(p)) time and memory, whatever d is.

    Raises LengthExceedsDimension unless length(p) <= d+1.
    """
    if len(p) > d + 1:
        raise LengthExceedsDimension(f"{p} has more than {d + 1} rows")
    if not p:
        return ()
    parts, bottoms = [], []  # L_k and R_k
    for i, part in enumerate(p, start=1):
        if parts and parts[-1] == part:
            bottoms[-1] = i
        else:
            parts.append(part)
            bottoms.append(i)
    heights = [bottom - top for top, bottom in zip([0] + bottoms, bottoms)]
    widths = [part - below for part, below in zip(parts, parts[1:] + [0])]
    first_content = d + 2 - len(p)
    size = p[0] + len(p) + 2
    split = min(first_content, size)
    diff = [0] * (split + size)
    for k, (L, h, R) in enumerate(zip(parts, heights, bottoms)):
        low = split + len(p) - R
        diff[low] += 1
        diff[low + h] -= 1
        diff[low + L] -= 1
        diff[low + h + L] += 1
        for l in range(k, len(parts)):
            low, w = L - parts[l] + bottoms[l] - R + 1, widths[l]
            diff[low] -= 1
            diff[low + h] += 1
            diff[low + w] += 1
            diff[low + h + w] -= 1
    counts = list(accumulate(accumulate(diff)))
    hooks, contents = enumerate(counts[:split]), enumerate(counts[split:], first_content)
    # From a list: tuple() over a generator raised the squares loop's peak RSS by 7%.
    return tuple([x for n, c in chain(hooks, contents) if c for x in (n, c)])


@lru_cache(maxsize=8192)
def p_poly(p: Partition, d: int) -> QPolynomial:
    """P^d_p = C^d_p / H_p as an exact integer polynomial, the expansion
    of sl_key(p, d).

    All multiplications by (1 - q^n) happen before any division, each
    group in increasing n, so every intermediate division stays exact.

    Raises LengthExceedsDimension unless length(p) <= d+1.
    """
    f = [1]
    key = sl_key(p, d)
    for n, c in sorted(zip(key[::2], key[1::2]), key=lambda nc: nc[1] < 0):
        step = _times_one_minus if c > 0 else _over_one_minus
        for _ in range(abs(c)):
            f = step(f, n)
    return QPolynomial(f)
