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
read through ``SLInstance.key``, the one parser of (p, d); ``p_poly``
turns a key into its printed form, the polynomial, only where one is
shown or compared as one.

``sl_key`` keeps no key: a caller whose traffic repeats an instance
memoizes it, as ``staircase`` does.  It splits into a d-free count of
the partition's hooks and contents, memoized for one partition, and a
cheap merge per d, so a caller that asks for every d of a partition in
a row, as ``search`` does, counts each partition once.  ``p_poly`` is
memoized by key, so SL-isomorphic instances share one expansion.

A polynomial in q is a plain tuple of ints indexed by exponent, with no
trailing zero, so () is zero and (1,) is one: equal polynomials are
equal tuples, and nothing here touches floating point.

``p_poly`` expands only the lower half of P, to the middle degree, as a
power series through the (1 - q^n) factorization: multiplying by
(1 - q^a) and dividing by (1 - q^b) are both single passes over that
half, and the palindrome gives the upper half by mirroring it.  A
truncated series leaves no remainder to check, so its guard against a
key that is not P's is the dimension P(1), weaker than exact division.
"""

from functools import lru_cache
from itertools import accumulate, chain, compress, count
from math import prod
from operator import add, sub

from .errors import InexactDivision, LengthExceedsDimension
from .partition import Partition


@lru_cache(maxsize=1)
def _block_counts(p: Partition) -> tuple[int, list[int]]:
    """The d-free half of ``sl_key``: (m, counts) for a nonempty p, with
    m = p[0] + len(p).  counts[n] is minus the number of hooks equal to
    n, for 0 <= n < m, and counts[m + o] is the number of cells with
    content offset o = c(u) + len(p) - 1, for 0 <= o <= m.

    The memo holds one partition: ``search`` asks for every d of a
    partition in a row, and callers never mutate the list.
    """
    m = p[0] + len(p)
    parts, bottoms = [], []  # L_k and R_k
    for i, part in enumerate(p, start=1):
        if parts and parts[-1] == part:
            bottoms[-1] = i
        else:
            parts.append(part)
            bottoms.append(i)
    heights = list(map(sub, bottoms, [0] + bottoms))
    widths = list(map(sub, parts, parts[1:] + [0]))
    diff = [0] * (2 * m + 1)
    for k, (L, h, R) in enumerate(zip(parts, heights, bottoms)):
        low = m + len(p) - R
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
    return m, list(accumulate(accumulate(diff)))


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
    two prefix sums leave the counts.  With m = L_1 + len(p), hooks lie
    in 1, ..., m-1 and contents in first, ..., first+m-2, where
    first = d+2-len(p): only the contents depend on d, and only by that
    shift.  So ``_block_counts`` counts once per partition, in one array,
    the negated hooks in slots 0..m-1 and the contents by offset from
    slot m on, and the key for each d merges the two halves: when
    first >= m the ranges are disjoint and the halves are read as they
    are, otherwise the contents are added to the hooks from slot first
    on.  The counts take O(r^2 + L_1 + len(p)) time and memory once per
    partition, and each merge O(L_1 + len(p)), whatever d is.

    The unchecked kernel of ``SLInstance``, its one caller in the
    package and the one parser of (p, d): p must already be a canonical
    partition and d a nonnegative int.  Raises LengthExceedsDimension
    unless length(p) <= d+1.
    """
    if len(p) > d + 1:
        raise LengthExceedsDimension(f"{p} has more than {d + 1} rows")
    if not p:
        return ()
    m, counts = _block_counts(p)
    first = d + 2 - len(p)
    if first >= m:
        ns = chain(range(m), count(first))
    else:
        counts = counts[:first] + list(map(add, counts[first:m], counts[m:])) + counts[2 * m - first :]
        ns = count()
    # Interleaved by slice assignment: zip, compress and chain over every
    # slot took 1.45x as long, which showed on the squares job, where almost
    # every partition is counted anew.
    nonzero = list(compress(ns, counts))
    key = nonzero * 2
    key[::2], key[1::2] = nonzero, filter(None, counts)
    return tuple(key)


@lru_cache(maxsize=8192)
def p_poly(key: tuple[int, ...]) -> tuple[int, ...]:
    """P = prod [n]^{c_n} as an exact integer polynomial, from its key
    (n_1, c_1, n_2, c_2, ...) as ``SLInstance.key`` holds it: its
    coefficient tuple, indexed by exponent, ending in the leading
    coefficient.  Memoized by key, so SL-isomorphic instances share one
    expansion.

    P is palindromic of degree D = sum c_n (n - 1), so its coefficients
    below h = D//2 + 1 fix it.  The factors (1 - q^n)^{c_n} are applied
    in key order as power series modulo q^h, where dividing always
    exists, and every n >= h leaves the series unchanged; the top half
    is then the bottom half mirrored.  A truncated series leaves no
    remainder to reject a forged key by, so the one guard is the
    dimension: P(1) * prod_{c_n<0} n^{-c_n} must equal
    prod_{c_n>0} n^{c_n}, or InexactDivision is raised.  That check is
    weaker than exact division: a key whose factors do not divide can
    still pass it, which the oracle routes and the full-degree
    reference in the tests rule out for keys that ``SLInstance`` builds.
    """
    pairs = list(zip(key[::2], key[1::2]))
    degree = sum(c * (n - 1) for n, c in pairs)
    h = degree // 2 + 1
    f = [1] + [0] * (h - 1)
    for n, c in pairs:
        if n >= h:
            continue
        if c > 0:
            for _ in range(c):
                f[n:] = map(sub, f[n:], f[:-n])
        else:
            for r in range(n):
                row = f[r::n]
                for _ in range(-c):
                    row = accumulate(row)
                f[r::n] = row
    f += f[: degree + 1 - h][::-1]
    if sum(f) * prod(n**-c for n, c in pairs if c < 0) != prod(n**c for n, c in pairs if c > 0):
        raise InexactDivision(f"{key} does not give the dimension of its P")
    return tuple(f)
