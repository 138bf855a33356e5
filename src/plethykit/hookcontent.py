"""Hook products, content products, and the central polynomial P^d_lambda.

P^d_lambda(q) is the exact quotient of the content product
C^d_lambda = prod [d+1+c(u)] by the hook product H_lambda = prod [h(u)].
It is palindromic, has constant term 1, degree |lambda|*d - 2*b(lambda),
and its value at q=1 is the dimension of the Schur module
S_lambda(C^{d+1}).

Equal P polynomials are the complete SL(2)-isomorphism invariant, and
``sl_key`` decides it without expanding P: the key is the net exponent
c_n of each q-integer [n] in C/H, written as one int whose balanced
base-2^64 digits are the c_n while every nonzero c_n has n < _SPAN,
and otherwise flattened into one tuple of ints.  The form is decided by
the c_n alone, so equal P always give equal keys of one form.  It
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
the partition's hooks and contents, memoized for the last 512
partitions, and a cheap merge per d, so a partition asked for again
under another d is counted once: ``search`` asks for every d of a
partition in a row, and a staircase sweep meets one partition under
several slacks, squares apart.  A partition with p[0] + len(p) <= _SPAN
is counted as two packed ints built from its rectangles' corners in
O(r) big-int steps for r distinct parts; a wider one as one list of
counts, from a second-difference array of the same corners, for its
key is always merged on the tuple side.  ``p_poly`` is memoized by
key, so SL-isomorphic instances share one expansion.

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
from operator import add, neg, sub
from struct import unpack

from .errors import InexactDivision, LengthExceedsDimension
from .partition import Partition

# A key is one int while every nonzero c_n has n below this; see sl_key.
_SPAN = 256
_SQUARE = ((1 << 64) - 1) ** 2  # (X - 1)^2, X = 2^64: see _block_counts


def _count_array(p: Partition) -> list[int]:
    """The counts of a nonempty p in one list, with m = p[0] + len(p):
    counts[n] is minus the number of hooks equal to n, for 0 <= n < m,
    and counts[m + o] is the number of cells with content offset
    o = c(u) + len(p) - 1, for 0 <= o <= m.  Each rectangle of
    ``sl_key``'s docstring adds its four signed corners to a
    second-difference array, and two prefix sums leave the counts, in
    O(r^2 + m) time and O(m) memory for r distinct parts.
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
    return list(accumulate(accumulate(diff)))


@lru_cache(maxsize=512)
def _block_counts(p: Partition) -> tuple[int, list[int] | None, int | None, int | None]:
    """The d-free half of ``sl_key``: (m, counts, hooks, contents) for a
    nonempty p, with m = p[0] + len(p).  hooks and contents are
    ``_count_array``'s two halves packed as ints, the count of hook n
    (of content offset o) in base-2^64 digit n (digit o), for
    ``sl_key``'s int form.  They are built, with counts None, when
    m <= _SPAN, the widest p the int form is built from, so the memo
    holds no list for such a p.  Above it counts is ``_count_array(p)``
    and both ints are None: ``sl_key`` then always takes the tuple
    branch, so packed halves would only be read back, and they grow
    with m, 80 MB each for p = (10^7,), and twice that while being
    built.

    The ints come straight from the rectangle corners.  With X = 2^64,
    the rectangle {low + a + b : a < h, b < w} sums to
    X^low (X^h - 1)(X^w - 1) / (X - 1)^2 as digits.  So
    contents * (X - 1)^2 is the sum over row blocks k of
    X^(len(p) - R_k) (X^(m_k) - 1)(X^(L_k) - 1), and hooks, from the
    pairs (k, l >= k), is X^(-m) (X - 1)^(-2) times the sum over k of
    X^(L_k - R_k + 1 + len(p)) (X^(m_k) - 1) U_k, where
    U_k = sum_{l >= k} X^(R_l - L_l + L_1) (X^(w_l) - 1) grows by one
    term per block as the blocks are walked bottom up.  Every exponent
    is nonnegative and both divisions and the shift are exact, so this
    is O(r) big-int shifts and adds for r distinct parts, and each digit
    is a count in [0, 2^63), the same ints the array packs.  The runs of
    equal parts come from ``sorted(set(p))`` and ``p.count``, in C.

    The memo holds 512 partitions, as many as each staircase memo above
    it.  ``search`` asks for every d of a partition in a row, which one
    entry would serve, but a staircase sweep does not: the benchmark's
    17,451 squares ask 25,125 times for 9,077 distinct partitions, and
    miss 25,100 times with one entry, 15,818 with 4, 12,782 with 512
    and 11,843 with 1,024.  Callers never mutate the list.
    """
    m = p[0] + len(p)
    if m > _SPAN:
        return m, _count_array(p), None, None
    R, below, U, hooks, contents = len(p), 0, 0, 0, 0  # R_k and L_(k+1)
    for L in sorted(set(p)):
        h = p.count(L)
        U += ((1 << 64 * (L - below)) - 1) << 64 * (R - L + p[0])
        hooks += ((U << 64 * h) - U) << 64 * (L - R + 1 + len(p))
        rows = ((1 << 64 * L) - 1) << 64 * (len(p) - R)
        contents += (rows << 64 * h) - rows
        R, below = R - h, L
    return m, None, (hooks >> 64 * m) // _SQUARE, contents // _SQUARE


def sl_key(p: Partition, d: int) -> int | tuple[int, ...]:
    """The SL invariant of (p, d), from the counts c_n, where c_n is the
    number of cells with d+1+c(u) = n minus the number with h(u) = n, so
    that P^d_p = prod [n]^{c_n} (Stanley, EC2, Thm 7.21.2).  The key is
    the int sum c_n * 2^(64n) when every nonzero c_n has n < _SPAN (0
    for no nonzero c_n), and otherwise the flat tuple
    (n_1, c_1, n_2, c_2, ...) of the pairs (n, c_n) with c_n != 0, n
    strictly increasing.

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

    The int's digits are unique.  Hook lengths strictly decrease along a
    row and down a column, so at most min(p[0], len(p)) hooks equal n;
    the cells of one content lie on one diagonal, so at most as many
    have d+1+c(u) = n.  So |c_n| <= min(p[0], len(p)) < 2^63, for p is a
    tuple held in memory, and an int has one expansion in digits
    -2^63 < c_n < 2^63 to base 2^64: equal ints give equal c_n.  Which
    form a key takes depends on the c_n alone, through their top n, so
    equal c_n give keys of one form however they were merged: a Hermite
    pair ((a), b) and ((b), a) reaches its c_n once with disjoint and
    once with overlapping ranges.  Every hook and content is at most
    d + p[0], so when d + p[0] < _SPAN the int is built at once, and
    otherwise the tuple is, then packed into the int if its top n is
    still below _SPAN.  That happens only at d = len(p) - 1, where the
    top content d + p[0] cancels the hook of cell (1, 1), and n counts
    down from there.  So an int key stays below 64 * _SPAN bits, and no
    key's length grows with d.

    _SPAN is sized by measurement (Python 3.11, 2 CPUs, in process, the
    counts already memoized; per key over 39 partitions of weight <= 12,
    then over four of 4 to 12 parts and weight 35 to 144).  The tuple costs
    2.2-2.6 us (4.5-5.5 us) whatever d is.  The int costs 0.5 us at
    d = 30, 1.3 us at 256, 1.9 us at 512 and 3.2 us at 1,024 (0.7, 1.5,
    2.1 and 3.4 us), and hashing it, as grouping and the ``p_poly`` memo
    do, adds 0.2, 1.9, 2.7 and 5.4 us (0.3, 1.5, 2.7 and 5.3 us), against
    0.2-0.5 us for the tuple.  Built and hashed, the int breaks even near
    d = 256 on the small partitions, and it takes 2.2 KB there against
    0.4 KB for the tuple.

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
    function q^low (1 - q^h)(1 - q^w) / (1 - q)^2, four signed corners
    over a double prefix sum.  With m = L_1 + len(p), hooks lie in
    1, ..., m-1 and contents in first, ..., first+m-2, where
    first = d+2-len(p): only the contents depend on d, and only by that
    shift.  So ``_block_counts`` counts once per partition, the hooks
    and the contents apart, and the key for each d merges the two.  For
    m <= _SPAN it packs each half as an int straight from the corners,
    in O(r) big-int steps for r distinct parts (the identity is in its
    docstring), and the int key is one shift and one subtraction,
    (contents << 64 * first) - hooks, exact because every digit stays
    in range.  Above _SPAN, where d + L_1 >= m - 1 >= _SPAN always
    leads to the tuple branch, it keeps one list of counts instead, from
    a second-difference array in O(r^2 + m) (``_count_array``).  The
    tuple reads that list, or for a packed p the two ints read back with
    one ``unpack`` each: when first >= m the ranges are disjoint and the
    halves are read as they are, otherwise the contents are added to
    the hooks from slot first on.  Each merge takes O(L_1 + len(p)), or
    O(_SPAN) for the int, whatever d is.

    The unchecked kernel of ``SLInstance``, its one caller in the
    package and the one parser of (p, d): p must already be a canonical
    partition and d a nonnegative int.  Raises LengthExceedsDimension
    unless length(p) <= d+1.
    """
    if len(p) > d + 1:
        raise LengthExceedsDimension(f"{p} has more than {d + 1} rows")
    if not p:
        return 0
    m, counts, hooks, contents = _block_counts(p)
    first = d + 2 - len(p)
    if d + p[0] < _SPAN:
        return (contents << 64 * first) - hooks
    if counts is None:  # packed, so m <= _SPAN: read the halves back
        counts = [*map(neg, unpack(f"<{m}Q", hooks.to_bytes(8 * m, "little")))]
        counts += unpack(f"<{m + 1}Q", contents.to_bytes(8 * m + 8, "little"))
    if first >= m:
        ns = chain(range(m), count(first))
    else:
        counts = counts[:first] + list(map(add, counts[first:m], counts[m:])) + counts[2 * m - first :]
        ns = count()
    # Interleaved by slice assignment: zip, compress and chain over every
    # slot took 1.45x as long, which showed on the squares job, where almost
    # every partition is counted anew.
    nonzero = list(compress(ns, counts))
    if not nonzero or nonzero[-1] < _SPAN:
        return sum(c << 64 * n for n, c in zip(nonzero, filter(None, counts)))
    key = nonzero * 2
    key[::2], key[1::2] = nonzero, filter(None, counts)
    return tuple(key)


@lru_cache(maxsize=8192)
def p_poly(key: int | tuple[int, ...]) -> tuple[int, ...]:
    """P = prod [n]^{c_n} as an exact integer polynomial, from its key as
    ``SLInstance.key`` holds it, in either of ``sl_key``'s forms: its
    coefficient tuple, indexed by exponent, ending in the leading
    coefficient.  Memoized by key, so SL-isomorphic instances share one
    expansion.

    An int key with top digit n = t lies within 2^(64t - 1) and
    2^(64t + 63) of 0 (its digits are below 2^63 in size), so it has
    k = bit_length // 64 + 1 digits.  Adding 2^63 to every digit makes
    them all 0 <= c_n + 2^63 < 2^64, read as one k-digit unsigned word
    array, and the pairs (n, c_n) are the digits that are not 2^63.

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
    if isinstance(key, int):
        k = abs(key).bit_length() // 64 + 1
        bias = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * k, "little")  # 2^63 in every digit
        digits = unpack(f"<{k}Q", (key + bias).to_bytes(8 * k, "little"))
        pairs = [(n, c - (1 << 63)) for n, c in enumerate(digits) if c != 1 << 63]
    else:
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
