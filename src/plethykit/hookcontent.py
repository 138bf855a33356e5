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
and otherwise as one flat tuple of the nonzero second differences of
the c_n.  The form is decided by the c_n alone, so equal P always give
equal keys of one form.  It counts contents and hooks a rectangle at a
time, one rectangle per block of equal rows for the contents and one
per (row block, column block) pair for the hooks, so its cost grows
with the number of distinct parts, not with the cell count, p[0] or d.
Instances are compared and grouped by their keys, read through
``SLInstance.key``; ``p_poly`` turns a key into its printed form, the
polynomial, only where one is shown or compared as one.

``sl_key`` keeps no key: a caller whose traffic repeats an instance
memoizes it, as ``staircase`` does.  While d + p[0] < _SPAN, where
every key is the int, it splits into a d-free count of the partition's
hooks and contents, two packed ints built from its rectangles' corners
in O(r) big-int steps for r distinct parts and memoized for the last
512 partitions, and one shift per d, so a partition asked for again
under another d is counted once: ``search`` asks for every d of a
partition in a row, and a staircase sweep meets one partition under
several slacks, squares apart.  Any other instance is keyed straight
from the corners of its rectangles, at most 4(r + r(r+1)/2) of them
whatever p[0] and d are.  ``p_poly`` is memoized by key, so
SL-isomorphic instances share one expansion.

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

from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import prod
from operator import sub
from struct import unpack

from .errors import InexactDivision, LengthExceedsDimension
from .partition import Partition

# A key is one int while every nonzero c_n has n below this; see sl_key.
_SPAN = 256
_SQUARE = ((1 << 64) - 1) ** 2  # (X - 1)^2, X = 2^64: see _block_counts


@lru_cache(maxsize=512)
def _block_counts(p: Partition) -> tuple[int, int]:
    """The d-free half of ``sl_key``'s int side: (hooks, contents) for a
    nonempty p with m = p[0] + len(p) <= _SPAN, which d + p[0] < _SPAN
    and len(p) <= d + 1 ensure.  hooks packs the count of hook n as
    base-2^64 digit n, for 0 <= n < m, and contents the count of cells
    with content offset o = c(u) + len(p) - 1 as digit o, for 0 <= o <= m.

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
    is a count in [0, 2^63).  The runs of equal parts come from
    ``sorted(set(p))`` and ``p.count``, in C.

    The memo holds 512 partitions, as many as the staircase member memo
    above it.  ``search`` asks for every d of a partition in a row, which
    one entry would serve, but a staircase sweep does not: the
    benchmark's 17,451 squares ask 33,904 times for 9,077 distinct
    partitions, and miss 33,752 times with one entry, 20,918 with 4,
    12,751 with 512 and 11,836 with 1,024.
    """
    m = p[0] + len(p)
    R, below, U, hooks, contents = len(p), 0, 0, 0, 0  # R_k and L_(k+1)
    for L in sorted(set(p)):
        h = p.count(L)
        U += ((1 << 64 * (L - below)) - 1) << 64 * (R - L + p[0])
        hooks += ((U << 64 * h) - U) << 64 * (L - R + 1 + len(p))
        rows = ((1 << 64 * L) - 1) << 64 * (len(p) - R)
        contents += (rows << 64 * h) - rows
        R, below = R - h, L
    return (hooks >> 64 * m) // _SQUARE, contents // _SQUARE


def sl_key(p: Partition, d: int) -> int | tuple[int, ...]:
    """The SL invariant of (p, d), from the counts c_n, where c_n is the
    number of cells with d+1+c(u) = n minus the number with h(u) = n, so
    that P^d_p = prod [n]^{c_n} (Stanley, EC2, Thm 7.21.2).  The key is
    the int sum c_n * 2^(64n) when every nonzero c_n has n < _SPAN (0
    for no nonzero c_n), and otherwise the flat tuple
    (n_1, t_1, n_2, t_2, ...) of the pairs (n, t_n) with t_n != 0, n
    strictly increasing, where t_n = c_n - 2 c_(n-1) + c_(n-2) is the
    second difference: sum t_n q^n = (1 - q)^2 sum c_n q^n.

    Two instances have equal keys exactly when they have equal P.  Each
    [n] = prod_{k | n, k > 1} Phi_k, and cyclotomic polynomials are
    distinct irreducibles, so P fixes the exponent e_k = sum_{k | n} c_n
    of every Phi_k, k >= 2, and Moebius inversion over divisibility
    recovers every c_n with n >= 2 from the e_k.  Both multisets have
    |p| entries, so sum c_n = 0 and c_1 = -sum_{n >= 2} c_n is fixed by
    the rest: keeping n = 1 leaves the key canonical, and it makes the
    (1 - q^n) factors of the numerator and the denominator equal in
    number, so (1 - q)^|p| cancels without a correction.

    Both forms are canonical.  The int's digits are unique: hook lengths
    strictly decrease along a row and down a column, so at most
    min(p[0], len(p)) hooks equal n; the cells of one content lie on one
    diagonal, so at most as many have d+1+c(u) = n.  So
    |c_n| <= min(p[0], len(p)) < 2^63, for p is a tuple held in memory,
    and an int has one expansion in digits -2^63 < c_n < 2^63 to base
    2^64: equal ints give equal c_n.  The tuple is the second difference
    of a sequence with finite support, which the sequence fixes and
    which fixes it back, c_n = sum_{j <= n} (n - j + 1) t_j, so equal
    c_n give equal t_n, each nonzero one listed once in increasing n:
    equal tuples.  Its top n is the top nonzero c_n's plus 2, so which
    form a key takes depends on the c_n alone, however they were
    reached: a Hermite pair ((a), b) and ((b), a) cancels different
    corners to reach one key.

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
    function q^low (1 - q^h)(1 - q^w) / (1 - q)^2: four signed corners,
    +low, -(low + h), -(low + w) and +(low + h + w), over a double
    prefix sum.  Summing every content rectangle's corners and
    subtracting every hook rectangle's gives the t_n, at most
    4(r + r(r+1)/2) of them, in O(r^2) steps whatever p[0] and d are.
    Every hook and content is at most d + p[0], so when d + p[0] < _SPAN
    the key is the int, built by ``_block_counts``, which packs the
    hooks and the contents apart once per partition (the identity is in
    its docstring): with first = d+2-len(p), the least content, the key
    is (contents << 64 * first) - hooks, exact because every digit stays
    in range.  Otherwise the corners are summed in a dict, the zeros
    dropped and the rest sorted; if the top n is still below _SPAN + 2
    the key is sum t_n 2^(64n) // (2^64 - 1)^2, the very int the fast
    side builds, and otherwise the tuple.  The int happens there only at
    d = len(p) - 1, where the top content d + p[0] cancels the hook of
    cell (1, 1), and n counts down from there.  So an int key stays
    below 64 * _SPAN bits, and no key's length grows with d or p[0].

    _SPAN is sized by measurement (Python 3.11, 2 CPUs, in process, the
    packed halves already memoized; per key over every 7th nonempty
    partition of weight <= 12, 39 of them, then over four of 4 to 12
    parts and weight 35 to 144, in parentheses).  The corner tuple, built
    anew for each d, costs 15.7 us (51 us) whatever d is, and hashing it
    0.1-0.3 us (0.1-0.5 us).  The int costs 0.3 us at d = 30, 1.0 us at
    256, 1.5 us at 512, 2.7 us at 1,024 and 7.6 us at 2,048 (0.4, 1.1,
    1.6, 2.9 and 5.1 us), and hashing it, as grouping and the ``p_poly``
    memo do, adds 0.2, 1.2, 2.4, 4.7 and 6.9 us (0.3, 1.3, 2.5, 4.7 and
    9.6 us).  Built and hashed, the int is the cheaper up to d near
    2,048 on the small partitions and past it on the larger ones, but its
    size grows with d: 2.2 KB at 256 and 8.6 KB at 1,024, against 1.0 KB
    (2.7 KB) for the tuple.  No benchmark workload has d + p[0] above 32,
    so _SPAN stays at 256, where the int is still no larger than the
    tuple of a larger partition.

    The unchecked kernel: p must already be a canonical partition and d
    a nonnegative int.  ``SLInstance``, the one parser of (p, d) from
    outside, checks both before it calls this; the package's own
    producers (staircase members, ``search`` and ``oracle-check``) call
    it on pairs they built valid.  Raises LengthExceedsDimension unless
    length(p) <= d+1.
    """
    if len(p) > d + 1:
        raise LengthExceedsDimension(f"{p} has more than {d + 1} rows")
    if not p:
        return 0
    if d + p[0] < _SPAN:
        hooks, contents = _block_counts(p)
        return (contents << 64 * (d + 2 - len(p))) - hooks
    parts, heights = zip(*sorted(Counter(p).items(), reverse=True))  # L_k and m_k
    bottoms = list(accumulate(heights))  # R_k
    widths = list(map(sub, parts, parts[1:] + (0,)))  # w_l
    corners = Counter()
    for k, (L, h, R) in enumerate(zip(parts, heights, bottoms)):
        rectangles = [(d + 2 - R, L, 1)]
        rectangles += [(L - parts[l] + bottoms[l] - R + 1, widths[l], -1) for l in range(k, len(parts))]
        for low, w, sign in rectangles:
            corners[low] += sign
            corners[low + h] -= sign
            corners[low + w] -= sign
            corners[low + h + w] += sign
    key = sorted((n, t) for n, t in corners.items() if t)
    if not key or key[-1][0] - 2 < _SPAN:
        return sum(t << 64 * n for n, t in key) // _SQUARE
    return tuple(chain.from_iterable(key))


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
    array, and the pairs (n, c_n) are the digits that are not 2^63.  A
    tuple key holds the second differences t_n, so two prefix sums over
    every n below its top corner give the c_n (the top nonzero one is at
    that corner minus 2), and the pairs are the nonzero ones.

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
    reference in the tests rule out for keys that ``sl_key`` builds.
    """
    if isinstance(key, int):
        k = abs(key).bit_length() // 64 + 1
        bias = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * k, "little")  # 2^63 in every digit
        digits = unpack(f"<{k}Q", (key + bias).to_bytes(8 * k, "little"))
        pairs = [(n, c - (1 << 63)) for n, c in enumerate(digits) if c != 1 << 63]
    else:
        corners = dict(zip(key[::2], key[1::2]))
        counts = accumulate(accumulate(map(corners.get, range(key[-2]), repeat(0))))
        pairs = [(n, c) for n, c in enumerate(counts) if c]
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
