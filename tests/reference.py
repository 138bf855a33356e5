"""Slow, independent reference implementations the tests compare
plethykit against.  The package itself calls none of them.

* ``p_of``: P^d_p as the package reaches it, ``p_poly`` of
  ``SLInstance(p, d).key``, so a test asks for P by (p, d) through the
  checked parser of (p, d).
* ``mul``, ``exact_div``, ``q_analog`` and ``ONE``: schoolbook ring
  operations on coefficient tuples, the product/quotient reference for
  ``p_poly`` (which works through (1 - q^n) passes instead);
  ``trim`` drops trailing zeros, and ``canonical_poly`` checks that a
  polynomial the package returns is in that form.
* ``full_p_poly``: P expanded from a key to its full degree, every
  multiplication by (1 - q^n) before any exact division
  (``_times_one_minus``, ``_over_one_minus``), the reference for
  ``p_poly``, which expands half of P as a power series and mirrors it.
* ``sequential_vandermonde``: the Vandermonde product taken one node
  difference at a time into one running product, the reference for
  ``oracle._vandermonde``, which multiplies them in a balanced tree.
* ``conjugate``: the transposed diagram, which the block-wise
  ``sl_key`` reads off the row blocks instead.
* ``cells``, ``hook_length`` and ``content``: cell-by-cell statistics,
  and ``per_cell_key``, the net q-integer exponents they give, the
  reference for the block-wise ``sl_key``; ``key_pairs`` checks that a
  key is in ``sl_key``'s canonical form (second-difference corners,
  packed in an int below ``_SPAN`` and a flat tuple from there on) and
  reads its pairs back, and ``pack`` writes pairs in that form.
* ``CharacterData`` and ``character_data``: the full GL(2) character,
  the slow path for ``gl_isomorphic``.
* ``main_gl_condition`` and ``minimal_lift``: the z(z-1) balance
  condition under which the first-row pair of a ``main_family`` square
  is GL-isomorphic, checked against ``gl_isomorphic``.
* ``complement``, ``tilde_reduce``, ``dual`` and ``normalize``: the box
  complement that ``staircase.reverse`` must realize, the full-column
  strip, and the two moves on an ``SLInstance`` built from them, which
  must leave ``SLInstance.key`` unchanged.
* ``check_as_parsed``: an instance the package built without checks,
  through ``SLInstance._of``, against the checked parse of its own
  fields, the reference for every producer inside the package.
* ``_min_y_solution``: the least-y nonnegative solution of the linear
  Diophantine equation a*y - b*x = c, through a modular inverse, the
  reference for ``twist._least_lift``, which solves the twist equation
  B*(d + 2x) = A*(e + 2y) as a proportion: with c = (B*d - A*e)/2 the
  two are one equation.
* ``one_pass_classes``: the classes of ``search`` grouped in one pass
  that holds every instance's key until the enumeration ends, the
  reference for ``search.enumerate_classes``, which keeps only each
  key's hash and keys again the instances whose hash recurs.
"""

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from plethykit.errors import InexactDivision, LengthExceedsDimension
from plethykit.hookcontent import _SPAN, p_poly, sl_key
from plethykit.partition import Partition, b_statistic, canonical, partitions_of
from plethykit.plethysm import PlethysmInstance, SLInstance, sl_isomorphic
from plethykit.search import EquivalenceClass

Cell = tuple[int, int]
Poly = tuple[int, ...]

ONE: Poly = (1,)


def p_of(p, d) -> Poly:
    """P^d_p, expanded from the key of ``SLInstance(p, d)``."""
    return p_poly(SLInstance(p, d).key)


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


def full_p_poly(key) -> Poly:
    """P = prod [n]^{c_n} from its key, its pairs read by ``key_pairs``,
    expanded to its full degree: all multiplications by (1 - q^n) happen
    before any division, each group in increasing n, so every
    intermediate division is exact, and a remainder raises
    InexactDivision."""
    f = [1]
    for n, c in sorted(key_pairs(key), key=lambda nc: (nc[1] < 0, nc[0])):
        step = _times_one_minus if c > 0 else _over_one_minus
        for _ in range(abs(c)):
            f = step(f, n)
    return tuple(f)


def trim(coeffs) -> Poly:
    """The coefficients as a polynomial tuple, trailing zeros dropped."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def canonical_poly(f: Poly) -> Poly:
    """f, after checking that it is a polynomial as the package returns
    one: a tuple of ints (no bools), indexed by exponent, with no
    trailing zero, so () is the zero polynomial."""
    assert isinstance(f, tuple), f
    assert all(type(c) is int for c in f), f
    assert not f or f[-1] != 0, f
    return f


def q_analog(a: int) -> Poly:
    """[a] = 1 + q + ... + q^(a-1).

    Raises ValueError unless a is an integer >= 1.
    """
    if not isinstance(a, int) or isinstance(a, bool) or a < 1:
        raise ValueError(f"[a] requires a positive integer, got {a!r}")
    return (1,) * a


def mul(a: Poly, b: Poly) -> Poly:
    """The product a * b, coefficient by coefficient."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def exact_div(f: Poly, div: Poly) -> Poly:
    """The exact quotient f / div over the integers, by long division;
    like ``mul``, it keeps canonical inputs canonical.

    Raises InexactDivision if the division leaves a remainder or would
    need a non-integer coefficient, and ZeroDivisionError when dividing
    by zero.
    """
    if not div:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return ()
    rem = list(f)
    lead = div[-1]
    qdeg = len(rem) - len(div)
    if qdeg < 0:
        raise InexactDivision(f"{f!r} is not divisible by {div!r}")
    quot = [0] * (qdeg + 1)
    for i in range(qdeg, -1, -1):
        top = rem[i + len(div) - 1]
        if top % lead:
            raise InexactDivision(f"{f!r} is not divisible by {div!r}")
        quot[i] = top // lead
        if quot[i]:
            for j, c in enumerate(div):
                rem[i + j] -= quot[i] * c
    if any(rem):
        raise InexactDivision(f"{f!r} is not divisible by {div!r}")
    return tuple(quot)


def sequential_vandermonde(nodes: list[int]) -> int:
    """prod_{i<i'} (nodes[i'] - nodes[i]), multiplied in row order."""
    det = 1
    for i, y in enumerate(nodes):
        for z in nodes[i + 1 :]:
            det *= z - y
    return det


def conjugate(p: Partition) -> Partition:
    """The transposed diagram: column lengths of p, e.g. (3,2,2,1) -> (4,3,1)."""
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


def complement(p: Partition, k: int) -> Partition:
    """The complement of the diagram of p inside a k x p[0] rectangle.

    With parts zero-padded to length k, the complement reads
    (p[0]-p[k-1], ..., p[0]-p[1]) and is returned in canonical form.

    Raises LengthExceedsDimension if p has more than k parts.
    """
    if len(p) > k:
        raise LengthExceedsDimension(f"partition {p} does not fit in {k} rows")
    if not p:
        return ()
    padded = p + (0,) * (k - len(p))
    return canonical(p[0] - padded[i] for i in range(k - 1, 0, -1))


def tilde_reduce(p: Partition, k: int) -> tuple[Partition, int]:
    """Subtract the k-th (zero-padded) part from every part of p.

    Returns the reduced partition together with the subtracted amount,
    e.g. ((4,3,2), k=3) -> ((2,1), 2).  The reduced partition has fewer
    than k parts.

    Raises LengthExceedsDimension if p has more than k parts.
    """
    if len(p) > k:
        raise LengthExceedsDimension(f"partition {p} does not fit in {k} rows")
    if len(p) < k or k == 0:
        return p, 0
    shift = p[-1]
    return canonical(part - shift for part in p), shift


def cells(p: Partition) -> Iterator[Cell]:
    """All cells of the diagram, row by row, as 1-based (row, col)."""
    for i, part in enumerate(p, start=1):
        for j in range(1, part + 1):
            yield i, j


def hook_length(p: Partition, u: Cell) -> int:
    """Arm plus leg plus one: boxes to the right, below, and u itself."""
    i, j = u
    arm = p[i - 1] - j
    leg = sum(1 for part in p[i:] if part >= j)
    return arm + leg + 1


def content(p: Partition, u: Cell) -> int:
    """c(u) = col - row of the cell."""
    i, j = u
    return j - i


def per_cell_key(p: Partition, d: int) -> frozenset[tuple[int, int]]:
    """The pairs (n, c_n), c_n != 0, with c_n the number of cells with
    d+1+c(u) = n minus the number with h(u) = n, counted cell by cell."""
    net = Counter(d + 1 + content(p, u) for u in cells(p))
    net.subtract(hook_length(p, u) for u in cells(p))
    return frozenset((n, c) for n, c in net.items() if c)


def key_pairs(key) -> frozenset[tuple[int, int]]:
    """The pairs (n, c_n) of an ``sl_key``, after checking its canonical
    form, which the pairs decide: the corners (n, t_n) of the second
    difference t_n = c_n - 2 c_(n-1) + c_(n-2), with n strictly
    increasing and no zero t_n, encoded as one int whose balanced
    base-2^64 digits are the t_n when the top n - 2, the top nonzero
    c_n, is below ``_SPAN`` (0 for no corner), and otherwise as the flat
    tuple (n_1, t_1, n_2, t_2, ...).  An int's corners are read one
    digit at a time by ``divmod``, apart from ``p_poly``'s word array;
    either encoding's corners by a walk over them, between which c_n is
    linear, apart from ``p_poly``'s dense prefix sums."""
    if type(key) is int:
        corners, n = [], 0
        while key:
            key, t = divmod(key, 1 << 64)
            if t >= 1 << 63:  # a negative digit borrows from the next
                t -= 1 << 64
                key += 1
            if t:
                corners += [n, t]
            n += 1
        assert not corners or corners[-2] - 2 < _SPAN, corners
    else:
        assert isinstance(key, tuple) and len(key) % 2 == 0, key
        assert key and key[-2] - 2 >= _SPAN, key
        corners = key
    ns, ts = corners[::2], corners[1::2]
    assert all(a < b for a, b in zip(ns, ns[1:])), key
    assert all(ts), key
    # (1 - q)^2 divides sum t_n q^n, so the c_n have finite support.
    assert sum(ts) == 0 and sum(n * t for n, t in zip(ns, ts)) == 0, key
    pairs, slope, c = [], 0, 0
    for n, t, end in zip(ns, ts, ns[1:]):
        slope += t
        if slope or c:  # a run of zeros is skipped, whatever its length
            for m in range(n, end):
                c += slope
                if c:
                    pairs.append((m, c))
    return frozenset(pairs)


def pack(pairs) -> int | tuple[int, ...]:
    """The key in ``sl_key``'s form for the pairs (n, c_n), c_n != 0: the
    nonzero second differences t_n in increasing n, encoded as the int
    sum of t_n * 2^(64n) when every n is below ``_SPAN``, otherwise as
    the flat tuple (n_1, t_1, n_2, t_2, ...)."""
    corners = Counter()
    for n, c in pairs:
        corners.update({n: c, n + 2: c})
        corners[n + 1] -= 2 * c
    corners = sorted((n, t) for n, t in corners.items() if t)
    if not corners or corners[-1][0] - 2 < _SPAN:
        return sum(t << 64 * n for n, t in corners)
    return tuple(x for corner in corners for x in corner)


@dataclass(frozen=True)
class CharacterData:
    """The character (x1^d1 x2^d2)^|lam| * q^b_shift * p with q = x2/x1."""

    weight_exponents: tuple[int, int]
    b_shift: int
    p: Poly

    def monomials(self) -> dict[tuple[int, int], int]:
        """Expand to {(x1 exponent, x2 exponent): coefficient}."""
        e1, e2 = self.weight_exponents
        out = {}
        for i, c in enumerate(self.p):
            if c:
                out[(e1 - self.b_shift - i, e2 + self.b_shift + i)] = c
        return out


def character_data(inst: PlethysmInstance) -> CharacterData:
    w = sum(inst.lam)
    return CharacterData(
        weight_exponents=(w * inst.delta[0], w * inst.delta[1]),
        b_shift=b_statistic(inst.lam),
        p=p_poly(inst.sl.key),
    )


def main_gl_condition(x, y, u: int, v: int, z: int, shape: str) -> bool:
    """Whether the first-row pair of the square is GL-isomorphic under
    the minimal lifts delta = (d, 0).

    ``shape`` is ``"t=s"`` (len(y) == len(x)) or ``"t=s+1"``
    (len(y) == len(x) + 1); the condition reads

        z*(z-1) == S + |x|*(u+v)            for t=s,
        z*(z-1) == S + |x|*(u+v) + u*v      for t=s+1,

    with S = |x|^2 + 2 * sum of x_i*y_j over i+j = len(y).

    Raises ValueError for another shape, or when the sequence lengths do
    not fit the shape.
    """
    x, y = tuple(x), tuple(y)
    s, t = len(x), len(y)
    if shape == "t=s":
        if t != s:
            raise ValueError(f"shape t=s needs len(y) == len(x), got {s}, {t}")
        extra = 0
    elif shape == "t=s+1":
        if t != s + 1:
            raise ValueError(f"shape t=s+1 needs len(y) == len(x)+1, got {s}, {t}")
        extra = u * v
    else:
        raise ValueError(f"shape must be 't=s' or 't=s+1', got {shape!r}")
    cross = sum(x[i - 1] * y[t - i - 1] for i in range(1, s + 1) if t - i >= 1)
    big_s = sum(x) ** 2 + 2 * cross
    return z * (z - 1) == big_s + sum(x) * (u + v) + extra


def minimal_lift(inst: SLInstance) -> PlethysmInstance:
    """The canonical GL lift delta = (d, 0) of an SL instance."""
    return PlethysmInstance(inst.lam, (inst.d, 0))


def normalize(a: SLInstance) -> SLInstance:
    """Strip full-height columns: reduce lam so it has at most d rows.

    The P polynomial (hence the SL-isomorphism type) is unchanged.
    """
    reduced, _ = tilde_reduce(a.lam, a.d + 1)
    return SLInstance(reduced, a.d)


def dual(a: SLInstance) -> SLInstance:
    """The complement of lam inside the (d+1) x lam_1 box, same d.

    Always SL-isomorphic to the input.
    """
    return SLInstance(complement(a.lam, a.d + 1), a.d)


def check_as_parsed(inst: SLInstance) -> None:
    """Assert that ``SLInstance(inst.lam, inst.d)`` accepts the fields of
    an instance built without checks and gives it back, key and all, so
    that lam is a canonical partition tuple; and, since == takes True
    and 1.0 for 1, that d and every part are plain ints."""
    parsed = SLInstance(inst.lam, inst.d)
    assert (inst, inst.key) == (parsed, parsed.key), inst
    assert type(inst.d) is int and all(type(part) is int for part in inst.lam), inst


def _min_y_solution(a: int, b: int, c: int) -> tuple[int, int] | None:
    """Minimal-y nonnegative (x, y) with a*y - b*x == c, or None.

    a and b must be nonnegative.
    """
    if b == 0:
        if a == 0:
            return (0, 0) if c == 0 else None
        return (0, c // a) if c >= 0 and c % a == 0 else None
    g = gcd(a, b)
    if c % g:
        return None
    b2 = b // g
    y = (c // g) * pow(a // g, -1, b2) % b2 if b2 > 1 else 0
    if a * y < c:  # x would be negative: step y up by b2 until a*y >= c
        if a == 0:
            return None
        y += (c - a * y + a * b2 - 1) // (a * b2) * b2
    return (a * y - c) // b, y


def one_pass_classes(max_weight: int, max_d: int) -> list[EquivalenceClass]:
    """``search.enumerate_classes`` as one pass that keys every instance
    and groups all of them by their keys, without the instance cap."""
    groups: dict[int | tuple[int, ...], list[tuple[int, Partition]]] = {}
    for n in range(1, max_weight + 1):
        for lam in partitions_of(n, max_d):
            for d in range(len(lam), max_d + 1):
                groups.setdefault(sl_key(lam, d), []).append((d, lam))
    classes = []
    for key, members in groups.items():
        if len(members) >= 2:
            members.sort()
            instances = tuple(SLInstance._of(lam, d, key) for d, lam in members)
            for inst in instances[1:]:  # the parity check of every SL "yes"
                sl_isomorphic(instances[0], inst)
            classes.append(EquivalenceClass(p_poly(key), instances))
    classes.sort(key=lambda c: (len(c.poly), c.poly))
    return classes
