"""Staircase-shaped partitions described by step widths, heights, slack.

A descriptor is the pair (widths, heights_slack) of tuples: widths
(w1, ..., wr) and heights_slack (h1, ..., hr, s), one entry longer, its
last entry the slack s.  It encodes the partition whose i-th row block
(height hi, counted from the top) has row length w1 + ... + w_{r+1-i},
inside ambient dimension d+1 = h1 + ... + hr + s.  Reversing both
tuples produces the box complement of the diagram, which is always
SL-isomorphic to it.

``FAMILIES`` maps each family kind to the builder of its members: the
four-member ``main_family`` square and the two six-member corollary
families, staircase configurations that are pairwise SL-isomorphic for
every choice of their parameters.  Each corollary family is two main
squares glued along two shared members.

Members are built through two memos of 512 entries each, one per kind
of repeat a sweep over a parameter grid makes.  ``_member`` catches a
repeated descriptor: the square with u and v swapped has the same four
descriptors, and u = v repeats two within one square.  Below it, the
key's count memo in ``hookcontent`` catches a repeated partition under
a new d or a new descriptor: squares that differ only in a member's
slack share its partition, and a zero width or height merges two
blocks, so neighbouring squares share members written differently.
A member's rows are a canonical partition and its d a nonnegative int
by construction, so it is built unchecked, through ``SLInstance._of``.
The descriptor memo matches by == and hash, under which True and 1.0
equal 1, so every entry is checked to be an int before the lookup:
once per call by the family builders, for their parameters, and by
``to_instance``, for the descriptor it is given.
"""

from functools import lru_cache, partial
from itertools import accumulate

from .errors import EmptyDiagram
from .hookcontent import sl_key
from .partition import require_ints
from .plethysm import SLInstance, sl_isomorphic

Sequence = tuple[int, ...]
Descriptor = tuple[Sequence, Sequence]


def to_instance(s: Descriptor) -> SLInstance:
    """The SL instance of the staircase: its partition and ambient d.

    Raises ValueError unless every entry is an int (not a bool),
    heights_slack has exactly one more entry than widths and every
    entry is nonnegative, and EmptyDiagram when every height and the
    slack are zero, since then d = -1 is undefined.
    """
    widths, heights_slack = s
    require_ints("each width, height and the slack", (*widths, *heights_slack))
    return _member((tuple(widths), tuple(heights_slack)))


@lru_cache(maxsize=512)
def _member(s: Descriptor) -> SLInstance:
    """``to_instance`` after its int check, memoized by descriptor.
    Callers check the entries first, since the memo would answer (1.0,)
    or (True,) with the instance of (1,).  The rows, with zero-length
    blocks left out, are weakly decreasing positive ints, at most d + 1
    of them, so the instance is built unchecked from them, d and their
    ``sl_key``."""
    widths, heights_slack = s
    if len(heights_slack) != len(widths) + 1:
        raise ValueError("need exactly one more height than widths")
    if min(widths, default=0) < 0 or min(heights_slack) < 0:
        raise ValueError(f"widths, heights and slack must be nonnegative, got {s}")
    d = sum(heights_slack) - 1
    if d < 0:
        raise EmptyDiagram("all heights and the slack are zero")
    rows = []
    # block 1 (the top) is the widest; zip leaves out the slack
    for length, h in zip(reversed(list(accumulate(widths))), heights_slack):
        if length:
            rows += [length] * h
    rows = tuple(rows)
    return SLInstance._of(rows, d, sl_key(rows, d))


def reverse(s: Descriptor) -> Descriptor:
    """Reverse the widths and the heights-plus-slack tuple.

    The reversed descriptor's instance is the box complement (the dual)
    of the original's, with the same d.
    """
    return s[0][::-1], s[1][::-1]


# ----------------------------------------------------------------------
# the four-member square

def main_square(
    x: Sequence, y: Sequence, u: int, v: int, z: int
) -> tuple[Descriptor, Descriptor, Descriptor, Descriptor]:
    """Descriptors (A, B, C, D): A has widths (x, u, y) and
    heights-plus-slack (z, x, v, y); B swaps u and v; C and D are their
    reversals.  Any lengths of x and y are accepted."""
    a = (*x, u, *y), (z, *x, v, *y)
    b = (*x, v, *y), (z, *x, u, *y)
    return a, b, reverse(a), reverse(b)


def main_family(x: Sequence, y: Sequence, u: int, v: int, z: int) -> list[SLInstance]:
    """The four pairwise SL-isomorphic instances of the (x, y, u, v, z)
    square, in the order A, B, C, D.

    Raises ValueError unless every parameter entry is an int (not a
    bool) and len(x) == len(y), and EmptyDiagram when all heights vanish.
    """
    require_ints("each x and y entry and u, v, z", (*x, *y, u, v, z))
    if len(x) != len(y):
        raise ValueError(f"len(x) = {len(x)} and len(y) = {len(y)} must be equal")
    return [_member(desc) for desc in main_square(x, y, u, v, z)]


# ----------------------------------------------------------------------
# the six-member corollary families, and the table of every family

def _corollary(square, s: int, u: int, v: int, z: int) -> list[SLInstance]:
    """The instances of A1, B1, C2, A2, B2, C1: the union of the main
    squares (A1, B1, C1, D1) = square(s, u, v, z) and (A2, B2, C2, D2) =
    square(s, u, z, v), the first with v and z swapped, glued along
    B1 == D2 and B2 == D1, so one SL-isomorphism class of six members.

    Raises ValueError unless s, u, v, z are ints (not bools), s >= 0 and
    u, v, z >= 1.
    """
    require_ints("each of s, u, v, z", (s, u, v, z))
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if min(u, v, z) < 1:
        raise ValueError(f"u, v, z must be positive, got {(u, v, z)}")
    (a1, b1, c1, _), (a2, b2, c2, _) = square(s, u, v, z), square(s, u, z, v)
    return [_member(desc) for desc in (a1, b1, c2, a2, b2, c1)]


# Every family kind and the builder of its members.  main takes
# (x, y, u, v, z), each corollary (s, u, v, z).  Corollary I at s = 0
# is the six rectangle instances (a^b) with d = b + c - 1 over all
# permutations (a, b, c) of (u, v, z); corollary II is its thickened
# two-block variant, whose x and y differ in length by one, which
# ``main_square`` accepts and ``main_family`` does not.
FAMILIES = {
    "main": main_family,
    "cor1": partial(_corollary, lambda s, u, v, z: main_square((z,) * s, (v,) * s, v, u, z)),
    "cor2": partial(_corollary, lambda s, u, v, z: main_square((z,) * s, (v,) * (s + 1), u, z, z)),
}


def pairwise_sl_isomorphic(instances: list[SLInstance]) -> bool:
    """Whether every two instances of the list are SL-isomorphic.

    Each member is checked against the first only: equal keys and the
    parity of |lam|*d that ``sl_isomorphic`` enforces are both
    transitive, so that answers for every pair.  The keys compared are
    the ones each instance built at construction (``SLInstance.key``),
    so a call builds none.
    """
    return all(sl_isomorphic(instances[0], b) for b in instances[1:])
