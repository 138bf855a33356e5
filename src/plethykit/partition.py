"""Integer partitions: canonical form, statistics and enumeration.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.
"""

from collections.abc import Iterable, Iterator

Partition = tuple[int, ...]


def canonical(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize a part sequence (strip trailing zeros).

    Raises ValueError if the parts are negative, non-integral, or not
    weakly decreasing.
    """
    p = tuple(parts)
    for part in p:
        if not isinstance(part, int) or isinstance(part, bool):
            raise ValueError(f"partition parts must be integers, got {part!r}")
        if part < 0:
            raise ValueError(f"partition parts must be nonnegative, got {part}")
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing, got {p}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def weight(p: Partition) -> int:
    """|p|, the sum of all parts."""
    return sum(p)


def add(p: Partition, r: Partition) -> Partition:
    """Componentwise sum, zero-padding the shorter partition."""
    if len(p) < len(r):
        p, r = r, p
    return tuple(a + b for a, b in zip(p, r + (0,) * (len(p) - len(r))))


def b_statistic(p: Partition) -> int:
    """b(p) = sum over rows of (i-1) * p[i], the minimal q-exponent
    of the principal specialization of the Schur polynomial."""
    return sum(i * part for i, part in enumerate(p))


def partitions_of(n: int, max_parts: int, max_first: int | None = None) -> Iterator[Partition]:
    """All partitions of n with at most max_parts parts, largest part
    first, in lexicographically decreasing order."""
    if max_first is None:
        max_first = n
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(n, max_first), 0, -1):
        for rest in partitions_of(n - first, max_parts - 1, first):
            yield (first,) + rest
