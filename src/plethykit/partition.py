"""Integer partitions: canonical form, statistics and enumeration.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.
"""

from collections.abc import Iterable, Iterator

Partition = tuple[int, ...]


def excerpt(text: str, limit: int = 200) -> str:
    """The text of an error message that echoes an input: the whole of
    it up to limit characters, past that its first limit characters and
    its length, so a large input does not come back whole."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters in all)"


def require_ints(name: str, values: Iterable) -> None:
    """Raise ValueError unless every value is an int and not a bool.

    The one integer check of the package: partitions, d, delta and the
    staircase parameters all pass through it.
    """
    for value in values:
        # type() costs one call for a plain int, the usual case
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{name} must be an integer, got {excerpt(repr(value))}")


def canonical(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize a part sequence (strip trailing zeros).

    Raises ValueError if the parts are non-integral, not weakly
    decreasing, or negative.  The order is checked first: then only the
    last part, the least, can be negative, and the zeros are a suffix,
    which one slice strips, so the cost is linear in the parts.
    """
    p = tuple(parts)
    require_ints("each partition part", p)
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing, got {excerpt(str(p))}")
    if p and p[-1] < 0:
        raise ValueError(f"partition parts must be nonnegative, got {p[-1]}")
    return p[: len(p) - p.count(0)]


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
