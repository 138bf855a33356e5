"""Integer partitions and Young-diagram cell statistics.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Cells are 1-based ``(row, col)``
pairs, so ``(1, 1)`` is the top-left box of the diagram.
"""

from collections.abc import Iterable, Iterator

from .errors import CellOutsideDiagram, LengthExceedsDimension

Partition = tuple[int, ...]
Cell = tuple[int, int]


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


def add(p: Partition, r: Partition) -> Partition:
    """Componentwise sum, zero-padding the shorter partition."""
    if len(p) < len(r):
        p, r = r, p
    return tuple(a + b for a, b in zip(p, r + (0,) * (len(p) - len(r))))


def b_statistic(p: Partition) -> int:
    """b(p) = sum over rows of (i-1) * p[i], the minimal q-exponent
    of the principal specialization of the Schur polynomial."""
    return sum(i * part for i, part in enumerate(p))


def cells(p: Partition) -> Iterator[Cell]:
    """All cells of the diagram, row by row, 1-based."""
    for i, part in enumerate(p, start=1):
        for j in range(1, part + 1):
            yield i, j


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


def _check_cell(p: Partition, u: Cell) -> None:
    i, j = u
    if not (1 <= i <= len(p) and 1 <= j <= p[i - 1]):
        raise CellOutsideDiagram(f"cell {u} is outside the diagram of {p}")


def hook_length(p: Partition, u: Cell) -> int:
    """Arm plus leg plus one: boxes to the right, below, and u itself.

    Raises CellOutsideDiagram if u is not a box of p.
    """
    _check_cell(p, u)
    i, j = u
    arm = p[i - 1] - j
    leg = sum(1 for part in p[i:] if part >= j)
    return arm + leg + 1


def content(p: Partition, u: Cell) -> int:
    """c(u) = col - row of the cell.

    Raises CellOutsideDiagram if u is not a box of p.
    """
    _check_cell(p, u)
    i, j = u
    return j - i
