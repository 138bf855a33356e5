"""Staircase-shaped partitions described by step widths, heights, slack.

A descriptor with steps ((w1,h1), ..., (wr,hr)) and slack s encodes the
partition whose i-th row block (height hi, counted from the top) has
row length w1 + ... + w_{r+1-i}, inside ambient dimension
d+1 = h1 + ... + hr + s.  Reversing the width sequence and the
(heights, slack) sequence produces the box complement of the diagram,
which is always SL-isomorphic to it.

The four-member ``main_family`` square and the two six-member corollary
families below are staircase configurations that are pairwise
SL-isomorphic for every choice of nonnegative parameters.
"""

from dataclasses import dataclass
from itertools import accumulate

from .errors import EmptyDiagram, ShapeMismatch
from .plethysm import PlethysmInstance, SLInstance, sl_isomorphic

Sequence = tuple[int, ...]


@dataclass(frozen=True)
class StaircaseDescriptor:
    steps: tuple[tuple[int, int], ...]
    slack: int

    def __post_init__(self):
        for w, h in self.steps:
            if w < 0 or h < 0:
                raise ValueError(f"step sizes must be nonnegative, got {self.steps}")
        if self.slack < 0:
            raise ValueError(f"slack must be nonnegative, got {self.slack}")


def _descriptor(widths: Sequence, heights_slack: Sequence) -> StaircaseDescriptor:
    """Pair up widths with all but the last of heights_slack; the last
    entry is the slack.  Requires len(heights_slack) == len(widths)+1."""
    if len(heights_slack) != len(widths) + 1:
        raise ValueError("need exactly one more height than widths")
    return StaircaseDescriptor(
        tuple(zip(widths, heights_slack[:-1])), heights_slack[-1]
    )


def to_instance(s: StaircaseDescriptor) -> SLInstance:
    """The SL instance of the staircase: its partition and ambient d.

    Raises EmptyDiagram when every height and the slack are zero, since
    then d = -1 is undefined.
    """
    heights = [h for _, h in s.steps]
    d = sum(heights) + s.slack - 1
    if d < 0:
        raise EmptyDiagram("all heights and the slack are zero")
    row_lengths = list(accumulate(w for w, _ in s.steps))  # block r up to block 1
    rows = []
    for i, h in enumerate(heights):
        rows.extend([row_lengths[len(heights) - 1 - i]] * h)
    return SLInstance(tuple(rows), d)


def reverse(s: StaircaseDescriptor) -> StaircaseDescriptor:
    """Reverse widths and the heights-plus-slack vector.

    The reversed descriptor's instance is the box complement (the dual)
    of the original's, with the same d.
    """
    widths = tuple(w for w, _ in s.steps)[::-1]
    heights_slack = tuple(h for _, h in s.steps) + (s.slack,)
    return _descriptor(widths, heights_slack[::-1])


# ----------------------------------------------------------------------
# the four-member square

def main_square(
    x: Sequence, y: Sequence, u: int, v: int, z: int
) -> tuple[StaircaseDescriptor, StaircaseDescriptor, StaircaseDescriptor, StaircaseDescriptor]:
    """Descriptors (A, B, C, D): A has widths (x, u, y) and
    heights-plus-slack (z, x, v, y); B swaps u and v; C and D are their
    reversals.  Any lengths of x and y are accepted."""
    x, y = tuple(x), tuple(y)
    a = _descriptor((*x, u, *y), (z, *x, v, *y))
    b = _descriptor((*x, v, *y), (z, *x, u, *y))
    return a, b, reverse(a), reverse(b)


def main_family(x: Sequence, y: Sequence, u: int, v: int, z: int) -> list[SLInstance]:
    """The four pairwise SL-isomorphic instances of the (x, y, u, v, z)
    square, in the order A, B, C, D.

    Raises ValueError unless len(x) == len(y), and EmptyDiagram when all
    heights vanish.
    """
    if len(x) != len(y):
        raise ValueError(f"len(x) = {len(x)} and len(y) = {len(y)} must be equal")
    return [to_instance(desc) for desc in main_square(x, y, u, v, z)]


def main_gl_condition(
    x: Sequence, y: Sequence, u: int, v: int, z: int, shape: str
) -> bool:
    """Whether the first-row pair of the square is GL-isomorphic under
    the minimal lifts delta = (d, 0).

    ``shape`` is ``"t=s"`` (len(y) == len(x)) or ``"t=s+1"``
    (len(y) == len(x) + 1); the condition reads

        z*(z-1) == S + |x|*(u+v)            for t=s,
        z*(z-1) == S + |x|*(u+v) + u*v      for t=s+1,

    with S = |x|^2 + 2 * sum of x_i*y_j over i+j = len(y).

    Raises ShapeMismatch when the sequence lengths do not fit the shape.
    """
    x, y = tuple(x), tuple(y)
    s, t = len(x), len(y)
    if shape == "t=s":
        if t != s:
            raise ShapeMismatch(f"shape t=s needs len(y) == len(x), got {s}, {t}")
        extra = 0
    elif shape == "t=s+1":
        if t != s + 1:
            raise ShapeMismatch(f"shape t=s+1 needs len(y) == len(x)+1, got {s}, {t}")
        extra = u * v
    else:
        raise ValueError(f"shape must be 't=s' or 't=s+1', got {shape!r}")
    cross = sum(x[i - 1] * y[t - i - 1] for i in range(1, s + 1) if t - i >= 1)
    big_s = sum(x) ** 2 + 2 * cross
    return z * (z - 1) == big_s + sum(x) * (u + v) + extra


def minimal_lift(inst: SLInstance) -> PlethysmInstance:
    """The canonical GL lift delta = (d, 0) of an SL instance."""
    return PlethysmInstance(inst.lam, (inst.d, 0))


# ----------------------------------------------------------------------
# the six-member corollary families

def _line(widths: Sequence, heights_slack: Sequence) -> SLInstance:
    return to_instance(_descriptor(widths, heights_slack))


def _check_family_params(s: int, u: int, v: int, z: int) -> None:
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if min(u, v, z) < 1:
        raise ValueError(f"u, v, z must be positive, got {(u, v, z)}")


def corollary_I_family(s: int, u: int, v: int, z: int) -> list[SLInstance]:
    """Six pairwise SL-isomorphic staircases; at s = 0 these are the six
    rectangle instances (a^b) with d = b + c - 1 over all permutations
    (a, b, c) of (u, v, z)."""
    _check_family_params(s, u, v, z)
    out = []
    for zz, vv in ((z, v), (v, z)):
        out.extend(
            [
                _line((zz,) * s + (vv,) * (s + 1), (zz,) * (s + 1) + (u,) + (vv,) * s),
                _line((zz,) * s + (u,) + (vv,) * s, (zz,) * (s + 1) + (vv,) * (s + 1)),
                _line((zz,) * (s + 1) + (vv,) * s, (zz,) * s + (u,) + (vv,) * (s + 1)),
            ]
        )
    return out


def corollary_II_family(s: int, u: int, v: int, z: int) -> list[SLInstance]:
    """Six pairwise SL-isomorphic two-block staircases, the thickened
    variant of corollary family I."""
    _check_family_params(s, u, v, z)
    out = []
    for zz, vv in ((z, v), (v, z)):
        out.extend(
            [
                _line(
                    (zz,) * s + (u,) + (vv,) * (s + 1),
                    (zz,) * (s + 2) + (vv,) * (s + 1),
                ),
                _line(
                    (zz,) * (s + 1) + (vv,) * (s + 1),
                    (zz,) * (s + 1) + (u,) + (vv,) * (s + 1),
                ),
                _line(
                    (zz,) * (s + 1) + (u,) + (vv,) * s,
                    (zz,) * (s + 1) + (vv,) * (s + 2),
                ),
            ]
        )
    return out


def pairwise_sl_isomorphic(instances: list[SLInstance]) -> bool:
    """Whether every two instances of the list are SL-isomorphic.

    Each member is checked against the first only: equal keys and the
    parity of |lam|*d that ``sl_isomorphic`` enforces are both
    transitive, so that answers for every pair.
    """
    return all(sl_isomorphic(instances[0], b) for b in instances[1:])
