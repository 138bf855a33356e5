"""Slow, independent reference implementations the tests compare
plethykit against.  The package itself calls none of them.

* ``mul``, ``exact_div``, ``q_analog`` and ``ONE``: schoolbook ring
  operations on ``QPolynomial``, the product/quotient reference for
  ``p_poly`` (which works through (1 - q^n) passes instead).
* ``conjugate``: the transposed diagram, which the block-wise
  ``sl_key`` reads off the row blocks instead.
* ``cells``, ``hook_length`` and ``content``: cell-by-cell statistics,
  and ``per_cell_key``, the net q-integer exponents they give, the
  reference for the block-wise ``sl_key``.
* ``CharacterData`` and ``character_data``: the full GL(2) character,
  the slow path for ``gl_isomorphic``.
* ``main_gl_condition`` and ``minimal_lift``: the z(z-1) balance
  condition under which the first-row pair of a ``main_family`` square
  is GL-isomorphic, checked against ``gl_isomorphic``.
"""

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from plethykit.errors import InexactDivision
from plethykit.hookcontent import p_poly
from plethykit.partition import Partition, b_statistic, weight
from plethykit.plethysm import PlethysmInstance, SLInstance
from plethykit.qpoly import QPolynomial

Cell = tuple[int, int]

ONE = QPolynomial([1])


def q_analog(a: int) -> QPolynomial:
    """[a] = 1 + q + ... + q^(a-1).

    Raises ValueError unless a is an integer >= 1.
    """
    if not isinstance(a, int) or isinstance(a, bool) or a < 1:
        raise ValueError(f"[a] requires a positive integer, got {a!r}")
    return QPolynomial([1] * a)


def mul(f: QPolynomial, g: QPolynomial) -> QPolynomial:
    """The product f * g, coefficient by coefficient."""
    a, b = f.coefficients, g.coefficients
    if not a or not b:
        return QPolynomial()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return QPolynomial(out)


def exact_div(f: QPolynomial, divisor: QPolynomial) -> QPolynomial:
    """The exact quotient f / divisor over the integers, by long division.

    Raises InexactDivision if the division leaves a remainder or would
    need a non-integer coefficient, and ZeroDivisionError when dividing
    by zero.
    """
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return QPolynomial()
    rem = list(f.coefficients)
    div = divisor.coefficients
    lead = div[-1]
    qdeg = len(rem) - len(div)
    if qdeg < 0:
        raise InexactDivision(f"{f!r} is not divisible by {divisor!r}")
    quot = [0] * (qdeg + 1)
    for i in range(qdeg, -1, -1):
        top = rem[i + len(div) - 1]
        if top % lead:
            raise InexactDivision(f"{f!r} is not divisible by {divisor!r}")
        quot[i] = top // lead
        if quot[i]:
            for j, c in enumerate(div):
                rem[i + j] -= quot[i] * c
    if any(rem):
        raise InexactDivision(f"{f!r} is not divisible by {divisor!r}")
    return QPolynomial(quot)


def conjugate(p: Partition) -> Partition:
    """The transposed diagram: column lengths of p, e.g. (3,2,2,1) -> (4,3,1)."""
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


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


@dataclass(frozen=True)
class CharacterData:
    """The character (x1^d1 x2^d2)^|lam| * q^b_shift * p with q = x2/x1."""

    weight_exponents: tuple[int, int]
    b_shift: int
    p: QPolynomial

    def monomials(self) -> dict[tuple[int, int], int]:
        """Expand to {(x1 exponent, x2 exponent): coefficient}."""
        e1, e2 = self.weight_exponents
        out = {}
        for i, c in enumerate(self.p.coefficients):
            if c:
                out[(e1 - self.b_shift - i, e2 + self.b_shift + i)] = c
        return out


def character_data(inst: PlethysmInstance) -> CharacterData:
    w = weight(inst.lam)
    return CharacterData(
        weight_exponents=(w * inst.delta[0], w * inst.delta[1]),
        b_shift=b_statistic(inst.lam),
        p=p_poly(inst.lam, inst.sl_instance().d),
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
