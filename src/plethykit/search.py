"""Bounded enumeration of SL-equivalence classes of plethysm instances.

Instances (lam, d) with 1 <= |lam| <= max_weight and length(lam) <= d
<= max_d are grouped by their ``sl_key``, the complete SL-isomorphism
invariant; the class's P polynomial is the key's printed form and is
expanded once per reported class.  Classes with at least two members
are reported, and each member pair is labelled, in O(1) from its
weights and degrees, by how (or whether) the SL-isomorphism upgrades
to a GL one.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceeded
from .hookcontent import p_poly, sl_key
from .partition import partitions_of, weight
from .plethysm import SLInstance
from .qpoly import QPolynomial
from .twist import nu2_obstruction

INSTANCE_CAP = 1_000_000


@dataclass(frozen=True)
class EquivalenceClass:
    """All enumerated instances sharing one ``sl_key``; ``key`` is the
    P polynomial they share, the key's printed form.

    Members are ordered by d, then lexicographically by partition.
    """

    key: QPolynomial
    members: tuple[SLInstance, ...]


def enumerate_classes(max_weight: int, max_d: int) -> list[EquivalenceClass]:
    """Group all normalized instances within the bounds by ``sl_key``.

    Only classes with two or more members are returned, each with its P
    polynomial expanded once from its first member, sorted by P's degree
    and then lexicographically by P's coefficients.

    Raises BudgetExceeded when there are more than INSTANCE_CAP instances.
    """
    count = 0
    groups: dict[frozenset, list[SLInstance]] = {}
    for d in range(1, max_d + 1):
        for n in range(1, max_weight + 1):
            for lam in partitions_of(n, d):
                count += 1
                if count > INSTANCE_CAP:
                    raise BudgetExceeded(f"more than {INSTANCE_CAP} instances in bounds")
                groups.setdefault(sl_key(lam, d), []).append(SLInstance(lam, d))
    classes = []
    for members in groups.values():
        if len(members) >= 2:
            members.sort(key=lambda i: (i.d, i.lam))
            classes.append(EquivalenceClass(p_poly(members[0].lam, members[0].d), tuple(members)))
    classes.sort(key=lambda c: (c.key.degree, c.key.coefficients))
    return classes


def classify_gl(c: EquivalenceClass) -> dict[str, list[tuple[int, int]]]:
    """Label every member pair (i, j) of the class.

    direct:     equal |lam|*d, so the minimal lifts are already GL.
    obstructed: ``nu2_obstruction`` holds, so no twist exists.
    twistable:  otherwise; a twist exists (proved in ``twist``).

    The "unresolved" key stays, always empty, so the JSON shape of
    ``search`` output does not change.
    """
    out: dict[str, list[tuple[int, int]]] = {
        "direct": [],
        "twistable": [],
        "obstructed": [],
        "unresolved": [],
    }
    for i, j in combinations(range(len(c.members)), 2):
        a, b = c.members[i], c.members[j]
        if weight(a.lam) * a.d == weight(b.lam) * b.d:
            out["direct"].append((i, j))
        elif nu2_obstruction(a, b):
            out["obstructed"].append((i, j))
        else:
            out["twistable"].append((i, j))
    return out
