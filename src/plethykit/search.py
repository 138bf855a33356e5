"""Bounded enumeration of SL-equivalence classes of plethysm instances.

Instances (lam, d) with 1 <= |lam| <= max_weight and length(lam) <= d
<= max_d are grouped by ``sl_key``, the complete SL-isomorphism
invariant that ``sl_isomorphic`` compares as ``SLInstance.key``; the
class's P polynomial, a coefficient tuple as ``p_poly`` returns it, is
the key's printed form and is expanded once per reported class from the
key its members hold.
Classes with at least two members are reported, and each member pair
is labelled, in O(1) from its weights and degrees, by how (or whether)
the SL-isomorphism upgrades to a GL one.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceeded
from .hookcontent import p_poly, sl_key
from .partition import Partition, partitions_of, weight
from .plethysm import SLInstance
from .twist import nu2_obstruction

INSTANCE_CAP = 1_000_000


@dataclass(frozen=True)
class EquivalenceClass:
    """All enumerated instances grouped by one ``SLInstance.key``;
    ``poly`` is the P polynomial they share, the key's printed form.

    Members are ordered by d, then lexicographically by partition.
    """

    poly: tuple[int, ...]
    members: tuple[SLInstance, ...]


def enumerate_classes(max_weight: int, max_d: int) -> list[EquivalenceClass]:
    """Group all normalized instances within the bounds by ``sl_key``.

    The instances are grouped as plain (d, lam) pairs, each keyed once,
    and an ``SLInstance`` is built only for a member of a reported class,
    unchecked and with its group's key: ``partitions_of`` yields
    canonical partitions and d runs from len(lam), so every pair is
    valid.  Only classes with two or more members are returned, each with
    its P polynomial expanded once from that key, sorted by P's length
    (its degree plus one) and then lexicographically by P's coefficients.

    The partition is the outer loop and d the inner one, so the d-free
    half of ``sl_key`` counts each partition's hooks and contents once
    for all its d with d + p[0] < hookcontent._SPAN, whatever the size
    of its memo; past that, each key comes from its corners.  The order
    does not reach the output: members and classes are sorted after
    grouping.

    Raises BudgetExceeded when there are more than INSTANCE_CAP instances.
    """
    count = 0
    groups: dict[int | tuple[int, ...], list[tuple[int, Partition]]] = {}
    for n in range(1, max_weight + 1):
        for lam in partitions_of(n, max_d):
            for d in range(len(lam), max_d + 1):
                count += 1
                if count > INSTANCE_CAP:
                    raise BudgetExceeded(f"more than {INSTANCE_CAP} instances in bounds")
                groups.setdefault(sl_key(lam, d), []).append((d, lam))
    classes = []
    for key, members in groups.items():
        if len(members) >= 2:
            members.sort()
            instances = tuple(SLInstance._of(lam, d, key) for d, lam in members)
            classes.append(EquivalenceClass(p_poly(key), instances))
    classes.sort(key=lambda c: (len(c.poly), c.poly))
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
