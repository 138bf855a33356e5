"""Bounded enumeration of SL-equivalence classes of plethysm instances.

Instances (lam, d) with 1 <= |lam| <= max_weight and length(lam) <= d
<= max_d are grouped by ``sl_key``, the complete SL-isomorphism
invariant that ``sl_isomorphic`` compares as ``SLInstance.key``; the
class's P polynomial, a coefficient tuple as ``p_poly`` returns it, is
the key's printed form and is expanded once per reported class from the
key its members hold.  Every instance is keyed once for its hash
alone, and keyed again, with the key kept, only where the hash recurs,
so what a search holds follows the classes it reports, not the
instances it enumerates: 17,344 members of 152,883 instances at 26/20,
in 48 MiB of peak RSS where keeping every key took 103.
Classes with at least two members are reported, and each member pair
is labelled, in O(1) from its weights and degrees, by how (or whether)
the SL-isomorphism upgrades to a GL one.  A class is a frozen value
like the instances of ``plethysm``.
"""

from array import array
from collections import Counter
from collections.abc import Iterator
from itertools import combinations

from .errors import BudgetExceeded
from .hookcontent import p_poly, sl_key
from .partition import Partition, partitions_of
from .plethysm import SLInstance, _Frozen, sl_isomorphic
from .twist import nu2_obstruction

INSTANCE_CAP = 1_000_000


class EquivalenceClass(_Frozen):
    """All enumerated instances grouped by one ``SLInstance.key``;
    ``poly`` is the P polynomial they share, the key's printed form.

    Members are ordered by d, then lexicographically by partition.  A
    frozen value, compared and hashed by (poly, members).
    """

    __slots__ = __match_args__ = ("poly", "members")
    poly: tuple[int, ...]
    members: tuple[SLInstance, ...]

    def __init__(self, poly: tuple[int, ...], members: tuple[SLInstance, ...]):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "members", members)


def _partitions(max_weight: int, max_d: int) -> Iterator[Partition]:
    """Every partition of weight 1 to max_weight with at most max_d
    parts, by weight, in ``partitions_of``'s order within a weight."""
    for n in range(1, max_weight + 1):
        yield from partitions_of(n, max_d)


def enumerate_classes(max_weight: int, max_d: int) -> list[EquivalenceClass]:
    """Group all normalized instances within the bounds by ``sl_key``.

    Two passes walk the instances as plain (d, lam) pairs in one
    order.  The first keys every instance and keeps only the key's
    hash, one slot of an ``array('q')`` per instance; the second reads
    the array beside its own walk, keys again only the instances whose
    hash recurs and groups them by the full key.  So the memory of a
    search follows the members it reports, not the instances it
    enumerates, and the result is the one-pass grouping's:

    * equal keys have equal hashes, so no member of a multi-member
      class is skipped;
    * grouping by the full key splits any hash collision;
    * a singleton that shares its hash with another instance is keyed
      again, lands alone in its group and is not reported.

    An ``SLInstance`` is built only for a member of a reported class,
    unchecked and with its group's key: ``partitions_of`` yields
    canonical partitions and d runs from len(lam), so every pair is
    valid.  Each member is checked against the first with
    ``sl_isomorphic``, so a reported class passes the parity check that
    every other SL "yes" passes and ``twist``'s proof relies on; parity
    is transitive, so every pair of the class passes it.  Only classes
    with two or more members are returned, each with its P polynomial
    expanded once from that key, sorted by P's length (its degree plus
    one) and then lexicographically by P's coefficients.

    The partition is the outer loop and d the inner one, so the d-free
    half of ``sl_key`` counts each partition's hooks and contents at
    most once a pass for all its d with d + p[0] < hookcontent._SPAN,
    whatever the size of its memo; past that, each key comes from its
    corners.  The order does not reach the output: members and classes
    are sorted after grouping.

    Raises BudgetExceeded, in the first pass and so before any class is
    built, when there are more than INSTANCE_CAP instances: each
    partition's d are counted before the first of them is keyed, so the
    cap bounds the work however large max_d is.  Raises
    ConsistencyError when two members of a class have an odd
    weight-degree gap, which equal keys rule out.
    """
    hashes = array("q")
    for lam in _partitions(max_weight, max_d):
        if len(hashes) + max_d + 1 - len(lam) > INSTANCE_CAP:  # counts its d before keying them
            raise BudgetExceeded(f"more than {INSTANCE_CAP} instances in bounds")
        for d in range(len(lam), max_d + 1):
            hashes.append(hash(sl_key(lam, d)))
    recurring = {h for h, count in Counter(hashes).items() if count > 1}
    groups: dict[int | tuple[int, ...], list[tuple[int, Partition]]] = {}
    walk = iter(hashes)
    for lam in _partitions(max_weight, max_d):
        for d, h in zip(range(len(lam), max_d + 1), walk):
            if h in recurring:
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
    sizes = [sum(m.lam) * m.d for m in c.members]
    for i, j in combinations(range(len(sizes)), 2):
        if sizes[i] == sizes[j]:
            out["direct"].append((i, j))
        elif nu2_obstruction(c.members[i], c.members[j]):
            out["obstructed"].append((i, j))
        else:
            out["twistable"].append((i, j))
    return out
