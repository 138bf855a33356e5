import hashlib
import tracemalloc

import pytest

from plethykit import hookcontent, plethysm, search
from plethykit.errors import BudgetExceeded
from plethykit.hookcontent import p_poly, sl_key
from plethykit.oracle import specialize_ssyt
from plethykit.partition import b_statistic, partitions_of, weight
from plethykit.plethysm import SLInstance
from plethykit.search import EquivalenceClass, classify_gl, enumerate_classes
from plethykit.staircase import pairwise_sl_isomorphic
from plethykit.twist import solve_twist

from .reference import check_as_parsed, dual, normalize, p_of
from .test_cli import run


def test_enumerate_classes_small_frozen():
    classes = enumerate_classes(3, 3)
    assert [list(c.poly) for c in classes] == [
        [1, 1, 1],
        [1, 1, 1, 1],
        [1, 1, 2, 1, 1],
        [1, 1, 2, 2, 2, 1, 1],
    ]
    assert [[(i.lam, i.d) for i in c.members] for c in classes] == [
        [((2,), 1), ((1,), 2), ((1, 1), 2)],
        [((3,), 1), ((1,), 3), ((1, 1, 1), 3)],
        [((2,), 2), ((1, 1), 3)],
        [((3,), 2), ((2,), 3)],
    ]


def test_enumerate_classes_picks_up_column_padded_members():
    classes = enumerate_classes(4, 3)
    keyed = {c.poly: c for c in classes}
    witness = keyed[(1, 1, 2, 1, 1)]
    assert [(i.lam, i.d) for i in witness.members] == [
        ((2,), 2),
        ((2, 2), 2),
        ((1, 1), 3),
    ]


@pytest.mark.parametrize("bounds", [(3, 3), (4, 4), (5, 3)])
def test_class_invariants(bounds):
    max_weight, max_d = bounds
    classes = enumerate_classes(max_weight, max_d)
    seen_polys = []
    for c in classes:
        assert len(c.members) >= 2
        assert c.poly[0] == 1
        assert c.poly == c.poly[::-1]
        for inst in c.members:
            assert 1 <= weight(inst.lam) <= max_weight
            assert 1 <= inst.d <= max_d
            assert len(inst.lam) <= inst.d  # members are normalized
            assert p_of(inst.lam, inst.d) == c.poly
        assert list(c.members) == sorted(c.members, key=lambda i: (i.d, i.lam))
        assert pairwise_sl_isomorphic(list(c.members))
        seen_polys.append((len(c.poly) - 1, c.poly))
    assert seen_polys == sorted(seen_polys)
    assert len(set(seen_polys)) == len(seen_polys)


def test_classes_are_closed_under_duality():
    classes = enumerate_classes(6, 5)
    class_of = {
        inst: idx for idx, c in enumerate(classes) for inst in c.members
    }
    for inst, idx in class_of.items():
        mirrored = normalize(dual(inst))
        if 1 <= weight(mirrored.lam) <= 6:
            assert class_of[mirrored] == idx


def test_grouping_key_matches_the_tableau_oracle():
    for c in enumerate_classes(3, 3):
        for inst in c.members:
            assert specialize_ssyt(inst.lam, inst.d) == (0,) * b_statistic(inst.lam) + c.poly


def test_enumeration_budget(monkeypatch):
    assert search.INSTANCE_CAP == 1_000_000
    # (3, 3) covers exactly 14 normalized instances.
    monkeypatch.setattr(search, "INSTANCE_CAP", 14)
    enumerate_classes(3, 3)
    monkeypatch.setattr(search, "INSTANCE_CAP", 13)
    with pytest.raises(BudgetExceeded):
        enumerate_classes(3, 3)


def test_instances_are_grouped_by_their_own_key(monkeypatch):
    # One key path: each enumerated instance builds its key once, the key
    # sl_isomorphic compares as SLInstance.key, and each class's P is
    # expanded from that key, so sl_key is called nowhere else.
    built = []

    def counting_sl_key(p, d):
        built.append((p, d))
        return sl_key(p, d)

    # Every name of sl_key counts into one list, so a key built anywhere
    # else adds to it.
    monkeypatch.setattr(plethysm, "sl_key", counting_sl_key)
    monkeypatch.setattr(hookcontent, "sl_key", counting_sl_key)
    monkeypatch.setattr(search, "sl_key", counting_sl_key)
    enumerate_classes(6, 5)
    instances = [(lam, d) for d in range(1, 6) for n in range(1, 7) for lam in partitions_of(n, d)]
    assert sorted(built) == sorted(instances)


def test_instances_are_built_for_reported_members_only(monkeypatch):
    # 8,633 instances are grouped at 16/14, and the 2,425 members of the
    # 1,056 reported classes are built, each once and none through the
    # parser, since search made every (lambda, d) itself.
    made = []
    unchecked = SLInstance._of.__func__

    def counting_of(cls, lam, d, key):
        made.append((lam, d))
        return unchecked(cls, lam, d, key)

    def parse(inst):
        raise AssertionError(f"search parsed {inst.lam, inst.d}, which it built itself")

    monkeypatch.setattr(SLInstance, "_of", classmethod(counting_of))
    monkeypatch.setattr(SLInstance, "__post_init__", parse)
    classes = enumerate_classes(16, 14)
    assert len(classes) == 1056
    assert sorted(made) == sorted((i.lam, i.d) for c in classes for i in c.members)
    assert len(made) == 2425


def test_class_members_built_unchecked_are_what_the_parser_builds():
    members = [inst for c in enumerate_classes(10, 8) for inst in c.members]
    assert members
    for inst in members:
        check_as_parsed(inst)


def test_each_partition_is_counted_once():
    # d is the inner loop, so the count memo behind sl_key counts each of
    # the 28 partitions once and serves its other d: 97 instances.
    hookcontent._block_counts.cache_clear()
    enumerate_classes(6, 5)
    info = hookcontent._block_counts.cache_info()
    assert (info.misses, info.hits) == (28, 69)
    assert info.currsize == 28  # every partition of the grid stays


def test_each_class_is_expanded_once():
    # search expands one P per reported class, from its first member's key.
    p_poly.cache_clear()
    classes = enumerate_classes(6, 5)
    info = p_poly.cache_info()
    assert len(classes) == 24
    assert (info.misses, info.hits) == (24, 0)


def test_enumeration_memory_stays_small():
    # Every enumerated instance keeps its key until the classes are built,
    # so the key's container bounds how far search can go.  The key, one
    # int here, peaks at about 0.95 MiB, the flat tuple at about 1.0 and a
    # frozenset of pairs at about 2.4.
    p_poly.cache_clear()
    tracemalloc.start()
    try:
        enumerate_classes(12, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 2**20


def test_enumeration_is_deterministic():
    assert enumerate_classes(4, 4) == enumerate_classes(4, 4)


def test_search_stdout_is_pinned_at_16_14():
    # The digest perfbench/make_references.py recorded for this command
    # line in perfbench/references.json; search stdout has stayed
    # byte-identical to it since.
    result = run("search", "--max-weight", "16", "--max-d", "14")
    assert result.exit_code == 0
    assert result.stdout.count("\n") == 1056
    assert (
        hashlib.sha256(result.stdout.encode()).hexdigest()
        == "d12819789417c22f6e3d7d4629970895e707f13813500a0eba151b016697b502"
    )


def test_classify_gl_small_frozen():
    classes = enumerate_classes(3, 3)
    labels = [classify_gl(c) for c in classes]
    assert labels[0] == {
        "direct": [(0, 1)],
        "twistable": [(0, 2), (1, 2)],
        "obstructed": [],
        "unresolved": [],
    }
    assert labels[1] == {
        "direct": [(0, 1)],
        "twistable": [(0, 2), (1, 2)],
        "obstructed": [],
        "unresolved": [],
    }
    assert labels[2] == {
        "direct": [],
        "twistable": [(0, 1)],
        "obstructed": [],
        "unresolved": [],
    }
    assert labels[3] == {
        "direct": [(0, 1)],
        "twistable": [],
        "obstructed": [],
        "unresolved": [],
    }


def test_classify_gl_direct_means_equal_weight_times_d():
    for c in enumerate_classes(4, 4):
        for i, j in classify_gl(c)["direct"]:
            a, b = c.members[i], c.members[j]
            assert weight(a.lam) * a.d == weight(b.lam) * b.d


def test_classify_gl_labels_without_a_search_bound():
    # The witness pair needs l and m up to 2, so a zero-bound scan finds
    # nothing, yet the pair is labelled twistable from its weights alone.
    a, b = SLInstance((2,), 2), SLInstance((1, 1), 3)
    c = EquivalenceClass(poly=(1, 1, 2, 1, 1), members=(a, b))
    assert solve_twist(a, b, 0) is None
    assert classify_gl(c)["twistable"] == [(0, 1)]


def test_classify_gl_labels_an_obstructed_pair():
    # Weights 2 and 4 have nu2 1 and 2, and both d + 1 = 4 have nu2 2, so
    # nu2_obstruction holds.  The pair is not SL-isomorphic: no real pair
    # has reached this branch (ROADMAP item 7), so the class is built by hand.
    c = EquivalenceClass((1,), (SLInstance((2,), 3), SLInstance((4,), 3)))
    assert classify_gl(c) == {"direct": [], "twistable": [], "obstructed": [(0, 1)], "unresolved": []}
