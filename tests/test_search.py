import hashlib

import pytest

from plethykit import search
from plethykit.errors import BudgetExceeded
from plethykit.hookcontent import p_poly
from plethykit.oracle import specialize_ssyt
from plethykit.partition import b_statistic, weight
from plethykit.plethysm import SLInstance, dual, normalize
from plethykit.qpoly import QPolynomial
from plethykit.search import EquivalenceClass, classify_gl, enumerate_classes
from plethykit.staircase import pairwise_sl_isomorphic
from plethykit.twist import solve_twist

from .test_cli import run


def test_enumerate_classes_small_frozen():
    classes = enumerate_classes(3, 3)
    assert [list(c.key.coefficients) for c in classes] == [
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
    keyed = {c.key.coefficients: c for c in classes}
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
    seen_keys = []
    for c in classes:
        assert len(c.members) >= 2
        assert c.key.coefficients[0] == 1
        assert c.key.coefficients == c.key.coefficients[::-1]
        for inst in c.members:
            assert 1 <= weight(inst.lam) <= max_weight
            assert 1 <= inst.d <= max_d
            assert len(inst.lam) <= inst.d  # members are normalized
            assert p_poly(inst.lam, inst.d) == c.key
        assert list(c.members) == sorted(c.members, key=lambda i: (i.d, i.lam))
        assert pairwise_sl_isomorphic(list(c.members))
        seen_keys.append((c.key.degree, c.key.coefficients))
    assert seen_keys == sorted(seen_keys)
    assert len(set(seen_keys)) == len(seen_keys)


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
            assert specialize_ssyt(inst.lam, inst.d) == c.key.shifted(
                b_statistic(inst.lam)
            )


def test_enumeration_budget(monkeypatch):
    assert search.INSTANCE_CAP == 1_000_000
    # (3, 3) covers exactly 14 normalized instances.
    monkeypatch.setattr(search, "INSTANCE_CAP", 14)
    enumerate_classes(3, 3)
    monkeypatch.setattr(search, "INSTANCE_CAP", 13)
    with pytest.raises(BudgetExceeded):
        enumerate_classes(3, 3)


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
    c = EquivalenceClass(key=QPolynomial([1, 1, 2, 1, 1]), members=(a, b))
    assert solve_twist(a, b, 0) is None
    assert classify_gl(c)["twistable"] == [(0, 1)]
