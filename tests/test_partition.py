import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plethykit.errors import CellOutsideDiagram, LengthExceedsDimension
from plethykit.partition import (
    add,
    b_statistic,
    canonical,
    cells,
    complement,
    conjugate,
    content,
    hook_length,
    partitions_of,
    tilde_reduce,
    weight,
)


@st.composite
def partitions(draw, max_weight=16, max_parts=None):
    """Random partition as a weakly decreasing tuple of positive ints."""
    budget = draw(st.integers(0, max_weight))
    parts = []
    largest = budget
    while budget > 0 and (max_parts is None or len(parts) < max_parts):
        part = draw(st.integers(1, min(largest, budget)))
        parts.append(part)
        largest = part
        budget -= part
    return tuple(parts)


def test_canonical_strips_trailing_zeros():
    assert canonical([3, 1, 0, 0]) == (3, 1)
    assert canonical([]) == ()
    assert canonical((0, 0)) == ()
    assert canonical([5]) == (5,)


@pytest.mark.parametrize("bad", [[1, 2], [3, -1], [2, 1.5], [0, 1]])
def test_canonical_rejects_non_partitions(bad):
    with pytest.raises(ValueError):
        canonical(bad)


def test_weight_and_conjugate_known_values():
    assert weight(()) == 0
    assert weight((4, 2, 1)) == 7
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)


@given(partitions())
def test_conjugate_is_an_involution(p):
    assert conjugate(conjugate(p)) == p
    assert weight(conjugate(p)) == weight(p)


def test_complement_known_values():
    assert complement((3, 1), 3) == (3, 2)
    assert complement((2, 2), 2) == ()
    assert complement((5,), 1) == ()
    assert complement((), 4) == ()
    with pytest.raises(LengthExceedsDimension):
        complement((1, 1, 1), 2)


@given(partitions(), st.integers(0, 6))
def test_complement_is_a_guarded_involution(p, extra):
    k = max(len(p) + extra, 1)
    comp = complement(p, k)
    assert len(comp) < k or comp == ()
    # The diagram of p plus its complement tiles a k x p[0] rectangle,
    # except that the complement drops the full first row.
    if p:
        assert weight(comp) == k * p[0] - weight(p)
    # Complementing twice restores p exactly when p has fewer than k rows.
    if len(p) < k:
        assert complement(comp, k) == p


def test_tilde_reduce_known_values():
    assert tilde_reduce((4, 3, 2), 3) == ((2, 1), 2)
    assert tilde_reduce((3, 3, 1), 3) == ((2, 2), 1)
    assert tilde_reduce((2, 2, 2), 3) == ((), 2)
    assert tilde_reduce((3, 1), 3) == ((3, 1), 0)
    assert tilde_reduce((), 5) == ((), 0)
    with pytest.raises(LengthExceedsDimension):
        tilde_reduce((1, 1, 1, 1), 3)


@given(partitions(), st.integers(1, 8))
def test_tilde_reduce_recomposes(p, k):
    if len(p) > k:
        with pytest.raises(LengthExceedsDimension):
            tilde_reduce(p, k)
        return
    reduced, shift = tilde_reduce(p, k)
    assert shift >= 0
    assert len(reduced) < k
    assert canonical(add(reduced, (shift,) * k)) == p


def test_add_known_values():
    assert add((3, 1), (2, 2)) == (5, 3)
    assert add((2,), (1, 1)) == (3, 1)
    assert add((4, 2), (2,)) == (6, 2)
    assert add((), ()) == ()


def test_b_statistic_known_values():
    assert b_statistic(()) == 0
    assert b_statistic((4,)) == 0
    assert b_statistic((2, 2)) == 2
    assert b_statistic((3, 2, 1)) == 4
    assert b_statistic((1, 1, 1, 1)) == 6


@given(partitions())
def test_b_statistic_matches_column_binomials(p):
    # b(p) = sum over columns c of C(c, 2) where c runs over conjugate parts.
    assert b_statistic(p) == sum(math.comb(c, 2) for c in conjugate(p))


def test_cells_enumeration():
    assert list(cells(())) == []
    assert list(cells((2, 1))) == [(1, 1), (1, 2), (2, 1)]
    assert len(list(cells((4, 2, 1)))) == 7


def test_hook_length_known_values():
    p = (3, 2)
    assert hook_length(p, (1, 1)) == 4
    assert hook_length(p, (1, 2)) == 3
    assert hook_length(p, (1, 3)) == 1
    assert hook_length(p, (2, 1)) == 2
    assert hook_length(p, (2, 2)) == 1


def test_content_known_values():
    p = (3, 2)
    assert content(p, (1, 1)) == 0
    assert content(p, (1, 3)) == 2
    assert content(p, (2, 1)) == -1


@pytest.mark.parametrize("cell", [(0, 1), (1, 0), (3, 1), (1, 4), (2, 3)])
def test_cells_outside_diagram_raise(cell):
    with pytest.raises(CellOutsideDiagram):
        hook_length((3, 2), cell)
    with pytest.raises(CellOutsideDiagram):
        content((3, 2), cell)


@given(partitions(max_weight=12))
def test_hook_multiset_is_conjugation_invariant(p):
    hooks = sorted(hook_length(p, u) for u in cells(p))
    hooks_t = sorted(hook_length(conjugate(p), u) for u in cells(conjugate(p)))
    assert hooks == hooks_t


@given(partitions(max_weight=12))
def test_contents_negate_under_conjugation(p):
    cs = sorted(content(p, u) for u in cells(p))
    cs_t = sorted(-content(conjugate(p), u) for u in cells(conjugate(p)))
    assert cs == cs_t


def test_partitions_of_counts():
    # Partition numbers p(0..8) = 1, 1, 2, 3, 5, 7, 11, 15, 22.
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        assert sum(1 for _ in partitions_of(n, n if n else 1)) == count


def test_partitions_of_respects_bounds():
    assert list(partitions_of(4, 2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions_of(4, 2, max_first=2)) == [(2, 2)]
    assert list(partitions_of(0, 3)) == [()]


@given(st.integers(0, 12), st.integers(1, 6))
def test_partitions_of_yields_valid_partitions(n, max_parts):
    seen = set()
    for p in partitions_of(n, max_parts):
        assert p == canonical(p)
        assert weight(p) == n
        assert len(p) <= max_parts
        seen.add(p)
    assert len(seen) == sum(1 for _ in partitions_of(n, max_parts))
