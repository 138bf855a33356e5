import math
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plethykit.errors import LengthExceedsDimension
from plethykit.partition import (
    add,
    b_statistic,
    canonical,
    excerpt,
    partitions_of,
)

from .reference import cells, complement, conjugate, content, hook_length, tilde_reduce
from .test_entry_point import ENV


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


# Each non-partition and the end of the message that names its fault.
# True equals 1, so only the bool check stops [True] reading as (1,).
FAULTS = [
    ([1, 2], "weakly decreasing, got (1, 2)"),
    ([3, -1], "nonnegative, got -1"),
    ([2, 1.5], "must be an integer, got 1.5"),
    ([0, 1], "weakly decreasing, got (0, 1)"),
    ([True], "must be an integer, got True"),
    ([2, True], "must be an integer, got True"),
]


@pytest.mark.parametrize("bad", [bad for bad, _ in FAULTS])
def test_canonical_rejects_non_partitions(bad):
    fault = next(fault for p, fault in FAULTS if p is bad)
    with pytest.raises(ValueError, match=re.escape(fault) + "$"):
        canonical(bad)


def test_an_order_error_echoes_a_bounded_excerpt():
    # Up to 200 characters the input comes back whole, as FAULTS pins;
    # past that, its first 200 and its length.
    assert excerpt("x" * 200) == "x" * 200
    assert excerpt("x" * 201) == "x" * 200 + "... (201 characters in all)"
    text = str(tuple(range(10_000)))
    with pytest.raises(ValueError) as raised:
        canonical(range(10_000))
    assert str(raised.value) == f"parts must be weakly decreasing, got {text[:200]}... ({len(text)} characters in all)"


def test_canonical_is_linear_in_the_parts():
    # 200,000 trailing zeros: stripping them one slice per zero copies the
    # tuple once per zero, over a minute; one slice takes milliseconds.
    # A fresh interpreter, because only a process can be stopped at the
    # timeout if the parse turns quadratic again.
    code = "from plethykit.partition import canonical; assert canonical((1,) + (0,) * 200_000) == (1,)"
    subprocess.run([sys.executable, "-c", code], env=ENV, timeout=10, check=True)


def test_canonical_accepts_int_subclasses_other_than_bool():
    # The check rejects bool, not every subclass of int: a part that is
    # an int and not a bool passes, whatever its type.
    class Part(int):
        pass

    assert canonical([Part(2), Part(1), Part(0)]) == (2, 1)


def test_weight_and_conjugate_known_values():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)


@given(partitions())
def test_conjugate_is_an_involution(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == sum(p)


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
        assert sum(comp) == k * p[0] - sum(p)
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
        assert sum(p) == n
        assert len(p) <= max_parts
        seen.add(p)
    assert len(seen) == sum(1 for _ in partitions_of(n, max_parts))
