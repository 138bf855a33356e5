import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethykit.errors import InexactDivision, LengthExceedsDimension
from plethykit.hookcontent import _SPAN, _block_counts, p_poly, sl_key
from plethykit.partition import b_statistic, partitions_of
from plethykit.plethysm import SLInstance, sl_isomorphic
from plethykit.search import enumerate_classes

from .reference import (
    ONE,
    _over_one_minus,
    _times_one_minus,
    canonical_poly,
    cells,
    complement,
    conjugate,
    content,
    exact_div,
    full_p_poly,
    hook_length,
    key_pairs,
    mul,
    p_of,
    pack,
    per_cell_key,
    q_analog,
)
from .test_partition import partitions


def _analog_product(values):
    out = ONE
    for a in values:
        out = mul(out, q_analog(a))
    return out


def test_hook_poly_known_values():
    # The hook product H_p = prod [h(u)] is what P divides out of the
    # content product: P^d_p * H_p = C^d_p.
    assert p_of((), 2) == ONE
    assert p_of((1,), 0) == ONE
    # hooks of (2,) and of (1, 1) are {2, 1}; contents at d = 1 are
    # {2, 3} and {2, 1}
    assert mul(p_of((2,), 1), q_analog(2)) == _analog_product([2, 3])
    assert mul(p_of((1, 1), 1), q_analog(2)) == q_analog(2)
    # hooks of (2, 2) are {3, 2, 2, 1}; contents at d = 2 are {3, 4, 2, 3}
    hooks = _analog_product([3, 2, 2])
    assert mul(p_of((2, 2), 2), hooks) == _analog_product([3, 4, 2, 3])


@given(partitions(max_weight=12))
def test_hook_poly_is_the_analog_product_of_hooks(p):
    # C^d_p / P^d_p is the same conjugation-invariant hook product for
    # every d.
    hooks = _analog_product(hook_length(p, u) for u in cells(p))
    conj = conjugate(p)
    assert hooks == _analog_product(hook_length(conj, u) for u in cells(conj))
    for d in (max(len(p) - 1, 0), len(p) + 2):
        contents = _analog_product(d + 1 + content(p, u) for u in cells(p))
        assert exact_div(contents, p_of(p, d)) == hooks


def test_over_one_minus_divides_exactly_or_raises():
    # Short branch, len(f) <= b: only the zero polynomial divides.
    assert _over_one_minus([0, 0], 2) == [0]
    with pytest.raises(InexactDivision):
        _over_one_minus([1], 2)
    with pytest.raises(InexactDivision):
        _over_one_minus([0, 3], 2)
    # Recurrence branch: an exact quotient comes back, a remainder
    # leaves a nonzero tail.
    f = [1, 2, 3]
    assert _over_one_minus(_times_one_minus(f, 2), 2) == f
    assert _over_one_minus([1, 0, -1], 2) == [1]
    with pytest.raises(InexactDivision):
        _over_one_minus([1, 0, 0], 2)  # 1 + q^2 leaves remainder 2 mod 1 - q^2
    with pytest.raises(InexactDivision):
        _over_one_minus([1, 1], 1)  # 1 + q leaves remainder 2 mod 1 - q


def test_content_poly_known_values():
    # C^d_p = prod [d+1+c(u)] is P^d_p times the hook product.
    assert p_of((1,), 5) == q_analog(6)
    # contents of (2,) are {0,1}: [4]*[5]
    assert mul(p_of((2,), 3), q_analog(2)) == _analog_product([4, 5])
    # contents of (1,1) are {0,-1}: [4]*[3]
    assert mul(p_of((1, 1), 3), q_analog(2)) == _analog_product([4, 3])
    with pytest.raises(LengthExceedsDimension):
        p_of((1, 1, 1), 1)


def test_p_poly_known_values():
    assert p_of((), 4) == ONE
    assert p_of((1,), 3) == q_analog(4)
    assert p_of((2,), 3) == (1, 1, 2, 2, 2, 1, 1)
    assert p_of((1, 1), 3) == (1, 1, 2, 1, 1)
    assert p_of((2, 1), 1) == (1, 1)
    assert p_of((2, 0), 2) == p_of((2,), 2)  # trailing zeros are stripped
    with pytest.raises(LengthExceedsDimension):
        p_of((2, 2, 2), 1)


def test_dimension_known_values():
    # P at q = 1 is dim S_p(C^{d+1}).
    assert sum(p_of((2,), 3)) == 10
    assert sum(p_of((1, 1), 3)) == 6
    assert sum(p_of((), 7)) == 1
    assert sum(p_of((1, 1, 1), 2)) == 1
    for d in range(6):
        assert sum(p_of((1,), d)) == d + 1


def test_single_rows_are_gaussian_binomials():
    # P for a single row (m) equals the Gaussian binomial [m+d choose d].
    for m in range(1, 6):
        for d in range(1, 5):
            nums = list(range(m + 1, m + d + 1))
            dens = list(range(1, d + 1))
            expected = exact_div(_analog_product(nums), _analog_product(dens))
            assert p_of((m,), d) == expected


@given(partitions(max_weight=10), st.integers(0, 8))
def test_p_poly_divides_content_by_hooks_exactly(p, d):
    if len(p) > d + 1:
        with pytest.raises(LengthExceedsDimension):
            p_of(p, d)
        with pytest.raises(LengthExceedsDimension):
            sl_key(p, d)
        return
    contents = _analog_product(d + 1 + content(p, u) for u in cells(p))
    hooks = _analog_product(hook_length(p, u) for u in cells(p))
    expected = exact_div(contents, hooks)
    assert p_of(p, d) == expected
    # The key is P's factorization into q-integers: prod [n]^{c_n}.
    key = key_pairs(sl_key(p, d))
    above = _analog_product(n for n, c in key for _ in range(c))
    below = _analog_product(n for n, c in key for _ in range(-c))
    assert exact_div(above, below) == expected
    assert sum(c for _, c in key) == 0


def test_sl_key_known_values():
    assert key_pairs(sl_key((), 3)) == frozenset()
    # contents of (2,) at d = 3 are {4, 5}, hooks {2, 1}
    assert key_pairs(sl_key((2,), 3)) == {(4, 1), (5, 1), (2, -1), (1, -1)}
    # and their second differences, the rectangle corners, are the digits
    corners = {1: -1, 2: 1, 3: 1, 5: -1, 6: -1, 7: 1}
    assert sl_key((2,), 3) == sum(t << 64 * n for n, t in corners.items())
    # (1, 1) at d = 1 is the trivial module: contents {2, 1}, hooks {2, 1}
    assert key_pairs(sl_key((1, 1), 1)) == frozenset()
    with pytest.raises(LengthExceedsDimension):
        sl_key((1, 1, 1), 1)


def test_sl_instance_length_is_checked_by_sl_key():
    # SLInstance builds its key at construction, so sl_key's length
    # check is the instance's.
    with pytest.raises(LengthExceedsDimension, match=r"^\(1, 1, 1\) has more than 2 rows$"):
        SLInstance((1, 1, 1), 1)


def test_sl_key_partitions_like_p_poly_exhaustively():
    # Every (p, d) with |p| <= 12 and length(p) - 1 <= d <= 10: the
    # key and the expanded polynomial split them into the same classes.
    instances = [
        (p, d)
        for n in range(13)
        for p in partitions_of(n, n)
        for d in range(max(len(p) - 1, 0), 11)
    ]
    by_key, by_poly = {}, {}
    for p, d in instances:
        by_key.setdefault(sl_key(p, d), set()).add((p, d))
        by_poly.setdefault(canonical_poly(p_of(p, d)), set()).add((p, d))
    assert len(instances) == 2052
    assert len(by_key) == len(by_poly) == 1341
    classes = {frozenset(members) for members in by_key.values()}
    assert classes == {frozenset(members) for members in by_poly.values()}


def test_sl_key_matches_per_cell_key_exhaustively():
    # Every (p, d) with |p| <= 14 and length(p) - 1 <= d <= 12: the
    # block-wise key equals the cell-by-cell one.
    instances = [
        (p, d)
        for n in range(15)
        for p in partitions_of(n, n)
        for d in range(max(len(p) - 1, 0), 13)
    ]
    assert len(instances) == 4564
    for p, d in instances:
        assert key_pairs(sl_key(p, d)) == per_cell_key(p, d), (p, d)


def test_sl_key_matches_per_cell_key_around_the_branch_point():
    # The contents start at n = d+2-len(p) and the hooks end below
    # n = p[0]+len(p), so the two ranges stop overlapping at
    # d = p[0] + 2*len(p) - 2: every |p| <= 10 and every d within 2 of
    # that point, on both branches of the merge and where they meet.
    instances = [
        (p, d)
        for n in range(1, 11)
        for p in partitions_of(n, n)
        for branch in [p[0] + 2 * len(p) - 2]
        for d in range(max(len(p) - 1, branch - 2), branch + 3)
    ]
    assert len(instances) == 689
    for p, d in instances:
        assert key_pairs(sl_key(p, d)) == per_cell_key(p, d), (p, d)


@given(
    st.lists(partitions(max_weight=8), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 12)), min_size=1, max_size=12),
)
def test_sl_key_memo_never_serves_another_partition(shapes, asks):
    # sl_key counts each partition once and keeps its counts in a memo:
    # repeated and alternating partitions must each get their own.
    _block_counts.cache_clear()
    for i, extra in asks:
        p = shapes[i % len(shapes)]
        d = max(len(p) - 1, 0) + extra
        assert key_pairs(sl_key(p, d)) == per_cell_key(p, d), (p, d)


def test_count_memo_eviction_keeps_keys_exact():
    # More distinct partitions than the count memo holds, each built
    # through SLInstance, then the earliest again under other d: every
    # key must be its own partition's, after the memo has evicted it.
    _block_counts.cache_clear()
    shapes = [p for n in range(1, 16) for p in partitions_of(n, n)]
    assert len(shapes) > _block_counts.cache_info().maxsize
    for p in shapes:
        assert key_pairs(SLInstance(p, len(p) - 1).key) == per_cell_key(p, len(p) - 1)
    assert _block_counts.cache_info().currsize == _block_counts.cache_info().maxsize
    for p in shapes[:50]:
        for d in (len(p), len(p) + 5, p[0] + 2 * len(p)):
            assert key_pairs(SLInstance(p, d).key) == per_cell_key(p, d), (p, d)


@pytest.mark.parametrize("p", [(1, 2), (-1,), (0, 1), (2, 1.5), (True,)])
def test_sl_instance_rejects_non_partitions(p):
    # SLInstance is the one parser of (p, d) and p_poly takes its key, so
    # no P is reached from a non-partition.  (True,) is asked after (1,)
    # is built and its P expanded: no memo may answer for the equal (1,).
    p_poly(SLInstance((1,), 2).key)
    with pytest.raises(ValueError):
        SLInstance(p, 2)


@st.composite
def _block_shapes(draw):
    """Partitions with up to 10 distinct parts, each repeated 1-3 times."""
    blocks = draw(
        st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 3)),
            max_size=10,
            unique_by=lambda block: block[0],
        )
    )
    return tuple(sorted((part for part, m in blocks for _ in range(m)), reverse=True))


@given(_block_shapes(), st.integers(0, 10**6))
def test_sl_key_matches_per_cell_key_on_many_blocks(p, extra):
    d = max(len(p) - 1, 0) + extra
    assert key_pairs(sl_key(p, d)) == per_cell_key(p, d)


def test_sl_key_size_does_not_depend_on_d():
    # Hooks of (2, 1) are {3, 1, 1}, contents d+1+{0, 1, -1}: a sweep
    # over an array indexed by n would need O(d) memory here.
    big = 10**18
    assert key_pairs(sl_key((2, 1), big)) == {(big, 1), (big + 1, 1), (big + 2, 1), (3, -1), (1, -2)}


def test_a_long_row_at_d_0_is_the_trivial_module():
    # Contents and hooks of one row at d = 0 are both 1, ..., p[0], so
    # P = 1 for a row of 10^12 cells as for the empty partition: the key
    # must come from the row's corners, not from slots indexed by n.
    assert SLInstance((10**12,), 0).key == SLInstance((), 0).key


@given(st.integers(1, 10**18), st.integers(1, 10**18))
def test_hermite_reciprocity_at_any_size(a, b):
    # S^a(S^b C^2) and S^b(S^a C^2) are SL-isomorphic (Hermite
    # reciprocity), and one more d raises the dimension of the first.
    assert SLInstance((a,), b).key == SLInstance((b,), a).key
    assert SLInstance((a,), b + 1).key != SLInstance((b,), a).key


def test_keying_a_wide_instance_allocates_no_array():
    # ((10^6), 2*10^6) has four rectangle corners a side; an array of
    # counts indexed by n would take tens of MB.
    tracemalloc.start()
    try:
        sl_key((10**6,), 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sl_key_matches_per_cell_key_across_the_switch():
    # Every |p| <= 6 with d from 3 below to 2 past the switch point
    # d + p[0] = _SPAN, where the top content d + p[0] stops being below
    # _SPAN: the key is the int on one side and the tuple on the other,
    # and key_pairs checks that each form holds the counts it must.
    instances = [
        (p, d)
        for n in range(1, 7)
        for p in partitions_of(n, n)
        for d in range(_SPAN - p[0] - 3, _SPAN - p[0] + 3)
    ]
    assert len(instances) == 29 * 6
    for p, d in instances:
        key = sl_key(p, d)
        assert key_pairs(key) == per_cell_key(p, d), (p, d)
        assert isinstance(key, int) == (d + p[0] < _SPAN), (p, d)


def test_hermite_pairs_around_the_switch_have_equal_keys():
    # ((p), q) and ((q), p) are SL-isomorphic (Hermite reciprocity).  One
    # has disjoint hook and content ranges when the other's overlap, so
    # they reach equal counts by different merges, and must reach them in
    # one form on both sides of p + q = _SPAN.
    for total in range(_SPAN - 2, _SPAN + 2):
        for p in (1, 2, 3, total // 2, total - 3, total - 2, total - 1):
            a, b = sl_key((p,), total - p), sl_key((total - p,), p)
            assert a == b, (p, total - p)
            assert isinstance(a, int) == (total < _SPAN)
    assert key_pairs(sl_key((3,), _SPAN - 3)) == per_cell_key((3,), _SPAN - 3)
    assert key_pairs(sl_key((_SPAN - 3,), 3)) == per_cell_key((_SPAN - 3,), 3)


def test_cancelled_top_content_gives_the_int_key():
    # At d = len(p) - 1 the top content d + p[0] cancels the hook of cell
    # (1, 1), so a key whose merge starts on the tuple side can end below
    # _SPAN: it must be the int that the same counts give on the fast side.
    assert sl_key((_SPAN,), 0) == 0 == SLInstance((), 0).key
    assert SLInstance((_SPAN,), 0).key == 0
    # A full column of length d + 1 leaves P unchanged, so (p, 1, 1) at
    # d = 2 has the key of (p - 1,) at d = 2, built on the fast side.
    p = (_SPAN - 2, 1, 1)
    key = sl_key(p, 2)
    assert isinstance(key, int)
    assert key == sl_key((_SPAN - 3,), 2)
    assert key_pairs(key) == per_cell_key(p, 2)
    # One part more keeps the top count at n = _SPAN: the tuple.
    assert isinstance(sl_key((_SPAN - 1, 1, 1), 2), tuple)
    # The widest partition the int side takes, m = p[0] + len(p) = _SPAN
    # at d = len(p) - 1, whose halves _block_counts must still pack.
    assert key_pairs(sl_key((_SPAN - 2, 1), 1)) == per_cell_key((_SPAN - 2, 1), 1)


def _packed_halves(p):
    """p's hooks and contents counted cell by cell, each half packed as
    base-2^64 digits by plain shifts, hook n at digit n and content c at
    digit c + len(p) - 1, then times (2^64 - 1)^2, which turns the counts
    into their second differences: the corner ints _block_counts builds,
    by another route."""
    square = ((1 << 64) - 1) ** 2
    hooks = sum(1 << 64 * hook_length(p, u) for u in cells(p))
    contents = sum(1 << 64 * (content(p, u) + len(p) - 1) for u in cells(p))
    return hooks * square, contents * square


def test_corner_ints_equal_the_packed_cells_exhaustively():
    # Every nonempty |p| <= 12: the two ways of counting a partition,
    # the corner ints and the cells packed one by one, agree digit for digit.
    shapes = [p for n in range(1, 13) for p in partitions_of(n, n)]
    assert len(shapes) == 271
    for p in shapes:
        assert _block_counts(p) == _packed_halves(p), p


@st.composite
def _packed_shapes(draw):
    """Partitions with m = p[0] + len(p) <= _SPAN, from one distinct part
    to over a hundred, each part repeated up to four times."""
    top = draw(st.integers(1, _SPAN - 1))
    rest = draw(st.lists(st.integers(1, top), max_size=_SPAN - 1 - top))
    repeat = draw(st.integers(1, 4))
    return tuple(sorted([top, *rest] * repeat, reverse=True))[: _SPAN - top]


@settings(deadline=None)
@given(_packed_shapes())
def test_corner_ints_equal_the_packed_cells(p):
    assert p[0] + len(p) <= _SPAN
    assert _block_counts(p) == _packed_halves(p)


@pytest.mark.parametrize(
    "p",
    [
        (_SPAN - 1,),
        (_SPAN,),
        (_SPAN - 3, 2, 1),
        (_SPAN - 2, 2, 1),
        (_SPAN - 4, _SPAN - 4, 1, 1),
        (_SPAN - 3, _SPAN - 3, 1, 1),
        tuple(range(_SPAN // 2, 0, -1)),
        tuple(range(_SPAN // 2 + 1, 1, -1)),
    ],
)
def test_the_counting_switch_keeps_keys_exact(p):
    # m = _SPAN is the widest partition _block_counts packs, at its least
    # d, and m = _SPAN + 1 the narrowest that is keyed from the corners
    # at every d, on one and on many distinct parts, each at the least d,
    # at the first d past the int form's fast side and at a large d.
    m = p[0] + len(p)
    assert m in (_SPAN, _SPAN + 1)
    for d in (len(p) - 1, _SPAN - p[0], 10**6):
        _block_counts.cache_clear()
        assert key_pairs(sl_key(p, d)) == per_cell_key(p, d), (p, d)
        assert _block_counts.cache_info().currsize == (d + p[0] < _SPAN), (p, d)


def test_tuple_keys_of_packed_partitions_come_from_the_corners():
    # Every nonempty |p| <= 6 at d where the key is the tuple, though
    # _block_counts could pack p: the key comes from the corners, and
    # the count memo is not entered.
    shapes = [p for n in range(1, 7) for p in partitions_of(n, n)]
    for p in shapes:
        for d in (_SPAN - p[0], 10**6, 10**18):
            _block_counts.cache_clear()
            assert key_pairs(sl_key(p, d)) == per_cell_key(p, d), (p, d)
            assert _block_counts.cache_info().currsize == 0, (p, d)


def test_packed_partitions_keep_no_counts_list():
    # A partition the int form takes is held in the count memo as its two
    # packed ints only, so the memo's 512 entries hold no lists of counts
    # on the staircase sweeps; a wider one, keyed from its corners at
    # every d, enters no memo.
    for p in [(1,), (3, 2, 1), (_SPAN - 1,), tuple(range(_SPAN // 2, 0, -1))]:
        hooks, contents = _block_counts(p)
        assert type(hooks) is int and type(contents) is int, p
    _block_counts.cache_clear()
    assert key_pairs(sl_key((_SPAN,), 0)) == frozenset()
    assert key_pairs(sl_key((_SPAN,), 1)) == per_cell_key((_SPAN,), 1)
    assert _block_counts.cache_info().currsize == 0


@pytest.mark.parametrize("p", [(3,), (2, 1), (2, 2), (3, 1, 1)])
def test_p_poly_reads_both_forms_across_the_switch(p):
    # The last int key, with top digit n = _SPAN - 1, and the first tuple,
    # expanded by p_poly's digit reading and by the reference's divmod.
    for d in (_SPAN - p[0] - 1, _SPAN - p[0]):
        key = SLInstance(p, d).key
        assert isinstance(key, int) == (d + p[0] < _SPAN)
        assert p_poly(key) == full_p_poly(key), (p, d)


@st.composite
def _near_the_switch(draw):
    """(p, d) with d within 4 of the switch point d + p[0] = _SPAN."""
    p = draw(partitions(max_weight=8))
    p = p or (1,)
    return p, _SPAN - p[0] + draw(st.integers(-4, 3))


@given(_near_the_switch(), _near_the_switch(), st.booleans())
def test_equal_keys_iff_equal_counts_across_the_switch(a, b, conjugate_of_a):
    # Conjugating p and moving d by p[0] - len(p) keeps the key exactly
    # when p's diagonal lengths read the same backwards, so this draws
    # equal and unequal pairs from both sides of the switch.
    if conjugate_of_a:
        b = (conjugate(a[0]), a[1] + a[0][0] - len(a[0]))
    assert (sl_key(*a) == sl_key(*b)) == (per_cell_key(*a) == per_cell_key(*b))
    for inst in (a, b):
        assert key_pairs(sl_key(*inst)) == per_cell_key(*inst)


@st.composite
def _instances(draw, max_weight=12, max_d=10):
    p = draw(partitions(max_weight=max_weight, max_parts=max_d + 1))
    return p, draw(st.integers(max(len(p) - 1, 0), max_d))


@settings(deadline=None)
@given(_instances(max_weight=24, max_d=30))
def test_p_poly_matches_the_full_degree_expansion(instance):
    key = SLInstance(*instance).key
    assert canonical_poly(p_poly(key)) == full_p_poly(key)


def test_p_poly_matches_the_full_degree_expansion_on_every_class():
    classes = enumerate_classes(12, 10)
    assert len(classes) == 300
    for cls in classes:
        key = cls.members[0].key
        assert p_poly(key) == full_p_poly(key) == cls.poly, key


@pytest.mark.parametrize(
    "key", [pack([(1, 1), (2, -2), (4, 1)]), pack([(1, 1), (2, -1)])], ids=["key0", "key1"]
)
def test_p_poly_rejects_a_key_that_misses_its_dimension(key):
    # (1 - q)(1 - q^4) / (1 - q^2)^2 and (1 - q) / (1 - q^2) are not
    # polynomials; the truncated series cannot tell, the dimension can.
    with pytest.raises(InexactDivision):
        p_poly(key)
    with pytest.raises(InexactDivision):
        full_p_poly(key)


@given(_instances(), _instances(), st.booleans())
def test_equal_keys_iff_equal_p_poly(a, b, mirror):
    # Mirroring b onto the box complement of a makes equal pairs common.
    if mirror:
        b = (complement(a[0], a[1] + 1), a[1])
    assert (sl_key(*a) == sl_key(*b)) == (p_of(*a) == p_of(*b))


@given(partitions(max_weight=10), st.integers(0, 8))
def test_p_poly_shape_invariants(p, d):
    if len(p) > d + 1:
        return
    f = p_of(p, d)
    assert f[0] == 1
    assert f == f[::-1]
    assert len(f) - 1 == sum(p) * d - 2 * b_statistic(p)
    assert all(c > 0 for c in f)


@given(partitions(max_weight=10), st.integers(0, 8))
def test_p_poly_complement_symmetry(p, d):
    # Complementing inside a (d+1)-row box leaves P unchanged.
    if len(p) > d + 1:
        return
    assert p_of(complement(p, d + 1), d) == p_of(p, d)


def test_dimension_matches_weyl_formula():
    # dim = prod over cells (d+1+c(u))/h(u), computed in exact rationals.
    for p in [(3, 1), (2, 2), (4,), (3, 2, 1), (1, 1, 1, 1)]:
        for d in range(len(p) - 1, len(p) + 3):
            num = den = 1
            for i, row in enumerate(p, start=1):
                for j in range(1, row + 1):
                    num *= d + 1 + (j - i)
                    den *= hook_length(p, (i, j))
            assert sum(p_of(p, d)) == num // den
            assert num % den == 0


def test_degree_formula_known_values():
    # deg P^d_p = |p|*d - 2*b(p)
    assert len(p_of((2,), 3)) - 1 == 6
    assert len(p_of((1, 1), 3)) - 1 == 4
    assert len(p_of((2, 2), 2)) - 1 == 4
    assert len(p_of((), 5)) - 1 == 0


@pytest.mark.parametrize(
    "a, b",
    [
        (((6, 5), 3), ((4, 1), 5)),
        (((4, 2, 1, 1, 1), 8), ((4, 3, 1, 1, 1, 1, 1), 8)),
        (((3, 3, 2), 9), ((2, 2, 2, 2, 1, 1), 10)),
        # the census candidate: widths (a,b,a), heights and slack (c,a,c,b)
        # against (a,c,a) with (c,b,a,b), at a, b, c = 1, 1, 2
        (((3, 3, 2, 1, 1), 5), ((4, 4, 3, 1), 4)),
    ],
)
def test_sporadic_pairs_no_family_explains(a, b):
    assert sl_key(*a) == sl_key(*b)
    assert p_of(*a) == p_of(*b)
    assert sl_isomorphic(SLInstance(*a), SLInstance(*b))


def test_p_poly_cache_returns_equal_objects():
    # Keyed by the invariant, the cache shares one expansion across
    # SL-isomorphic instances: (2,) at d = 1 and (1,) at d = 2 are both
    # 1 + q + q^2.
    assert p_poly(SLInstance((2,), 1).key) is p_poly(SLInstance((1,), 2).key)


def test_hook_content_handles_large_staircase_shapes():
    # A shape of the size the staircase families produce.
    p = (9, 9, 5, 5, 5, 5, 3, 3, 3, 3)
    f = p_of(p, 9)
    assert f[0] == 1
    assert f == f[::-1]
    assert len(f) - 1 == sum(p) * 9 - 2 * b_statistic(p)
    # Three row blocks of 15 rows (lengths 70, 45, 20), 2,025 cells.
    big = (70,) * 15 + (45,) * 15 + (20,) * 15
    assert sum(big) == 2025
    assert key_pairs(sl_key(big, 49)) == per_cell_key(big, 49)
