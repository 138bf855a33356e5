from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plethykit.errors import EmptyDiagram, ShapeMismatch
from plethykit.plethysm import SLInstance, dual, gl_isomorphic, sl_isomorphic
from plethykit.staircase import (
    StaircaseDescriptor,
    corollary_I_family,
    corollary_II_family,
    main_family,
    main_gl_condition,
    main_square,
    minimal_lift,
    pairwise_sl_isomorphic,
    reverse,
    to_instance,
)

ENTRY = st.integers(0, 3)


@st.composite
def descriptors(draw, max_steps=4, positive=False):
    lo = 1 if positive else 0
    steps = draw(
        st.lists(st.tuples(st.integers(lo, 4), st.integers(lo, 3)), max_size=max_steps)
    )
    slack = draw(st.integers(0, 3))
    return StaircaseDescriptor(tuple(steps), slack)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        StaircaseDescriptor(((-1, 2),), 0)
    with pytest.raises(ValueError):
        StaircaseDescriptor(((1, 2),), -1)


def test_to_instance_known_values():
    # Single step: a (width w, height h) rectangle with slack extra dimension.
    assert to_instance(StaircaseDescriptor(((2, 1),), 3)) == SLInstance((2,), 3)
    assert to_instance(StaircaseDescriptor(((2, 3),), 1)) == SLInstance((2, 2, 2), 3)
    # Three steps: widths accumulate bottom-up, heights read top-down.
    assert to_instance(StaircaseDescriptor(((3, 2), (2, 4), (4, 4)), 0)) == SLInstance(
        (9, 9, 5, 5, 5, 5, 3, 3, 3, 3), 9
    )
    # No steps: the empty partition in dimension slack.
    assert to_instance(StaircaseDescriptor((), 4)) == SLInstance((), 3)
    # Zero-width steps merge blocks; zero-height steps drop rows.
    assert to_instance(StaircaseDescriptor(((2, 1), (0, 2)), 1)) == SLInstance(
        (2, 2, 2), 3
    )
    with pytest.raises(EmptyDiagram):
        to_instance(StaircaseDescriptor(((2, 0),), 0))


def test_reverse_known_values():
    s = StaircaseDescriptor(((2, 1),), 3)
    assert reverse(s) == StaircaseDescriptor(((2, 3),), 1)
    assert to_instance(reverse(s)) == dual(to_instance(s))
    t = StaircaseDescriptor(((3, 2), (2, 4), (4, 4)), 0)
    assert reverse(t) == StaircaseDescriptor(((4, 0), (2, 4), (3, 4)), 2)


@given(descriptors())
def test_reverse_is_an_involution(s):
    assert reverse(reverse(s)) == s


@given(descriptors(positive=True))
def test_reverse_realizes_the_box_complement(s):
    # For positive step sizes the first row spans the full box width, so
    # reversing the descriptor is exactly complementation in the box.
    assume(s.steps or s.slack)
    inst = to_instance(s)
    rev = to_instance(reverse(s))
    assert rev == dual(inst)
    assert sl_isomorphic(inst, rev)


def test_main_square_descriptors():
    a, b, c, d = main_square((1,), (1,), 2, 1, 1)
    assert a == StaircaseDescriptor(((1, 1), (2, 1), (1, 1)), 1)
    assert b == StaircaseDescriptor(((1, 1), (1, 1), (1, 2)), 1)
    assert c == reverse(a)
    assert d == reverse(b)


def test_main_family_known_values():
    assert main_family((), (), 2, 3, 1) == [
        SLInstance((2,), 3),
        SLInstance((3,), 2),
        SLInstance((2, 2, 2), 3),
        SLInstance((3, 3), 2),
    ]
    assert main_family((1,), (1,), 2, 1, 1) == [
        SLInstance((4, 3, 1), 3),
        SLInstance((3, 2, 1, 1), 4),
        SLInstance((4, 3, 1), 3),
        SLInstance((3, 2, 2, 1), 4),
    ]
    with pytest.raises(ValueError):
        main_family((1,), (1, 2), 1, 2, 1)
    with pytest.raises(EmptyDiagram):
        main_family((0,), (0,), 0, 1, 0)


def test_main_family_collapses_when_u_equals_v():
    a, b, c, d = main_family((2, 1), (1, 1), 2, 2, 1)
    assert a == b
    assert c == d


@given(
    st.lists(ENTRY, min_size=0, max_size=2),
    st.lists(ENTRY, min_size=0, max_size=2),
    ENTRY,
    ENTRY,
    ENTRY,
)
@settings(max_examples=120, deadline=None)
def test_main_family_is_pairwise_sl_isomorphic(x, y, u, v, z):
    assume(len(x) == len(y))
    if z == 0 and min(u, v) == 0 and sum(x) + sum(y) == 0:
        assume(False)  # one side of the square would be empty
    family = main_family(tuple(x), tuple(y), u, v, z)
    assert pairwise_sl_isomorphic(family)


def test_zero_entries_merge_into_neighbouring_parameters():
    for u in range(3):
        for v in range(3):
            for z in range(3):
                for y1 in range(3):
                    if z == 0 and min(u + y1, v + y1) == 0:
                        continue
                    assert main_family((0,), (y1,), u, v, z) == main_family(
                        (), (), u + y1, v + y1, z
                    )
                    for x1 in range(1, 3):
                        for y2 in range(3):
                            assert main_family((x1, 0), (y1, y2), u, v, z) == (
                                main_family((x1,), (y2,), u + y1, v + y1, z)
                            )
                            assert main_family((0, x1), (y1, y2), u, v, z) == (
                                main_family((x1,), (y1 + y2,), u, v, z)
                            )


def test_z_zero_square_is_a_reversed_longer_shape():
    # With z = 0 the first-row descriptors coincide with reversals of the
    # shape that has one more y entry than x entries.
    for x1 in range(1, 4):
        for y1 in range(1, 4):
            for u in range(1, 4):
                for v in range(1, 4):
                    a = main_square((x1,), (y1,), u, v, 0)[0]
                    other = main_square((), (x1,), u, v, y1)[0]
                    assert to_instance(a) == to_instance(reverse(other))


def test_main_gl_condition_known_values():
    # Hermite squares: no x, no y, z = 1 always satisfies t=s.
    assert main_gl_condition((), (), 2, 3, 1, "t=s")
    assert main_gl_condition((), (), 2, 3, 2, "t=s") is False
    # t=s+1 with empty x asks for z*(z-1) == u*v.
    assert main_gl_condition((), (1,), 2, 3, 3, "t=s+1")
    assert main_gl_condition((), (2,), 2, 3, 2, "t=s+1") is False
    # A nontrivial t=s solution: 1 + 1*(2+3) = 6 = 3*2.
    assert main_gl_condition((1,), (1,), 2, 3, 3, "t=s")
    with pytest.raises(ShapeMismatch):
        main_gl_condition((1,), (1, 1), 1, 1, 1, "t=s")
    with pytest.raises(ShapeMismatch):
        main_gl_condition((1,), (1,), 1, 1, 1, "t=s+1")
    with pytest.raises(ValueError):
        main_gl_condition((), (), 1, 1, 1, "t=2s")


def test_main_gl_condition_implies_first_row_gl():
    fam = main_family((1,), (1,), 2, 3, 3)
    assert gl_isomorphic(minimal_lift(fam[0]), minimal_lift(fam[1]))
    a, b = (to_instance(s) for s in main_square((), (1,), 2, 3, 3)[:2])
    assert gl_isomorphic(minimal_lift(a), minimal_lift(b))


def test_main_gl_negative_known_values():
    # u != v: both column pairs and the second-row pair fail GL.
    a, b, c, d = main_family((), (), 2, 3, 1)
    for first, second in ((a, c), (b, d), (c, d)):
        assert not gl_isomorphic(minimal_lift(first), minimal_lift(second))


def test_main_gl_negative_degenerate_square():
    # With no x/y entries B has a single step and a palindromic
    # heights-plus-slack vector, so B reverses to itself and the (B, D)
    # pair is trivially GL-isomorphic.
    a, b, c, d = main_family((), (), 2, 1, 2)
    assert b == d
    assert gl_isomorphic(minimal_lift(b), minimal_lift(d))
    # The other column pair (A, C) and the second-row pair (C, D) do fail.
    assert not gl_isomorphic(minimal_lift(a), minimal_lift(c))
    assert not gl_isomorphic(minimal_lift(c), minimal_lift(d))


def test_second_row_pair_never_gl_for_distinct_u_v():
    # Unlike the column pairs, the swapped pair (C, D) fails
    # gl_isomorphic for every square with u != v and positive entries.
    for n in range(3):
        for x in product(range(1, 4), repeat=n):
            for y in product(range(1, 4), repeat=n):
                for u, v, z in product(range(1, 4), repeat=3):
                    if u == v:
                        continue
                    _, _, c, d = main_family(x, y, u, v, z)
                    assert not gl_isomorphic(minimal_lift(c), minimal_lift(d)), (
                        x, y, u, v, z,
                    )


def test_corollary_I_rectangles_at_s_zero():
    from itertools import permutations

    fam = corollary_I_family(0, 1, 2, 3)
    key = lambda inst: (inst.lam, inst.d)
    expected = sorted(
        (SLInstance((a,) * b, b + c - 1) for a, b, c in permutations((1, 2, 3))), key=key
    )
    assert sorted(fam, key=key) == expected
    assert pairwise_sl_isomorphic(fam)


def test_corollary_I_collapses_at_ones():
    fam = corollary_I_family(0, 1, 1, 1)
    assert fam == [SLInstance((1,), 1)] * 6


@pytest.mark.parametrize("params", [(0, 1, 2, 3), (1, 2, 1, 1), (1, 1, 2, 2), (2, 1, 1, 2)])
def test_corollary_I_is_pairwise_sl_isomorphic(params):
    assert pairwise_sl_isomorphic(corollary_I_family(*params))


@pytest.mark.parametrize("params", [(0, 1, 2, 3), (0, 2, 3, 3), (1, 2, 1, 1), (1, 1, 2, 2)])
def test_corollary_II_is_pairwise_sl_isomorphic(params):
    assert pairwise_sl_isomorphic(corollary_II_family(*params))


def test_corollary_II_known_instance():
    fam = corollary_II_family(0, 2, 3, 3)
    assert fam[2] == SLInstance((5, 5, 5, 3, 3, 3), 8)
    # u appears symmetrically here because v == z, so the rows repeat.
    assert fam[5] == fam[2]
    assert gl_isomorphic(minimal_lift(fam[2]), minimal_lift(fam[5]))


@pytest.mark.parametrize("bad", [(-1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)])
def test_corollary_parameter_validation(bad):
    with pytest.raises(ValueError):
        corollary_I_family(*bad)
    with pytest.raises(ValueError):
        corollary_II_family(*bad)


def test_pairwise_sl_isomorphic_basics():
    assert pairwise_sl_isomorphic([])
    assert pairwise_sl_isomorphic([SLInstance((2,), 3)])
    assert not pairwise_sl_isomorphic([SLInstance((2,), 3), SLInstance((1,), 3)])
    # (2,) and its box complement (2, 2, 2) at d = 3 are SL-isomorphic;
    # (1,) at d = 3 is not, wherever it sits in the list.
    x, mirror, other = SLInstance((2,), 3), SLInstance((2, 2, 2), 3), SLInstance((1,), 3)
    assert pairwise_sl_isomorphic([x, mirror, x])
    assert not pairwise_sl_isomorphic([other, x, mirror])
    assert not pairwise_sl_isomorphic([x, mirror, other])
    assert not pairwise_sl_isomorphic([x, other, mirror])
