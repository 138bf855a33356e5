import hashlib
import inspect
import json
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plethykit import hookcontent, plethysm, staircase
from plethykit.errors import EmptyDiagram
from plethykit.hookcontent import sl_key
from plethykit.plethysm import SLInstance, gl_isomorphic, sl_isomorphic
from plethykit.staircase import (
    FAMILIES,
    _member,
    main_family,
    main_square,
    pairwise_sl_isomorphic,
    reverse,
    to_instance,
)

from .reference import check_as_parsed, dual, main_gl_condition, minimal_lift
from .test_cli import run

ENTRY = st.integers(0, 3)
COROLLARIES = [kind for kind in FAMILIES if kind != "main"]


@st.composite
def descriptors(draw, max_steps=4, positive=False):
    lo = 1 if positive else 0
    widths = draw(st.lists(st.integers(lo, 4), max_size=max_steps))
    heights = draw(st.lists(st.integers(lo, 3), min_size=len(widths), max_size=len(widths)))
    slack = draw(st.integers(0, 3))
    return tuple(widths), (*heights, slack)


def test_descriptor_validation():
    # heights_slack must be exactly one entry longer than widths
    for heights_slack in ((2,), (2, 1, 1)):
        with pytest.raises(ValueError, match="one more height"):
            to_instance(((1,), heights_slack))
    # Each descriptor below would otherwise pass as a valid instance:
    # a negative width under a zero height, a negative slack under zero
    # widths, a negative height that only shortens a block.
    for s in (((2, -1), (1, 0, 1)), ((0,), (3, -1)), ((1, 1), (2, -1, 1))):
        with pytest.raises(ValueError, match="nonnegative"):
            to_instance(s)


# Each builder called with one int replaced by an equal bool or float,
# which the member memo would otherwise match with the int's entry.
COERCED = [
    (lambda: FAMILIES["cor1"](True, 2, 1, 1), lambda: FAMILIES["cor1"](1, 2, 1, 1), "got True"),
    (lambda: FAMILIES["cor2"](1, 2, 1.0, 1), lambda: FAMILIES["cor2"](1, 2, 1, 1), "got 1.0"),
    (lambda: main_family((1,), (1,), 2, 1, True), lambda: main_family((1,), (1,), 2, 1, 1), "got True"),
    (lambda: main_family((1.0,), (1,), 2, 1, 1), lambda: main_family((1,), (1,), 2, 1, 1), "got 1.0"),
    (lambda: to_instance(((1,), (True, 1))), lambda: to_instance(((1,), (1, 1))), "got True"),
    (lambda: to_instance(((1,), (1.0, 1))), lambda: to_instance(((1,), (1, 1))), "got 1.0"),
]


@pytest.mark.parametrize("cached", [False, True], ids=["cold", "cached"])
@pytest.mark.parametrize(
    "coerced, equal_int, entry",
    COERCED,
    ids=["cor1-s-bool", "cor2-v-float", "main-z-bool", "main-x-float", "descriptor-bool", "descriptor-float"],
)
def test_bool_and_float_entries_are_rejected(coerced, equal_int, entry, cached):
    _member.cache_clear()
    if cached:
        equal_int()
    with pytest.raises(ValueError, match=f"must be an integer, {entry}$"):
        coerced()


def test_member_memo_catches_repeated_descriptors():
    # At u = v a square's A equals B and C equals D as descriptors.
    _member.cache_clear()
    main_family((1,), (2,), 1, 1, 1)
    info = _member.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_count_memo_counts_each_partition_once_across_squares():
    # Every square with len(x) = len(y) <= 1 and entries <= 2: 476
    # distinct descriptors reach sl_key, 402 of them with a nonempty
    # partition, over 118 partitions, so a partition that recurs under
    # another d or another descriptor is served from the count memo.
    _member.cache_clear()
    hookcontent._block_counts.cache_clear()
    squares = [
        (x, y, u, v, z)
        for n in range(2)
        for x in product(range(3), repeat=n)
        for y in product(range(3), repeat=n)
        for u, v, z in product(range(3), repeat=3)
        if z or any(x) or any(y) or 0 not in (u, v)
    ]
    assert len(squares) == 260
    assert all(pairwise_sl_isomorphic(main_family(*params)) for params in squares)
    assert _member.cache_info().misses == 476
    info = hookcontent._block_counts.cache_info()
    assert (info.misses, info.hits) == (118, 284)


def test_member_memo_eviction_keeps_instances_exact():
    # More distinct descriptors than the memo holds.
    _member.cache_clear()
    asked = [
        ((w1, w2), (h1, h2, s))
        for w1, w2 in product(range(5), repeat=2)
        for h1, h2, s in product(range(4), repeat=3)
        if h1 + h2 + s
    ]
    assert len(set(asked)) > _member.cache_info().maxsize
    for s in asked:
        to_instance(s)
    assert _member.cache_info().currsize == _member.cache_info().maxsize
    again = [to_instance(s) for s in asked]
    assert [inst.key for inst in again] == [sl_key(inst.lam, inst.d) for inst in again]
    fresh = [_member.__wrapped__(s) for s in asked]  # past the memo
    assert [(inst, inst.key) for inst in again] == [(inst, inst.key) for inst in fresh]


@given(descriptors())
def test_member_memo_equals_its_unmemoized_body(s):
    assume(any(s[1]))  # else EmptyDiagram
    assert _member(s) == _member.__wrapped__(s)
    assert _member(s).key == _member.__wrapped__(s).key


@given(descriptors())
def test_members_built_unchecked_are_what_the_parser_builds(s):
    assume(any(s[1]))  # else EmptyDiagram
    check_as_parsed(to_instance(s))


def test_to_instance_known_values():
    # Single step: a (width w, height h) rectangle with slack extra dimension.
    assert to_instance(((2,), (1, 3))) == SLInstance((2,), 3)
    assert to_instance(((2,), (3, 1))) == SLInstance((2, 2, 2), 3)
    # Three steps: widths accumulate bottom-up, heights read top-down.
    assert to_instance(((3, 2, 4), (2, 4, 4, 0))) == SLInstance(
        (9, 9, 5, 5, 5, 5, 3, 3, 3, 3), 9
    )
    # No steps: the empty partition in dimension slack.
    assert to_instance(((), (4,))) == SLInstance((), 3)
    # Zero-width steps merge blocks; zero-height steps drop rows.
    assert to_instance(((2, 0), (1, 2, 1))) == SLInstance((2, 2, 2), 3)
    with pytest.raises(EmptyDiagram):
        to_instance(((2,), (0, 0)))


def test_reverse_known_values():
    s = ((2,), (1, 3))
    assert reverse(s) == ((2,), (3, 1))
    assert to_instance(reverse(s)) == dual(to_instance(s))
    t = ((3, 2, 4), (2, 4, 4, 0))
    assert reverse(t) == ((4, 2, 3), (0, 4, 4, 2))


@given(descriptors())
def test_reverse_is_an_involution(s):
    assert reverse(reverse(s)) == s


@given(descriptors(positive=True))
def test_reverse_realizes_the_box_complement(s):
    # For positive step sizes the first row spans the full box width, so
    # reversing the descriptor is exactly complementation in the box.
    widths, heights_slack = s
    assume(widths or heights_slack[-1])
    inst = to_instance(s)
    rev = to_instance(reverse(s))
    assert rev == dual(inst)
    assert sl_isomorphic(inst, rev)


def test_main_square_descriptors():
    a, b, c, d = main_square((1,), (1,), 2, 1, 1)
    assert a == ((1, 2, 1), (1, 1, 1, 1))
    assert b == ((1, 1, 1), (1, 1, 2, 1))
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
    with pytest.raises(ValueError, match="needs len"):
        main_gl_condition((1,), (1, 1), 1, 1, 1, "t=s")
    with pytest.raises(ValueError, match="needs len"):
        main_gl_condition((1,), (1,), 1, 1, 1, "t=s+1")
    with pytest.raises(ValueError, match="shape must be"):
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

    fam = FAMILIES["cor1"](0, 1, 2, 3)
    key = lambda inst: (inst.lam, inst.d)
    expected = sorted(
        (SLInstance((a,) * b, b + c - 1) for a, b, c in permutations((1, 2, 3))), key=key
    )
    assert sorted(fam, key=key) == expected
    assert pairwise_sl_isomorphic(fam)


def test_corollary_I_collapses_at_ones():
    fam = FAMILIES["cor1"](0, 1, 1, 1)
    assert fam == [SLInstance((1,), 1)] * 6


@pytest.mark.parametrize("kind", COROLLARIES)
@pytest.mark.parametrize("params", [(0, 1, 2, 3), (0, 2, 3, 3), (1, 2, 1, 1), (1, 1, 2, 2), (2, 1, 1, 2)])
def test_corollary_is_pairwise_sl_isomorphic(params, kind):
    assert pairwise_sl_isomorphic(FAMILIES[kind](*params))


def test_corollary_II_known_instance():
    fam = FAMILIES["cor2"](0, 2, 3, 3)
    assert fam[2] == SLInstance((5, 5, 5, 3, 3, 3), 8)
    # u appears symmetrically here because v == z, so the rows repeat.
    assert fam[5] == fam[2]
    assert gl_isomorphic(minimal_lift(fam[2]), minimal_lift(fam[5]))


def test_corollary_family_stdout_is_pinned():
    # The digest of ``family cor1`` and then ``family cor2`` stdout over
    # s in 0..3 and u, v, z in 1..3: it pins every member of both
    # families, and their order, however the families are built.
    stdout = ""
    for kind in ("cor1", "cor2"):
        for s, u, v, z in product(range(4), range(1, 4), range(1, 4), range(1, 4)):
            result = run("family", kind, "--s", str(s), "--u", str(u), "--v", str(v), "--z", str(z))
            assert result.exit_code == 0, (kind, s, u, v, z)
            stdout += result.stdout
    assert stdout.count("\n") == 216
    assert (
        hashlib.sha256(stdout.encode()).hexdigest()
        == "dd4dc8a737d59e247367aa53c42c9518955319ee3b5237733e4ec927bfe52976"
    )


def test_main_family_stdout_is_pinned():
    # The digest of ``family main`` stdout over every x, y with
    # len(x) == len(y) <= 2 and u, v, z, all entries in 0..2.  The 15
    # squares whose diagrams are all empty exit 2 with stdout empty.
    stdout, codes = "", []
    for n in range(3):
        for x, y in product(product(range(3), repeat=n), repeat=2):
            steps = [arg for e in x for arg in ("--x", str(e))] + [arg for e in y for arg in ("--y", str(e))]
            for u, v, z in product(range(3), repeat=3):
                result = run("family", "main", *steps, "--u", str(u), "--v", str(v), "--z", str(z))
                codes.append(result.exit_code)
                stdout += result.stdout
    assert (len(codes), codes.count(0), codes.count(2)) == (2457, 2442, 15)
    assert stdout.count("\n") == 2442
    assert (
        hashlib.sha256(stdout.encode()).hexdigest()
        == "5c60ed390327efb0a3fb3cc9b0ce78f884243443a001ed357cf637ccb08e51c8"
    )


@pytest.mark.parametrize("bad", [(-1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)])
def test_corollary_parameter_validation(bad):
    for kind in COROLLARIES:
        with pytest.raises(ValueError):
            FAMILIES[kind](*bad)


def test_every_family_kind_has_a_parser():
    # The family parser is generated from FAMILIES, so a new row is a
    # new ``family KIND`` command, whose options are its builder's
    # parameters in signature order.
    for kind, build in FAMILIES.items():
        result = run("family", kind, "--help")
        assert result.exit_code == 0, kind
        assert result.stdout.startswith(f"usage: plethykit family {kind} "), result.stdout
        usage = result.stdout.split("\n\n")[0].split()
        options = [word.strip("[]") for word in usage if word.startswith(("--", "[--"))]
        assert options == [f"--{name}" for name in inspect.signature(build).parameters], kind
    # A Sequence parameter is a repeatable option: an annotation read as
    # a string would make --x a required int that keeps its last value.
    result = run("family", "main", "--x", "1", "--x", "0", "--y", "1", "--y", "2", "--u", "1", "--v", "1", "--z", "1")
    assert result.exit_code == 0, result.stderr
    members = [SLInstance.from_json(obj) for obj in json.loads(result.stdout)["instances"]]
    assert members == main_family((1, 0), (1, 2), 1, 1, 1)


def test_pairwise_sl_isomorphic_basics(monkeypatch):
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
    # One key per member, kept on the instance: a second call on the
    # same list builds none.  The square's four descriptors are distinct,
    # so the member memo holds none of them back.
    built = []

    def counting_sl_key(p, d):
        built.append((p, d))
        return sl_key(p, d)

    # Both names of sl_key count into one list, so a key built anywhere
    # else adds to it.
    monkeypatch.setattr(plethysm, "sl_key", counting_sl_key)
    monkeypatch.setattr(staircase, "sl_key", counting_sl_key)
    _member.cache_clear()  # a remembered member would build no key
    family = main_family((), (), 2, 3, 1)
    assert pairwise_sl_isomorphic(family)
    assert len(built) == 4
    assert pairwise_sl_isomorphic(family)
    assert len(built) == 4
