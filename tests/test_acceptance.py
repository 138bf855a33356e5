"""End-to-end verification battery.

One test per headline guarantee of the package, each over an exhaustively
enumerated parameter domain with exact integer arithmetic (no tolerances)
and an explicit wall-clock budget.  The domains are chosen so the whole
battery stays desk-scale while still covering thousands of instances.
"""

import subprocess
import sys
import time
from functools import cache
from itertools import combinations, product

from plethykit.errors import EmptyDiagram
from plethykit.oracle import specialize_bialternant, specialize_ssyt
from plethykit.partition import b_statistic, partitions_of
from plethykit.plethysm import (
    PlethysmInstance,
    SLInstance,
    gl_isomorphic,
    sl_isomorphic,
)
from plethykit.search import classify_gl, enumerate_classes
from plethykit.staircase import (
    FAMILIES,
    main_family,
    main_square,
    pairwise_sl_isomorphic,
    reverse,
    to_instance,
)
from plethykit.twist import TwistSolution, solve_twist, verify_twist

from .reference import canonical_poly, dual, main_gl_condition, minimal_lift, p_of


def _compositions(total_max, parts, minimum):
    if parts == 0:
        yield ()
        return
    for first in range(minimum, total_max + 1):
        for rest in _compositions(total_max - first, parts - 1, minimum):
            yield (first,) + rest


@cache
def _square_families():
    """All four-member families with len(x) = len(y) <= 2, entries <= 3."""
    families = []
    for n in range(3):
        for x in product(range(4), repeat=n):
            for y in product(range(4), repeat=n):
                for u, v, z in product(range(4), repeat=3):
                    try:
                        fam = main_family(x, y, u, v, z)
                    except EmptyDiagram:
                        continue
                    families.append(((x, y, u, v, z), fam))
    return families


@cache
def _classes_6_5():
    return enumerate_classes(6, 5)


@cache
def _hermite_pairs():
    """(S_(p)(S_(q)(C^2)), S_(q)(S_(p)(C^2))) for all 1 <= p, q <= 8."""
    return [
        (PlethysmInstance((p,), (q, 0)), PlethysmInstance((q,), (p, 0)))
        for p in range(1, 9)
        for q in range(1, 9)
    ]


@cache
def _rectangle_families():
    """The six-member corollary I families at s = 0 for all u, v, z <= 4."""
    return [
        ((u, v, z), FAMILIES["cor1"](0, u, v, z))
        for u, v, z in product(range(1, 5), repeat=3)
    ]


@cache
def _balanced_first_rows():
    """Parameters and first-row instances (A, B) of every square, both
    shapes and positive entries <= 4, on which the z*(z-1) balance
    equation holds.

    Zero entries are excluded: a zero step merges into its neighbours and
    changes the shape, so the equation no longer describes the merged
    diagram.
    """
    out = []
    for s in range(3):
        for shape, t in (("t=s", s), ("t=s+1", s + 1)):
            for x in product(range(1, 5), repeat=s):
                if sum(x) ** 2 > 12:  # z <= 4 caps z*(z-1) at 12
                    continue
                for u, v, z in product(range(1, 5), repeat=3):
                    for y in product(range(1, 5), repeat=t):
                        if not main_gl_condition(x, y, u, v, z, shape):
                            continue
                        a, b = (
                            to_instance(desc)
                            for desc in main_square(x, y, u, v, z)[:2]
                        )
                        out.append(((x, y, u, v, z, shape), a, b))
    return out


@cache
def _positive_descriptors():
    """Every positive-step descriptor with width sum <= 6 and
    height-plus-slack sum <= 8."""
    out = []
    for r in range(0, 7):
        for widths in _compositions(6, r, 1):
            for heights in _compositions(8, r, 1):
                for slack in range(0, 9 - sum(heights)):
                    if sum(heights) + slack == 0:
                        continue
                    out.append((widths, (*heights, slack)))
    return out


def _discovered_sl_pairs():
    """Every SL-isomorphic pair the battery verifies, rebuilt from the
    cached generators so the sweep does not depend on which tests ran
    before it."""
    pairs = [(a.sl, b.sl) for a, b in _hermite_pairs()]
    for _, fam in _rectangle_families():
        pairs.extend(combinations(fam, 2))
    pairs.extend((a, b) for _, a, b in _balanced_first_rows())
    pairs.extend(
        (to_instance(s), to_instance(reverse(s))) for s in _positive_descriptors()
    )
    for _, fam in _square_families():
        pairs.extend(combinations(fam, 2))
    for c in _classes_6_5():
        pairs.extend(combinations(c.members, 2))
    return pairs


def _fills_half_its_box(s) -> bool:
    """Whether the staircase covers exactly half of its (d+1) x W box,
    W the width sum, counted cell by cell from the descriptor."""
    widths, heights_slack = s
    heights = heights_slack[:-1]
    cells = sum(h * sum(widths[: len(widths) - i]) for i, h in enumerate(heights))
    return 2 * cells == sum(heights_slack) * sum(widths)


def test_specialization_routes_agree():
    """Determinant, tableau branching-rule, and hook-content computations
    of s_lambda(1, q, ..., q^d) agree exactly for all |lambda| <= 10, d <= 10."""
    start = time.monotonic()
    checked = 0
    for n in range(0, 11):
        for lam in partitions_of(n, n if n else 1):
            for d in range(max(len(lam) - 1, 0), 11):
                expected = (0,) * b_statistic(lam) + canonical_poly(p_of(lam, d))
                assert canonical_poly(specialize_bialternant(lam, d)) == expected, (lam, d)
                assert canonical_poly(specialize_ssyt(lam, d)) == expected, (lam, d)
                checked += 1
    assert checked == 1130
    assert time.monotonic() - start < 60


def test_hermite_reciprocity():
    """S_(p)(S_(q)(C^2)) and S_(q)(S_(p)(C^2)) are GL-isomorphic for all
    1 <= p, q <= 8."""
    start = time.monotonic()
    pairs = _hermite_pairs()
    assert len(pairs) == 64
    for a, b in pairs:
        assert sl_isomorphic(a.sl, b.sl), (a, b)
        assert gl_isomorphic(a, b), (a, b)
    assert time.monotonic() - start < 5


def test_sixfold_rectangle_families():
    """The six rectangle instances built from each permutation of
    (u, v, z) are pairwise SL-isomorphic for all u, v, z <= 4."""
    start = time.monotonic()
    families = _rectangle_families()
    assert len(families) == 64
    for params, fam in families:
        assert pairwise_sl_isomorphic(fam), params
    assert time.monotonic() - start < 30


def test_square_families_pairwise_sl():
    """All four members of every (x, y, u, v, z) square with up to two
    x/y entries and entries <= 3 are pairwise SL-isomorphic (about
    seventeen thousand families)."""
    start = time.monotonic()
    families = _square_families()
    assert len(families) > 17000
    for params, fam in families:
        assert pairwise_sl_isomorphic(fam), params
    assert time.monotonic() - start < 600


def test_gl_condition_implies_first_row_gl():
    """Whenever the z*(z-1) balance equation holds (both shapes, positive
    entries <= 4), the two first-row instances are GL-isomorphic under
    their minimal lifts delta = (d, 0), and for u != v only then.  Zero
    entries are excluded (see _balanced_first_rows).
    """
    balanced = _balanced_first_rows()
    assert len(balanced) == 112
    for params, a, b in balanced:
        assert gl_isomorphic(minimal_lift(a), minimal_lift(b)), params
    # On the square grid (t=s, positive entries <= 3, u != v) it is also
    # necessary: the first row is GL-isomorphic exactly when it holds.
    checked = holds = 0
    for (x, y, u, v, z), (a, b, _, _) in _square_families():
        if u == v or min((*x, *y, u, v, z)) == 0:
            continue
        condition = main_gl_condition(x, y, u, v, z, "t=s")
        assert gl_isomorphic(minimal_lift(a), minimal_lift(b)) == condition, (x, y, u, v, z)
        checked += 1
        holds += condition
    assert (checked, holds) == (1638, 12)


def test_column_pairs_fail_gl_when_u_differs_from_v():
    """For u != v (positive entries <= 3) a column pair (A, C) or (B, D)
    of the square fails gl_isomorphic under minimal lifts exactly when
    the first member does not fill half of its (d+1) x lam_1 box.

    C = reverse(A) is the box complement dual(A) with the same d, so the
    pair is always SL-isomorphic and the GL test reduces to
    d*|lam_A| == d*(box - |lam_A|); every square here has d >= 1.  The
    half-box locus is exceptional but not empty: 152 of the 3,276 pairs.
    36 of those reverse to themselves (A == C, which for positive steps
    happens exactly when both the width vector and the heights-plus-slack
    vector are palindromic, e.g. x = y = (), u = 1, v = 2, z = 2); the
    other 116 are distinct, e.g. x = (1,), y = (2,), u = 3, v = 2, z = 3,
    where A = (6, 6, 6, 4, 1, 1) with d = 7 covers 24 of 48 cells.
    """
    checked = half_box = distinct = 0
    mismatches = []
    for (x, y, u, v, z), fam in _square_families():
        if u == v:
            continue
        if min((*x, *y, u, v, z)) == 0:
            continue  # merged shapes, same instances as a smaller square
        desc_a, desc_b, _, _ = main_square(x, y, u, v, z)
        a, b, c, d = fam
        for column, first, second, desc in (
            ("first column", a, c, desc_a),
            ("second column", b, d, desc_b),
        ):
            on_locus = _fills_half_its_box(desc)
            gl = gl_isomorphic(minimal_lift(first), minimal_lift(second))
            checked += 1
            if on_locus:
                half_box += 1
                distinct += first != second
            if gl != on_locus:
                side = (
                    "GL-isomorphic off the half-box locus"
                    if gl
                    else "not GL-isomorphic on the half-box locus"
                )
                mismatches.append((x, y, u, v, z, column, side))
    assert not mismatches, f"{len(mismatches)} column pairs disagree: {mismatches}"
    assert (checked, half_box, distinct) == (3276, 152, 116)


def test_reversal_and_duality():
    """Reversing a staircase descriptor complements the diagram: for every
    positive-step descriptor with width sum <= 6 and height-plus-slack sum
    <= 8 the reversed instance equals dual() exactly, and descriptors with
    zero-sized steps (which merge away) still agree at the SL level."""
    exact = _positive_descriptors()
    assert len(exact) == 6434
    for s in exact:
        inst = to_instance(s)
        rev = to_instance(reverse(s))
        assert rev == dual(inst), s
        assert sl_isomorphic(inst, rev), s
    # The lax descriptors repeat few instances, so each distinct
    # (instance, partner) pair is checked once, under its first descriptor.
    lax = 0
    pairs = {}
    for r in range(0, 4):
        for widths in _compositions(6, r, 0):
            for heights in _compositions(8, r, 0):
                for slack in range(0, 9 - sum(heights)):
                    if sum(heights) + slack == 0:
                        continue
                    s = (widths, (*heights, slack))
                    inst = to_instance(s)
                    pairs.setdefault((inst, to_instance(reverse(s))), s)
                    pairs.setdefault((inst, dual(inst)), s)
                    lax += 1
    assert lax == 46404
    assert len(pairs) == 6272
    for (inst, partner), s in pairs.items():
        assert sl_isomorphic(inst, partner), s


def test_weight_degree_parity():
    """|lam_a|*d_a - |lam_b|*d_b is even for every SL-isomorphic pair the
    battery verifies: the Hermite and rectangle pairs, the balanced first
    rows, the positive-step reversals, every pairwise combination inside
    the square families, and every class member pair of the bounded
    search."""
    pairs = _discovered_sl_pairs()
    assert len(pairs) == 64 + 960 + 112 + 6434 + 17451 * 6 + 59
    for a, b in pairs:
        assert (sum(a.lam) * a.d - sum(b.lam) * b.d) % 2 == 0, (a, b)


def test_twist_solver_resolves_the_bounded_search():
    """The witness pair ((2), d=2) / ((1,1), d=3) twists to a verified
    GL-isomorphism with weight product 30 on both sides, and every label
    ``classify_gl`` gives in the bounded search agrees with the solver:
    each twistable pair gets a twist within bound 50 that verifies, and
    each obstructed pair gets none."""
    start = time.monotonic()
    a = SLInstance((2,), 2)
    b = SLInstance((1, 1), 3)
    sol = solve_twist(a, b)
    assert sol == TwistSolution(l=1, m=2, x=2, y=0)
    assert (sum(a.lam) + sol.l * (a.d + 1)) * (a.d + 2 * sol.x) == 30
    assert (sum(b.lam) + sol.m * (b.d + 1)) * (b.d + 2 * sol.y) == 30
    assert verify_twist(a, b, sol)

    for c in _classes_6_5():
        labels = classify_gl(c)
        assert labels["unresolved"] == [], (c.poly, labels)
        for i, j in labels["twistable"]:
            found = solve_twist(c.members[i], c.members[j], 50)
            assert found is not None and verify_twist(c.members[i], c.members[j], found)
        for i, j in labels["obstructed"]:
            assert solve_twist(c.members[i], c.members[j], 50) is None
    assert time.monotonic() - start < 300


def test_search_output_is_deterministic():
    """Two CLI runs of the bounded search produce byte-identical stdout."""

    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "plethykit.cli", "search",
             "--max-weight", "6", "--max-d", "5"],
            capture_output=True,
            check=True,
        )
        return proc.stdout

    first = run()
    assert first  # the bounded search is not empty
    assert run() == first
