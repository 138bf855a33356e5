"""Upgrading SL-isomorphisms to GL-isomorphisms by twisting.

An SL-isomorphic pair (lam, d), (mu, e) becomes GL-isomorphic after
adding l full columns to lam, m full columns to mu, and lifting the
deltas to (d+x, x) and (e+y, y), provided

    B * (d + 2x) == A * (e + 2y),  B = |lam| + l*(d+1),  A = |mu| + m*(e+1).

Adding full columns leaves P unchanged, so this weight equation is the
whole GL condition.  ``solve_twist`` scans (l, m) for the smallest
witness; ``nu2_obstruction`` decides in O(1) whether one exists.

Proof that the predicate is exact.  Assume |lam|, |mu| >= 1, so A, B >= 1.

1. For fixed (l, m) the equation reads 2(A*y - B*x) = B*d - A*e.  With
   g = gcd(A, B) it has an integer solution iff 2g | B*d - A*e, and
   then a solution with x, y >= 0: adding (A/g, B/g) to (x, y) keeps
   it a solution and raises both coordinates.
2. B*d - A*e is congruent to |lam|*d - |mu|*e mod 2, since l*(d+1)*d
   and m*(e+1)*e are even, and that is even for every SL-isomorphic
   pair (``sl_isomorphic`` enforces it).
3. An odd prime power dividing A and B divides B*d - A*e, and then also
   (B*d - A*e)/2.  So only the prime 2 can obstruct: with a = nu2(A)
   and b = nu2(B), the condition is nu2(B*d - A*e) > min(a, b).
   Comparing nu2(B*d) = b + nu2(d) with nu2(A*e) = a + nu2(e), it
   holds iff
     b < a and d is even, or
     a < b and e is even, or
     a = b and d = e mod 2.
4. Over l >= 0, nu2(B) takes every value >= 0 when d is even (d+1 is
   odd).  When d is odd, with t = nu2(d+1) >= 1, it is always
   nu2(|lam|) if nu2(|lam|) < t, and otherwise takes every value >= t.
   The same holds for nu2(A) over m >= 0, with e and s = nu2(e+1).
5. d and e even: every (a, b) satisfies 3, and (l, m) = (0, 0) works.
   d even, e odd: |mu| is even by 2, so nu2(A) >= 1 at m = 0, and l in
   {0, 1} makes B odd, hence b = 0 < a.  d odd, e even: symmetric.
   d and e odd: 3 needs a = b, so a twist exists iff the value sets of
   4 meet.  Put alpha = nu2(|lam|), beta = nu2(|mu|), and say
   alpha < beta (the other order is symmetric).  If alpha >= t, beta
   lies in both sets; if s <= alpha < t, alpha does.  If
   alpha < min(t, s), nu2(B) is always alpha, while nu2(A) is beta or
   at least s, never alpha.  So the sets are disjoint exactly when
   alpha != beta and min(alpha, beta) < min(t, s).  Here
   |lam| = |mu| mod 2 by 2, so alpha != beta makes both weights even
   and 0 < min(alpha, beta) holds automatically.
That is ``nu2_obstruction``, which is False whenever d or e is even
because then min(t, s) = 0.

Witness range.  When a twist exists, one exists with l = 0 or m = 0
and max(l, m) < max(|lam|, |mu|).  Step 5 gives (0, 0) when d and e
are even, and l <= 1 < 2 <= |mu| (or m <= 1 < 2 <= |lam|) when one is
odd.  When both are odd and alpha < beta: if alpha >= t, take m = 0
and the l < 2^(beta-t+1) <= |mu| with nu2(B) = beta, which exists
because B/2^t = |lam|/2^t + l*(d+1)/2^t with (d+1)/2^t odd runs
through every residue mod 2^(beta-t+1); if s <= alpha < t, take l = 0
and m < 2^(alpha-s+1) <= |lam| likewise.
"""

from math import comb, gcd
from typing import NamedTuple, Optional

from .errors import NotSLIsomorphic, ZeroWeight
from .partition import add, weight
from .plethysm import PlethysmInstance, SLInstance, gl_isomorphic, sl_isomorphic


class TwistSolution(NamedTuple):
    l: int
    m: int
    x: int
    y: int


def _min_y_solution(a: int, b: int, c: int) -> Optional[tuple[int, int]]:
    """Minimal-y nonnegative (x, y) with a*y - b*x == c, or None.

    a and b must be nonnegative.
    """
    if a == 0 and b == 0:
        return (0, 0) if c == 0 else None
    if a == 0:
        return (-c // b, 0) if c <= 0 and c % b == 0 else None
    if b == 0:
        return (0, c // a) if c >= 0 and c % a == 0 else None
    g = gcd(a, b)
    if c % g:
        return None
    a2, b2, c2 = a // g, b // g, c // g
    y = (c2 * pow(a2, -1, b2)) % b2 if b2 > 1 else 0
    x = (a * y - c) // b
    if x < 0:
        shift = (-x + a2 - 1) // a2
        y += shift * b2
        x += shift * a2
    return x, y


def solve_twist(a: SLInstance, b: SLInstance, bound: int = 50) -> Optional[TwistSolution]:
    """The twist with the smallest (y, x, l, m), searching l, m <= bound.

    Returns None when no (l, m) pair in range admits a nonnegative
    (x, y); raises NotSLIsomorphic when the inputs are not even
    SL-isomorphic (the equation's right-hand side would not be an
    integer).
    """
    if not sl_isomorphic(a, b):
        raise NotSLIsomorphic(f"{a} and {b} have different P polynomials")
    wl, wm = weight(a.lam), weight(b.lam)
    d, e = a.d, b.d
    half_gap = (wl * d - wm * e) // 2
    best = None
    best_key = None
    for l in range(bound + 1):
        big_b = wl + l * (d + 1)
        for m in range(bound + 1):
            big_a = wm + m * (e + 1)
            c = half_gap + l * comb(d + 1, 2) - m * comb(e + 1, 2)
            sol = _min_y_solution(big_a, big_b, c)
            if sol is None:
                continue
            x, y = sol
            key = (y, x, l, m)
            if best_key is None or key < best_key:
                best_key = key
                best = TwistSolution(l, m, x, y)
                if key[:2] == (0, 0):
                    # nothing later in the scan can beat y = x = 0,
                    # since (l, m) only grows from here
                    return best
    return best


def verify_twist(a: SLInstance, b: SLInstance, t: TwistSolution) -> bool:
    """Build the twisted instances and run the full GL check on them."""
    lam = add(a.lam, (t.l,) * (a.d + 1))
    mu = add(b.lam, (t.m,) * (b.d + 1))
    return gl_isomorphic(
        PlethysmInstance(lam, (a.d + t.x, t.x)),
        PlethysmInstance(mu, (b.d + t.y, t.y)),
    )


def nu2(n: int) -> int:
    """The 2-adic valuation of a positive integer.

    Raises ZeroWeight unless n >= 1.
    """
    if n < 1:
        raise ZeroWeight(f"nu2 needs a positive integer, got {n}")
    return (n & -n).bit_length() - 1


def nu2_obstruction(a: SLInstance, b: SLInstance) -> bool:
    """True iff no twist upgrades the SL-isomorphic pair a, b to a
    GL-isomorphism: nu2 of the weights differ, and their minimum sits
    strictly between 0 and min(nu2(d+1), nu2(e+1)).

    Exact for every SL-isomorphic pair, for all l, m >= 0; the module
    docstring has the proof and the range that holds a witness when
    one exists.

    Raises ZeroWeight when either partition is empty.
    """
    wl, wm = weight(a.lam), weight(b.lam)
    if wl < 1 or wm < 1:
        raise ZeroWeight("both partitions must have positive weight")
    va, vb = nu2(wl), nu2(wm)
    return va != vb and 0 < min(va, vb) < min(nu2(a.d + 1), nu2(b.d + 1))
