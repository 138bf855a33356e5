"""Upgrading SL-isomorphisms to GL-isomorphisms by twisting.

An SL-isomorphic pair (lam, d), (mu, e) becomes GL-isomorphic after
adding l full columns to lam, m full columns to mu, and lifting the
deltas to (d+x, x) and (e+y, y), provided

    B * (d + 2x) == A * (e + 2y),  B = |lam| + l*(d+1),  A = |mu| + m*(e+1).

Adding full columns leaves P unchanged, so this weight equation is the
whole GL condition.  ``solve_twist`` scans (l, m) for the smallest
witness; ``nu2_obstruction`` decides in O(1) whether one exists.

Proof that the predicate is exact.  Assume |lam|, |mu| >= 1, so A, B >= 1.

1. For fixed (l, m) put g = gcd(A, B), p = A/g and q = B/g.  The
   equation reads q*(d + 2x) = p*(e + 2y), and p, q are coprime, so it
   holds iff d + 2x = k*p and e + 2y = k*q for one integer k.  That
   (x, y) is nonnegative iff k*p >= d and k*q >= e, and integral iff
   k*p = d and k*q = e mod 2.  x and y both grow with k, so the least
   such k gives the least y and the least x at once: ``_least_lift``
   takes the least k >= max(ceil(d/p), ceil(e/q)) of the right parity.
2. |lam|*d - |mu|*e is even for every SL-isomorphic pair
   (``sl_isomorphic`` enforces it, on ``search``'s classes too).
3. At most one of the coprime p, q is even.  A k of the right parity
   exists iff q*d = p*e mod 2, that is: p is even and d even (then
   k = e mod 2), or q is even and e even (k = d mod 2), or both are odd
   and d = e mod 2 (k = d mod 2).  With a = nu2(A) and b = nu2(B), p is
   even iff b < a and q iff a < b, so a twist exists at (l, m) iff
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

from collections import namedtuple
from math import gcd

from .errors import NotSLIsomorphic, ZeroWeight
from .partition import add
from .plethysm import PlethysmInstance, SLInstance, gl_isomorphic, sl_isomorphic


# l, m full columns added to lam and mu; deltas lifted to (d+x, x), (e+y, y)
TwistSolution = namedtuple("TwistSolution", "l m x y")


def _least_lift(big_a: int, big_b: int, d: int, e: int) -> tuple[int, int] | None:
    """The least nonnegative (x, y) with B*(d + 2x) == A*(e + 2y), where
    A = big_a and B = big_b, or None.  By step 1 of the module proof,
    d + 2x = k*A/g and e + 2y = k*B/g for one k, with g = gcd(A, B).
    When A or B is zero (an empty partition at l = 0 or m = 0) the least
    solution, if any, is (0, 0), and there is one iff B*d == A*e.
    """
    if not big_a or not big_b:
        return (0, 0) if big_b * d == big_a * e else None
    g = gcd(big_a, big_b)
    p, q = big_a // g, big_b // g
    if q * d % 2 != p * e % 2:
        return None
    k = max(-(-d // p), -(-e // q))
    if k % 2 != (d if p % 2 else e) % 2:  # k's parity, by step 3
        k += 1
    return (k * p - d) // 2, (k * q - e) // 2


def solve_twist(a: SLInstance, b: SLInstance, bound: int = 50) -> TwistSolution | None:
    """The twist with the smallest (y, x, l, m), searching l, m <= bound.

    Returns None when no (l, m) pair in range admits a nonnegative
    (x, y); raises NotSLIsomorphic when the inputs are not even
    SL-isomorphic (twisting leaves P unchanged, so no twist helps).
    """
    if not sl_isomorphic(a, b):
        raise NotSLIsomorphic(f"{a} and {b} have different P polynomials")
    wl, wm, d, e = sum(a.lam), sum(b.lam), a.d, b.d
    best = None  # the least (y, x, l, m) so far
    for l in range(bound + 1):
        big_b = wl + l * (d + 1)
        for m in range(bound + 1):
            big_a = wm + m * (e + 1)
            sol = _least_lift(big_a, big_b, d, e)
            # sol is (x, y), so sol[::-1] + (l, m) is the key (y, x, l, m)
            if sol is not None and (best is None or sol[::-1] + (l, m) < best):
                best = sol[::-1] + (l, m)
                if sol == (0, 0):
                    # nothing later in the scan can beat y = x = 0,
                    # since (l, m) only grows from here
                    return TwistSolution(l, m, 0, 0)
    return None if best is None else TwistSolution(best[2], best[3], best[1], best[0])


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
    wl, wm = sum(a.lam), sum(b.lam)
    if wl < 1 or wm < 1:
        raise ZeroWeight("both partitions must have positive weight")
    va, vb = nu2(wl), nu2(wm)
    return va != vb and 0 < min(va, vb) < min(nu2(a.d + 1), nu2(b.d + 1))
