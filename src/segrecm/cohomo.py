"""Depth and Cohen-Macaulay classification of degreewise products.

A module M = M_1 # ... # M_m over T = R_1 # ... # R_m is read as three
numbers per factor: d_i = dim M_i, the lowest nonzero degree s_i of M_i and
the last degree h_i where H^(d_i)(M_i) is nonzero; R(a), R Gorenstein with
a-invariant alpha, has s = -a and h = alpha - a.  Graded local cohomology
of M has one summand per nonempty subset E of factors, from the top
cohomology of the factors in E and the others themselves, nonzero exactly
when the support rays overlap:

    max over i not in E of s_i  <=  min over i in E of h_i

(the left side is -infinity when E is the full set).  The summand for E
sits in cohomological degree q(E) = sum of d_i over E minus (|E| - 1), so
depth is the least q(E) with overlap and the full set always realizes the
dimension, sum d_i - (m - 1) (Goto-Watanabe, On graded rings I, section 4).

Supported subsets are found by one threshold scan, not by visiting all 2^m:
a stable sort on s ranks the factors by (s_i, i).  A supported E other than
the full set has one top-ranked factor j off E, at threshold t = s_j; E
holds every factor ranked above j (each with h_i >= t) and any ranked below
j with h_i >= t.  cohomology_support caps their count, a sum of powers of
two, before listing them at O(m) each; cm_uniform_twist_raw runs the same
scan and only asks whether any proper subset is supported.

The uniform-twist criteria take positive rho_i = -alpha_i and decide in
integers, the largest ratio rho_i/rho_(i+1) by cross-multiplying.
"""

import math
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from operator import ge, index

from .errors import (DEFAULT_POINT_CAP, BadTwist, DimensionTooSmall,
                     NotApplicable, NotPositive, NotSorted, Record, check_cap)

# A nonvanishing cohomology summand: degree q, contributing subset of 1-based
# factor indices, and the degrees lo..hi where it is nonzero (None: unbounded).
Witness = namedtuple("Witness", "q subset lo hi")


class DepthReport(Record):
    """Dimension, depth and the tuple of Witnesses of a twisted product."""

    _fields = ("dim", "depth", "witnesses")

    def __init__(self, dim, depth, witnesses):
        super().__init__(dim, depth, witnesses)
        if depth > dim:
            raise ValueError("depth cannot exceed dimension")


class TwistInterval(Record):
    """Uniform twists giving a Cohen-Macaulay module: the open interval
    (lo, hi) with rational ends, or all integers when both are None."""

    _fields = ("lo", "hi")

    def __init__(self, lo=None, hi=None):
        super().__init__(lo, hi)
        if (lo is None) != (hi is None):
            raise ValueError("an interval needs both ends or neither")
        if lo is not None and not lo < hi:
            raise ValueError("open interval needs lo < hi")

    def integer_points(self, cap=DEFAULT_POINT_CAP):
        """Integers strictly inside a bounded interval, at most cap; None when all."""
        count = 0 if self.lo is None else math.ceil(self.hi) - math.floor(self.lo) - 1
        check_cap(count, cap, "integer points of the interval")
        return None if self.lo is None else list(range(math.floor(self.lo) + 1, math.ceil(self.hi)))


def _support_scan(s, h):
    """Rank the factors by a stable sort on s and list the admissible tops.

    Stable, the sort ranks by (s_i, i).  Returns the ranking and a lazy
    iterator of (r, free): the factor j ranked r can be the top-ranked
    factor off a supported subset when every factor ranked above it has
    h_i >= s_j, and free counts the factors ranked below j with h_i >= s_j.
    As the ones above all qualify, free is r + 1 less the factors with
    h_i < s_j less [h_j >= s_j]: one bisection in sorted h, so O(m log m).
    """
    rank = sorted(range(len(s)), key=s.__getitem__)
    # floor[r] is the least h among the factors ranked r and above
    floor = list(accumulate((h[i] for i in reversed(rank)), min, initial=math.inf))[::-1]
    h_sorted = sorted(h)
    tops = ((r, r + 1 - bisect_left(h_sorted, s[j]) - (h[j] >= s[j]))
            for r, j in enumerate(rank) if floor[r + 1] >= s[j])
    return rank, tops


def cohomology_support(factors, cap=DEFAULT_POINT_CAP):
    """Depth report for M = # of M_i, given one (d, s, h) per factor.

    Requires every factor dimension >= 2, or >= 1 with exactly two factors,
    where the case split in tests/oracles.py gives the same witnesses.
    Raises ResourceCap when there are more than cap witnesses.
    """
    # unpacking each factor rejects one that is not a triple
    fs = [(d, s, h) for d, s, h in (map(index, f) for f in factors)]
    if not fs:
        raise ValueError("factor list must be nonempty")
    dims, s, h = zip(*fs)
    m = len(fs)
    least = 1 if m == 2 else 2
    for idx, dim in enumerate(dims, start=1):
        if dim < least:
            raise DimensionTooSmall(
                f"factor {idx} has dimension {dim}; the support analysis "
                f"requires every dimension >= 2 (>= 1 with exactly two factors)")
    rank, tops = _support_scan(s, h)
    tops = list(tops)
    # 2^free clipped to 2^bits > cap keeps the count a lower bound that
    # exceeds the cap exactly when the true count does; it stays exact
    # below 2^64 per top and short enough to print above
    bits = max(index(cap).bit_length(), 64)
    check_cap(1 + sum((1 << min(free, bits)) - (r == m - 1) for r, free in tops),
              cap, "depth witnesses")

    def witness(subset, lo):
        q = sum(dims[i] for i in subset) - (len(subset) - 1)
        return Witness(q, tuple(i + 1 for i in subset), lo, min(h[i] for i in subset))

    witnesses = [witness(range(m), None)]
    for r, _ in tops:
        t, forced = s[rank[r]], rank[r + 1:]
        free = [i for i in rank[:r] if h[i] >= t]
        for mask in range(0 if forced else 1, 1 << len(free)):
            chosen = [i for b, i in enumerate(free) if mask >> b & 1]
            witnesses.append(witness(sorted(forced + chosen), t))
    witnesses.sort()
    return DepthReport(sum(dims) - (m - 1), witnesses[0].q, tuple(witnesses))


def _check_sorted(rhos):
    rhos = list(map(index, rhos))
    if not rhos:
        raise ValueError("rho list must be nonempty")
    if not all(map(ge, rhos, rhos[1:])):
        i = next(i for i in range(1, len(rhos)) if rhos[i - 1] < rhos[i])
        raise NotSorted(f"rho list must be non-increasing; entry {rhos[i]} at "
                        f"position {i} exceeds {rhos[i - 1]}")
    return rhos


def _check_twist(a):
    if a % 1:  # a twist of a graded module is an integer
        raise BadTwist(f"twist a = {a} is not an integer")
    a = index(a)
    return a, max(a, 1 - a)  # b: the twists a and 1 - a give dual modules


def cm_uniform_twist(rhos, a):
    """Cohen-Macaulayness of the uniform twist module # R_i(-a rho_i).

    rhos are the negated a-invariants, sorted non-increasing.  The twists
    a and 1 - a give dual modules, so with b = max(a, 1 - a) the m - 1
    consecutive comparisons below are equivalent to the subset criterion
    cm_uniform_twist_raw; the equivalence is exercised in the test suite.
    """
    _, b = _check_twist(a)
    rhos = _check_sorted(rhos)
    return all(b * rhos[l + 1] > (b - 1) * rhos[l] for l in range(len(rhos) - 1))


def cm_uniform_twist_raw(rhos, a):
    """Subset form of the uniform twist criterion, decided by threshold.

    For every proper nonempty subset E the strict inequality

        max over i not in E of (a rho_i)  >  min over i in E of ((a-1) rho_i)

    must hold; this is exactly the vanishing of the corresponding
    cohomology summand.  It is the support scan of cohomology_support
    with s_i = a rho_i and h_i = (a-1) rho_i: some E fails exactly when a
    top admits one, that is when it is not the last-ranked factor or has
    a free factor.  Any rho order; O(m log m).
    """
    a, _ = _check_twist(a)
    rhos = _check_sorted(sorted(rhos, reverse=True))
    _, tops = _support_scan([a * r for r in rhos], [(a - 1) * r for r in rhos])
    return all(r == len(rhos) - 1 and free == 0 for r, free in tops)


def cm_chain(rhos, a):
    """Chain form of the uniform twist criterion for a twist a outside [0, 1].

    With C = b/(b-1) for b = max(a, 1 - a), the module is Cohen-Macaulay
    exactly when

        C^(m-1) rho_m > C^(m-2) rho_(m-1) > ... > C rho_2 > rho_1.

    Times (b-1)/C^j > 0, its link C^(j+1) rho_(j+2) > C^j rho_(j+1) is
    b rho_(j+2) > (b-1) rho_(j+1), the comparison of cm_uniform_twist.
    """
    a, b = _check_twist(a)
    if b <= 1:
        raise BadTwist(f"chain criterion undefined for twist a = {a}")
    return cm_uniform_twist(rhos, a)


def anticanonical_cm_m2(a1, a2):
    """Two-factor anticanonical criterion on the factors' a-invariants a1, a2."""
    a1, a2 = index(a1), index(a2)
    return a2 > 2 * a1 and a1 > 2 * a2


def cm_twist_interval(rhos):
    """All uniform twists a giving a Cohen-Macaulay module, as a set.

    rhos must be positive and non-increasing.  The largest ratio
    rho = p/q of rho_i / rho_(i+1) is found by cross-multiplying integers.
    The answer is every integer when rho = 1 and otherwise the open interval
    (1/(1-rho), rho/(rho-1)) = (q/(q-p), p/(p-q)); only its ends are Fractions.
    """
    rhos = _check_sorted(rhos)
    for i, x in enumerate(rhos):
        if x <= 0:
            raise NotPositive(f"rho entry {x} at position {i} is not positive")
    p, q = 1, 1  # the largest ratio so far is p/q
    for x, y in zip(rhos, rhos[1:]):
        if x * q > p * y:
            p, q = x, y
    return TwistInterval() if p == q else TwistInterval(Fraction(q, q - p), Fraction(p, p - q))


def canonical_power_cm(rhos, a):
    """Cohen-Macaulayness of the a-th power of the canonical ideal.

    Only meaningful when the ratio rho exceeds 1 (the ring is not a twist
    of itself in every direction); callers with ratio 1 should consult
    cm_twist_interval directly.  a lies in its interval exactly when every
    ratio rho_i / rho_(i+1) is below b/(b-1), the test of cm_uniform_twist.
    """
    a, _ = _check_twist(a)
    if cm_twist_interval(rhos).lo is None:
        raise NotApplicable(
            "all rho entries are equal (ratio 1); every power is "
            "Cohen-Macaulay and the power criterion does not apply")
    return cm_uniform_twist(rhos, a)
