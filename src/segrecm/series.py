"""Exact Hilbert series arithmetic.

A series is stored as an integer Laurent polynomial numerator over a
denominator (1 - t)^d.  Negative numerator exponents encode degree
shifts; d = 0 means the series is the numerator polynomial itself.
Everything is integer arithmetic, so coefficient extraction is exact at
every degree.

The one nontrivial operation is the coefficientwise (Hadamard) product,
which is what the degreewise tensor construction does to Hilbert series;
`HilbertSeries.hadamard` reads it off a polynomial factor's own terms,
or else off the two coefficient streams up to a proved last degree.
"""

from bisect import bisect_left
from itertools import accumulate
from math import comb
from operator import index

from .errors import DEFAULT_POINT_CAP, Record, check_cap


class HilbertSeries(Record):
    """numerator / (1 - t)^denom_power, numerator a sorted tuple of
    (exponent, coefficient) pairs with nonzero integer coefficients.

    The constructor normalizes any iterable of pairs: it sums equal
    exponents, drops zero coefficients and cancels (1 - t) factors by
    running sums, raising ResourceCap when the divisions together walk more
    than DEFAULT_POINT_CAP exponents beyond the input's own.  So every
    instance is reduced: when denom_power > 0 the numerator does not vanish
    at t = 1, and the zero series has denom_power 0.
    """

    _fields = ("numerator", "denom_power")

    def __init__(self, numerator, denom_power):
        denom_power = index(denom_power)
        if denom_power < 0:
            raise ValueError(f"negative denominator power {denom_power}")
        acc = {}
        for e, c in numerator:
            e = index(e)
            acc[e] = acc.get(e, 0) + index(c)
        num = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        walked = -len(num)  # exponents the divisions walk, less the input's own
        while num and denom_power > 0 and sum(c for _, c in num) == 0:
            walked += num[-1][0] - num[0][0] + 1
            check_cap(walked, DEFAULT_POINT_CAP, "series numerator")
            exps, coeffs = range(num[0][0], num[-1][0] + 1), dict(num)
            sums = accumulate(coeffs.get(e, 0) for e in exps)
            num = tuple((e, c) for e, c in zip(exps, sums) if c)
            denom_power -= 1
        super().__init__(num, denom_power if num else 0)

    # -- basic queries ----------------------------------------------------

    def _bits(self, n):
        """A bound on the bits of the largest binomial of coeff(n), growing
        with n: C(m + d - 1, d - 1), m = n - e at the lowest exponent e, has
        at most min(d - 1, m) * bit_length(m + d - 1); none when d = 0."""
        if not self.denom_power:
            return 0
        d, m = self.denom_power, n - self.numerator[0][0]
        return min(d - 1, m) * (m + d - 1).bit_length()

    def coeff(self, n, cap=DEFAULT_POINT_CAP):
        """Coefficient of t^n in the power series expansion.  Raises
        ResourceCap, before any binomial is built, when _bits(n) exceeds cap."""
        n, d = index(n), self.denom_power
        bits = self._bits(n)
        if bits > index(cap):  # true of a negative cap too, and check_cap rejects it
            check_cap(bits, cap, f"series coefficient t^{n}", f"a binomial of up to {bits} bits")
        if d == 0:
            i = bisect_left(self.numerator, (n,))
            return sum(c for e, c in self.numerator[i:i + 1] if e == n)
        return sum(c * comb(n - e + d - 1, d - 1) for e, c in self.numerator if n >= e)

    # -- operations -------------------------------------------------------

    def shift(self, a):
        """Twist by a: coeff(result, n) == coeff(self, n + a)."""
        return HilbertSeries(((e - a, c) for e, c in self.numerator), self.denom_power)

    def window(self, lo, hi, cap=DEFAULT_POINT_CAP):
        """Coefficients on [lo, hi].  Raises ResourceCap when there are more
        than cap, or, before any binomial is built, when they may have more
        than cap bits: their number times _bits(hi), which bounds each."""
        lo, hi = index(lo), index(hi)
        if lo > hi:
            raise ValueError(f"window lo {lo} exceeds hi {hi}")
        what = f"series window [{lo}, {hi}]"
        check_cap(hi - lo + 1, cap, what)
        bits = (hi - lo + 1) * self._bits(hi)
        check_cap(bits, cap, what, f"coefficients of up to {bits} bits in all")
        return tuple(self.coeff(n, cap) for n in range(lo, hi + 1))

    def hadamard(self, other, cap=DEFAULT_POINT_CAP):
        """Coefficientwise product.  With a polynomial factor (d = 0, the zero
        series with no terms; the shorter of two) it lives on that factor's
        exponents, one coeff of the other per term; else it is reduced over
        (1-t)^D, D = d1 + d2 - 1.  Raises ResourceCap when the polynomial or
        the stream has more than cap terms, or when multiplying the stream out
        would take more than cap products.

        The stream on [lo, top] determines the numerator, lo the larger lowest
        exponent and top = max(e1 - d1, e2 - d2) + D, e1 and e2 the highest
        exponents.  C(n - e + d - 1, d - 1) is a polynomial of degree d - 1 in
        n that vanishes at n - e = 1 - d..-1, so from n = top - D + 1 on the
        stream is a polynomial of degree D - 1 (the leading terms multiply, so
        D is reduced) and its D-th difference, the t^n coefficient of the
        stream times (1 - t)^D, vanishes for n > top; below lo it is 0.
        """
        poly, rest = sorted((self, other), key=lambda h: (h.denom_power, len(h.numerator)))
        if not poly.denom_power:
            check_cap(len(poly.numerator), cap, "Hadamard coefficient stream")
            return HilbertSeries(((e, c * rest.coeff(e, cap)) for e, c in poly.numerator), 0)
        d1, d2 = self.denom_power, other.denom_power
        dd = d1 + d2 - 1
        lo = max(self.numerator[0][0], other.numerator[0][0])
        top = max(self.numerator[-1][0] - d1, other.numerator[-1][0] - d2) + dd
        terms = top - lo + 1
        check_cap(terms, cap, "Hadamard coefficient stream")
        check_cap(terms * (dd + 1), cap, "Hadamard numerator")
        num = [self.coeff(n, cap) * other.coeff(n, cap) for n in range(lo, top + 1)]
        # multiply by (1 - t)^dd; the differences at degrees <= top are exact
        for _ in range(dd):
            num = [c - prev for prev, c in zip([0, *num], num)]
        return HilbertSeries(zip(range(lo, top + 1), num), dd)
