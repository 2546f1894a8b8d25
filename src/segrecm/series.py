"""Exact Hilbert series arithmetic.

A series is stored as an integer Laurent polynomial numerator over a
denominator (1 - t)^d.  Negative numerator exponents encode degree
shifts; d = 0 means the series is the numerator polynomial itself.
Everything is integer arithmetic, so coefficient extraction is exact at
every degree.

The one nontrivial operation is the coefficientwise (Hadamard) product,
which is what the degreewise tensor construction does to Hilbert series:
it is computed by expanding both factors far enough, multiplying the
coefficient streams, and reconstructing the unique numerator over
(1 - t)^(d1 + d2 - 1).  A guard band of extra coefficients is checked to
confirm the reconstruction closed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import DEFAULT_POINT_CAP, ReconstructionFailed, check_cap

DEFAULT_GUARD = 5


def _normalize_pairs(pairs):
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0))


def _divide_by_one_minus_t(pairs):
    # prefix sums compute p / (1 - t); only valid when p(1) = 0
    coeffs, run, quot = dict(pairs), 0, []
    for e in range(pairs[0][0], pairs[-1][0] + 1):
        run += coeffs.get(e, 0)
        if run:
            quot.append((e, run))
    return tuple(quot)


@dataclass(frozen=True)
class HilbertSeries:
    """numerator / (1 - t)^denom_power, numerator a sorted tuple of
    (exponent, coefficient) pairs with nonzero integer coefficients.

    Instances are reduced: when denom_power > 0 the numerator does not
    vanish at t = 1.  Use from_pairs to build one; it normalizes.
    """

    numerator: tuple[tuple[int, int], ...]
    denom_power: int

    def __post_init__(self):
        if self.denom_power < 0:
            raise ValueError(f"negative denominator power {self.denom_power}")
        exps = [e for e, _ in self.numerator]
        if exps != sorted(set(exps)) or any(c == 0 for _, c in self.numerator):
            raise ValueError("numerator pairs must be sorted, unique, nonzero")
        if self.denom_power > 0 and sum(c for _, c in self.numerator) == 0:
            raise ValueError("numerator divisible by (1 - t): not reduced")

    @staticmethod
    def from_pairs(pairs, denom_power):
        """Build a reduced series, cancelling (1 - t) factors as needed."""
        if denom_power < 0:
            raise ValueError(f"negative denominator power {denom_power}")
        num = _normalize_pairs(pairs)
        d = denom_power
        while num and d > 0 and sum(c for _, c in num) == 0:
            num = _divide_by_one_minus_t(num)
            d -= 1
        if not num:
            d = 0
        return HilbertSeries(num, d)

    # -- basic queries ----------------------------------------------------

    def lowest_exponent(self):
        return self.numerator[0][0] if self.numerator else None

    def highest_exponent(self):
        return self.numerator[-1][0] if self.numerator else None

    def coeff(self, n):
        """Coefficient of t^n in the power series expansion."""
        d = self.denom_power
        if d == 0:
            return dict(self.numerator).get(n, 0)
        total = 0
        for e, c in self.numerator:
            if n - e >= 0:
                total += c * comb(n - e + d - 1, d - 1)
        return total

    # -- operations -------------------------------------------------------

    def shift(self, a):
        """Twist by a: coeff(result, n) == coeff(self, n + a)."""
        return HilbertSeries(tuple((e - a, c) for e, c in self.numerator),
                             self.denom_power)

    def window(self, lo, hi, cap=DEFAULT_POINT_CAP):
        """Coefficients on [lo, hi]; ResourceCap when there are more than cap."""
        if lo > hi:
            raise ValueError(f"window lo {lo} exceeds hi {hi}")
        check_cap(hi - lo + 1, cap, f"series window [{lo}, {hi}]")
        return tuple(self.coeff(n) for n in range(lo, hi + 1))

    def hadamard(self, other, guard=DEFAULT_GUARD, cap=DEFAULT_POINT_CAP):
        """Coefficientwise product, reconstructed over (1-t)^(d1+d2-1).

        Both factors must have denominator power at least 1 (their
        coefficient streams are eventually polynomial).  The stream is
        expanded to the reconstruction bound plus guard extra terms; the
        guard coefficients of the recovered numerator must vanish.
        Raises ResourceCap when the stream would exceed cap terms, or
        when multiplying it out would take more than cap products.
        """
        if guard < 0:
            raise ValueError(f"negative guard {guard}")
        d1, d2 = self.denom_power, other.denom_power
        if d1 < 1 or d2 < 1:
            raise ReconstructionFailed(
                f"hadamard needs denominator powers >= 1, got {d1} and {d2}")
        dd = d1 + d2 - 1
        lo = max(self.lowest_exponent(), other.lowest_exponent())
        hi_support = max(self.highest_exponent() - d1,
                         other.highest_exponent() - d2) + dd
        top = hi_support + guard
        terms = top - lo + 1
        check_cap(terms, cap, "Hadamard coefficient stream")
        check_cap(terms * (dd + 1), cap, "Hadamard numerator")
        stream = [self.coeff(n) * other.coeff(n) for n in range(lo, top + 1)]
        # multiply the truncated stream by (1 - t)^dd; degrees <= top are exact
        signs = [(-1) ** j * comb(dd, j) for j in range(dd + 1)]
        num = []
        for off in range(len(stream)):
            c = sum(signs[j] * stream[off - j] for j in range(min(dd, off) + 1))
            if c:
                num.append((lo + off, c))
        for e, c in num:
            if e > hi_support:
                raise ReconstructionFailed(
                    f"guard coefficient {c} at degree {e} is nonzero; "
                    f"inputs are not eventually polynomial of the expected degree")
        return HilbertSeries.from_pairs(num, dd)


# ---------------------------------------------------------------------------
# text encoding: "num: c0 e0 c1 e1 ... ; den: d"


def format_series(h):
    body = "".join(f" {c} {e}" for e, c in h.numerator)
    return f"num:{body} ; den: {h.denom_power}"


def parse_series(text):
    try:
        num_part, den_part = (part.strip() for part in text.split(";"))
    except ValueError:
        raise ValueError(f"series text needs one ';': {text!r}") from None
    if not num_part.startswith("num:") or not den_part.startswith("den:"):
        raise ValueError(f"series text needs 'num:' and 'den:' markers: {text!r}")
    tokens = num_part[len("num:"):].split()
    if len(tokens) % 2 != 0:
        raise ValueError(f"numerator tokens must come in (coeff, exponent) pairs: {text!r}")
    try:
        ints = [int(tok) for tok in tokens]
        d = int(den_part[len("den:"):].strip())
    except ValueError as exc:
        raise ValueError(f"bad integer in series text {text!r}: {exc}") from None
    pairs = [(ints[k + 1], ints[k]) for k in range(0, len(ints), 2)]
    return HilbertSeries.from_pairs(pairs, d)
