import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrecm.cohomo import (DepthReport, TwistInterval, anticanonical_cm_m2,
                            canonical_power_cm, cm_chain, cm_twist_interval,
                            cm_uniform_twist, cm_uniform_twist_raw,
                            cohomology_support, _check_sorted, _support_scan)
from segrecm.errors import (BadTwist, DimensionTooSmall, NotApplicable,
                            NotPositive, NotSorted, ResourceCap)
from segrecm.series import HilbertSeries

from oracles import (prop_depth_m2, support_witnesses, twist_interval_by_fractions,
                     uniform_twist_by_subsets)

# (d, s, h) with s and h from short ranges, so that several factors share
# a threshold s_i and ties are the common case
factor_lists = st.lists(st.tuples(st.integers(2, 4), st.integers(-2, 2),
                                  st.integers(-6, 3)), min_size=1, max_size=9)
rho_lists = st.lists(st.integers(-4, 4), min_size=1, max_size=9)


def positive_rho_lists(rng, count, top=10**30):
    """count non-increasing positive lists of 1 to 8 entries, in turn: small
    entries (ties are common), all equal, spread up to top, and crowded
    just below top (every ratio barely above 1)."""
    for n in range(count):
        m = rng.randint(1, 8)
        rhos = [[rng.randint(1, 6) for _ in range(m)],
                [rng.randint(1, top)] * m,
                [rng.randint(1, top) for _ in range(m)],
                [top - rng.randint(0, 3) for _ in range(m)]][n % 4]
        yield sorted(rhos, reverse=True)


def sorted_vectors(max_m, lo, hi):
    for m in range(1, max_m + 1):
        for combo in combinations_with_replacement(range(hi, lo - 1, -1), m):
            yield list(combo)


class TestCohomologySupport:
    def test_two_planes(self):
        rep = cohomology_support([(2, 0, -2), (2, 0, -2)])
        assert (rep.dim, rep.depth) == (3, 3)
        assert [w.subset for w in rep.witnesses] == [(1, 2)]
        assert rep.witnesses[0].lo is None

    def test_depth_two_witness(self):
        # R(a) with a-invariant alpha has s = -a and h = alpha - a: these
        # are K[x,y,z] and K[u,v](-3), the README's example
        rep = cohomology_support([(3, 0, -3), (2, 3, 1)])
        assert (rep.dim, rep.depth) == (4, 2)
        assert rep.witnesses == ((2, (2,), 0, 1), (4, (1, 2), None, -3))

    def test_three_uniform_twists(self):
        rep = cohomology_support([(2, -1, -2)] * 3)
        assert rep.depth == rep.dim
        assert [w.subset for w in rep.witnesses] == [(1, 2, 3)]

    def test_single_factor(self):
        rep = cohomology_support([(4, -7, -9)])
        assert (rep.dim, rep.depth) == (4, 4)

    def test_rejects_dimension_one(self):
        # dimension 1 is allowed only with exactly two factors, and
        # dimension 0 or less never
        for factors in ([(2, 0, -2), (1, 0, -1), (2, 0, -2)], [(1, 0, -1)],
                        [(0, 0, -1), (2, 0, -2)], [(2, 0, -2), (-1, 0, 0)],
                        [(0, 0, 0)], [(2, 0, -2), (2, 0, -2), (0, 0, -1)]):
            with pytest.raises(DimensionTooSmall):
                cohomology_support(factors)

    def test_rejects_factor_that_is_not_a_triple(self):
        with pytest.raises(ValueError):
            cohomology_support([(2, 0, -2), (3, 0, -3, 9)])
        # nor an empty factor list, nor a report deeper than its dimension
        with pytest.raises(ValueError, match="nonempty"):
            cohomology_support([])
        with pytest.raises(ValueError, match="exceed"):
            DepthReport(2, 3, ())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(-4, 1),
           st.integers(-4, 1), st.integers(-3, 3), st.integers(-3, 3))
    def test_two_factors_match_case_split(self, r, s, rho, sigma, a, b):
        # the case split reads a-invariants rho, sigma and shifts a, b
        factors = [(r, -a, rho - a), (s, -b, sigma - b)]
        rep = cohomology_support(factors)
        assert rep == prop_depth_m2(r, s, rho, sigma, a, b)
        assert [tuple(w) for w in rep.witnesses] == support_witnesses(factors)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(factor_lists)
    def test_witnesses_match_exhaustive(self, factors):
        rep = cohomology_support(factors)
        assert [tuple(w) for w in rep.witnesses] == support_witnesses(factors)
        assert rep.depth == min(w.q for w in rep.witnesses)
        # the count checked against the cap is the number listed
        assert cohomology_support(factors, cap=len(rep.witnesses)) == rep
        with pytest.raises(ResourceCap):
            cohomology_support(factors, cap=len(rep.witnesses) - 1)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(factor_lists, st.integers(-5, 5))
    def test_depth_invariant_under_global_shift(self, factors, c):
        # shifting every factor by c subtracts c from every s and h
        base = cohomology_support(factors)
        moved = cohomology_support([(d, s - c, h - c) for d, s, h in factors])
        assert (moved.dim, moved.depth) == (base.dim, base.depth)
        assert [w.subset for w in moved.witnesses] == [w.subset for w in base.witnesses]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(factor_lists)
    def test_dual_shift_is_involution_on_reports(self, factors):
        # negating the shift -s keeps the a-invariant h - s: (d, s, h) goes
        # to (d, -s, h - 2s), and twice back to itself
        def dual(fs):
            return [(d, -s, h - 2 * s) for d, s, h in fs]
        assert cohomology_support(dual(dual(factors))) == cohomology_support(factors)

    def test_cap_counts_witnesses_before_listing(self):
        # every nonempty subset of six equal factors is supported
        factors = [(2, 0, 0)] * 6
        assert len(cohomology_support(factors, cap=63).witnesses) == 63
        with pytest.raises(ResourceCap) as exc:
            cohomology_support(factors, cap=62)
        assert str(exc.value) == \
            "depth witnesses: needs at least 63 entries, over the cap of 62"

    def test_many_factors_few_witnesses(self):
        factors = [(2 + i % 3, 2 - i % 5, 1 - i % 4 - i % 5) for i in range(200)]
        rep = cohomology_support(factors)
        assert rep.witnesses[-1].subset == tuple(range(1, 201))
        assert rep.depth == min(w.q for w in rep.witnesses)

    def test_global_shift_invariance(self):
        rng = random.Random(3)
        for _ in range(200):
            m = rng.randint(1, 4)
            factors = [(rng.randint(2, 4), rng.randint(-6, 6), rng.randint(-11, 8))
                       for _ in range(m)]
            base = cohomology_support(factors)
            c = rng.randint(-4, 4)
            moved = cohomology_support([(d, s - c, h - c) for d, s, h in factors])
            assert (base.dim, base.depth) == (moved.dim, moved.depth)


def binomial(x, r):
    """C(x, r) as a polynomial in x: x (x - 1) ... (x - r + 1) / r!, also for
    negative x."""
    return math.prod(range(x - r + 1, x + 1)) // math.factorial(r)


def summand_dim(factors, subset, k):
    """dim at k of the tensor product of H^{d_i}(R_i(a_i)) over the subset
    and of R_i(a_i) off it, R_i = K[x_1..x_{d_i}]: each factor is 0 outside
    k + a_i <= -d_i, respectively k + a_i >= 0."""
    dim = 1
    for i, (d, a) in enumerate(factors, start=1):
        j = k + a
        if i in subset:
            dim *= binomial(-j - 1, d - 1) if j <= -d else 0
        else:
            dim *= binomial(j + d - 1, d - 1) if j >= 0 else 0
    return dim


class TestGrothendieckSerre:
    """H_M(k) - P_M(k) = sum_q (-1)^q dim H^q_m(M)_k (Bruns-Herzog 4.4.3) for
    the Segre product M of shifted polynomial rings: H_M from series, the
    local cohomology from the witnesses of cohomology_support.  The two
    modules share no code."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(2, 4), st.integers(-4, 4)), min_size=2, max_size=4))
    def test_euler_characteristic_is_hilbert_function_minus_polynomial(self, factors):
        hm = reduce(HilbertSeries.hadamard, (HilbertSeries([(-a, 1)], d) for d, a in factors))
        dd = hm.denom_power

        def hilbert_polynomial(k):
            return sum(c * binomial(k - e + dd - 1, dd - 1) for e, c in hm.numerator)

        # K[x_1..x_d](a) has a-invariant -d: s = -a and h = -d - a
        witnesses = cohomology_support([(d, -a, -d - a) for d, a in factors]).witnesses
        ends = [end for w in witnesses for end in (w.lo, w.hi) if end is not None]
        for k in range(min(ends) - 3, max(ends) + 4):
            chi = 0
            for w in witnesses:
                dim = summand_dim(factors, w.subset, k)
                assert (dim != 0) == ((w.lo is None or w.lo <= k) and k <= w.hi)
                chi += (-1) ** w.q * dim
            assert chi == hm.coeff(k) - hilbert_polynomial(k)


class TestGrothendieckSerreVeronese:
    """The same law for M = # of M_i, M_i = omega^(k_i) of Ver(n_i, c_i), the
    c-th Veronese of S = K[x_1..x_n]: (M_i)_t = S_(ct - kn) and H^n(M_i)_t =
    H^n(S)_(ct - kn), so M_i has (d, s, h) = (n, ceil(kn/c), floor((k-1)n/c)).
    A factor with c not dividing n is not Gorenstein."""

    @staticmethod
    def data(n, c, k):
        return n, -(-k * n // c), (k - 1) * n // c

    @staticmethod
    def dims(factors, t):
        """Per factor at t: dim (M_i)_t, dim H^n(M_i)_t and the Hilbert
        polynomial, the first binomial read as a polynomial in t."""
        poly = [binomial(c * t - k * n + n - 1, n - 1) for n, c, k in factors]
        module = [p if c * t >= k * n else 0 for p, (n, c, k) in zip(poly, factors)]
        top = [binomial(k * n - c * t - 1, n - 1) if c * t - k * n <= -n else 0
               for n, c, k in factors]
        return module, top, poly

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(2, 4), st.integers(1, 3),
                              st.sampled_from([-3, -2, -1, 2, 3])), min_size=2, max_size=4))
    def test_euler_characteristic_is_hilbert_function_minus_polynomial(self, factors):
        witnesses = cohomology_support([self.data(*f) for f in factors]).witnesses
        ends = [end for w in witnesses for end in (w.lo, w.hi) if end is not None]
        for t in range(min(ends) - 3, max(ends) + 4):
            module, top, poly = self.dims(factors, t)
            chi = 0
            for w in witnesses:
                dim = math.prod(top[i] if i + 1 in w.subset else module[i]
                                for i in range(len(factors)))
                assert (dim != 0) == ((w.lo is None or w.lo <= t) and t <= w.hi)
                chi += (-1) ** w.q * dim
            assert chi == math.prod(module) - math.prod(poly)

    def test_anticanonical_module_of_c3_times_i2(self):
        # omega^(-1) of C3 = Ver(2, 3), not Gorenstein, and of I2 = Ver(2, 1):
        # depth 2 of 3, with H^2 only in degree -2, where it is H^2 of the
        # C3 part, of dimension 3, times the I2 part, of dimension 1
        factors = [(2, 3, -1), (2, 1, -1)]
        assert [self.data(*f) for f in factors] == [(2, 0, -2), (2, -2, -4)]
        rep = cohomology_support([(2, 0, -2), (2, -2, -4)])
        assert (rep.dim, rep.depth) == (3, 2)
        assert rep.witnesses == ((2, (1,), -2, -2), (3, (1, 2), None, -4))
        module, top, _ = self.dims(factors, -2)
        assert (top[0], module[1]) == (3, 1)


class TestPropDepthM2:
    def test_mixed_dimension_case(self):
        rep = prop_depth_m2(2, 1, -2, -1, 0, -1)
        assert (rep.dim, rep.depth) == (2, 1)

    def test_curve_pair_always_cm(self):
        for rho, sigma, a, b in [(-1, -1, 0, 0), (3, -2, 5, -5), (0, 0, 2, 1)]:
            rep = prop_depth_m2(1, 1, rho, sigma, a, b)
            assert rep.depth == rep.dim == 1

    def test_cm_case(self):
        rep = prop_depth_m2(3, 2, -3, -2, 0, 0)
        assert rep.depth == rep.dim == 4

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(-3, 0), st.integers(-3, 0),
           st.integers(-3, 3), st.integers(-3, 3))
    def test_dimension_one_branches_match_exhaustive(self, r, rho, sigma, a, b):
        # with s = 1 the case split must give the least q of the
        # exhaustive Kunneth witnesses, numbered in input order
        rep = prop_depth_m2(r, 1, rho, sigma, a, b)
        want = support_witnesses([(r, -a, rho - a), (1, -b, sigma - b)])
        assert [tuple(w) for w in rep.witnesses] == want
        assert rep.depth == min(w[0] for w in want)

    def test_swaps_inputs(self):
        # swapping the factors mirrors every witness subset
        for args in ((2, 3, -2, -3, 5, 1), (1, 2, -1, -2, 0, -3), (1, 3, -1, -1, 2, 0)):
            r, s, rho, sigma, a, b = args
            one = prop_depth_m2(r, s, rho, sigma, a, b)
            two = prop_depth_m2(s, r, sigma, rho, b, a)
            assert (one.dim, one.depth) == (two.dim, two.depth)
            mirrored = sorted(w._replace(subset=tuple(sorted(3 - i for i in w.subset)))
                              for w in two.witnesses)
            assert list(one.witnesses) == mirrored
        # the q = 2 witness on one factor sits on factor 2, of dimension 2
        rep = prop_depth_m2(1, 2, -1, -2, 0, -3)
        assert [tuple(w) for w in rep.witnesses] == [(2, (1, 2), None, -1), (2, (2,), 0, 1)]

    def test_agrees_with_subset_analysis(self):
        # small slice of the acceptance grid
        for r in (2, 3):
            for s in (2, 3):
                for rho in (-3, -1):
                    for sigma in (-2, -1):
                        for a in range(-4, 5):
                            for b in range(-4, 5):
                                cases = prop_depth_m2(r, s, rho, sigma, a, b)
                                kunneth = cohomology_support(
                                    [(r, -a, rho - a), (s, -b, sigma - b)])
                                assert cases.depth == kunneth.depth
                                assert (cases.depth == cases.dim) == \
                                    (kunneth.depth == kunneth.dim)


class TestUniformTwist:
    def test_examples(self):
        assert cm_uniform_twist([3, 2], 2) is True
        assert cm_uniform_twist([3, 2], 3) is False
        for a in range(-6, 7):
            assert cm_uniform_twist([2, 2, 2], a) is True

    def test_raw_examples(self):
        assert cm_uniform_twist_raw([3, 2], -1) is True
        assert cm_uniform_twist_raw([4, 2], -1) is False
        assert cm_uniform_twist_raw([5], 3) is True

    def test_rejects_unsorted(self):
        with pytest.raises(NotSorted):
            cm_uniform_twist([2, 3], 1)
        for criterion in (cm_uniform_twist, cm_uniform_twist_raw):
            with pytest.raises(ValueError, match="nonempty"):
                criterion([], 2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rho_lists)
    def test_raw_matches_exhaustive(self, rhos):
        # rhos are unsorted; every twist, including 0 and 1, is compared
        for a in range(-6, 7):
            assert cm_uniform_twist_raw(rhos, a) == uniform_twist_by_subsets(rhos, a), a

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    def test_twists_a_and_one_minus_a_agree(self, rhos):
        # M_a and M_(1-a) are dual, so each form answers alike at both
        rhos = sorted(rhos, reverse=True)
        for a in range(-8, 9):
            assert uniform_twist_by_subsets(rhos, a) == uniform_twist_by_subsets(rhos, 1 - a), a
            assert cm_uniform_twist(rhos, a) == cm_uniform_twist(rhos, 1 - a), a
            if a not in (0, 1):
                assert cm_chain(rhos, a) == cm_chain(rhos, 1 - a), a

    def test_raw_many_factors(self):
        # 300 factors; the consecutive ratio 27/26 allows twists -25..26
        rhos = sorted((30 - i % 5 for i in range(300)), reverse=True)
        for a, want in ((2, True), (26, True), (27, False), (-26, False)):
            assert cm_uniform_twist_raw(rhos, a) is want
            assert cm_uniform_twist(rhos, a) is want

    def test_raw_is_permutation_invariant(self):
        rng = random.Random(5)
        for _ in range(100):
            rhos = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
            a = rng.randint(-5, 5)
            shuffled = rhos[:]
            rng.shuffle(shuffled)
            assert cm_uniform_twist_raw(rhos, a) == cm_uniform_twist_raw(shuffled, a)

    def test_equivalence_small_sweep(self):
        for rhos in sorted_vectors(3, -3, 3):
            for a in range(-5, 6):
                fast = cm_uniform_twist(rhos, a)
                raw = cm_uniform_twist_raw(rhos, a)
                assert fast == raw, (rhos, a)
                if a not in (0, 1):
                    assert cm_chain(rhos, a) == fast, (rhos, a)

    def test_reduction_from_support_analysis(self):
        # uniform twists are the shifts -a rho_i on factors with a-invariant
        # -rho_i, so s_i = a rho_i and h_i = (a - 1) rho_i; CM there must
        # match the chain criterion
        rng = random.Random(9)
        for _ in range(300):
            m = rng.randint(1, 4)
            rhos = sorted((rng.randint(-4, 4) for _ in range(m)), reverse=True)
            a = rng.randint(-5, 5)
            dims = [rng.randint(2, 4) for _ in range(m)]
            factors = [(dims[i], a * rhos[i], (a - 1) * rhos[i]) for i in range(m)]
            rep = cohomology_support(factors)
            assert (rep.depth == rep.dim) == cm_uniform_twist(rhos, a)


class TestChain:
    def test_anticanonical_chain(self):
        assert cm_chain([3, 2], -1) is True
        assert cm_chain([4, 2], -1) is False

    def test_constant_is_two_for_negative_one(self):
        # for a = -1 the chain constant is 2
        rng = random.Random(21)
        for _ in range(100):
            m = rng.randint(1, 5)
            rhos = sorted((rng.randint(1, 9) for _ in range(m)), reverse=True)
            want = all(Fraction(2) ** (j + 1) * rhos[j + 1] >
                       Fraction(2) ** j * rhos[j] for j in range(m - 1))
            assert cm_chain(rhos, -1) == want
            assert cm_uniform_twist(rhos, -1) == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=20),
           st.integers(-60, 60).filter(lambda a: a not in (0, 1)))
    def test_matches_the_rational_chain(self, rhos, a):
        # the chain as stated, C^j rho_(j+1) in Fractions, C = b/(b-1)
        rhos = sorted(rhos, reverse=True)
        b = max(a, 1 - a)
        values = [Fraction(b, b - 1) ** j * rho for j, rho in enumerate(rhos)]
        assert cm_chain(rhos, a) == all(map(Fraction.__lt__, values, values[1:]))

    def test_rejects_degenerate_twists(self):
        # inside (0, 1) the constant C would be negative
        for a in (0, 1, Fraction(1, 2), Fraction(1, 3)):
            with pytest.raises(BadTwist):
                cm_chain([3, 2], a)
        # a twist is an integer, in all four twist criteria
        for a in (Fraction(1, 2), Fraction(1, 3), Fraction(5, 2)):
            for criterion in (cm_uniform_twist, cm_uniform_twist_raw, cm_chain,
                              canonical_power_cm):
                with pytest.raises(BadTwist):
                    criterion([3, 2], a)


class TestTwistReader:
    def test_twist_is_read_as_an_integer(self):
        # read with operator.index, as every other integer input is
        criteria = (cm_uniform_twist, cm_uniform_twist_raw, cm_chain, canonical_power_cm)
        for criterion in criteria:
            for a in (1e200, 2.0, Fraction(2)):
                with pytest.raises(TypeError):
                    criterion([3, 2], a)
            with pytest.raises(BadTwist):
                criterion([3, 2], Fraction(1, 2))
            assert criterion([3, 2], 2) is True
            assert criterion([3, 2], 10**200) is False
        for criterion in criteria[:3]:
            assert criterion([2, 2], 10**200) is True
            with pytest.raises(TypeError):
                criterion([2, 2], 1e200)


class TestAnticanonicalM2:
    def test_examples(self):
        assert anticanonical_cm_m2(-2, -2) is True
        assert anticanonical_cm_m2(-1, -3) is False
        assert anticanonical_cm_m2(-2, -3) is True

    def test_cross_check(self):
        assert cm_uniform_twist([3, 1], -1) is False
        assert cm_uniform_twist([3, 2], -1) is True


class TestTwistInterval:
    def test_ratio_three_halves(self):
        interval = cm_twist_interval([3, 2])
        assert (interval.lo, interval.hi) == (Fraction(-2), Fraction(3))
        assert interval.integer_points() == [-1, 0, 1, 2]
        scan = [a for a in range(-10, 11) if cm_uniform_twist([3, 2], a)]
        assert scan == interval.integer_points()

    def test_ratio_two(self):
        interval = cm_twist_interval([4, 2])
        assert (interval.lo, interval.hi) == (Fraction(-1), Fraction(2))
        assert interval.integer_points() == [0, 1]

    def test_all_equal(self):
        interval = cm_twist_interval([5, 5, 5])
        assert (interval.lo, interval.hi) == (None, None)
        assert interval.integer_points() is None
        assert cm_uniform_twist([5, 5, 5], -100)

    def test_rejects_nonpositive(self):
        with pytest.raises(NotPositive):
            cm_twist_interval([3, 0])
        with pytest.raises(NotSorted):
            cm_twist_interval([2, 3])

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            TwistInterval(Fraction(2), Fraction(1))
        # one end alone is neither all integers nor a bounded interval
        for ends in ((Fraction(1), None), (None, Fraction(1))):
            with pytest.raises(ValueError):
                TwistInterval(*ends)

    def test_integer_points_stop_at_cap(self):
        interval = cm_twist_interval([4, 2])
        assert interval.integer_points(cap=2) == [0, 1]
        with pytest.raises(ResourceCap, match="integer points of the interval"):
            interval.integer_points(cap=1)

    def test_ends_match_the_fraction_reference(self):
        # the largest ratio is compared in integers; the reference takes
        # the max over Fractions
        for rhos in positive_rho_lists(random.Random(41), 600):
            interval = cm_twist_interval(rhos)
            assert (interval.lo, interval.hi) == twist_interval_by_fractions(rhos), rhos
            if interval.lo is not None:
                assert type(interval.lo) is type(interval.hi) is Fraction

    def test_integer_points_match_a_twist_scan(self):
        # with entries up to 12 the ratio is at least 12/11 and hi at most 12
        seen = 0
        for rhos in positive_rho_lists(random.Random(43), 400, top=12):
            interval = cm_twist_interval(rhos)
            if interval.lo is None:
                continue
            window = range(math.floor(interval.lo) - 2, math.ceil(interval.hi) + 3)
            assert interval.integer_points() == [a for a in window
                                                 if cm_uniform_twist(rhos, a)], rhos
            seen += 1
        assert seen >= 200


class TestScanAndOrder:
    def test_rank_is_by_threshold_then_index(self):
        rng = random.Random(47)
        for _ in range(300):
            m = rng.randint(1, 30)
            s = [rng.randint(-2, 2) for _ in range(m)]
            h = [rng.randint(-3, 3) for _ in range(m)]
            want = sorted(range(m), key=lambda i: (s[i], i))
            assert _support_scan(s, h)[0] == want
            assert _support_scan(tuple(s), tuple(h))[0] == want

    def test_not_sorted_names_the_first_offending_position(self):
        rng = random.Random(53)
        for _ in range(300):
            rhos = [rng.randint(-3, 3) for _ in range(rng.randint(2, 8))]
            rises = [i for i in range(1, len(rhos)) if rhos[i - 1] < rhos[i]]
            if not rises:
                assert _check_sorted(rhos) == rhos
                continue
            i = rises[0]
            message = (f"rho list must be non-increasing; entry {rhos[i]} at "
                       f"position {i} exceeds {rhos[i - 1]}")
            with pytest.raises(NotSorted) as exc:
                _check_sorted(rhos)
            assert str(exc.value) == message
            with pytest.raises(NotSorted, match=f"^{message}$"):
                cm_uniform_twist(rhos, 2)


class TestCanonicalPowers:
    def test_examples(self):
        assert canonical_power_cm([3, 2], 2) is True
        assert canonical_power_cm([4, 2], -1) is False
        assert canonical_power_cm([3, 2], 3) is False

    def test_matches_uniform_twist(self):
        rng = random.Random(31)
        for _ in range(100):
            m = rng.randint(2, 5)
            rhos = sorted((rng.randint(1, 8) for _ in range(m)), reverse=True)
            if len(set(rhos)) == 1:
                continue
            a = rng.randint(-10, 10)
            assert canonical_power_cm(rhos, a) == cm_uniform_twist(rhos, a)

    def test_not_applicable_for_equal_entries(self):
        with pytest.raises(NotApplicable):
            canonical_power_cm([3, 3], 5)
