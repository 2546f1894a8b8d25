import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrecm import series
from segrecm.errors import ResourceCap
from segrecm.series import HilbertSeries

from oracles import expand_series


H = HilbertSeries


def expand(h, lo, hi):
    return expand_series(list(h.numerator), h.denom_power, lo, hi)


# numerators with shifts into negative degrees; the constructor reduces them
any_series = st.builds(
    H, st.lists(st.tuples(st.integers(-3, 5), st.integers(-3, 3)), max_size=4),
    st.integers(0, 3))
# wider numerators and denominator powers 0 to 6, as the proven top needs;
# some reduce to polynomials or to the zero series
wide_series = st.builds(
    H, st.lists(st.tuples(st.integers(-8, 11), st.integers(-3, 3)), min_size=1, max_size=4),
    st.integers(0, 6))
LO, HI = -6, 14


POLY_2VARS = H([(0, 1)], 2)          # 1/(1-t)^2
TWISTED = H([(0, 1), (1, 1)], 3)     # (1+t)/(1-t)^3
NILP3 = H([(0, 1), (1, 1), (2, 1)], 0)   # 1 + t + t^2


class TestCoeff:
    def test_two_variable_polynomial_ring(self):
        assert POLY_2VARS.coeff(5) == 6

    def test_twisted_numerator(self):
        # oracle: multiply out the truncated series
        assert expand_series([(0, 1), (1, 1)], 3, 3, 3) == [16]
        assert TWISTED.coeff(3) == 16
        assert TWISTED.coeff(3) == (3 + 1) ** 2

    def test_polynomial_readoff(self):
        h = H([(1, 1), (2, 1)], 0)
        assert h.coeff(0) == 0
        assert h.coeff(1) == 1

    def test_matches_expansion_oracle(self):
        samples = [POLY_2VARS, TWISTED, NILP3, H([(-2, 1), (0, 3)], 1),
                   H([(0, 1), (2, -1)], 4)]
        for h in samples:
            got = [h.coeff(n) for n in range(-4, 12)]
            want = expand_series(list(h.numerator), h.denom_power, -4, 11)
            assert got == want

    def test_polynomial_hadamard_reads_each_term_by_bisection(self):
        # one coeff of the 6,000-term polynomial per term of the 3,000-term
        # one, each a bisection rather than a table of all 6,000 terms
        evens = H([(2 * i, i + 1) for i in range(3000)], 0)
        dense = H([(j, j + 1) for j in range(6000)], 0)
        start = time.perf_counter()
        got = evens.hadamard(dense)
        assert time.perf_counter() - start < 0.3
        assert got == H([(2 * i, (i + 1) * (2 * i + 1)) for i in range(3000)], 0)

    def test_polynomial_window_reads_each_degree_by_bisection(self):
        # 100,000 coefficients of a 1,000-term polynomial on exponents 100 i
        sparse = H([(100 * i, i + 1) for i in range(1000)], 0)
        start = time.perf_counter()
        got = sparse.window(0, 99_999)
        assert time.perf_counter() - start < 2
        assert got == tuple(0 if n % 100 else n // 100 + 1 for n in range(100_000))


class TestShift:
    def test_polynomial_ring_shift(self):
        h = H([(0, 1)], 1).shift(2)
        assert h.numerator == ((-2, 1),)
        assert h.denom_power == 1

    def test_shift_inverts(self):
        for h in (POLY_2VARS, TWISTED, NILP3):
            for a in (-3, -1, 0, 2, 5):
                assert h.shift(a).shift(-a) == h

    def test_nilpotent_ring_twist(self):
        # K[x]/(x^3) twisted by 2 is supported in degrees -2..0
        assert NILP3.shift(2).numerator == ((-2, 1), (-1, 1), (0, 1))

    def test_shift_translates_windows(self):
        for a in (-2, 1, 4):
            shifted = TWISTED.shift(a).window(0, 5)
            direct = TWISTED.window(a, 5 + a)
            assert shifted == direct


class TestHadamard:
    def test_square_of_plane(self):
        got = POLY_2VARS.hadamard(POLY_2VARS)
        assert got == TWISTED
        window = [got.coeff(n) for n in range(20)]
        assert window == [(n + 1) ** 2 for n in range(20)]

    def test_line_is_idempotent(self):
        line = H([(0, 1)], 1)
        assert line.hadamard(line) == line

    def test_polynomial_inputs(self, monkeypatch):
        # an Artinian factor makes the product a polynomial: (1 + t + t^2)
        # times the stream n + 1 is 1 + 2t + 3t^2
        want = H([(0, 1), (1, 2), (2, 3)], 0)
        assert NILP3.hadamard(POLY_2VARS) == POLY_2VARS.hadamard(NILP3) == want
        assert NILP3.hadamard(NILP3) == NILP3
        assert NILP3.hadamard(H([], 0)) == H([], 0) == H([], 0).hadamard(POLY_2VARS)
        # t^5 / (1 - t) and 1 share no degree
        assert H([(5, 1)], 1).hadamard(H([(0, 1)], 0)) == H([], 0)
        # the cap counts the polynomial's terms, not the degrees they span;
        # of two polynomials, the shorter one's
        poly = H([(0, 1), (1, 1), (5, 1)], 0)
        assert poly.hadamard(POLY_2VARS, cap=3) == H([(0, 1), (1, 2), (5, 6)], 0)
        with pytest.raises(ResourceCap, match="needs at least 3 entries"):
            POLY_2VARS.hadamard(poly, cap=2)
        assert poly.hadamard(H([(5, 2)], 0), cap=1) == H([(5, 2)], 0)
        # the product with a d = 0 factor lives on that factor's terms and
        # divides nothing, so the constructor's default cap does not bound
        # what hadamard's cap allows
        monkeypatch.setattr(series, "DEFAULT_POINT_CAP", 5)
        got = H([(0, 1), (20, 1)], 0).hadamard(H([(0, 1)], 2), cap=100)
        assert got == H([(0, 1), (20, 21)], 0)

    def test_pointwise_law(self):
        samples = [POLY_2VARS, TWISTED, H([(0, 1)], 1), H([(-1, 2), (1, 1)], 2),
                   H([(0, 1), (1, -1), (2, 1)], 3)]
        for h1 in samples:
            for h2 in samples:
                prod = h1.hadamard(h2)
                for n in range(-3, 15):
                    assert prod.coeff(n) == h1.coeff(n) * h2.coeff(n)

    def test_commutative_and_associative(self):
        a, b, c = POLY_2VARS, TWISTED, H([(-1, 1), (0, 1)], 2)
        assert a.hadamard(b) == b.hadamard(a)
        left = a.hadamard(b).hadamard(c)
        right = a.hadamard(b.hadamard(c))
        assert left.window(-5, 15) == right.window(-5, 15)

    def test_takes_no_guard(self):
        with pytest.raises(TypeError):
            POLY_2VARS.hadamard(POLY_2VARS, guard=5)

    def test_reduced_after_reconstruction(self):
        # coefficient streams that cancel force denominator reduction
        h1 = H([(0, 1)], 1)
        h2 = H([(0, 1), (1, 1)], 1)   # stream 1,2,2,2,...
        out = h1.hadamard(h2)
        assert out.denom_power == 0 or sum(c for _, c in out.numerator) != 0


class TestWindow:
    def test_plane_window(self):
        assert POLY_2VARS.window(0, 3) == (1, 2, 3, 4)

    def test_twisted_window(self):
        assert expand_series([(0, 1), (1, 1)], 3, 0, 2) == [1, 4, 9]
        assert TWISTED.window(0, 2) == (1, 4, 9)

    def test_negative_support(self):
        h = H([(-1, 1), (0, 1)], 0)
        assert h.window(-2, 1) == (0, 1, 1, 0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            POLY_2VARS.window(3, 1)


class TestReducedForm:
    def test_constructor_cancels(self):
        h = H([(0, 1), (1, -1)], 1)     # (1-t)/(1-t)
        assert h == H([(0, 1)], 0)

    def test_double_cancellation(self):
        h = H([(0, 1), (1, -2), (2, 1)], 3)   # (1-t)^2/(1-t)^3
        assert h == H([(0, 1)], 1)

    def test_zero_numerator(self):
        h = H([], 4)
        assert h.denom_power == 0
        assert h.coeff(3) == 0

    def test_direct_construction_rejects_unreduced(self):
        # a negative power is rejected; (1 - t) / (1 - t), unsorted and zero
        # pairs are normalized
        with pytest.raises(ValueError, match="negative denominator power -1"):
            HilbertSeries(((0, 1),), -1)
        assert HilbertSeries(((0, 1), (1, -1)), 1) == HilbertSeries(((0, 1),), 0)
        assert HilbertSeries(((1, 1), (0, 1)), 0).numerator == ((0, 1), (1, 1))
        assert HilbertSeries(((0, 0),), 0).numerator == ()

    def test_division_fill_in_stops_at_the_default_cap(self, monkeypatch):
        # dividing 1 - t^6 by 1 - t fills in the five exponents 1..5, and
        # 1 - t^7 six; the count is taken before any is summed
        monkeypatch.setattr(series, "DEFAULT_POINT_CAP", 5)
        assert H([(0, 1), (6, -1)], 1) == H([(e, 1) for e in range(6)], 0)
        with pytest.raises(ResourceCap, match="^series numerator: needs at least 6 entries, "
                                              "over the cap of 5$"):
            H([(0, 1), (7, -1)], 1)
        with pytest.raises(ResourceCap, match="^series numerator: needs at least 9{200} "):
            H([(0, 1), (10**200, -1)], 1)
        # the divisions share the cap: for (1 - t^3)^2 / (1 - t)^2 the first
        # walks 0..6 past the three input terms (4), the second 0..5 (6 more)
        monkeypatch.setattr(series, "DEFAULT_POINT_CAP", 10)
        square = [(0, 1), (3, -2), (6, 1)]
        assert H(square, 2) == H([(0, 1), (1, 2), (2, 3), (3, 2), (4, 1)], 0)
        monkeypatch.setattr(series, "DEFAULT_POINT_CAP", 9)
        with pytest.raises(ResourceCap, match="^series numerator: needs at least 10 entries, "
                                              "over the cap of 9$"):
            H(square, 2)

    def test_many_fold_root_stops_at_the_second_division(self):
        # (1 - t^19000)^40 / (1 - t)^40 would walk about 40 x 760,000
        # exponents; the second division takes the total over the cap
        power = [(19000 * k, (-1) ** k * comb(40, k)) for k in range(41)]
        with pytest.raises(ResourceCap, match="^series numerator: needs at least 1519960 entries"):
            H(power, 40)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-4, 5), st.integers(-3, 3)), max_size=6),
           st.integers(0, 3), st.integers(0, 4))
    def test_constructor_normalizes_raw_pairs(self, pairs, k, d):
        # pairs times (1 - t)^k, expanded term by term: unsorted, repeated
        # exponents and zero coefficients, divisible by (1 - t) when k > 0
        raw = [(e + j, c * (-1) ** j * comb(k, j)) for e, c in pairs for j in range(k + 1)]
        h = HilbertSeries(raw, d)
        for n in range(-6, 14):
            if d == 0:
                want = sum(c for e, c in raw if e == n)
            else:
                want = sum(c * comb(n - e + d - 1, d - 1) for e, c in raw if n >= e)
            assert h.coeff(n) == want
        exps = [e for e, _ in h.numerator]
        assert exps == sorted(set(exps)) and all(c != 0 for _, c in h.numerator)
        assert h.denom_power <= d
        assert h.denom_power == 0 or sum(c for _, c in h.numerator) != 0
        assert h.numerator or h.denom_power == 0
        assert HilbertSeries(h.numerator, h.denom_power) == h


class TestSeriesLaws:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(any_series, st.integers(-6, 6))
    def test_coeff_matches_window_and_expansion(self, h, lo):
        hi = lo + 12
        values = h.window(lo, hi)
        assert values == tuple(h.coeff(n) for n in range(lo, hi + 1))
        assert list(values) == expand(h, lo, hi)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(any_series, st.integers(-4, 4), st.integers(-4, 4))
    def test_shift_composes(self, h, a, b):
        assert h.shift(a).shift(b) == h.shift(a + b)
        assert list(h.shift(a).window(LO, HI)) == expand(h, LO + a, HI + a)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(any_series, any_series)
    def test_hadamard_commutes_pointwise(self, h1, h2):
        prod = h1.hadamard(h2)
        assert prod == h2.hadamard(h1)
        want = [x * y for x, y in zip(expand(h1, LO, HI), expand(h2, LO, HI))]
        assert list(prod.window(LO, HI)) == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(any_series)
    def test_hadamard_unit(self, h):
        # 1/(1-t) is 1 in every degree >= 0, so it keeps exactly those
        prod = h.hadamard(H([(0, 1)], 1))
        want = [c if n >= 0 else 0 for n, c in zip(range(LO, HI + 1), expand(h, LO, HI))]
        assert list(prod.window(LO, HI)) == want
        if all(e >= 0 for e, _ in h.numerator):
            assert prod == h

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(wide_series, wide_series)
    def test_hadamard_pointwise_past_top(self, h1, h2):
        # the numerator is read off up to top; the product must still hold
        # 2 (d1 + d2) + 2 degrees beyond it
        d1, d2 = h1.denom_power, h2.denom_power
        ends = [(h.numerator[0][0], h.numerator[-1][0] - h.denom_power)
                for h in (h1, h2) if h.numerator] or [(0, 0)]
        top = max(end for _, end in ends) + max(d1 + d2 - 1, 0)
        lo, hi = min(low for low, _ in ends), top + 2 * (d1 + d2) + 2
        want = [x * y for x, y in zip(expand(h1, lo, hi), expand(h2, lo, hi))]
        assert expand(h1.hadamard(h2), lo, hi) == want
