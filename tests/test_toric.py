import random
import sys
import time

import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segrecm import toric
from segrecm.errors import NotStandardGraded, ResourceCap
from segrecm.oracle import _levels, toric_factor
from segrecm.toric import (ToricPresentation, _bit_layers, _packing,
                           _set_layers, census, kernel_lattice, segre, tensor,
                           validate)

from oracles import (census_by_multisets, gauss_rank, points_by_multisets,
                     smith_diagonal)

I2 = validate([[1, 0], [0, 1]])
CUBIC = validate([[1, 1, 1], [0, 1, 2]])
CORNER = [(0, 0), (1, 0), (0, 1)]
CUBES = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]


@st.composite
def signed_presentations(draw):
    """All-ones top row over rows with entries in -3..3, hence gradable."""
    cols = draw(st.integers(1, 5))
    rest = draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                         max_size=2))
    return validate([[1] * cols] + rest)


def segre_columns(a, b):
    return [x + y for x in a for y in b]


def tensor_columns(a, b):
    return ([x + (0,) * len(b[0]) for x in a]
            + [(0,) * len(a[0]) + y for y in b])


def as_presentation(cols):
    return validate([list(row) for row in zip(*cols)])


# small graded column sets and their products; a zero column next to a
# product makes a column set with no grading, such as [0 1], used as a
# Segre factor
small_graded = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=1).map(
    lambda rest: as_presentation(list(zip([1] * n, *rest))).columns()))
ungraded = st.recursive(small_graded, lambda inner: st.one_of(
    st.builds(segre_columns, inner, inner),
    st.builds(tensor_columns, inner, inner)), max_leaves=2).map(
    lambda cols: [(0,) * len(cols[0])] + cols)
product_columns = st.recursive(small_graded, lambda inner: st.one_of(
    st.builds(segre_columns, inner, inner),
    st.builds(tensor_columns, inner, inner),
    st.builds(segre_columns, inner, ungraded)), max_leaves=3)


def random_gradable(rng, max_rows=3, max_cols=4, span=3):
    """Random presentation with an all-ones top row, hence gradable."""
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    mat = [[1] * cols]
    for _ in range(rows - 1):
        mat.append([rng.randint(0, span) for _ in range(cols)])
    return validate(mat)


class TestValidate:
    def test_identity(self):
        lam = I2.grading
        assert all(sum(l * x for l, x in zip(lam, col)) == 1 for col in I2.columns())
        assert lam == (Fraction(1), Fraction(1))

    def test_first_row_degree(self):
        assert CUBIC.grading == (Fraction(1), Fraction(0))

    def test_not_gradable(self):
        for matrix in ([[1, 2]], [], [[]]):
            with pytest.raises(NotStandardGraded):
                validate(matrix)

    def test_certificate_rechecked_on_construction(self):
        # the first column off degree 1 is named with its exact degree
        for matrix, grading, message in (
                (((1, 2),), (Fraction(1),),
                 "column 1 = (2,) has certificate degree 2, not 1"),
                (((2, 2, 2), (0, 0, 1)), (Fraction(1, 2), Fraction(1, 4)),
                 "column 2 = (2, 1) has certificate degree 5/4, not 1"),
                (((3, 0), (0, 1)), (Fraction(1, 3), Fraction(-1, 6)),
                 "column 1 = (0, 1) has certificate degree -1/6, not 1")):
            with pytest.raises(NotStandardGraded) as exc:
                ToricPresentation(matrix, grading)
            assert str(exc.value) == message
        # empty, ragged, or a grading of the wrong length
        for matrix, grading in (((), ()), (((),), (Fraction(1),)),
                                (((1, 0), (1,)), (Fraction(1), Fraction(0))),
                                (((1, 1),), (Fraction(1), Fraction(0)))):
            with pytest.raises(NotStandardGraded):
                ToricPresentation(matrix, grading)


class TestTensor:
    def test_identity_blocks(self):
        t = tensor(I2, I2)
        assert t.matrix == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_column_count(self):
        t = tensor(I2, CUBIC)
        assert t.ncols == I2.ncols + CUBIC.ncols

    def test_kernel_rank_adds(self):
        rng = random.Random(7)
        for _ in range(12):
            p, q = random_gradable(rng), random_gradable(rng)
            corank_p = p.ncols - gauss_rank(p.matrix)
            corank_q = q.ncols - gauss_rank(q.matrix)
            assert len(kernel_lattice(tensor(p, q))) == corank_p + corank_q


class TestSegre:
    def test_identity_pair(self):
        sg = segre(I2, I2)
        assert sg.columns() == [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
        basis = kernel_lattice(sg)
        assert len(basis) == 1
        assert basis[0] == (1, -1, -1, 1)

    def test_single_column_factor(self):
        single = validate([[1]])
        sg = segre(CUBIC, single)
        assert sg.columns() == [col + (1,) for col in CUBIC.columns()]
        assert len(kernel_lattice(sg)) == CUBIC.ncols - gauss_rank(CUBIC.matrix)

    def test_census_is_pointwise_product(self):
        rng = random.Random(11)
        for _ in range(8):
            p, q = random_gradable(rng), random_gradable(rng)
            left = census(segre(p, q), 4)
            cp, cq = census(p, 4), census(q, 4)
            assert left == tuple(a * b for a, b in zip(cp, cq))

    def test_grading_certificates_survive(self):
        rng = random.Random(13)
        for _ in range(8):
            p, q = random_gradable(rng), random_gradable(rng)
            for out in (tensor(p, q), segre(p, q)):
                for col in out.columns():
                    assert sum(l * x for l, x in zip(out.grading, col)) == 1

    def test_rank_of_segre_matrix(self):
        rng = random.Random(17)
        for _ in range(10):
            p, q = random_gradable(rng), random_gradable(rng)
            sg = segre(p, q)
            want = gauss_rank(p.matrix) + gauss_rank(q.matrix) - 1
            assert gauss_rank(sg.matrix) == want
            assert len(kernel_lattice(sg)) == sg.ncols - want


class TestKernelLattice:
    def test_polynomial_ring(self):
        assert kernel_lattice(I2) == ()

    def test_twisted_cubic(self):
        assert kernel_lattice(CUBIC) == ((1, -2, 1),)

    def test_annihilates_matrix(self):
        rng = random.Random(19)
        for _ in range(10):
            p = random_gradable(rng)
            for v in kernel_lattice(p):
                assert all(sum(a * c for a, c in zip(row, v)) == 0
                           for row in p.matrix)

    def test_rational_span_and_saturation(self):
        # right span, right rank, saturated: together these pin down
        # the lattice ker(A) cap Z^n exactly
        rng = random.Random(23)
        presentations = []
        for _ in range(10):
            presentations.append(random_gradable(rng))
        for _ in range(5):
            presentations.append(segre(random_gradable(rng),
                                       random_gradable(rng)))
        for p in presentations:
            vectors = kernel_lattice(p)
            corank = p.ncols - gauss_rank(p.matrix)
            assert len(vectors) == corank
            for v in vectors:
                assert all(sum(a * c for a, c in zip(row, v)) == 0
                           for row in p.matrix)
            if vectors:
                assert gauss_rank(vectors) == len(vectors)
                assert smith_diagonal(vectors) == [1] * len(vectors)

    def test_sign_normalization(self):
        # reduced row Hermite form: pivots positive and moving right,
        # entries above each pivot in [0, pivot)
        rng = random.Random(31)
        presentations = [CUBIC, segre(I2, I2), segre(CUBIC, CUBIC)]
        presentations += [random_gradable(rng, max_cols=6) for _ in range(30)]
        for p in presentations:
            vectors = kernel_lattice(p)
            pivots = [next(j for j, x in enumerate(v) if x) for v in vectors]
            assert pivots == sorted(set(pivots))
            for r, (v, col) in enumerate(zip(vectors, pivots)):
                assert v[col] > 0
                assert all(0 <= vectors[above][col] < v[col] for above in range(r))

    def test_annihilation_check_rejects_a_non_kernel_vector(self, monkeypatch):
        # the second vector (1, -1, 0) maps to (0, -1): only the second
        # row of the matrix shows that it is no kernel vector
        monkeypatch.setattr(toric.linalg, "integer_kernel",
                            lambda rows: [[1, -2, 1], [1, -1, 0]])
        with pytest.raises(RuntimeError) as err:
            kernel_lattice(CUBIC)
        assert str(err.value) == (
            "kernel vector [1, -1, 0] does not annihilate ((1, 1, 1), (0, 1, 2))")


class TestCensus:
    def test_two_variables(self):
        assert census(I2, 3) == (1, 2, 3, 4)

    def test_segre_squares(self):
        assert census(segre(I2, I2), 2) == (1, 4, 9)

    def test_twisted_cubic(self):
        assert census(CUBIC, 2) == (1, 3, 5)

    def test_matches_multiset_oracle(self):
        rng = random.Random(29)
        for _ in range(6):
            p = random_gradable(rng)
            counts = census(p, 4)
            cols = p.columns()
            for n in range(5):
                assert counts[n] == census_by_multisets(cols, n)

    def test_cap(self):
        with pytest.raises(ResourceCap) as exc:
            census(segre(I2, I2), 10, cap=20)
        assert str(exc.value) == \
            "semigroup census: needs at least 30 entries, over the cap of 20"

    def test_cap_is_lazy(self):
        # the bound is never reached: the factor layers are made one
        # degree at a time and the running total stops at the cap
        for product, total in ((segre, 30), (tensor, 35)):
            start = time.perf_counter()
            with pytest.raises(ResourceCap) as exc:
                census(product(I2, I2), 10**6, cap=20)
            assert str(exc.value) == ("semigroup census: needs at least "
                                      f"{total} entries, over the cap of 20")
            assert time.perf_counter() - start < 1.0

    def test_many_variables(self):
        # splits nearest the middle row keep the recursion logarithmic in
        # the rows; a split at each row in turn would pass this limit
        n = 400
        ring = ToricPresentation(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                                 (Fraction(1),) * n)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            counts = census(ring, 2)
        finally:
            sys.setrecursionlimit(limit)
        assert counts == (1, n, n * (n + 1) // 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(product_columns, st.integers(0, 3), st.randoms(use_true_random=False))
    # a Segre factor with no grading: [0 1] under I2
    @example(segre_columns(I2.columns(), [(0,), (1,)]), 4, random.Random(0))
    # ungraded Segre factors whose columns vanish on one block each;
    # convolving their blocks would count k + 1 points, not C(k+2, 2)
    @example(segre_columns(I2.columns(), CORNER), 4, random.Random(0))
    @example(segre_columns(CORNER, CUBIC.columns()), 4, random.Random(0))
    # four columns, two distinct: not the product of their projections
    @example(I2.columns() * 2, 4, random.Random(0))
    @example(tensor_columns(segre_columns(I2.columns(), I2.columns()), CUBIC.columns()),
             4, random.Random(0))
    @example(segre_columns(tensor_columns(I2.columns(), CUBIC.columns()), I2.columns()),
             4, random.Random(0))
    def test_split_matches_enumeration(self, cols, n, rng):
        cols = cols + rng.sample(cols, min(2, len(cols)))
        rng.shuffle(cols)
        p = as_presentation(cols)
        counts = census(p, n)
        assert counts == tuple(census_by_multisets(cols, k) for k in range(n + 1))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=5)),
        st.integers(0, 4), st.randoms(use_true_random=False))
    # degree-3 monomials in 3 variables: one coordinate is dropped
    @example(CUBES, 4, random.Random(0))
    # the ungraded Segre factor [0 1], and a single column
    @example([(0,), (1,)], 4, random.Random(0))
    @example([(2, -1)], 4, random.Random(0))
    def test_layer_steps_agree(self, cols, n, rng):
        # both layer steps count the same codes; duplicated columns share one
        cols = cols + rng.sample(cols, min(2, len(cols)))
        codes, box = _packing(cols, n)
        # at n = 0 every radix is 1 and only layer 0 lies in the box
        assert all(0 <= c < box for c in codes) or n == 0
        want = [census_by_multisets(cols, k) for k in range(n + 1)]
        assert list(_bit_layers(codes, n)) == list(_set_layers(codes, n)) == want

    def test_packing_drops_dependent_coordinates(self):
        # the three exponents of a degree-3 monomial sum to 3, so two
        # digits of radix 3 * 4 + 1 code them
        assert _packing(CUBES, 4)[1] == 13 ** 2
        assert _packing([(5, 7)], 4) == ({0}, 1)

    def test_sparse_box_takes_set_step(self, monkeypatch):
        # the bottom row's Segre factor {0, 1, 10**9} has a box of
        # 20 * 10**9 + 1 bits, over 2**24, and {0, 3000} one of 300,001
        # bits, over 2**10 per multiset of 100 codes; the set step counts
        # their 231 and 101 points instead
        for matrix, n, last, codes in (([[1, 1, 1], [0, 1, 10**9]], 20, 231, [0, 1, 10**9]),
                                       ([[1, 1], [0, 3000]], 100, 101, [0, 3000])):
            seen = []
            monkeypatch.setattr(toric, "_set_layers", lambda codes, n_max: (
                seen.append(sorted(codes)) or _set_layers(codes, n_max)))
            start = time.perf_counter()
            counts = census(validate(matrix), n)
            assert time.perf_counter() - start < 1.0
            assert counts[-1] == last
            assert seen == [codes]

    def test_points_kept(self):
        basis = _levels(toric_factor(I2), 2, 10**9)
        assert basis[1] == ((0, 1), (1, 0)) == points_by_multisets(I2.columns(), 1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(signed_presentations(), st.integers(0, 5))
    def test_packed_points_match_multisets(self, p, n):
        # the labels of the semigroup ring are the points that census counts
        basis = _levels(toric_factor(p), n, 10**9)
        cols = p.columns()
        assert basis[n] == points_by_multisets(cols, n)
        assert len(basis[n]) == census(p, n)[n] == census_by_multisets(cols, n)
