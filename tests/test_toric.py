import random

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from segrecm.errors import NotStandardGraded, ResourceCap
from segrecm.toric import (ToricPresentation, census, kernel_lattice,
                           format_matrix, parse_matrix, segre, tensor,
                           validate)

from oracles import (census_by_multisets, gauss_rank, points_by_multisets,
                     smith_diagonal)

I2 = validate([[1, 0], [0, 1]])
CUBIC = validate([[1, 1, 1], [0, 1, 2]])


@st.composite
def signed_presentations(draw):
    """All-ones top row over rows with entries in -3..3, hence gradable."""
    cols = draw(st.integers(1, 5))
    rest = draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                         max_size=2))
    return validate([[1] * cols] + rest)


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
        with pytest.raises(NotStandardGraded):
            validate([[1, 2]])

    def test_certificate_rechecked_on_construction(self):
        with pytest.raises(NotStandardGraded):
            ToricPresentation(((1, 2),), (Fraction(1),))


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
            assert kernel_lattice(tensor(p, q)).rank == corank_p + corank_q


class TestSegre:
    def test_identity_pair(self):
        sg = segre(I2, I2)
        assert sg.columns() == [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
        basis = kernel_lattice(sg)
        assert basis.rank == 1
        assert basis.vectors[0] == (1, -1, -1, 1)

    def test_single_column_factor(self):
        single = validate([[1]])
        sg = segre(CUBIC, single)
        assert sg.columns() == [col + (1,) for col in CUBIC.columns()]
        assert kernel_lattice(sg).rank == CUBIC.ncols - gauss_rank(CUBIC.matrix)

    def test_census_is_pointwise_product(self):
        rng = random.Random(11)
        for _ in range(8):
            p, q = random_gradable(rng), random_gradable(rng)
            left = census(segre(p, q), 4).counts
            cp, cq = census(p, 4).counts, census(q, 4).counts
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
            assert kernel_lattice(sg).rank == sg.ncols - want


class TestKernelLattice:
    def test_polynomial_ring(self):
        assert kernel_lattice(I2).vectors == ()

    def test_twisted_cubic(self):
        assert kernel_lattice(CUBIC).vectors == ((1, -2, 1),)

    def test_annihilates_matrix(self):
        rng = random.Random(19)
        for _ in range(10):
            p = random_gradable(rng)
            for v in kernel_lattice(p).vectors:
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
            vectors = kernel_lattice(p).vectors
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
            vectors = kernel_lattice(p).vectors
            pivots = [next(j for j, x in enumerate(v) if x) for v in vectors]
            assert pivots == sorted(set(pivots))
            for r, (v, col) in enumerate(zip(vectors, pivots)):
                assert v[col] > 0
                assert all(0 <= vectors[above][col] < v[col] for above in range(r))


class TestCensus:
    def test_two_variables(self):
        assert census(I2, 3).counts == (1, 2, 3, 4)

    def test_segre_squares(self):
        assert census(segre(I2, I2), 2).counts == (1, 4, 9)

    def test_twisted_cubic(self):
        assert census(CUBIC, 2).counts == (1, 3, 5)

    def test_matches_multiset_oracle(self):
        rng = random.Random(29)
        for _ in range(6):
            p = random_gradable(rng)
            counts = census(p, 4).counts
            cols = p.columns()
            for n in range(5):
                assert counts[n] == census_by_multisets(cols, n)

    def test_cap(self):
        with pytest.raises(ResourceCap) as exc:
            census(segre(I2, I2), 10, cap=20)
        assert str(exc.value) == \
            "semigroup census: needs at least 30 entries, over the cap of 20"
        assert census(segre(I2, I2), 3, keep_points=False).points is None

    def test_points_kept(self):
        cens = census(I2, 2, keep_points=True)
        assert cens.points[1] == ((0, 1), (1, 0))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(signed_presentations(), st.integers(0, 5))
    def test_packed_points_match_multisets(self, p, n):
        cens = census(p, n, keep_points=True)
        cols = p.columns()
        assert cens.counts[n] == census_by_multisets(cols, n)
        assert cens.points[n] == points_by_multisets(cols, n)
        assert len(cens.points[n]) == cens.counts[n]


class TestMatrixFormat:
    def test_round_trip(self):
        text = format_matrix(CUBIC.matrix)
        assert parse_matrix(text) == CUBIC.matrix

    def test_parse_errors(self):
        for bad in ("", "2\n1 2", "1 2\n1", "1 2\n1 x"):
            with pytest.raises(ValueError):
                parse_matrix(bad)
