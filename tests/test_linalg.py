"""linalg's Hermite form against sympy's Smith form, a test-only oracle,
linalg.solve_right against a reduced row echelon solve over Fractions, and
the sparse routines against the dense references in oracles.py."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segrecm.linalg import _echelon, hermite, integer_kernel, pivot_columns, solve_right

from oracles import dense_hermite_rows, dense_integer_kernel, solve_by_rref


def hermite_rows(rows):
    """linalg's row Hermite form of a nonempty dense integer matrix, padded
    with zero rows to the matrix's row count."""
    n = len(rows[0])
    h = hermite(_echelon([{j: v for j, v in enumerate(row) if v} for row in rows]), range(n))
    return h + [[0] * n for _ in rows[len(h):]]


def in_row_lattice(rows, vec):
    """Whether vec is an integer combination of rows.

    With D = U A V the Smith form (U, V unimodular), x A = vec has an
    integer solution exactly when y D = vec V does, y = x U^-1: each
    entry of vec V is divisible by its diagonal entry of D, and zero
    where that entry is zero or missing.
    """
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_decomp
    d, _, v = smith_normal_decomp(sympy.Matrix(rows))
    w = sympy.Matrix([vec]) * v
    diag = [d[j, j] for j in range(min(d.shape))]
    return all(w[j] % diag[j] == 0 if j < len(diag) and diag[j] else w[j] == 0
               for j in range(len(vec)))


def assert_reduced_hermite(h):
    """Nonzero rows first, leading entries positive in strictly increasing
    columns, and every entry above a leading entry in [0, that entry)."""
    nonzero = [row for row in h if any(row)]
    assert h[:len(nonzero)] == nonzero
    pivots = []
    for row in nonzero:
        c = next(j for j, x in enumerate(row) if x)
        assert row[c] > 0 and (not pivots or c > pivots[-1]), h
        pivots.append(c)
    for r, c in enumerate(pivots):
        assert all(0 <= h[i][c] < h[r][c] for i in range(r)), h


integer_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(st.lists(st.integers(-6, 6), min_size=shape[1],
                                    max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_matrices)
def test_hermite_rows_matches_sympy_lattice(rows):
    h = hermite_rows(rows)
    assert len(h) == len(rows) and all(len(row) == len(rows[0]) for row in h)
    assert_reduced_hermite(h)
    assert all(in_row_lattice(rows, row) for row in h), (rows, h)
    assert all(in_row_lattice(h, row) for row in rows), (rows, h)


def test_lattice_oracle_rejects_a_non_member():
    # (1, 0) is not in the lattice spanned by (2, 0) and (0, 3)
    assert in_row_lattice([[2, 0], [0, 3]], [4, -3])
    assert not in_row_lattice([[2, 0], [0, 3]], [1, 0])
    assert not in_row_lattice([[0, 0]], [0, 1])


@st.composite
def linear_systems(draw):
    """(A, b) with entries in -6..6; half of them gain a row that combines
    two others, which makes A rank-deficient and the system consistent
    exactly when the same combination of b is kept."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entries = st.integers(-6, 6)
    a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(entries, min_size=m, max_size=m))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        f = draw(st.integers(-3, 3))
        a.append([x + f * y for x, y in zip(a[i], a[j])])
        b.append(b[i] + f * b[j] + draw(st.sampled_from((0, 0, 1, -2))))
    return a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(linear_systems())
@example(([[2, 4], [1, 2]], [2, 2]))  # rank-deficient and inconsistent
@example(([[2, 4], [1, 2]], [-4, -2]))  # rank-deficient and consistent
@example(([[0, 3, -6]], [4]))  # a leading free coordinate, a fractional answer
@example(([[1], [2], [-3]], [1, 2, -3]))  # overdetermined and consistent
@example(([[0, 0]], [0]))  # zero matrix
@example(([[0, 0]], [1]))
@example(([], []))  # no equations: no columns to solve for
# pivots 2, 3, 5, 7: the first coordinate is -43/210
@example(([[2, 1, 1, 1], [0, 3, 1, 1], [0, 0, 5, 1], [0, 0, 0, 7]], [0, 1, 0, 1]))
# the common denominator 2 of the second coordinate cancels in the first, 0
@example(([[1, 2], [0, 2]], [1, 1]))
@example(([[2, 0], [0, 2]], [2, 4]))  # the common denominator 4 cancels in all
def test_solve_right_matches_rref(system):
    a, b = system
    x = solve_right(a, b)
    assert x == solve_by_rref(a, b)
    if x is not None:
        assert all(isinstance(v, Fraction) for v in x)
        assert all(gcd(v.numerator, v.denominator) == 1 for v in x)
        assert all(sum(r * v for r, v in zip(row, x)) == bv for row, bv in zip(a, b))


@st.composite
def sparse_matrices(draw):
    """Integer matrices up to 7 x 12 with entries in -9..9, each entry zero
    when a draw in 0..99 falls below a zero share drawn from 0 to 100."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 12))
    zeros = draw(st.integers(0, 100))
    entries = st.tuples(st.integers(0, 99), st.integers(-9, 9)).map(
        lambda t: 0 if t[0] < zeros else t[1])
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))


def monomial_exponents(nvars, degree):
    return [tuple(c.count(i) for i in range(nvars))
            for c in combinations_with_replacement(range(nvars), degree)]


# the degree-2 Veronese of K[x,y,z] # x^3, y^3, z^3, x^2 y, y z^2: 6 x 30
VERONESE_CUBICS = [list(row) for row in zip(*(
    a + b for a in monomial_exponents(3, 2)
    for b in [(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (0, 1, 2)]))]


def test_veronese_cubics_kernel_has_pivot_2():
    kernel = integer_kernel(VERONESE_CUBICS)
    assert len(VERONESE_CUBICS[0]) == 30 and len(kernel) == 25
    assert {next(x for x in row if x) for row in kernel} == {1, 2}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sparse_matrices())
@example([[1, 1, 0], [0, 2, 1]])  # the 1 above pivot 2 has quotient 0
@example([[-3, 1], [0, -2]])  # negative pivots
@example([[1, 2, 0], [0, 0, 0], [0, 3, 1]])  # a zero row between nonzero rows
@example([[0, 0, 0], [0, 0, 0]])  # the zero matrix
@example([[4], [-6], [0]])  # a single column
@example(VERONESE_CUBICS)
# the Segre product of K[x,y] and K[x,y,z]: rows 1 + 2 and 3 + 4 + 5 agree, rank 4 of 5
@example([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1],
          [1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]])
def test_sparse_routines_match_dense_references(a):
    h = dense_hermite_rows(a)
    assert hermite_rows(a) == h
    assert pivot_columns(a) == [next(j for j, x in enumerate(row) if x)
                                for row in h if any(row)]
    assert integer_kernel(a) == dense_integer_kernel(a)
    # the last column as right-hand side; with one column A has none
    system = [row[:-1] for row in a], [row[-1] for row in a]
    assert solve_right(*system) == solve_by_rref(*system)
