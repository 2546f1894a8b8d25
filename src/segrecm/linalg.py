"""Exact linear algebra over the integers and rationals.

Everything works on plain lists of Python ints or Fractions.  Matrices at
desk scale (a few hundred rows) are the target, so clarity and exactness
win over asymptotics throughout.
"""

from __future__ import annotations

from fractions import Fraction


def transpose(rows):
    return [list(col) for col in zip(*rows)]


# ---------------------------------------------------------------------------
# rational elimination


def frac_rref(rows):
    """Reduced row echelon form over the rationals.

    Returns (rref_rows, pivot_columns); the input is not modified.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def solve_right(a_rows, b):
    """One rational solution x of A x = b, or None if inconsistent.

    Free coordinates are set to zero, which makes the answer deterministic.
    """
    if not a_rows:
        return None
    n = len(a_rows[0])
    aug = [list(row) + [bv] for row, bv in zip(a_rows, b)]
    rref, pivots = frac_rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][n]
    return x


# ---------------------------------------------------------------------------
# integer elimination


def hermite_rows(rows, transform=False):
    """Row Hermite normal form of an integer matrix.

    Pivots are positive, entries above a pivot lie in [0, pivot), zero rows
    sink to the bottom.  The rows of the result span the same lattice as
    the input rows.  With transform=True also returns a unimodular U with
    U @ input == hnf.
    """
    h = [list(map(int, row)) for row in rows]
    nrows = len(h)
    ncols = len(h[0]) if h else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)] if transform else None

    def rowop_swap(i, j):
        h[i], h[j] = h[j], h[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def rowop_sub(i, q, j):
        # row_i -= q * row_j
        if q:
            h[i] = [a - q * b for a, b in zip(h[i], h[j])]
            if u is not None:
                u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def rowop_neg(i):
        h[i] = [-a for a in h[i]]
        if u is not None:
            u[i] = [-a for a in u[i]]

    r = 0
    for c in range(ncols):
        # gcd out column c below row r
        while True:
            live = [i for i in range(r, nrows) if h[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(h[i][c]))
            rowop_swap(r, i0)
            done = True
            for i in range(r + 1, nrows):
                if h[i][c] != 0:
                    rowop_sub(i, h[i][c] // h[r][c], r)
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < nrows and h[r][c] != 0:
            if h[r][c] < 0:
                rowop_neg(r)
            for i in range(r):
                rowop_sub(i, h[i][c] // h[r][c], r)
            r += 1
            if r == nrows:
                break
    if transform:
        return h, u
    return h


def integer_kernel(a_rows, canonical=True):
    """Basis of ker(A) cap Z^n for an integer matrix A.

    The kernel is tracked through unimodular row operations on the
    transpose, so the returned lattice is saturated: Z^n modulo it is
    torsion free.  With canonical=True the basis is put in row Hermite
    form with each leading entry positive, giving a reproducible answer.
    """
    ncols = len(a_rows[0])
    bt = transpose(a_rows)
    hnf, u = hermite_rows(bt, transform=True)
    kernel = [u[i] for i in range(ncols) if all(x == 0 for x in hnf[i])]
    if canonical and kernel:
        kernel = [row for row in hermite_rows(kernel) if any(row)]
    return [list(v) for v in kernel]
