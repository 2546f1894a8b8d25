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


def hermite_rows(rows):
    """Row Hermite normal form of an integer matrix.

    Pivots are positive, entries above a pivot lie in [0, pivot), zero rows
    sink to the bottom.  The rows of the result span the same lattice as
    the input rows, and the form is unique for that lattice.
    """
    h = [list(map(int, row)) for row in rows]
    nrows = len(h)
    ncols = len(h[0]) if h else 0
    r = 0
    for c in range(ncols):
        # gcd out column c below row r
        while True:
            live = [i for i in range(r, nrows) if h[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(h[i][c]))
            h[r], h[i0] = h[i0], h[r]
            done = True
            for i in range(r + 1, nrows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < nrows and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-a for a in h[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
            r += 1
            if r == nrows:
                break
    return h


def integer_kernel(a_rows):
    """Basis of ker(A) cap Z^n for an integer matrix A, in row Hermite form.

    The row Hermite form of [A^T | I] spans {(u A^T, u) : u in Z^n}; its
    rows with zero A^T part span exactly the pairs with u A^T = 0 and
    are themselves in Hermite form, so their identity-part tails are the
    unique Hermite basis of the kernel.  That lattice is saturated: Z^n
    modulo it is torsion free.
    """
    m = len(a_rows)
    n = len(a_rows[0])
    aug = [list(col) + [int(i == j) for j in range(n)]
           for i, col in enumerate(zip(*a_rows))]
    return [row[m:] for row in hermite_rows(aug) if not any(row[:m])]
