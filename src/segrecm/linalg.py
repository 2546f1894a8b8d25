"""Exact linear algebra over the integers.

Everything works on plain lists of Python ints, by integer elimination to
the row Hermite normal form; only the answer of solve_right is rational.
Matrices at desk scale (a few hundred rows) are the target, so clarity
and exactness win over asymptotics throughout.
"""

from __future__ import annotations

from fractions import Fraction


def solve_right(a_rows, b):
    """One rational solution x of A x = b, or None if inconsistent.

    The row Hermite form of [A | b] has the row space, hence the pivots,
    of the reduced echelon form: b is a pivot exactly when inconsistent.
    Free coordinates are set to zero, which makes the answer deterministic,
    and back-substitution from the last pivot row gives the rest.
    """
    if not a_rows:
        return None
    n = len(a_rows[0])
    x = [Fraction(0)] * n
    for row in reversed(hermite_rows([list(row) + [bv] for row, bv in zip(a_rows, b)])):
        pc = next((j for j, v in enumerate(row) if v), None)
        if pc == n:
            return None
        if pc is not None:
            rest = sum(v * xj for v, xj in zip(row[pc + 1:n], x[pc + 1:]))
            x[pc] = Fraction(row[n] - rest, row[pc])
    return x


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
