"""Exact linear algebra over the integers.

One echelon step on sparse rows, {column: entry} dicts of Python ints,
serves every routine, so a gcd step costs only the nonzeros of its pivot
row.  integer_kernel takes the Hermite form of the kernel tails only, and
solve_right back-substitutes in integers: only its answer is rational.
"""

from fractions import Fraction
from operator import index


def _subtract(row, q, pivot):
    """row -= q * pivot in place, for q != 0, keeping only nonzero entries."""
    for j, v in pivot.items():
        x = row.get(j, 0) - q * v
        if x:
            row[j] = x
        else:
            del row[j]


def _echelon(rows, columns):
    """(pivots, rest) for sparse rows echeloned on the increasing columns:
    pivots lists (c, row) by increasing c, row[c] > 0 and row zero on the
    columns before c, and the rest rows are zero on every column.  The
    steps are unimodular, so pivots and rest span the lattice of the rows.
    """
    pivots = []
    for c in columns:
        live = [row for row in rows if c in row]
        rows = [row for row in rows if c not in row]
        # gcd out column c: reduce by the smallest entry until one is left
        while len(live) > 1:
            p = min(live, key=lambda row: abs(row[c]))
            left = [p]
            for row in live:
                if row is not p:
                    _subtract(row, row[c] // p[c], p)
                    (left if c in row else rows).append(row)
            live = left
        for p in live:  # the one row left, if any
            pivots.append((c, p if p[c] > 0 else {j: -v for j, v in p.items()}))
    return pivots, rows


def _hermite(rows, ncols):
    """Row Hermite normal form of sparse rows on columns 0..ncols-1, dense."""
    pivots, rest = _echelon(rows, range(ncols))
    for k, (c, p) in enumerate(pivots):
        for _, row in pivots[:k]:
            q = row.get(c, 0) // p[c]
            if q:
                _subtract(row, q, p)
    return ([[row.get(j, 0) for j in range(ncols)] for _, row in pivots]
            + [[0] * ncols for _ in rest])


def solve_right(a_rows, b):
    """One rational solution x of A x = b, or None if inconsistent.

    An echelon form of [A | b] has the pivots of the reduced one: b is a
    pivot exactly when inconsistent.  Free coordinates are set to zero,
    which makes the answer deterministic, and back-substitution from the
    last pivot row gives the rest as integers over the pivots' product.
    """
    if not a_rows:
        return None
    n = len(a_rows[0])
    pivots, rest = _echelon([{j: v for j, v in enumerate(map(index, [*row, bv])) if v}
                             for row, bv in zip(a_rows, b)], range(n))
    if any(rest):
        return None
    y, d = {}, 1
    for c, row in reversed(pivots):
        # with x_j = y_j / d: d row[c] x_c = d b - the sum of v y_j = t
        t = row.get(n, 0) * d - sum(v * y[j] for j, v in row.items() if j in y)
        y = {j: v * row[c] for j, v in y.items()}
        d *= row[c]
        y[c] = t
    return [Fraction(y.get(j, 0), d) for j in range(n)]


def pivot_columns(rows):
    """Pivot columns of the row Hermite form, which an echelon form shares."""
    pivots, _ = _echelon([{j: v for j, v in enumerate(map(index, row)) if v} for row in rows],
                         range(len(rows[0]) if rows else 0))
    return [c for c, _ in pivots]


def integer_kernel(a_rows):
    """Basis of ker(A) cap Z^n for an integer matrix A, in row Hermite form.

    Row i of [A^T | I] is column i of A, kept on columns n.., and the tail
    e_i.  The rows an echelon form of the A^T part leaves zero there span
    the (0, u) with u A^T = 0, so the Hermite form of their tails alone is
    the unique Hermite basis of the kernel, a saturated lattice: Z^n
    modulo it is torsion free.  The pivot rows are dropped unreduced.
    """
    m, n = len(a_rows), len(a_rows[0])
    # last rows first: ties pivot on late columns, mostly free in the answer
    rows = [{i: 1} | {n + j: v for j, v in enumerate(map(index, col)) if v}
            for i, col in reversed(list(enumerate(zip(*a_rows))))]
    return _hermite(_echelon(rows, range(n, n + m))[1], n)
