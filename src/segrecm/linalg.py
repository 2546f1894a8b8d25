"""Exact linear algebra over the integers.

Every routine runs one echelon pass on sparse rows, {column: entry} dicts of
Python ints, that clears their columns in increasing order, so a gcd step
costs only the nonzeros of its pivot row.  integer_kernel keys A^T at 0..m-1
to clear it first; solve_right back-substitutes over one integer denominator.
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


def _echelon(rows):
    """Pivots (c, row) of sparse rows echeloned on the columns they use, by
    increasing c: row[c] > 0 and row zero on the columns before c.  A step
    writes only to those columns, and it is unimodular, so the pivots span
    the lattice of the rows.
    """
    pivots = []
    for c in sorted(set().union(*rows)):
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
    return pivots


def _hermite(pivots, cols):
    """Row Hermite normal form of the _echelon pivots on the range cols, dense on cols."""
    pivots = [(c, p) for c, p in pivots if c in cols]
    for k, (c, p) in enumerate(pivots):
        for _, row in pivots[:k]:
            q = row.get(c, 0) // p[c]
            if q:
                _subtract(row, q, p)
    return [[row.get(j, 0) for j in cols] for _, row in pivots]


def solve_right(a_rows, b):
    """One rational solution x of A x = b, or None if inconsistent.

    An echelon form of [A | b] has the pivots of the reduced one: the b
    column n is a pivot exactly when inconsistent.  Free coordinates are
    set to zero, which makes the answer deterministic, and back-substitution
    from the last pivot row gives the rest as integers over the pivots' product.
    """
    if not a_rows:
        return None
    n = len(a_rows[0])
    pivots = _echelon([{j: v for j, v in enumerate(map(index, [*row, bv])) if v}
                       for row, bv in zip(a_rows, b)])
    if pivots and pivots[-1][0] == n:
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
    return [c for c, _ in _echelon([{j: v for j, v in enumerate(map(index, row)) if v}
                                    for row in rows])]


def integer_kernel(a_rows):
    """Basis of ker(A) cap Z^n for an integer matrix A, in row Hermite form.

    Row i of [A^T | I] is column i of A, keyed 0..m-1, then e_i, keyed
    m..m+n-1.  One echelon pass clears A^T first, so the pivots on columns
    m.. span the (0, u) with u A^T = 0.  Their Hermite form, the pivots on
    A^T dropped unreduced, is the unique Hermite basis of the saturated kernel.
    """
    m, n = len(a_rows), len(a_rows[0])
    # last rows first: ties pivot on late columns, mostly free in the answer
    rows = [{m + i: 1} | {j: v for j, v in enumerate(map(index, col)) if v}
            for i, col in reversed(list(enumerate(zip(*a_rows))))]
    return _hermite(_echelon(rows), range(m, m + n))
