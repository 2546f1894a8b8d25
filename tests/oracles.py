"""Independent brute-force oracles used by the tests.

Deliberately separate implementations from the package: series expansion
by truncated multiplication, census by multiset enumeration, rank by a
local Gaussian elimination, Smith elementary divisors by unimodular row
and column operations, graded hom by one dense linear solve, and the
depth witnesses and uniform twist criterion by visiting every subset.  They
share data structures with the package but not algorithms.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement


def gauss_rank(rows):
    """Rank over the rationals by straightforward elimination."""
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def expand_series(pairs, denom_power, lo, hi):
    """Coefficients of (sum c t^e) / (1-t)^d on [lo, hi] by multiplying
    out the truncated geometric series, no binomials involved."""
    lo0 = min((e for e, _ in pairs), default=0)
    coeffs = {e: c for e, c in pairs}
    dense = [coeffs.get(n, 0) for n in range(lo0, hi + 1)]
    for _ in range(denom_power):
        run = 0
        out = []
        for v in dense:
            run += v
            out.append(run)
        dense = out
    return [dense[n - lo0] if n >= lo0 else 0 for n in range(lo, hi + 1)]


def points_by_multisets(columns, n):
    """Sorted distinct sums of exactly n columns, enumerated one multiset
    at a time rather than by breadth-first closure."""
    dim = len(columns[0])
    seen = set()
    for combo in combinations_with_replacement(range(len(columns)), n):
        total = [0] * dim
        for idx in combo:
            for i, x in enumerate(columns[idx]):
                total[i] += x
        seen.add(tuple(total))
    return tuple(sorted(seen))


def census_by_multisets(columns, n):
    """Number of distinct sums of exactly n columns."""
    return len(points_by_multisets(columns, n))


def smith_diagonal(a_rows):
    """Elementary divisors d1 | d2 | ... (positive, nonzero) of A."""
    a = [list(map(int, row)) for row in a_rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0

    def col_sub(j, q, k):
        if q:
            for i in range(nrows):
                a[i][j] -= q * a[i][k]

    def col_swap(j, k):
        for i in range(nrows):
            a[i][j], a[i][k] = a[i][k], a[i][j]

    t = 0
    while t < min(nrows, ncols):
        while True:
            entries = [(abs(a[i][j]), i, j)
                       for i in range(t, nrows) for j in range(t, ncols)
                       if a[i][j] != 0]
            if not entries:
                return [abs(a[i][i]) for i in range(t) if a[i][i] != 0]
            _, pi, pj = min(entries)
            a[t], a[pi] = a[pi], a[t]
            col_swap(t, pj)
            # one reduction pass; leftover remainders are strictly smaller
            # than the pivot, so re-selecting the minimum terminates
            for i in range(nrows):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(ncols):
                if j != t and a[t][j] != 0:
                    col_sub(j, a[t][j] // a[t][t], t)
            clear = all(a[i][t] == 0 for i in range(nrows) if i != t) and \
                all(a[t][j] == 0 for j in range(ncols) if j != t)
            if clear:
                break
        # force divisibility of the remaining block by a[t][t]
        bad = next(((i, j) for i in range(t + 1, nrows) for j in range(t + 1, ncols)
                    if a[i][j] % a[t][t] != 0), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad[0]])]
            continue
        t += 1
    diag = [abs(a[i][i]) for i in range(min(nrows, ncols)) if a[i][i] != 0]
    return diag


def dense_hom_dim(mod, ring, i):
    """Hom dimension at degree i by enumerating all map families at once.

    One unknown c[k, m, t] per module label m of degree k and ring label
    t of degree k + i, over every degree of the module support.  For each
    generator g, label m and ring label s of degree k + i + 1 one equation
    reads phi(g m) = g phi(m) at s, with label arithmetic done here on
    plain sets.  The whole system is solved in one elimination; valid
    only for exact data (complete module over a ring with visible
    vanishing).
    """
    assert mod.complete and ring.complete
    sup = mod.support()
    k_min, k_max = sup[0], sup[-1]
    assert k_max < mod.hi, "support must end inside the window"

    def ring_level(d):
        return ring.basis[d] if 0 <= d <= ring.hi else ()

    def plus(u, v, sign=1):
        return tuple(x + sign * y for x, y in zip(u, v))

    var = {}
    for k in range(k_min, k_max + 1):
        for m in mod.basis[k - mod.lo]:
            for t in ring_level(k + i):
                var[k, m, t] = len(var)
    eqs = []
    for k in range(k_min, k_max + 1):
        module_above = set(mod.basis[k + 1 - mod.lo])
        ring_now = set(ring_level(k + i))
        for m in mod.basis[k - mod.lo]:
            for g in ring.basis[1]:
                gm = plus(m, g)
                for s in ring_level(k + i + 1):
                    row = [0] * len(var)
                    if gm in module_above:
                        row[var[k + 1, gm, s]] += 1
                    t = plus(s, g, -1)
                    if t in ring_now:
                        row[var[k, m, t]] -= 1
                    if any(row):
                        eqs.append(row)
    return len(var) - gauss_rank(eqs)


def support_witnesses(factors):
    """Every (q, subset, lo, hi) with overlapping support rays, sorted,
    by visiting all 2^m - 1 nonempty subsets of (dim, a_inv, shift)
    factors; subsets are 1-based."""
    m = len(factors)
    found = []
    for size in range(1, m + 1):
        for subset in combinations(range(1, m + 1), size):
            q = sum(factors[i - 1][0] for i in subset) - (size - 1)
            lo = max((-factors[i - 1][2] for i in range(1, m + 1)
                      if i not in subset), default=None)
            hi = min(factors[i - 1][1] - factors[i - 1][2] for i in subset)
            if lo is None or lo <= hi:
                found.append((q, subset, lo, hi))
    return sorted(found)


def uniform_twist_by_subsets(rhos, a):
    """The uniform twist criterion checked on all 2^m - 2 proper nonempty
    subsets E: max of a rho_i off E exceeds min of (a - 1) rho_i on E."""
    m = len(rhos)
    for size in range(1, m):
        for subset in combinations(range(m), size):
            big = max(a * rhos[i] for i in range(m) if i not in subset)
            small = min((a - 1) * rhos[i] for i in subset)
            if not big > small:
                return False
    return True
