"""Independent brute-force oracles used by the tests.

Deliberately separate implementations from the package: series expansion
by truncated multiplication, census by multiset enumeration, rank by a
local Gaussian elimination, linear solves by reduced row echelon form
over the rationals, Hermite forms and integer kernels by dense
elimination on whole rows, Smith elementary divisors by unimodular row
and column operations, graded hom by seed propagation on truncated
modules and by one dense linear solve, the depth witnesses and uniform
twist criterion by visiting every subset, two-factor depth by a
closed-form case split, and the uniform twist chain and the twist
interval by its largest ratio in Fractions.  They share data structures
with the package but not algorithms.  format_matrix writes the matrix
files that the --matrix flag of segrecm.cli reads, and nonzero maps each
degree of a friendliness report to its dimension where that is not zero.
"""

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import add, ge, sub
from typing import Optional

from segrecm.cohomo import DepthReport, Witness
from segrecm.oracle import monomial_str


def format_matrix(rows):
    """Matrix file text: a line "r n", then r rows of n integers."""
    return "".join(f"{' '.join(map(str, row))}\n" for row in [(len(rows), len(rows[0])), *rows])


def nonzero(degrees, dims):
    return {i: d for i, d in zip(degrees, dims) if d}


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


def solve_by_rref(a_rows, b):
    """One rational solution x of A x = b with every free coordinate zero,
    read off the reduced row echelon form of [A | b]; None if inconsistent."""
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


def dense_hermite_rows(rows):
    """Row Hermite normal form by dense integer elimination: for each
    column, gcd out the entries below the pivot row by repeated division
    with the smallest, then reduce the entries above into [0, pivot)."""
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


def dense_integer_kernel(a_rows):
    """Hermite basis of ker(A) cap Z^n: the identity-part tails of the rows
    of dense_hermite_rows([A^T | I]) whose A^T part is zero."""
    m = len(a_rows)
    n = len(a_rows[0])
    aug = [list(col) + [int(i == j) for j in range(n)]
           for i, col in enumerate(zip(*a_rows))]
    return [row[m:] for row in dense_hermite_rows(aug) if not any(row[:m])]


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


# ---------------------------------------------------------------------------
# truncated graded modules and seed-propagation Hom: the reference for the
# exact multidegree count of segrecm.oracle.friendliness
#
# A truncated module is a window start and, per degree, a tuple of labels.
# A ring is the free module over itself, starting in degree 0 and
# generated by its degree-1 labels; multiplying by a generator is label
# addition followed by a membership test in the next degree.  A degree-i
# Hom family sends the basis element m to sum_t c[m, t] t, and commuting
# with a generator g couples only c[m, t] with c[m+g, t+g], so the
# dimension is the number of components of pairs (m, t) that no equation
# forces to zero.  hom_window propagates seed pairs from the lowest module
# degree as a union-find; its dimension is exact when the module and ring
# supports are provably enclosed in their windows (certified degrees), and
# otherwise an upper bound.


def _first_unspanned(levels, gens):
    """Offset of the first level above the lowest nonzero one holding a
    label that is no generator plus a label of the level below, or None."""
    start = next((off for off, level in enumerate(levels) if level), len(levels))
    for off in range(start + 1, len(levels)):
        below = set(levels[off - 1])
        if not all(any(tuple(map(sub, n, g)) in below for g in gens)
                   for n in levels[off]):
            return off
    return None


@dataclass(frozen=True)
class TruncatedModule:
    """Graded module truncated to the window [lo, hi], hi = lo + len(basis) - 1.

    Degrees below lo are provably zero (windows start at the vanishing
    bound); complete means degrees above hi are provably zero too.
    basis is indexed by k - lo and holds labels that the ring's
    generators act on by label addition.  A ring is the free module
    over itself: lo = 0, a one-dimensional degree 0, and gens, its
    degree-1 labels, generate it.
    """

    lo: int
    basis: tuple[tuple[tuple[int, ...], ...], ...]
    complete: bool
    name: str = ""

    @property
    def hi(self):
        return self.lo + len(self.basis) - 1

    @property
    def gens(self):
        """The degree-1 labels, which generate a ring."""
        return self.basis[1 - self.lo] if self.lo <= 1 <= self.hi else ()

    def dim(self, k):
        """Dimension of the degree k piece, or None when truncated away."""
        if k < self.lo:
            return 0
        if k <= self.hi:
            return len(self.basis[k - self.lo])
        return 0 if self.complete else None

    def dims(self):
        """Mapping degree -> dimension over the window."""
        return {self.lo + off: len(b) for off, b in enumerate(self.basis)}

    def support(self):
        return [self.lo + off for off, b in enumerate(self.basis) if b]


def _levels(gens, n_max, vanishes=lambda label: False):
    """Labels of degrees 0..n_max of the ring generated by the degree-1
    labels gens, each level sorted: level k plus each generator, less the
    labels that vanish, padded with () above the first empty level."""
    levels = [((0,) * len(gens[0]),)]
    while len(levels) <= n_max and levels[-1]:
        sums = {tuple(map(add, label, g)) for label in levels[-1] for g in gens}
        levels.append(tuple(sorted(s for s in sums if not vanishes(s))))
    return tuple(levels) + ((),) * (n_max + 1 - len(levels))


def algebra_from_monomial_quotient(names, relations, n_max):
    """Quotient of a polynomial ring by monomial relations, to degree n_max.

    The degree k labels are the exponent vectors of the degree k
    monomials divisible by no relation, found by _levels from the unit
    vectors.
    """
    names = list(names)
    if not names:
        raise ValueError("need at least one variable")
    if n_max < 1:
        raise ValueError("truncation degree must be at least 1")
    nvars = len(names)
    rels = [tuple(int(x) for x in rel) for rel in relations]
    for rel in rels:
        if len(rel) != nvars or any(x < 0 for x in rel) or sum(rel) == 0:
            raise ValueError(f"bad relation exponent vector {rel}")
    rel_names = ", ".join(monomial_str(names, r) for r in rels)
    name = f"K[{','.join(names)}]" + (f"/({rel_names})" if rels else "")
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    basis = _levels(units, n_max, lambda label: any(all(map(ge, label, r)) for r in rels))
    return TruncatedModule(0, basis, complete=not basis[n_max], name=name)


def algebra_from_toric(pres, n_max):
    """Semigroup ring of a toric presentation, truncated to degree n_max.

    Labels are the semigroup elements per degree; a sum of two labels is
    always a label, so multiplication never vanishes.
    """
    if n_max < 1:
        raise ValueError("truncation degree must be at least 1")
    basis = _levels(pres.columns(), n_max)
    return TruncatedModule(0, basis, complete=False, name=f"toric[{pres.nrows}x{pres.ncols}]")


def shift_module(mod, a):
    """Twist by a: degree k of the result is degree k + a of the input."""
    return replace(mod, lo=mod.lo - a)


def segre_module(m, n):
    """Degreewise product of two modules, or of two rings.

    The window is the intersection of the factor windows; labels are
    concatenations, row-major in the factor bases, so the product of two
    rings has the concatenated pairs of degree-1 labels as generators.
    The result is complete when either factor is complete with support
    inside the intersection.
    """
    lo = max(m.lo, n.lo)
    hi = min(m.hi, n.hi)
    if lo > hi:
        raise ValueError(
            f"windows [{m.lo}, {m.hi}] and [{n.lo}, {n.hi}] do not overlap")
    name = f"{m.name} # {n.name}"
    basis = tuple(tuple(p + q for p in m.basis[k - m.lo] for q in n.basis[k - n.lo])
                  for k in range(lo, hi + 1))
    # a factor provably zero outside the common window makes the product so
    complete = any(f.complete and all(lo <= k <= hi for k in f.support())
                   for f in (m, n))
    return TruncatedModule(lo, basis, complete, name)


@dataclass(frozen=True)
class HomWindowReport:
    """Dimensions of degree-i hom families for i in [i_lo, i_hi].

    dims[i - i_lo] is the solution dimension (None when the truncation
    made degree i unmodelable), squares counts the propagation steps
    whose equations were applied, and clipped records whether the window
    boundary cut the computation.  exact means both the module support
    and the ring support were provably enclosed, so every dimension
    equals the actual graded Hom dimension; inexact dimensions are upper
    bounds.
    """

    i_lo: int
    i_hi: int
    dims: tuple[Optional[int], ...]
    squares: tuple[int, ...]
    clipped: tuple[bool, ...]
    exact: bool

    def dim_at(self, i):
        return self.dims[i - self.i_lo]

    def certified(self, i):
        """True when the dimension at degree i is provably exact.

        A degree is certified when its computation never touched the
        truncation boundary: it ended through a provably zero codomain,
        the death of every component, or the visible end of the module
        support.
        """
        off = i - self.i_lo
        return self.dims[off] is not None and not self.clipped[off]


def _successors(levels, gens):
    """succ[k][j][g]: index of label j of level k plus generator g in
    level k + 1, or None when the sum is not a label there.  The top
    level maps into an empty level, so all its products vanish."""
    out = []
    for level, above in zip(levels, levels[1:] + ((),)):
        index = {label: j for j, label in enumerate(above)}
        out.append([tuple(index.get(tuple(map(add, label, g))) for g in gens)
                    for label in level])
    return out


class _Components:
    """Union-find over the generators plus one class for the forced zeros.

    Every merge of two classes removes one live component: either two
    live ones become one, or a live one joins the zeros.
    """

    def __init__(self, seeds):
        self.parent = list(range(seeds + 1))
        self.zero = seeds
        self.live = seeds

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx
            self.live -= 1


def _live_components(mod, ring, i, k, m_succ, t_succ, in_degree):
    """(dimension or None, steps applied, clipped) for one hom degree.

    Nodes are pairs (m, t) of label indices in module degree k and ring
    degree k + i, k starting at the lowest nonzero module degree, and the
    front holds the pairs reached so far that are not forced to zero.  A step
    to degree k + 1 links (m, t) to (m+g, t+g) and forces a component to
    zero when m+g vanishes while t+g does not, or when a pair (n, s) is
    reached by fewer front pairs than n has predecessors in the module:
    then some predecessor's partner s-g is not a label.
    """
    d_cod = ring.dim(k + i)
    if d_cod is None:
        return None, 0, True
    if d_cod == 0:
        # zero codomain at the generating degree forces the zero family
        return 0, 0, False
    comps = _Components(mod.dim(k) * d_cod)
    front = {(j, t): j * d_cod + t for j in range(mod.dim(k)) for t in range(d_cod)}
    squares = 0
    while True:
        d_next, c_next = mod.dim(k + 1), ring.dim(k + i + 1)
        if d_next is None or c_next is None:
            return comps.live, squares, True
        if d_next == 0 and c_next == 0:
            break
        squares += 1
        edges = {}
        for (j, t), node in front.items():
            for n, s in zip(m_succ[k - mod.lo][j], t_succ[k + i][t]):
                if s is None:
                    continue
                if n is None:
                    comps.union(comps.zero, node)
                else:
                    edges.setdefault((n, s), []).append(node)
        front = {}
        for (n, s), nodes in edges.items():
            root = nodes[0]
            for node in nodes[1:]:
                comps.union(root, node)
            if len(nodes) < in_degree[k + 1 - mod.lo][n]:
                comps.union(comps.zero, root)
            front[n, s] = root
        if not comps.live:
            return 0, squares, False
        if d_next == 0:
            break
        # pairs forced to zero only spread zeros; drop them from the front
        zero = comps.find(comps.zero)
        front = {pair: node for pair, node in front.items()
                 if comps.find(node) != zero}
        k += 1
    return comps.live, squares, False


def hom_window(mod, ring, i_lo, i_hi):
    """Degreewise dimensions of hom families from mod to ring raising degree by i.

    A family assigns to each degree k a map from the module piece to the
    ring piece k + i, commuting with all degree-1 multiplications; over a
    standard graded ring these are exactly the graded hom components.
    Raises ValueError unless the ring is standard graded and the module
    is generated in its lowest degree, the two facts seeding rests on.
    """
    if i_lo > i_hi:
        raise ValueError(f"hom window {i_lo}..{i_hi} is empty")
    if ring.lo != 0 or ring.dim(0) != 1:
        raise ValueError("ring degree 0 must be one-dimensional")
    gens = ring.gens
    k = _first_unspanned(ring.basis, gens)
    if k is not None:
        raise ValueError(
            f"ring degree {k} is not spanned by degree-1 products; "
            f"the ring is not standard graded")
    support = mod.support()
    if not support:
        raise ValueError(
            f"module window [{mod.lo}, {mod.hi}] has no nonzero component")
    off = _first_unspanned(mod.basis, gens)
    if off is not None:
        raise ValueError(
            f"module degree {mod.lo + off} is not generated from the "
            f"lowest component; hom propagation would be unsound")
    m_succ = _successors(mod.basis, gens)
    t_succ = _successors(ring.basis, gens)
    # in_degree[off][n]: the (label, generator) pairs one level down reaching n
    in_degree = [Counter()] + [Counter(n for row in level for n in row if n is not None)
                               for level in m_succ]
    dims, squares, clipped = [], [], []
    for i in range(i_lo, i_hi + 1):
        d, sq, cl = _live_components(mod, ring, i, support[0], m_succ, t_succ, in_degree)
        dims.append(d)
        squares.append(sq)
        clipped.append(cl)
    exact = mod.complete and ring.complete and not any(clipped)
    return HomWindowReport(i_lo, i_hi, tuple(dims), tuple(squares),
                           tuple(clipped), exact)


def support_witnesses(factors):
    """Every (q, subset, lo, hi) with overlapping support rays, sorted,
    by visiting all 2^m - 1 nonempty subsets of (d, s, h) factors: lo is
    the largest s off the subset, hi the least h on it; subsets are
    1-based."""
    m = len(factors)
    found = []
    for size in range(1, m + 1):
        for subset in combinations(range(1, m + 1), size):
            q = sum(factors[i - 1][0] for i in subset) - (size - 1)
            lo = max((factors[i - 1][1] for i in range(1, m + 1)
                      if i not in subset), default=None)
            hi = min(factors[i - 1][2] for i in subset)
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


def chain_by_fractions(rhos, a):
    """The chain C^(m-1) rho_m > ... > C rho_2 > rho_1 as stated, for
    non-increasing rhos and C = b/(b - 1), b = max(a, 1 - a) > 1: every
    C^j rho_(j+1) is taken in Fractions and compared with the next."""
    b = max(a, 1 - a)
    values = [Fraction(b, b - 1) ** j * rho for j, rho in enumerate(rhos)]
    return all(map(Fraction.__lt__, values, values[1:]))


def twist_interval_by_fractions(rhos):
    """(lo, hi) of the twist interval of positive non-increasing rhos, or
    (None, None) when every ratio is 1, with the largest ratio taken over
    Fractions: (1/(1-rho), rho/(rho-1)) for rho = max rho_i / rho_(i+1)."""
    ratio = max((Fraction(rhos[i], rhos[i + 1]) for i in range(len(rhos) - 1)), default=1)
    if ratio == 1:
        return None, None
    return Fraction(1) / (1 - ratio), ratio / (ratio - 1)


def prop_depth_m2(r, s, rho, sigma, a, b):
    """Depth of R(a) # S(b) for two Gorenstein factors by case analysis.

    r, s are the dimensions (each >= 1), rho, sigma the a-invariants and
    a, b the shifts.  Witness subsets follow the input order: factor 1 is
    R.  The depth case split swaps the factors so that r >= s; the module
    is symmetric in the two.
    """
    if min(r, s) < 1:
        raise ValueError(f"dimensions must be >= 1, got {r} and {s}")
    dim = r + s - 1
    witnesses = [Witness(dim, (1, 2), None, min(rho - a, sigma - b))]
    if b - a <= sigma:
        witnesses.append(Witness(s, (2,), -a, sigma - b))
    if a - b <= rho:
        witnesses.append(Witness(r, (1,), -b, rho - a))
    witnesses.sort(key=lambda w: (w.q, w.subset))
    if r < s:
        r, s, rho, sigma, a, b = s, r, sigma, rho, b, a
    if r == s == 1:
        depth = 1
    elif r == s:
        depth = r if (a - b >= -sigma or a - b <= rho) else dim
    elif s == 1:
        depth = 1 if b - a <= sigma else dim
    else:
        if b - a <= sigma:
            depth = s
        elif a - b <= rho:
            depth = r
        else:
            depth = dim
    return DepthReport(dim, depth, tuple(witnesses))
