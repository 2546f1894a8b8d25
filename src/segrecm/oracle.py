"""Exact graded Hom into Segre products, one multidegree at a time.

Every ring here is a standard graded monomial ring: the labels of degree
k are the exponent vectors of the degree-k monomials (or semigroup
elements) in the degree-1 labels, less those divisible by a relation.
Quotients of a polynomial ring by monomial relations and semigroup rings
share one layer step.  The question is the comparison of Goto-Watanabe:
for T = R # S and M = R(a) # S(b), is dim Hom_T(M, T)_i equal to
dim (R(-a) # S(-b))_i, the product of the factor duals?

Proof of the count.  Swapping the factors changes neither side, so let
a <= b.  M is generated in degree k0 = -a by G = R_0 x S_{b-a} = {1} x
G_S, because standard graded rings are generated in degree 1.  M, T and
the action of T_1 are graded by the multidegrees of the labels, so
Hom_T(M, T)_i splits into pieces of multidegree (t, u), |t| = i - a and
|u| = i - b, nonzero only for t a label of R.  A map of that multidegree sends the generator
g of G_S to c_g (t, g + u), so c_g is free only when g + u is a label of
S (g is a candidate) and is 0 otherwise.  The relations of M among its
generators are x g = x' g' when g + x = g' + x' =: m is a label of M,
for labels x, x' of T, and x g = 0 when m = g + x is not, that is when
its part in S is a multiple of a relation r: read r as one more
generator g', of the zero class.  Applying the map: two generators are
linked (c_g = c_g', a zero if g' is no candidate or a relation) when
some such m has m + (t, u) a label of T.  So the piece has dimension
the number of classes of candidates under the links that hold no
non-candidate and no relation: a union-find with a zero class.

Only minimal witnesses need testing, since vanishing is upward-closed
and being a label is downward-closed on a quotient.  Write x = (y, z),
deg y = deg z = d.  On the R side, y and t + y are labels for some y of
degree d exactly when d <= h(t), the height of t: the largest degree of
a label that is a multiple of t, less that of t (any d on a domain).  A
common multiple m of g and g' is at least mu = max(g, g'), and m + u is
a label only if mu + u is; the degrees m - g then form an interval from
deg mu - deg g, because they are those of the standard monomials of
(I : x^mu) + (I : x^(mu+u)) shifted by deg mu - deg g, and they must
meet [0, h(t)] on the R side.  So g and g' are linked when mu and mu + u
are labels and deg mu - deg g <= h(t).  For a relation g' = r, mu is
no label and g + z vanishes exactly when z >= mu - g, so g and r are
linked when mu + u is a label and deg mu - deg g <= h(t).  If S has no
relations it is a domain: every sum of labels is a label, so it links
g, g' from the least degree d with (g + S_d) meeting (g' + S_d).  When
neither factor has relations every candidate links and no class is
zero, so a piece is 1 exactly when every generator is a candidate, which
counts factor by factor: dim Hom_i = N_R(i) N_S(i), N_R(i) = #{p in
R_{k0+i} : p - g0 + G_R lies in R_{k0+i}} for any g0 in G_R.  So every
dimension is exact on every degree of the window.
"""

from collections import Counter
from functools import cached_property
from operator import add, ge, index, sub

from .errors import DEFAULT_POINT_CAP, Record, WindowTooSmall, check_cap


class Factor(Record):
    """A standard graded monomial ring, generated by the degree-1 labels
    gens, less the labels divisible by a relation (both int tuples).
    Relations belong to quotients of a polynomial ring, whose gens are the
    unit vectors; without relations a factor is a domain, a semigroup ring."""

    _fields = ("name", "gens", "relations")


def monomial_str(names, exps):
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def monomial_factor(names, relations):
    """The quotient of a polynomial ring in one or more distinct names, each
    an identifier, by monomial relations, each a nonzero exponent vector of
    natural numbers."""
    names = list(names)
    if not names:
        raise ValueError("need at least one variable")
    for name in names:
        if not str.isidentifier(name):  # TypeError for a name that is no str
            raise ValueError(f"variable name {name!r} is not an identifier")
    if len(set(names)) < len(names):
        raise ValueError(f"{','.join(names)} repeats a variable name")
    nvars = len(names)
    rels = tuple(tuple(map(index, rel)) for rel in relations)
    for rel in rels:
        if len(rel) != nvars or any(x < 0 for x in rel) or sum(rel) == 0:
            raise ValueError(f"bad relation exponent vector {rel} for {','.join(names)}")
    rel_names = ", ".join(monomial_str(names, r) for r in rels)
    name = f"K[{','.join(names)}]" + (f"/({rel_names})" if rels else "")
    units = tuple(tuple(int(i == j) for j in range(nvars)) for i in range(nvars))
    return Factor(name, units, rels)


def toric_factor(pres):
    """The semigroup ring of a toric presentation."""
    from .toric import ToricPresentation  # imported when called, so loading oracle loads no toric
    ToricPresentation.check(pres)
    return Factor(f"toric[{pres.nrows}x{pres.ncols}]", tuple(pres.columns()), ())


def _levels(factor, n_max, cap):
    """Labels of degrees 0..n_max of factor, each level sorted.

    Level k + 1 is level k plus each generator, less the labels divisible
    by a relation: the labels of a standard graded monomial ring form an
    order ideal under adding generators.  The first empty level stays
    empty above, so the rest is padded with ().  ResourceCap counts the
    n_max + 1 levels, then the running total of the labels built.
    """
    check_cap(n_max + 1, cap, f"labels of {factor.name}")
    levels, total = [((0,) * len(factor.gens[0]),)], 1
    while len(levels) <= n_max and levels[-1]:
        sums = {tuple(map(add, label, g)) for label in levels[-1] for g in factor.gens}
        levels.append(tuple(sorted(s for s in sums if not any(
            all(map(ge, s, r)) for r in factor.relations))))
        total += len(levels[-1])
        check_cap(total, cap, f"labels of {factor.name}")
    return tuple(levels) + ((),) * (n_max + 1 - len(levels))


# ---------------------------------------------------------------------------
# the Hom count


class _Side:
    """One factor at its shift: labels to degree n_max, a membership set
    and the generators G of its part of M, the labels of degree k0 + shift."""

    def __init__(self, factor, shift, k0, n_max, cap):
        self.rels = factor.relations
        self.levels = _levels(factor, n_max, cap)
        self.members = {label for level in self.levels for label in level}
        self.deg = k0 + shift
        self.gens = self.levels[self.deg]

    def height(self, t, limit):
        """min(h(t), limit): the largest e <= limit such that a label of
        degree deg t + e is a multiple of t.  Such degrees form an interval
        from 0, and on a domain every degree has one."""
        if not self.rels:
            return limit
        e = 0
        while e < limit and any(all(map(ge, z, t)) for z in self.levels[sum(t) + e + 1]):
            e += 1
        return e

    @cached_property
    def pairs(self):
        """pairs[j]: (h, low, mu) for each other generator g_h that may link
        with g_j, low the least deg m - deg g_j over the common multiples m.
        On a quotient mu = max(g_j, g_h), a label unless g_h is a relation,
        of the zero class h = None; a domain links any two from its least
        semigroup offset, and mu is None."""
        if self.rels:
            others = [*enumerate(self.gens), *((None, r) for r in self.rels)]
            return [[(h, sum(m) - self.deg, m) for h, m in
                     ((h, tuple(map(max, g, k))) for h, k in others)
                     if h is None or h != j and m in self.members]
                    for j, g in enumerate(self.gens)]
        # a label plus a step of degree 0 keeps its degree
        return [[(h, next(d for d, layer in enumerate(self.levels)
                          if any(tuple(map(add, x, step)) in self.members for x in layer)), None)
                 for h, step in enumerate(tuple(map(sub, g, k)) for k in self.gens) if h != j]
                for j, g in enumerate(self.gens)]

    def multidegrees(self, targets):
        """How many multidegrees u = t - g, t in targets, share each
        signature (cands, links).  cands lists the j of each candidate g_j,
        g_j + u a label; links lists (j, h, low) per candidate g_j and
        generator or relation g_h that link in degree low and up."""
        members, pairs = self.members, self.pairs
        # the candidates g_j + u = t of each u, listed by j: t orders as g_j
        shifted = {}
        for t in targets:
            for j, g in enumerate(self.gens):
                shifted.setdefault(tuple(map(sub, t, g)), {})[j] = t
        signatures = Counter()
        for u, cand in shifted.items():
            # one link per pair: mu + u = max(g_j + u, g_h + u) is a label
            links = tuple((j, h, low) for j in cand for h, low, mu in pairs[j]
                          if (h not in cand or h > j)
                          and (mu is None or tuple(map(add, mu, u)) in members))
            signatures[tuple(cand), links] += 1
        return signatures


def _live(signature, height):
    """The Hom count of one multidegree: the live classes of the
    candidates under the links of degree at most height.  A union-find on
    the candidate indices, with the class None for the forced zeros,
    counts merges."""
    cands, links = signature
    parent = {j: j for j in cands}
    live = len(parent)
    parent[None] = None
    for j, h, low in links:
        if low <= height:
            x, y = (k if k in parent else None for k in (j, h))
            while x != parent[x]:
                x = parent[x]
            while y != parent[y]:
                y = parent[y]
            if x != y:
                parent[y] = x
                live -= 1
    return live


def _linked_counts(unit, side, degrees, k0, cap):
    """dim Hom_i when a factor has relations: over the labels t of the
    unit side, generated by 1, and the multidegrees u of the other side,
    the live classes of its generators at the height of t."""
    work = len(side.gens) ** 2
    check_cap(work, cap, "monomial Hom candidates")
    # heights matter only up to the largest link degree
    limit = max((low for row in side.pairs for _, low, _ in row), default=0)
    counts, left = {}, []
    for i in degrees:
        targets = (unit.levels[k0 + i], side.levels[k0 + i]) if k0 + i >= 0 else ((), ())
        heights = Counter(unit.height(t, limit) for t in targets[0])
        dim = 0
        for signature, m in (side.multidegrees(targets[1]).items() if heights else ()):
            for height, n in heights.items():
                count = counts.get((signature, height))
                if count is None:
                    work += len(signature[0]) + len(signature[1])
                    check_cap(work, cap, "monomial Hom candidates")
                    count = counts[signature, height] = _live(signature, height)
                dim += m * n * count
        left.append(dim)
    return left


def _product_counts(sides, degrees, k0, cap):
    """dim Hom_i = N_R(i) N_S(i) when neither factor has relations."""
    left, work = [1] * len(degrees), 0
    for side in sides:
        steps = [tuple(map(sub, g, side.gens[0])) for g in side.gens]
        for off, i in enumerate(degrees):
            layer = side.levels[k0 + i] if k0 + i >= 0 else ()
            work += len(layer) * len(steps)
            check_cap(work, cap, "toric Hom candidates")
            # a point plus a step of degree 0 keeps its degree
            left[off] *= sum(all(tuple(map(add, p, s)) in side.members for s in steps)
                             for p in layer)
    return left


def _sides(factors, shifts, i_hi, cap):
    """k0 and the two factors with their labels built to the degrees that
    a window ending at i_hi reads: G, the targets and the right side."""
    k0 = -min(shifts)
    n_max = max(i_hi + k0, max(shifts) + k0)
    # a quotient also holds, this many degrees up, the heights of the Hom
    # count and the common multiples with generators and relations
    extra = max([max(shifts) + k0] + [sum(r) for f in factors for r in f.relations])
    return k0, [_Side(f, shift, k0, n_max + (extra if f.relations else 0), cap)
                for f, shift in zip(factors, shifts)]


class FriendlinessReport(Record):
    """The dual of a product against the product of the duals: left_dims
    are the Hom dimensions of R(a) # S(b) into the product ring, right_dims
    the dimensions of R(-a) # S(-b), the product of the factor duals, as
    the dual of a shifted free module is the opposite shift.  Every
    dimension is exact, so a mismatch at any degree certifies that the
    sides are not isomorphic; a match on the window is evidence only."""

    _fields = ("i_lo", "left_dims", "right_dims")

    @property
    def compared(self):
        return tuple(range(self.i_lo, self.i_lo + len(self.left_dims)))

    @property
    def mismatches(self):
        return tuple(i for i, l, r in zip(self.compared, self.left_dims, self.right_dims)
                     if l != r)

    @property
    def verdict(self):
        return "not_friendly_certified" if self.mismatches else "consistent"


def friendliness(factor1, factor2, shift1, shift2, i_lo, i_hi, cap=DEFAULT_POINT_CAP):
    """Compare dim Hom_T(R(a) # S(b), T)_i with dim (R(-a) # S(-b))_i.

    cap bounds both factor label enumerations (built first, to the degrees
    the window needs), the window, and the Hom work: membership tests when
    neither factor has relations ("toric Hom candidates"), signatures
    otherwise ("monomial Hom candidates").  Raises WindowTooSmall when
    R(a) # S(b) is zero."""
    Factor.check(factor1, factor2)
    shift1, shift2, i_lo, i_hi = map(index, (shift1, shift2, i_lo, i_hi))
    if i_lo > i_hi:
        raise ValueError(f"hom window {i_lo}..{i_hi} is empty")
    shifts = (shift1, shift2)
    k0, sides = _sides((factor1, factor2), shifts, i_hi, cap)
    check_cap(i_hi - i_lo + 1, cap, f"hom window [{i_lo}, {i_hi}]")
    if not all(side.gens for side in sides):
        raise WindowTooSmall(f"{factor1.name}({shift1}) # {factor2.name}({shift2}) is zero")
    degrees = range(i_lo, i_hi + 1)
    if factor1.relations or factor2.relations:
        # the factor with the smaller shift is generated by its unit
        unit, side = sides if shift1 <= shift2 else sides[::-1]
        left = _linked_counts(unit, side, degrees, k0, cap)
    else:
        left = _product_counts(sides, degrees, k0, cap)
    right = [len(sides[0].levels[i - shift1]) * len(sides[1].levels[i - shift2])
             if i >= max(shifts) else 0 for i in degrees]
    return FriendlinessReport(i_lo, tuple(left), tuple(right))
