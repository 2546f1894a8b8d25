"""Graded Hom into Segre products, on exponent-vector labels.

Every ring here is monomial: a monomial quotient, a semigroup ring, or a
Segre product of those.  One type holds truncated rings and modules: a
window start and, per degree, a tuple of labels, the exponent vectors
that name the basis elements.  A ring is the free module over itself,
starting in degree 0 and generated by its degree-1 labels; multiplying
by a generator is vector addition followed by a membership test in the
next degree, and a sum that is no label there is zero.  The Segre
product M # N (Goto-Watanabe) is one construction for modules and rings
alike: its labels concatenate the factor labels.  A shift only moves the
window.  Quotients and semigroup rings share one layer step, level k plus
each degree-1 label less what vanishes, which raises ResourceCap once
its count exceeds the cap.

Degreewise Hom into the ring splits by multidegree.  A degree-i family
sends the basis element m to sum_t c[m, t] t, and commuting with a
generator g couples only c[m, t] with c[m+g, t+g]: the difference t - m
is fixed along every equation.  Each equation either identifies two
coefficients or forces one to zero, so the dimension is the number of
connected components of pairs (m, t) that no equation forces to zero.
The module is generated in its lowest degree, so every component holds
a seed pair there; hom_window propagates the seeds degree by degree as a
union-find, after checking that and that the ring is standard graded
(enumeration, concatenation and shifts keep both).  Its dimension is
exact when the module and ring supports are provably enclosed in their
windows, and otherwise an upper bound that the report marks.

Semigroup rings are domains, which makes each multidegree piece of Hom
0- or 1-dimensional, so for two toric factors toric_friendliness counts
the pieces from the factor semigroup layers with no truncation: every
degree is certified.  Monomial quotients need not be domains, so a pair with one
goes through the truncated engine.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from operator import add, ge, sub
from typing import Optional

from .errors import (DEFAULT_POINT_CAP, EmptyWindow, WindowTooSmall,
                     check_cap)


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


# ---------------------------------------------------------------------------
# constructors


def _levels(gens, n_max, cap, what, vanishes=lambda label: False):
    """Labels of degrees 0..n_max of the ring generated by the degree-1
    labels gens, each level sorted.

    Level k + 1 is level k plus each generator, less the labels that
    vanish: the labels of a standard graded monomial ring form an order
    ideal under adding generators.  The first empty level stays empty
    above, so the rest is padded with ().  ResourceCap counts the n_max + 1
    levels, then the running total of the labels built.
    """
    check_cap(n_max + 1, cap, what)
    levels, total = [((0,) * len(gens[0]),)], 1
    while len(levels) <= n_max and levels[-1]:
        sums = {tuple(map(add, label, g)) for label in levels[-1] for g in gens}
        levels.append(tuple(sorted(s for s in sums if not vanishes(s))))
        total += len(levels[-1])
        check_cap(total, cap, what)
    return tuple(levels) + ((),) * (n_max + 1 - len(levels))


def monomial_str(names, exps):
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def algebra_from_monomial_quotient(names, relations, n_max,
                                   cap=DEFAULT_POINT_CAP):
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
    basis = _levels(units, n_max, cap, f"monomial quotient {name}",
                    lambda label: any(all(map(ge, label, r)) for r in rels))
    return TruncatedModule(0, basis, complete=not basis[n_max], name=name)


def algebra_from_toric(pres, n_max, cap=DEFAULT_POINT_CAP):
    """Semigroup ring of a toric presentation, truncated to degree n_max.

    Labels are the semigroup elements per degree; a sum of two labels is
    always a label, so multiplication never vanishes.  Used for a toric
    factor paired with a monomial quotient, and by the tests as the
    truncated reference for toric_friendliness.
    """
    if n_max < 1:
        raise ValueError("truncation degree must be at least 1")
    basis = _levels(pres.columns(), n_max, cap, "semigroup census")
    return TruncatedModule(0, basis, complete=False, name=toric_name(pres))


def toric_name(pres):
    return f"toric[{pres.nrows}x{pres.ncols}]"


def shift_module(mod, a):
    """Twist by a: degree k of the result is degree k + a of the input."""
    return replace(mod, lo=mod.lo - a)


def segre_module(m, n, cap=DEFAULT_POINT_CAP):
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
        raise EmptyWindow(
            f"windows [{m.lo}, {m.hi}] and [{n.lo}, {n.hi}] do not overlap")
    name = f"{m.name} # {n.name}"
    basis, total = [], 0
    for k in range(lo, hi + 1):
        left, right = m.basis[k - m.lo], n.basis[k - n.lo]
        total += len(left) * len(right)
        check_cap(total, cap, f"Segre product {name}")
        basis.append(tuple(p + q for p in left for q in right))
    # a factor provably zero outside the common window makes the product so
    complete = any(f.complete and all(lo <= k <= hi for k in f.support())
                   for f in (m, n))
    return TruncatedModule(lo, tuple(basis), complete, name)


# ---------------------------------------------------------------------------
# graded Hom into the ring


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

    def nonzero(self):
        return {self.i_lo + off: d for off, d in enumerate(self.dims) if d}

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
    """Union-find over the seed pairs plus one class for the forced zeros.

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
        return rx

    def kill(self, x):
        self.union(self.zero, x)


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
                    comps.kill(node)
                else:
                    edges.setdefault((n, s), []).append(node)
        front = {}
        for (n, s), nodes in edges.items():
            root = nodes[0]
            for node in nodes[1:]:
                root = comps.union(root, node)
            if len(nodes) < in_degree[k + 1 - mod.lo][n]:
                comps.kill(root)
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
        raise WindowTooSmall(
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


# ---------------------------------------------------------------------------
# friendliness witness


@dataclass(frozen=True)
class FriendlinessReport:
    """Comparison of the dual of a product with the product of the duals.

    left_dims are the hom dimensions of (R shifted by a) # (S shifted by
    b) into the product ring; right_dims are the plain dimensions of
    (R shifted by -a) # (S shifted by -b), which is the product of the
    factor duals because duals of shifted free modules are the opposite
    shifts.  A mismatch on exact data certifies that the two sides are
    not isomorphic; a match is consistency evidence only.
    """

    i_lo: int
    i_hi: int
    left_dims: tuple[Optional[int], ...]
    right_dims: tuple[Optional[int], ...]
    exact: bool
    compared: tuple[int, ...]
    mismatches: tuple[int, ...]
    verdict: str

    def left_nonzero(self):
        return {self.i_lo + o: d for o, d in enumerate(self.left_dims) if d}

    def right_nonzero(self):
        return {self.i_lo + o: d for o, d in enumerate(self.right_dims) if d}


MIN_INFORMATIVE_STEPS = 2


def _friendliness_report(i_lo, left, right, informative, certified, exact):
    """The one verdict rule.  Per degree from i_lo, informative flags that
    the left side enters the verdict (unless the right side is None) and
    certified that it is exact.  Differing dimensions at one certified
    degree rule out an isomorphism; a mismatch elsewhere, or no compared
    degree, leaves the verdict inconclusive."""
    degrees = range(i_lo, i_lo + len(left))
    compared = [i for i, c, r in zip(degrees, informative, right) if c and r is not None]
    mismatches = [i for i in compared if left[i - i_lo] != right[i - i_lo]]
    if any(certified[i - i_lo] for i in mismatches):
        verdict = "not_friendly_certified"
    elif mismatches or not compared:
        verdict = "inconclusive"
    else:
        verdict = "consistent"
    return FriendlinessReport(i_lo, degrees[-1], tuple(left), tuple(right), exact,
                              tuple(compared), tuple(mismatches), verdict)


def friendliness_witness(ring1, ring2, shift1, shift2, i_lo=-6, i_hi=6,
                         cap=DEFAULT_POINT_CAP):
    """Compare duals of a twisted product against the product of duals.

    On inexact (truncated) data the hom side of degree i only enters the
    verdict when at least MIN_INFORMATIVE_STEPS propagation steps were
    consistency checked; degrees near the window boundary are reported
    but not compared.  cap bounds the window and every Segre level
    enumeration.
    """
    check_cap(i_hi - i_lo + 1, cap, f"hom window [{i_lo}, {i_hi}]")
    t = segre_module(ring1, ring2, cap=cap)
    twisted = segre_module(shift_module(ring1, shift1),
                           shift_module(ring2, shift2), cap=cap)
    hom = hom_window(twisted, t, i_lo, i_hi)
    dual = segre_module(shift_module(ring1, -shift1),
                        shift_module(ring2, -shift2), cap=cap)
    degrees = range(i_lo, i_hi + 1)
    certified = [hom.certified(i) for i in degrees]
    evidence = [c or (d is not None and sq >= MIN_INFORMATIVE_STEPS)
                for c, d, sq in zip(certified, hom.dims, hom.squares)]
    return _friendliness_report(i_lo, hom.dims, [dual.dim(i) for i in degrees],
                                evidence, certified, hom.exact and dual.complete)


def toric_friendliness(pres1, pres2, shift1, shift2, i_lo=-6, i_hi=6,
                       cap=DEFAULT_POINT_CAP):
    """friendliness_witness for two toric presentations, certified on every degree.

    R = K[S_R] and S = K[S_S] are domains, so M = R(a) # S(b) is a
    rank-one monomial module over T = R # S, and the piece of Hom_T(M, T)
    of multidegree (u, v) is spanned by m -> m + (u, v) when (u, v) + M
    lies in T, and zero otherwise.  M is G_R x G_S plus T, G_R being layer
    k0 + a of S_R with k0 = max(-a, -b), so the test splits by factor:
    dim Hom_i = N_R(i) N_S(i), N_R(i) = #{p in layer k0 + i : p - g0 + G_R
    lies in that layer} for any g0 in G_R.  The right side is |layer i - a
    of S_R| |layer i - b of S_S|.  cap bounds the window, both factor
    label enumerations and the candidate x |G| membership tests.
    """
    check_cap(i_hi - i_lo + 1, cap, f"hom window [{i_lo}, {i_hi}]")
    if i_lo > i_hi:
        raise ValueError(f"hom window {i_lo}..{i_hi} is empty")
    k0 = max(-shift1, -shift2)
    n_max = max(k0 + max(shift1, shift2, i_hi), i_hi - min(shift1, shift2))
    degrees = range(i_lo, i_hi + 1)
    left, right, work = [1] * len(degrees), [1] * len(degrees), 0
    for pres, shift in ((pres1, shift1), (pres2, shift2)):
        layers = _levels(pres.columns(), n_max, cap, "semigroup census")
        gens = layers[k0 + shift]
        steps = [tuple(map(sub, g, gens[0])) for g in gens]
        for off, i in enumerate(degrees):
            layer = layers[k0 + i] if k0 + i >= 0 else ()
            work += len(layer) * len(steps)
            check_cap(work, cap, "toric Hom candidates")
            members = set(layer)
            left[off] *= sum(all(tuple(map(add, p, s)) in members for s in steps)
                             for p in layer)
            right[off] *= len(layers[i - shift]) if i >= shift else 0
    every = [True] * len(degrees)
    return _friendliness_report(i_lo, left, right, every, every, True)


# ---------------------------------------------------------------------------
# ring spec parsing for the CLI: "x:3" or "x,y:2 0,0 2"


def parse_ring_spec(spec):
    """(names, relations) from a compact text form.

    Variables before the colon, comma separated; relations after it,
    comma separated, each a whitespace separated exponent vector.  A
    single variable may abbreviate x^3 to just "3".
    """
    var_part, _, rel_part = spec.partition(":")
    names = [v.strip() for v in var_part.split(",") if v.strip()]
    if not names:
        raise ValueError(f"ring spec {spec!r} names no variables")
    if len(set(names)) < len(names):
        raise ValueError(f"ring spec {spec!r} repeats a variable name")
    relations = []
    for chunk in rel_part.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            exps = tuple(int(tok) for tok in chunk.split())
        except ValueError:
            raise ValueError(f"bad relation {chunk!r} in ring spec {spec!r}") from None
        relations.append(exps)
    for rel in relations:
        if len(rel) != len(names):
            raise ValueError(
                f"relation {rel} does not match the {len(names)} variables "
                f"in ring spec {spec!r}")
    return names, relations
