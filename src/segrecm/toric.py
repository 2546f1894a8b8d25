"""Integer matrix presentations of standard graded toric rings.

A presentation is a matrix whose columns are the exponent vectors of the
degree-1 generators, with a rational certificate giving every column
degree 1.  Tensor and degreewise products are matrix constructions whose
relation lattices, the integer kernels, are read off the factors'.  The
Hilbert function is counted degree by degree: a product or convolution of
factor counts where the columns split, else mixed-radix codes of points
stepped as bitsets, or as sets of ints when the box of codes is sparse.
"""

from fractions import Fraction
from math import comb, lcm, prod
from operator import index, mul

from . import linalg
from .errors import DEFAULT_POINT_CAP, NotStandardGraded, Record, check_cap

# census steps a box of codes as a bitset when it has at most 2**24 bits,
# 2 MB a layer, and at most 2**10 bits per multiset of n_max codes
_BITSET_BOX, _BITS_PER_MULTISET = 1 << 24, 1 << 10


class ToricPresentation(Record):
    """Exponent matrix, read into a tuple of int tuples, plus a grading
    certificate, a tuple of Fractions lam with lam . column == 1 for every
    column: they exist exactly when the ring is standard graded, and every
    construction checks them again in integers over the lcm of their denominators."""

    _fields = ("matrix", "grading")

    def __init__(self, matrix, grading):
        super().__init__(self._read(matrix), tuple(grading))
        if len(self.grading) != len(self.matrix):
            raise NotStandardGraded("grading length does not match row count")
        denom = lcm(*(getattr(l, "denominator", None) for l in self.grading))  # lcm(None): TypeError
        nums = [l.numerator * (denom // l.denominator) for l in self.grading]
        for j, col in enumerate(self.columns()):
            deg = sum(map(mul, nums, col))
            if deg != denom:
                raise NotStandardGraded(
                    f"column {j} = {col} has certificate degree {Fraction(deg, denom)}, not 1")

    @property
    def nrows(self):
        return len(self.matrix)

    @property
    def ncols(self):
        return len(self.matrix[0])

    def columns(self):
        return list(zip(*self.matrix))

    @staticmethod
    def _read(matrix):
        rows = tuple(tuple(map(index, row)) for row in matrix)
        if not rows or not rows[0]:
            raise NotStandardGraded("presentation matrix must be nonempty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise NotStandardGraded("presentation matrix rows have unequal length")
        return rows


def validate(matrix):
    """Certify a matrix as a standard graded toric presentation: solve
    lam . A = (1, ..., 1), or raise NotStandardGraded."""
    rows = ToricPresentation._read(matrix)
    lam = linalg.solve_right(list(zip(*rows)), [1] * len(rows[0]))
    if lam is None:
        raise NotStandardGraded(
            f"no rational grading gives every column of {list(rows)} degree 1")
    return ToricPresentation(rows, lam)


def tensor(p, q):
    """Block diagonal presentation of the tensor product."""
    ToricPresentation.check(p, q)
    top = tuple(tuple(row) + (0,) * q.ncols for row in p.matrix)
    bottom = tuple((0,) * p.ncols + tuple(row) for row in q.matrix)
    return ToricPresentation(top + bottom, p.grading + q.grading)


def segre(p, q):
    """Presentation of the degreewise product: the stacked pairs (a_i over
    b_j) in row-major (i, j) order, graded by p's certificate and zeros."""
    ToricPresentation.check(p, q)
    q_cols = q.columns()
    cols = [ai + bj for ai in p.columns() for bj in q_cols]
    return ToricPresentation(tuple(zip(*cols)), p.grading + (Fraction(0),) * q.nrows)


def kernel_lattice(p):
    """Basis rows of {c : A c = 0}, saturated, in canonical row form."""
    ToricPresentation.check(p)
    return _annihilating(p.matrix, linalg.integer_kernel(p.matrix))


def product_kernel(kind, p, q):
    """tensor(p, q) or segre(p, q), as kind names, and its kernel_lattice,
    read off the factors' Hermite bases; for a tensor, the two side by side.

    A vector on the grid of Segre columns (i, j) is a relation exactly when
    its row sums are one of p and its column sums one of q, and relations of
    a graded factor sum to 0.  So with (k, l) the last cell, ker p on column
    l, ker q on row k and e_ij - e_il - e_kj + e_kl for i < k and j < l span
    the relations, each led by a distinct cell, and linalg.hermite of them
    is the Hermite basis.
    """
    if kind not in ("tensor", "segre"):
        raise ValueError(f"product kind must be 'tensor' or 'segre', not {kind!r}")
    pres, m, n = (tensor if kind == "tensor" else segre)(p, q), p.ncols, q.ncols
    kp, kq = linalg.integer_kernel(p.matrix), linalg.integer_kernel(q.matrix)
    if kind == "tensor":
        basis = [v + [0] * n for v in kp] + [[0] * m + v for v in kq]
    else:
        last_row = (m - 1) * n
        rows = [{i * n + n - 1: x for i, x in enumerate(v) if x} for v in kp]
        rows += [{last_row + j: x for j, x in enumerate(v) if x} for v in kq]
        rows += [{i * n + j: 1, i * n + n - 1: -1, last_row + j: -1, last_row + n - 1: 1}
                 for i in range(m - 1) for j in range(n - 1)]
        basis = linalg.hermite(sorted((min(row), row) for row in rows), range(m * n))
    return pres, _annihilating(pres.matrix, basis)


def _annihilating(matrix, vectors):
    """The vectors as tuples, once each has A v = 0, read off its nonzeros."""
    cols = list(zip(*matrix))
    for v in vectors:
        if any(map(sum, zip(*[[x * a for a in cols[k]] for k, x in enumerate(v) if x]))):
            raise RuntimeError(f"kernel vector {v} does not annihilate {matrix}")
    return tuple(map(tuple, vectors))


def census(p, n_max, cap=DEFAULT_POINT_CAP):
    """The tuple of counts of distinct semigroup elements of each degree 0..n_max.

    Layer k is the set of sums of k columns.  The distinct columns are split
    before anything is enumerated: each contiguous row split s is tried,
    with A and B the distinct top and bottom projections c[:s] and c[s:].

    * Segre rule: with |A| * |B| distinct columns they are exactly A x B,
      so layer k is layer_k(A) x layer_k(B) and the counts multiply, for
      any column set, graded or not.
    * Tensor rule: when every column vanishes on one block, layer k is the
      union over j of layer_j(top) x layer_{k-j}(bottom), disjoint when a
      block is graded, and the counts convolve.  The certificate grades
      both blocks of a graded set; a Segre factor need not be graded (I2
      stacked over 0 and over 1 gives [0 1]), so inside one only the Segre
      rule and enumeration apply.

    Both factors recurse.  A set no split applies to is enumerated: layer
    k + 1 is layer k plus each code of _packing, stepped as a bitset while
    the box has at most _BITSET_BOX bits and _BITS_PER_MULTISET per
    multiset of n_max codes (a bound on the points of layer n_max), else as
    a set of ints.  A bitset step costs the box and a set step the points,
    a point about a thousand bits, so sets win only on sparse boxes, from
    entries far apart such as 10**9.  Layer sizes come one degree at a
    time, and ResourceCap is raised once their running total, the points
    an enumeration of p would build, exceeds cap: the work before a cap
    stop is bounded by the layers already counted.
    """
    ToricPresentation.check(p)
    if n_max < 0:
        raise ValueError(f"census bound must be >= 0, got {n_max}")
    check_cap(0, cap, "semigroup census")  # read the cap before any split is tried
    sizes, total = [], 0
    for size in _layer_sizes(set(p.columns()), True, n_max):
        total += size
        if sizes:
            check_cap(total, cap, "semigroup census")
        sizes.append(size)
    return tuple(sizes)


def _layer_sizes(cols, graded, n_max):
    """Iterator over the layer sizes 0..n_max of a set of distinct columns,
    graded when a linear form gives every column degree 1, by the splits of
    census.  Splits nearest the middle row come first, so a product of many
    factors, such as a polynomial ring in a thousand variables, recurses to
    a depth logarithmic in its rows."""
    nrows = len(next(iter(cols)))
    for s in sorted(range(1, nrows), key=lambda s: abs(2 * s - nrows)):
        tops, bottoms = {c[:s] for c in cols}, {c[s:] for c in cols}
        if len(cols) == len(tops) * len(bottoms):
            return map(mul, _layer_sizes(tops, False, n_max),
                       _layer_sizes(bottoms, False, n_max))
        if graded and all(not any(c[:s]) or not any(c[s:]) for c in cols):
            # a graded set has no zero column, and the Segre rule took the
            # case of an empty block, so both blocks are nonempty
            return _convolve(_layer_sizes(tops - {(0,) * s}, True, n_max),
                             _layer_sizes(bottoms - {(0,) * (nrows - s)}, True, n_max))
    codes, box = _packing(cols, n_max)
    dense = box <= _BITSET_BOX and box <= _BITS_PER_MULTISET * comb(
        n_max + len(codes) - 1, n_max)
    return (_bit_layers if dense else _set_layers)(codes, n_max)


def _convolve(left, right):
    """Yield the Cauchy product of two layer size streams."""
    seen_left, seen_right = [], []
    for a, b in zip(left, right):
        seen_left.append(a)
        seen_right.append(b)
        yield sum(map(mul, seen_left, reversed(seen_right)))


def _packing(cols, n_max):
    """The columns coded as ints, and the size of the box of the codes.

    Only the coordinates at the pivots of the row Hermite form of the
    differences c - c0 are kept: two points of one layer differ by a vector
    in their span, zero only if zero at every pivot.  Each kept coordinate
    is one mixed-radix digit, shifted by low, its minimum over the columns,
    with radix n_max * (max - low) + 1.  A degree-k code then encodes its
    point minus k * low, one bias for the whole layer, and no digit of a
    sum of at most n_max columns exceeds n_max * (max - low), so no digit
    carries and layers 0..n_max code into range(box), the radices' product.
    """
    c0 = next(iter(cols))
    keep = linalg.pivot_columns([[x - y for x, y in zip(c, c0)] for c in cols])
    low = [min(c[j] for c in cols) for j in keep]
    radices = [n_max * (max(c[j] for c in cols) - b) + 1 for j, b in zip(keep, low)]
    codes = set()
    for c in cols:
        code = 0
        for j, b, radix in zip(keep, low, radices):
            code = code * radix + c[j] - b
        codes.add(code)
    return codes, prod(radices)


def _bit_layers(codes, n_max):
    """Yield the layer sizes 0..n_max, a layer one int with a bit per code."""
    layer = 1
    yield 1
    for _ in range(n_max):
        step = 0
        for c in codes:
            step |= layer << c
        layer = step
        yield layer.bit_count()


def _set_layers(codes, n_max):
    """Yield the layer sizes 0..n_max, a layer a set of codes."""
    layer = {0}
    yield 1
    for _ in range(n_max):
        layer = {x + c for x in layer for c in codes}
        yield len(layer)
