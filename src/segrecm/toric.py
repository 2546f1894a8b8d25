"""Integer matrix presentations of standard graded toric rings.

A presentation is a matrix whose columns are the exponent vectors of the
degree-1 monomial generators, together with a rational certificate vector
giving every column degree exactly 1.  Tensor and degreewise products are
matrix constructions; the defining relations live in the integer kernel
of the matrix, and the Hilbert function is counted degree by degree, as a
product or convolution of factor counts where the columns split.  Where
they do not, points are mixed-radix codes over coordinates independent on
the column differences, and layers step as bitsets, or as sets of ints
when the box of codes is sparse.
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
    """Exponent matrix (a tuple of int tuples) plus a grading certificate.

    The certificate is a tuple of Fractions lam with lam . column == 1
    for every column; its existence is exactly the standard graded
    condition and is re-checked, in integers over the lcm of its
    denominators, on every construction.
    """

    _fields = ("matrix", "grading")

    def __init__(self, matrix, grading):
        super().__init__(matrix, grading)
        if not matrix or not matrix[0]:
            raise NotStandardGraded("presentation matrix must be nonempty")
        if any(len(row) != len(matrix[0]) for row in matrix):
            raise NotStandardGraded("presentation matrix rows have unequal length")
        if len(grading) != len(matrix):
            raise NotStandardGraded("grading length does not match row count")
        denom = lcm(*(l.denominator for l in grading))
        nums = [l.numerator * (denom // l.denominator) for l in grading]
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


def validate(matrix):
    """Certify a matrix as a standard graded toric presentation.

    Solves lam . A = (1, ..., 1) by integer elimination; raises
    NotStandardGraded when the all-ones vector is outside the row space.
    """
    rows = [tuple(map(index, row)) for row in matrix]
    if not rows or not rows[0]:
        raise NotStandardGraded("presentation matrix must be nonempty")
    lam = linalg.solve_right(list(zip(*rows)), [1] * len(rows[0]))
    if lam is None:
        raise NotStandardGraded(
            f"no rational grading gives every column of {rows} degree 1")
    return ToricPresentation(tuple(rows), tuple(lam))


def tensor(p, q):
    """Block diagonal presentation of the tensor product."""
    top = tuple(tuple(row) + (0,) * q.ncols for row in p.matrix)
    bottom = tuple((0,) * p.ncols + tuple(row) for row in q.matrix)
    return ToricPresentation(top + bottom, p.grading + q.grading)


def segre(p, q):
    """Presentation of the degreewise product.

    Columns are all stacked pairs (a_i over b_j) in row-major (i, j)
    order; the first factor's certificate extended by zeros grades every
    generator in degree 1.
    """
    q_cols = q.columns()
    cols = [ai + bj for ai in p.columns() for bj in q_cols]
    return ToricPresentation(tuple(zip(*cols)), p.grading + (Fraction(0),) * q.nrows)


def kernel_lattice(p):
    """Basis rows of {c : A c = 0}, saturated, in canonical row form."""
    vectors = linalg.integer_kernel(p.matrix)
    for v in vectors:
        if any(sum(map(mul, row, v)) for row in p.matrix):
            raise RuntimeError(f"kernel vector {v} does not annihilate {p.matrix}")
    return tuple(tuple(v) for v in vectors)


def census(p, n_max, cap=DEFAULT_POINT_CAP):
    """The tuple of counts of distinct semigroup elements of each degree 0..n_max.

    Layer k is the set of sums of k columns.  The distinct columns are
    split into factors before anything is enumerated.  Each contiguous
    row split s in 1..nrows-1 is tried, with A the distinct top
    projections c[:s] and B the distinct bottom projections c[s:]:

    * Segre rule: when there are |A| * |B| distinct columns, they are
      exactly A x B, so layer k is layer_k(A) x layer_k(B) and the counts
      multiply.  This holds for any column set, graded or not.
    * Tensor rule: when every column vanishes on one of the two blocks,
      layer k is the union over j of layer_j(top) x layer_{k-j}(bottom)
      and the counts convolve.  The union is disjoint when a block is
      graded, and both blocks of a graded column set are: the
      certificate restricted to a block grades it.  A Segre factor need
      not be graded (stacking the columns of I2 over 0 and over 1 gives
      the factor [0 1]), so inside one only the Segre rule and
      enumeration apply.

    Both factors recurse, and a column set that no split applies to is
    enumerated: layer k + 1 is layer k plus each code of _packing, stepped
    as a bitset when the box has at most _BITSET_BOX bits and at most
    _BITS_PER_MULTISET per multiset of n_max codes, a bound on the points
    of layer n_max, and as a set of ints when not.  A bitset step costs
    the box and a set step the points, a point about as much as a
    thousand bits, so the set step wins only on sparse boxes, from
    entries far apart such as 10**9.  Every factor yields its layer sizes one degree at a time, and
    ResourceCap is raised as soon as the running total of the layer sizes
    of p, the number of points an enumeration of p would build, exceeds
    cap.  So the work done before a cap stop is bounded by the layers
    already counted.
    """
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
    """Iterator over the layer sizes 0..n_max of a set of distinct columns.

    graded says that some linear form gives every column degree 1.  The
    split rules are those of census.  Splits nearest the middle row are
    tried first, so a product of many factors, such as a polynomial ring
    in a thousand variables, recurses to a depth logarithmic in its rows.
    """
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
    differences c - c0 are kept.  Two points of one layer differ by a
    vector in their span, which is zero only if zero at every pivot, so
    the kept coordinates tell the points of a layer apart.  Each becomes
    one mixed-radix digit: shifted by low, its minimum over the columns,
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
