"""Integer matrix presentations of standard graded toric rings.

A presentation is a matrix whose columns are the exponent vectors of the
degree-1 monomial generators, together with a rational certificate vector
giving every column degree exactly 1.  Tensor and degreewise products are
matrix constructions; the defining relations live in the integer kernel
of the matrix, and the Hilbert function is counted by enumerating the
semigroup degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import DEFAULT_POINT_CAP, NotStandardGraded, check_cap


@dataclass(frozen=True)
class ToricPresentation:
    """Exponent matrix (rows of ints) plus a grading certificate.

    The certificate is a rational row vector lam with lam . column == 1
    for every column; its existence is exactly the standard graded
    condition and is re-checked on every construction.
    """

    matrix: tuple[tuple[int, ...], ...]
    grading: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.matrix or not self.matrix[0]:
            raise NotStandardGraded("presentation matrix must be nonempty")
        width = len(self.matrix[0])
        if any(len(row) != width for row in self.matrix):
            raise NotStandardGraded("presentation matrix rows have unequal length")
        if len(self.grading) != len(self.matrix):
            raise NotStandardGraded("grading length does not match row count")
        for j, col in enumerate(self.columns()):
            deg = sum(l * x for l, x in zip(self.grading, col))
            if deg != 1:
                raise NotStandardGraded(
                    f"column {j} = {col} has certificate degree {deg}, not 1")

    @property
    def nrows(self):
        return len(self.matrix)

    @property
    def ncols(self):
        return len(self.matrix[0])

    def columns(self):
        return [tuple(row[j] for row in self.matrix) for j in range(self.ncols)]


@dataclass(frozen=True)
class LatticeBasis:
    """Basis rows of the relation lattice {c : A c = 0}, in canonical form."""

    vectors: tuple[tuple[int, ...], ...]

    @property
    def rank(self):
        return len(self.vectors)


@dataclass(frozen=True)
class SemigroupCensus:
    """Counts of distinct semigroup elements per degree, 0..N."""

    counts: tuple[int, ...]
    points: tuple[tuple[tuple[int, ...], ...], ...] | None = None


def validate(matrix):
    """Certify a matrix as a standard graded toric presentation.

    Solves lam . A = (1, ..., 1) over the rationals; raises
    NotStandardGraded when the all-ones vector is outside the row space.
    """
    rows = [tuple(int(x) for x in row) for row in matrix]
    if not rows or not rows[0]:
        raise NotStandardGraded("presentation matrix must be nonempty")
    at = linalg.transpose(rows)
    lam = linalg.solve_right(at, [1] * len(rows[0]))
    if lam is None:
        raise NotStandardGraded(
            f"no rational grading gives every column of {rows} degree 1")
    return ToricPresentation(tuple(rows), tuple(lam))


def tensor(p, q):
    """Block diagonal presentation of the tensor product."""
    n, m = p.ncols, q.ncols
    top = [tuple(row) + (0,) * m for row in p.matrix]
    bottom = [(0,) * n + tuple(row) for row in q.matrix]
    return ToricPresentation(tuple(top + bottom), p.grading + q.grading)


def segre(p, q):
    """Presentation of the degreewise product.

    Columns are all stacked pairs (a_i over b_j) in row-major (i, j)
    order; the first factor's certificate extended by zeros grades every
    generator in degree 1.
    """
    cols = [ai + bj for ai in p.columns() for bj in q.columns()]
    matrix = tuple(tuple(col[i] for col in cols) for i in range(p.nrows + q.nrows))
    grading = p.grading + tuple(Fraction(0) for _ in range(q.nrows))
    return ToricPresentation(matrix, grading)


def kernel_lattice(p):
    """Saturated integer basis of {c : A c = 0} in canonical row form."""
    vectors = linalg.integer_kernel([list(row) for row in p.matrix])
    for v in vectors:
        if not all(sum(a * c for a, c in zip(row, v)) == 0 for row in p.matrix):
            raise RuntimeError(f"kernel vector {v} does not annihilate {p.matrix}")
    return LatticeBasis(tuple(tuple(v) for v in vectors))


def census(p, n_max, cap=DEFAULT_POINT_CAP, keep_points=False):
    """Count distinct semigroup elements of each degree 0..n_max.

    Breadth-first closure: the degree k+1 layer is the deduplicated set
    of sums (degree k point) + (column).  Raises ResourceCap when the
    total number of points exceeds cap.

    Each point is one int.  Every column is shifted by low, the
    coordinatewise minimum over the columns, so its entries are >= 0,
    and packed into fixed-width fields of
    max(1, (n_max * max shifted entry).bit_length()) bits, coordinate 0
    in the most significant field.  A layer step is then
    {x + c for x in layer for c in packed}.  This is exact:

    * a degree-k int encodes its point minus k * low, one bias for the
      whole layer, so two points of one layer never collide;
    * no coordinate sum exceeds n_max * max shifted entry, so no field
      carries into the next;
    * int order is lexicographic order of the points, so with
      keep_points the sorted ints decode to the sorted point tuples.
    """
    if n_max < 0:
        raise ValueError(f"census bound must be >= 0, got {n_max}")
    cols = p.columns()
    low = [min(entries) for entries in zip(*cols)]
    shifted = [[x - b for x, b in zip(col, low)] for col in cols]
    width = max(1, (n_max * max(map(max, shifted))).bit_length())
    offsets = [width * i for i in reversed(range(p.nrows))]
    packed = {sum(x << off for x, off in zip(col, offsets)) for col in shifted}
    mask = (1 << width) - 1
    layer = {0}
    counts = [1]
    layers = [((0,) * p.nrows,)]
    total = 1
    for k in range(1, n_max + 1):
        layer = {x + c for x in layer for c in packed}
        total += len(layer)
        check_cap(total, cap, "semigroup census")
        counts.append(len(layer))
        if keep_points:
            bias = [k * b for b in low]
            layers.append(tuple(
                tuple(((x >> off) & mask) + b for off, b in zip(offsets, bias))
                for x in sorted(layer)))
    return SemigroupCensus(tuple(counts), tuple(layers) if keep_points else None)


# ---------------------------------------------------------------------------
# matrix file format: first line "r n", then r rows of n integers


def parse_matrix(text):
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"matrix header must be 'r n', got {lines[0]!r}")
    try:
        r, n = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"matrix header must be 'r n', got {lines[0]!r}") from None
    if len(lines) != r + 1:
        raise ValueError(f"expected {r} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"expected {n} entries in row {ln!r}")
        try:
            rows.append(tuple(int(t) for t in toks))
        except ValueError:
            raise ValueError(f"bad integer in matrix row {ln!r}") from None
    return tuple(rows)


def format_matrix(rows):
    out = [f"{len(rows)} {len(rows[0])}"]
    out.extend(" ".join(str(x) for x in row) for row in rows)
    return "\n".join(out) + "\n"


def load_matrix(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())
