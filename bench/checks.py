"""Independent answer checks for the benchmark's queries.

Every check recomputes the answer by a route that shares no code with
the package under test, or tests a law the answer must satisfy; none
compares against a stored copy of earlier output.  Each check takes the
parsed JSON report of one CLI command plus the query's own description
of its inputs, and raises CheckFailed with a reason when the answer is
wrong.  This module uses the standard library only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb


class CheckFailed(AssertionError):
    """A program answer disagrees with the independent computation."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact linear algebra over Fractions


def frac_rank(rows):
    """Rank over the rationals by plain Gauss-Jordan elimination."""
    rows = [[Fraction(v) for v in row] for row in rows if any(row)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                f /= lead
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# toric presentations: columns are exponent vectors


def columns(matrix):
    return [tuple(row[j] for row in matrix) for j in range(len(matrix[0]))]


def from_columns(cols):
    return tuple(tuple(col[i] for col in cols) for i in range(len(cols[0])))


def segre_matrix(a, b):
    """Columns: every stacked pair (a_i over b_j), row-major in (i, j)."""
    return from_columns([ca + cb for ca in columns(a) for cb in columns(b)])


def tensor_matrix(a, b):
    """Block diagonal matrix of the two presentations."""
    na, nb = len(a[0]), len(b[0])
    return tuple(tuple(row) + (0,) * nb for row in a) + tuple((0,) * na + tuple(row) for row in b)


# multisets of more than this many columns are not enumerated
MULTISET_BUDGET = 60_000


def multiset_census(matrix, upto):
    """Distinct sums of k columns for each k, by multiset enumeration.

    Degrees whose multiset count exceeds MULTISET_BUDGET are None.
    """
    cols = columns(matrix)
    out = []
    for k in range(upto + 1):
        if comb(len(cols) + k - 1, k) > MULTISET_BUDGET:
            out.append(None)
            continue
        sums = {tuple(map(sum, zip(*pick))) if pick else (0,) * len(matrix)
                for pick in combinations_with_replacement(cols, k)}
        out.append(len(sums))
    return out


@cache
def factor_census(factor, upto):
    """Census of a base factor: closed form where one is known, else
    multiset enumeration.  factor is ("poly", n, matrix) for a polynomial
    ring in n variables, ("veronese2", n, matrix) for its second Veronese,
    or ("set", name, matrix) for any other monomial set; matrices are
    tuples of row tuples."""
    kind, n, matrix = factor
    if kind == "poly":
        return tuple(comb(k + n - 1, n - 1) for k in range(upto + 1))
    if kind == "veronese2":
        return tuple(comb(2 * k + n - 1, n - 1) for k in range(upto + 1))
    return tuple(multiset_census(matrix, upto))


def expected_census(shape, upto):
    """Census of ("base", f), ("segre", f, g) or ("tensor", f, g).

    Segre: the degree k piece is the product of the factor pieces.
    Tensor: the factor censuses convolve.  None marks an unchecked degree.
    """
    if shape[0] == "base":
        return factor_census(shape[1], upto)
    left = factor_census(shape[1], upto)
    right = factor_census(shape[2], upto)
    if shape[0] == "segre":
        return [None if x is None or y is None else x * y for x, y in zip(left, right)]
    out = []
    for k in range(upto + 1):
        terms = [(left[i], right[k - i]) for i in range(k + 1)]
        out.append(None if any(x is None or y is None for x, y in terms)
                   else sum(x * y for x, y in terms))
    return out


def check_census(counts, shape, upto):
    expect(len(counts) == upto + 1, f"census has {len(counts)} entries, expected {upto + 1}")
    want = expected_census(shape, upto)
    checked = 0
    for k, (got, exp) in enumerate(zip(counts, want)):
        if exp is not None:
            expect(got == exp, f"census degree {k}: program {got}, independent {exp}")
            checked += 1
    expect(checked > 0, "no census degree could be checked")


def check_kernel(matrix, kernel):
    """Every vector lies in the kernel and the rank is ncols - rank(A)."""
    vectors = kernel["vectors"]
    expect(kernel["rank"] == len(vectors), "kernel rank does not count its vectors")
    for v in vectors:
        expect(len(v) == len(matrix[0]), f"kernel vector {v} has the wrong length")
        expect(all(sum(a * c for a, c in zip(row, v)) == 0 for row in matrix),
               f"A v != 0 for kernel vector {v}")
    want = len(matrix[0]) - frac_rank(matrix)
    expect(kernel["rank"] == want, f"kernel rank {kernel['rank']}, expected {want}")
    expect(frac_rank(vectors) == len(vectors), "kernel vectors are linearly dependent")


def check_grading(matrix, grading):
    lam = [Fraction(x) for x in grading]
    for col in columns(matrix):
        deg = sum(l * x for l, x in zip(lam, col))
        expect(deg == 1, f"grading gives column {col} degree {deg}")


def check_toric(query, report):
    """Dispatch on the toric subcommand the query ran."""
    spec, res = query.spec, report["results"]
    sub = query.argv[1]
    if sub in ("segre", "tensor"):
        build = segre_matrix if sub == "segre" else tensor_matrix
        matrix = build(spec["left"], spec["right"])
        expect(res["matrix"] == [list(row) for row in matrix],
               f"{sub} matrix differs from the construction")
        check_grading(matrix, res["grading"])
        check_kernel(matrix, res["kernel"])
        if spec.get("upto") is not None:
            check_census(res["census"], spec["shape"], spec["upto"])
    elif sub == "kernel":
        check_kernel(spec["matrix"], res)
    elif sub == "census":
        check_census(res["counts"], spec["shape"], spec["upto"])
    else:
        raise CheckFailed(f"no check for toric {sub}")


# ---------------------------------------------------------------------------
# oracle friendly


def binom_dim(k, n):
    """Dimension of degree k of the polynomial ring in n variables."""
    return comb(k + n - 1, n - 1) if k >= 0 else 0


def standard_monomials(nvars, relations, k):
    """Degree k monomials divisible by no relation, sorted."""
    if k < 0:
        return []
    out = []
    for pick in combinations_with_replacement(range(nvars), k):
        exps = [0] * nvars
        for i in pick:
            exps[i] += 1
        if not any(all(e >= r for e, r in zip(exps, rel)) for rel in relations):
            out.append(tuple(exps))
    return sorted(out)


def quotient_top(nvars, relations, limit=64):
    """Highest degree with a standard monomial; the quotient must be Artinian."""
    top = 0
    while standard_monomials(nvars, relations, top + 1):
        top += 1
        expect(top < limit, f"quotient {relations} is not Artinian")
    return top


def artinian_hom_dims(ring1, ring2, a, b, degrees):
    """dim Hom_T(R(a) # S(b), T)_i by one dense solve per degree i.

    R and S are monomial quotients (nvars, relations), T = R # S.  The
    unknowns are the matrix entries of phi_k : M_k -> T_(k+i) for every
    k; the equations say phi commutes with every degree-1 element
    (x_p, y_q) of T.  Labels are exponent-vector pairs, so the action is
    addition of exponent vectors, zero when it leaves the standard
    monomials.
    """
    r = [set(standard_monomials(*ring1, k)) for k in range(quotient_top(*ring1) + 1)]
    s = [set(standard_monomials(*ring2, k)) for k in range(quotient_top(*ring2) + 1)]

    def piece(k, l):
        """Basis of R_k (x) S_l as sorted label pairs."""
        if not (0 <= k < len(r) and 0 <= l < len(s)):
            return []
        return [(p, q) for p in sorted(r[k]) for q in sorted(s[l])]

    def times(g, label, k, l):
        """g * label, landing in R_k (x) S_l, or None when it vanishes."""
        p = tuple(x + y for x, y in zip(g[0], label[0]))
        q = tuple(x + y for x, y in zip(g[1], label[1]))
        ok = 0 <= k < len(r) and 0 <= l < len(s) and p in r[k] and q in s[l]
        return (p, q) if ok else None

    support = [k for k in range(-min(a, b), len(r) + len(s)) if piece(k + a, k + b)]
    gens = piece(1, 1)
    dims = {}
    for i in degrees:
        var = {}
        for k in support:
            for e in piece(k + a, k + b):
                for t in piece(k + i, k + i):
                    var[k, e, t] = len(var)
        rows = []
        for k in support:
            for g in gens:
                for e in piece(k + a, k + b):
                    # phi(g e) - g phi(e) = 0, one equation per target label
                    eq = {t: {} for t in piece(k + i + 1, k + i + 1)}
                    ge = times(g, e, k + 1 + a, k + 1 + b)
                    if ge is not None:
                        for t in eq:
                            eq[t][var[k + 1, ge, t]] = 1
                    for t in piece(k + i, k + i):
                        gt = times(g, t, k + i + 1, k + i + 1)
                        if gt is not None:
                            idx = var[k, e, t]
                            eq[gt][idx] = eq[gt].get(idx, 0) - 1
                    for coeffs in eq.values():
                        if any(coeffs.values()):
                            row = [0] * len(var)
                            for idx, c in coeffs.items():
                                row[idx] = c
                            rows.append(row)
        dims[i] = len(var) - frac_rank(rows)
    return dims


def check_oracle(query, report):
    spec, res = query.spec, report["results"]
    lo, hi = spec["window"]
    degrees = list(range(lo, hi + 1))
    a, b = spec["shifts"]
    left, right = res["left_dims"], res["right_dims"]
    expect(len(left) == len(degrees) and len(right) == len(degrees),
           "dimension vectors do not cover the window")
    if spec["kind"] == "toric":
        n1, n2 = spec["nvars"]
        for off, i in enumerate(degrees):
            want = binom_dim(i - a, n1) * binom_dim(i - b, n2)
            expect(right[off] == want, f"right dim at {i}: {right[off]}, expected {want}")
            expect(left[off] == want, f"left dim at {i}: {left[off]}, expected {want}")
        return
    ring1, ring2 = spec["rings"]
    for off, i in enumerate(degrees):
        want = (len(standard_monomials(*ring1, i - a))
                * len(standard_monomials(*ring2, i - b)))
        expect(right[off] == want, f"right dim at {i}: {right[off]}, expected {want}")
    solved = artinian_hom_dims(ring1, ring2, a, b, degrees)
    for off, i in enumerate(degrees):
        expect(left[off] == solved[i], f"left dim at {i}: {left[off]}, dense solve {solved[i]}")
    if spec.get("golden"):
        expect(res["left_nonzero"] == {"1": 1, "2": 1}, f"golden left {res['left_nonzero']}")
        expect(res["right_nonzero"] == {"2": 1}, f"golden right {res['right_nonzero']}")
        expect(res["verdict"] == "not_friendly_certified", f"golden verdict {res['verdict']}")


# ---------------------------------------------------------------------------
# classify: Kunneth support condition and uniform twist criteria

# above this many factors the depth check is by law, not by enumeration
SUBSET_CHECK_LIMIT = 12


def overlap(dims, ainv, shifts, subset):
    """(q, lo, hi, nonzero) of the cohomology summand for a subset.

    subset holds 1-based factor indices.  The summand is nonzero when
    max over the complement of -shift <= min over the subset of
    (ainv - shift); lo is None for the full set.
    """
    inside = set(subset)
    q = sum(dims[i - 1] for i in subset) - (len(subset) - 1)
    outside = [-shifts[i - 1] for i in range(1, len(dims) + 1) if i not in inside]
    lo = max(outside) if outside else None
    hi = min(ainv[i - 1] - shifts[i - 1] for i in subset)
    return q, lo, hi, lo is None or lo <= hi


def support_depth(dims, ainv, shifts):
    """Least q over all nonempty subsets with a nonzero summand (bitmask loop)."""
    m = len(dims)
    best = None
    for mask in range(1, 1 << m):
        subset = [i + 1 for i in range(m) if mask >> i & 1]
        q, _, _, nonzero = overlap(dims, ainv, shifts, subset)
        if nonzero and (best is None or q < best):
            best = q
    return best


def check_depth(spec, res):
    dims, ainv, shifts = spec["dims"], spec["ainv"], spec["shifts"]
    m = len(dims)
    dim = sum(dims) - (m - 1)
    expect(res["dim"] == dim, f"dim {res['dim']}, expected {dim}")
    expect(res["is_cm"] == (res["depth"] == dim), "is_cm does not mirror depth == dim")
    witnesses = res["witnesses"]
    expect(witnesses, "no witnesses reported")
    for w in witnesses:
        q, lo, hi, nonzero = overlap(dims, ainv, shifts, w["subset"])
        expect(nonzero and (w["q"], w["lo"], w["hi"]) == (q, lo, hi),
               f"witness {w} fails the overlap condition")
    expect(res["depth"] == min(w["q"] for w in witnesses), "depth is not the least witness degree")
    if m <= SUBSET_CHECK_LIMIT:
        want = support_depth(dims, ainv, shifts)
        expect(res["depth"] == want, f"depth {res['depth']}, subset support gives {want}")


def chain_holds(rhos, a):
    """Uniform-twist criterion for a outside {0, 1}, in Fractions:
    C^j rho_(j+1) strictly increases, C = a/(a-1) or (a-1)/a."""
    c = Fraction(a, a - 1) if a > 0 else Fraction(a - 1, a)
    values = [c ** j * r for j, r in enumerate(rhos)]
    return all(x < y for x, y in zip(values, values[1:]))


def twist_is_cm(rhos, a):
    """Twists 0 and 1 give the ring and its shift: always Cohen-Macaulay."""
    return True if a in (0, 1) else chain_holds(rhos, a)


def check_classify(query, report):
    spec, res = query.spec, report["results"]
    sub = query.argv[1]
    if sub == "depth":
        check_depth(spec, res)
        return
    rhos = spec["rho"]
    if sub == "cm-twist":
        a = spec["a"]
        expect(res["is_cm"] == res["is_cm_raw"], "is_cm and is_cm_raw disagree")
        if a not in (0, 1):
            expect(res["chain"] == res["is_cm"], "chain and is_cm disagree")
        expect(res["is_cm"] == twist_is_cm(rhos, a), f"is_cm {res['is_cm']} for a = {a}")
    elif sub == "interval":
        lo = Fraction(res["lo"]) if res["lo"] is not None else None
        hi = Fraction(res["hi"]) if res["hi"] is not None else None
        for a in range(-10, 11):
            member = res["kind"] == "all_integers" or lo < a < hi
            expect(member == twist_is_cm(rhos, a), f"interval membership of {a} is {member}")
        if res["kind"] == "open_interval":
            points = [a for a in range(int(lo) - 1, int(hi) + 2) if lo < a < hi]
            expect(res["integer_points"] == points, "integer points do not match the interval")
    elif sub == "anticanonical":
        want = chain_holds(rhos, -1)
        expect(res["is_cm"] == want, f"anticanonical is_cm {res['is_cm']}, chain gives {want}")
        if len(rhos) == 2:
            expect(res["m2_criterion"] == want, "two-factor criterion disagrees with the chain")
    elif sub == "power":
        want = twist_is_cm(rhos, spec["a"])
        expect(res["is_cm"] == want, f"power is_cm {res['is_cm']}, chain gives {want}")
    else:
        raise CheckFailed(f"no check for classify {sub}")


# ---------------------------------------------------------------------------
# hilbert: expansion by repeated prefix sums


def expand(pairs, den, lo, hi):
    """Coefficients of sum c t^e / (1 - t)^den on degrees lo..hi."""
    start = min([e for e, _ in pairs] + [lo])
    coeffs = [0] * (hi - start + 1)
    for e, c in pairs:
        if e <= hi:
            coeffs[e - start] += c
    for _ in range(den):
        run = 0
        for idx, c in enumerate(coeffs):
            run += c
            coeffs[idx] = run
    return coeffs[lo - start:]


def parse_series(text):
    num, den = text.split(";")
    toks = [int(t) for t in num.split(":")[1].split()]
    pairs = [(toks[k + 1], toks[k]) for k in range(0, len(toks), 2)]
    return pairs, int(den.split(":")[1])


def check_hilbert(query, report):
    spec, res = query.spec, report["results"]
    sub = query.argv[1]
    if sub == "coeff":
        want = expand(*spec["series"], spec["n"], spec["n"])[0]
        expect(res["coefficient"] == want, f"coefficient {res['coefficient']}, expected {want}")
    elif sub == "window":
        want = expand(*spec["series"], spec["lo"], spec["hi"])
        expect(res["values"] == want, "window values differ from the expansion")
    elif sub == "hadamard":
        out_pairs, out_den = parse_series(res["series"])
        (lp, ld), (rp, rd) = spec["left"], spec["right"]
        expect(out_den == ld + rd - 1, f"hadamard denominator {out_den}")
        lo = min(e for e, _ in lp + rp + out_pairs)
        hi = max(e for e, _ in lp + rp + out_pairs) + ld + rd + 5
        left, right = expand(lp, ld, lo, hi), expand(rp, rd, lo, hi)
        want = [x * y for x, y in zip(left, right)]
        expect(expand(out_pairs, out_den, lo, hi) == want,
               "hadamard series does not expand to the coefficientwise product")
    else:
        raise CheckFailed(f"no check for hilbert {sub}")


CHECKERS = {"toric": check_toric, "oracle": check_oracle,
            "classify": check_classify, "hilbert": check_hilbert}


def check(query, report):
    """Raise CheckFailed unless report answers query correctly."""
    expect(report.get("command") == " ".join(query.argv[:2]),
           f"report is for {report.get('command')!r}")
    CHECKERS[query.argv[0]](query, report)
