"""Seeded inputs for the benchmark's three workloads.

Each workload is a fixed list of query slots.  The seed fills in the
data of every slot (matrices, rings, shifts, factor data), but never the
slot's command or its cost class; only the cheapest commands vary in
size, within their class.  So every seed yields the same cost classes in
the same proportions, and the p50 and p90 latencies land inside a class
on every seed instead of on the boundary between two.  Only the generated
files and argument lists reach the program.  This module uses the
standard library only.
"""

from __future__ import annotations

import os
import random
from itertools import combinations
from math import gcd
from typing import NamedTuple

from checks import from_columns, quotient_top, segre_matrix, standard_monomials, tensor_matrix


class Query(NamedTuple):
    """One CLI command: its argv and what the checks need to know."""

    argv: tuple[str, ...]
    spec: dict


class Workload(NamedTuple):
    queries: tuple[Query, ...]
    warmup: tuple[tuple[str, ...], ...]


def write_matrix(path, matrix):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(matrix)} {len(matrix[0])}\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in matrix)
    return path


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# toric-census


def identity(rng, n):
    """Polynomial ring in n variables, generators in seeded order."""
    return from_columns(shuffled(rng, [tuple(int(i == j) for i in range(n)) for j in range(n)]))


def monomial_set(rng):
    """x^3, y^3, z^3 and two more degree-3 monomials, seeded.

    The extra pair is drawn among the 18 whose exponent differences span
    the whole degree-3 lattice.  All 18 give the same census (checked to
    degree 14), so the census work does not depend on the seed.
    """
    cubes = standard_monomials(3, (), 3)
    corners = [m for m in cubes if 3 in m]
    pairs = []
    for extra in combinations([m for m in cubes if 3 not in m], 2):
        cols = corners + list(extra)
        diffs = [[x - y for x, y in zip(c, cols[0])] for c in cols[1:]]
        index = 0
        for u, v in combinations(diffs, 2):
            index = gcd(index, u[0] * v[1] - u[1] * v[0])
        if index == 1:
            pairs.append(extra)
    return from_columns(shuffled(rng, corners + list(rng.choice(pairs))))


def toric_census(rng, workdir):
    """Census and kernel commands on I2-I4, the degree-2 Veronese of
    K[x,y,z], two seeded degree-3 monomial sets and their products."""
    base = {f"I{n}": ("poly", n, identity(rng, n)) for n in (2, 3, 4)}
    base["V"] = ("veronese2", 3, from_columns(shuffled(rng, standard_monomials(3, (), 2))))
    base["R1"] = ("set", "R1", monomial_set(rng))
    base["R2"] = ("set", "R2", monomial_set(rng))
    paths = {name: write_matrix(os.path.join(workdir, f"{name}.mat"), f[2])
             for name, f in base.items()}
    products = {}
    for kind, left, right in (("segre", "I2", "I3"), ("segre", "R1", "I2"),
                              ("tensor", "V", "I2")):
        build = segre_matrix if kind == "segre" else tensor_matrix
        name = f"{kind}-{left}-{right}"
        matrix = build(base[left][2], base[right][2])
        products[name] = (matrix, (kind, base[left], base[right]))
        paths[name] = write_matrix(os.path.join(workdir, f"{name}.mat"), matrix)

    def matrix_of(name):
        return products[name][0] if name in products else base[name][2]

    def shape_of(name):
        return products[name][1] if name in products else ("base", base[name])

    def census(name, upto):
        return Query(("toric", "census", "--matrix", paths[name], "--upto", str(upto)),
                     {"shape": shape_of(name), "upto": upto})

    def product(kind, left, right, upto):
        return Query(("toric", kind, "--left", paths[left], "--right", paths[right],
                      "--census", str(upto)),
                     {"left": base[left][2], "right": base[right][2], "upto": upto,
                      "shape": (kind, base[left], base[right])})

    # Four cost classes of 4, 5, 9 and 6 queries (about 5, 10-35, 50-120
    # and 200-600 ms on the tuning machine): p50 falls in the third class
    # and p90 in the fourth.
    queries = [Query(("toric", "kernel", "--matrix", paths[name]), {"matrix": matrix_of(name)})
               for name in ("V", "R1", "segre-R1-I2", "tensor-V-I2")]
    queries += [product("tensor", "R1", "I2", 6), product("segre", "I2", "I2", 20),
                product("tensor", "I2", "I3", 10), product("tensor", "R2", "V", 5),
                census("tensor-V-I2", 8)]
    queries += [census("I4", 20), census("V", 20), census("R1", 20), census("R2", 20),
                census("segre-I2-I3", 16), census("segre-R1-I2", 8),
                product("segre", "I2", "I4", 10), product("segre", "V", "I2", 10),
                product("segre", "R1", "I2", 10)]
    queries += [product("segre", "I4", "I2", 13), product("segre", "R2", "V", 5),
                product("segre", "V", "R1", 5), product("segre", "I3", "I3", 12),
                census("segre-R1-I2", 12), product("segre", "I3", "I4", 10)]
    warmup = (("toric", "validate", "--matrix", paths["I2"]),
              ("toric", "kernel", "--matrix", paths["I2"]),
              ("toric", "census", "--matrix", paths["I2"], "--upto", "2"),
              ("toric", "segre", "--left", paths["I2"], "--right", paths["I2"], "--census", "2"),
              ("toric", "tensor", "--left", paths["I2"], "--right", paths["I2"], "--census", "2"))
    return Workload(tuple(shuffled(rng, queries)), warmup)


# ---------------------------------------------------------------------------
# oracle-friendly

# Artinian monomial quotients as (nvars, relations); all standard graded
ARTINIAN = (
    (1, ((2,),)), (1, ((3,),)), (1, ((4,),)), (1, ((5,),)),
    (2, ((2, 0), (0, 2))), (2, ((3, 0), (0, 2))), (2, ((2, 0), (1, 1), (0, 3))),
    (2, ((2, 0), (1, 1), (0, 2))), (3, ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
)

NAMES = "abcdefghpqrstuvwxyz"


def ring_spec(names, relations):
    rels = ",".join(" ".join(map(str, rel)) for rel in relations)
    return f"{','.join(names)}:{rels}"


def artinian_query(rng, ring1, ring2, a, b, window):
    names = rng.sample(NAMES, ring1[0] + ring2[0])
    spec1 = ring_spec(names[:ring1[0]], ring1[1])
    spec2 = ring_spec(names[ring1[0]:], ring2[1])
    argv = ("oracle", "friendly", "--ring1", spec1, "--ring2", spec2,
            "--shift1", str(a), "--shift2", str(b), "--window", f"{window[0]}..{window[1]}")
    return Query(argv, {"kind": "artinian", "rings": (ring1, ring2), "shifts": (a, b),
                        "window": window})


def oracle_friendly(rng, workdir):
    """Artinian pairs with seeded shifts and windows, the golden pair,
    and four truncation-bound toric Segre squares over I2 and I3.

    The Artinian pairs take about 5 ms each, the toric squares 0.15 to
    3 s and most of the time.
    """
    golden = Query(("oracle", "friendly", "--ring1", "x:3", "--ring2", "y:2",
                    "--shift1", "2", "--shift2", "1", "--window", "-6..6"),
                   {"kind": "artinian", "rings": ((1, ((3,),)), (1, ((2,),))),
                    "shifts": (2, 1), "window": (-6, 6), "golden": True})
    queries = [golden]
    # the pairs of rings and the windows are fixed slots, so the seed does
    # not change how much Hom work the Artinian pairs hold
    for slot in range(37):
        ring1, ring2 = ARTINIAN[slot % 9], ARTINIAN[(4 * slot + slot // 9 + 2) % 9]
        top1, top2 = quotient_top(*ring1), quotient_top(*ring2)
        a = rng.randint(-2, 3)
        # R(a) lives in degrees -a..top1-a; pick b so that S(b) meets it
        b = rng.randint(max(-2, a - top1), min(3, a + top2))
        w = 4 + slot % 3
        queries.append(artinian_query(rng, ring1, ring2, a, b, (-w, w)))
    mats = {(n, copy): write_matrix(os.path.join(workdir, f"I{n}{copy}.mat"), identity(rng, n))
            for n in (2, 3) for copy in "ab"}
    # (n, shifts, window) of the toric Segre squares I_n # I_n; the seed
    # orders the generators of each factor.  Sorted by cost the 44 queries
    # run: 38 Artinian, four mixed-shift I2 squares, the I2 square on +-6,
    # the I3 square.  p50 (rank 22.5) is an Artinian pair; p90 (rank 40.5)
    # sits in the middle of the four mixed-shift squares.
    for n, shifts, window in ((2, (2, -1), (-3, 3)), (2, (2, -1), (-3, 3)),
                              (2, (-1, 2), (-3, 3)), (2, (-1, 2), (-3, 3)),
                              (2, (1, 0), (-6, 6)), (3, (1, 0), (-1, 1))):
        argv = ("oracle", "friendly", "--toric1", mats[n, "a"], "--toric2", mats[n, "b"],
                "--shift1", str(shifts[0]), "--shift2", str(shifts[1]),
                "--window", f"{window[0]}..{window[1]}")
        queries.append(Query(argv, {"kind": "toric", "nvars": (n, n), "shifts": shifts,
                                    "window": window}))
    warmup = (("oracle", "friendly", "--ring1", "x:2", "--ring2", "y:2",
               "--shift1", "0", "--shift2", "0", "--window", "-1..1"),
              ("oracle", "friendly", "--toric1", mats[2, "a"], "--toric2", mats[2, "b"],
               "--shift1", "0", "--shift2", "0", "--window", "0..0"))
    return Workload(tuple(shuffled(rng, queries)), warmup)


# ---------------------------------------------------------------------------
# classify-sweep


def csv(values):
    return ",".join(map(str, values))


def depth_query(rng, m):
    dims = [rng.randint(2, 5) for _ in range(m)]
    ainv = [-rng.randint(1, d + 2) for d in dims]
    shifts = [rng.randint(-4, 4) for _ in range(m)]
    return Query(("classify", "depth", "--dims", csv(dims), "--ainv", csv(ainv),
                  "--shifts", csv(shifts)), {"dims": dims, "ainv": ainv, "shifts": shifts})


def rho_list(rng, m, lo=1, hi=12, distinct=False):
    while True:
        rhos = sorted((rng.randint(lo, hi) for _ in range(m)), reverse=True)
        if not distinct or rhos[0] != rhos[-1]:
            return rhos


def cm_twist_query(rng, m, a=None, lo=1, hi=12):
    rhos = rho_list(rng, m, lo, hi)
    a = rng.randint(-6, 6) if a is None else a
    return Query(("classify", "cm-twist", "--rho", csv(rhos), "--a", str(a)),
                 {"rho": rhos, "a": a})


def random_series(rng):
    den = rng.randint(1, 3)
    while True:
        exps = sorted(rng.sample(range(-3, 6), rng.randint(1, 4)))
        pairs = [(e, rng.choice([-2, -1, 1, 2, 3])) for e in exps]
        if sum(c for _, c in pairs) != 0:
            text = "num: " + " ".join(f"{c} {e}" for e, c in pairs) + f" ; den: {den}"
            return text, (pairs, den)


def classify_sweep(rng, workdir):
    """100 small classification and series commands and 20 depth and
    cm-twist commands with 14-18 factors, whose 2^m subset loops are the
    latency tail."""
    queries = []
    for _ in range(20):
        queries.append(depth_query(rng, rng.randint(2, 10)))
    for _ in range(16):
        queries.append(cm_twist_query(rng, rng.randint(2, 6)))
    for _ in range(14):
        rhos = rho_list(rng, rng.randint(2, 6))
        queries.append(Query(("classify", "interval", "--rho", csv(rhos)), {"rho": rhos}))
    for _ in range(12):
        rhos = rho_list(rng, rng.randint(2, 6))
        queries.append(Query(("classify", "anticanonical", "--rho", csv(rhos)), {"rho": rhos}))
    for _ in range(12):
        rhos = rho_list(rng, rng.randint(2, 6), distinct=True)
        a = rng.randint(-6, 6)
        queries.append(Query(("classify", "power", "--rho", csv(rhos), "--a", str(a)),
                             {"rho": rhos, "a": a}))
    for _ in range(10):
        (ltext, left), (rtext, right) = random_series(rng), random_series(rng)
        queries.append(Query(("hilbert", "hadamard", "--left", ltext, "--right", rtext),
                             {"left": left, "right": right}))
    for _ in range(8):
        text, series = random_series(rng)
        n = rng.randint(-2, 40)
        queries.append(Query(("hilbert", "coeff", "--series", text, "--n", str(n)),
                             {"series": series, "n": n}))
    for _ in range(8):
        text, series = random_series(rng)
        lo = rng.randint(-5, 5)
        hi = lo + rng.randint(10, 30)
        queries.append(Query(("hilbert", "window", "--series", text, "--lo", str(lo),
                              "--hi", str(hi)), {"series": series, "lo": lo, "hi": hi}))
    # The tail: every subset of the factors is visited.  cm-twist rhos lie
    # within a factor 1.4 of each other and a = 2, so the criterion holds
    # and the raw form cannot stop early.  Sorted by cost the 20 run
    # cm-twist 14, depth 14, then the larger m; p90 (rank 108.9 of 120)
    # falls on the 8th and 9th of them, inside the six depth-14 commands.
    for kind, m, count in (("cm-twist", 14, 5), ("depth", 14, 6), ("depth", 15, 2),
                           ("cm-twist", 16, 2), ("depth", 16, 2), ("cm-twist", 17, 1),
                           ("depth", 17, 1), ("depth", 18, 1)):
        for _ in range(count):
            queries.append(depth_query(rng, m) if kind == "depth"
                           else cm_twist_query(rng, m, a=2, lo=10, hi=14))
    warmup = (("classify", "interval", "--rho", "4,2"),
              ("classify", "depth", "--dims", "3,2", "--ainv", "-3,-2", "--shifts", "0,-3"),
              ("hilbert", "hadamard", "--left", "num: 1 0 ; den: 2", "--right", "num: 1 0 ; den: 2"))
    return Workload(tuple(shuffled(rng, queries)), warmup)


BUILDERS = {"toric-census": toric_census, "oracle-friendly": oracle_friendly,
            "classify-sweep": classify_sweep}


def build(name, seed, workdir):
    """The workload's queries for this seed, with its files under workdir."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, workdir)
