"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every stated tolerance and runtime budget is asserted here.
"""

import random
import time
from itertools import combinations_with_replacement

from segrecm.cli import run
from segrecm.cohomo import (anticanonical_cm_m2, cm_twist_interval,
                            cm_uniform_twist, cm_uniform_twist_raw,
                            cohomology_support)
from segrecm.oracle import friendliness, monomial_factor, toric_factor
from segrecm.series import HilbertSeries
from segrecm.toric import census, kernel_lattice, segre, validate

from oracles import (chain_by_fractions, nonzero, prop_depth_m2, support_witnesses,
                     uniform_twist_by_subsets)

I2 = validate([[1, 0], [0, 1]])


def _sorted_vectors_exhaustive(max_m, lo, hi):
    for m in range(1, max_m + 1):
        for combo in combinations_with_replacement(range(hi, lo - 1, -1), m):
            yield list(combo)


def _sweep_cases():
    """Criterion 2 case list: exhaustive small plus seeded random."""
    cases = [v for v in _sorted_vectors_exhaustive(3, -4, 4)]
    rng = random.Random(2024)
    for _ in range(1000):
        m = rng.randint(1, 6)
        cases.append(sorted((rng.randint(-10, 10) for _ in range(m)),
                            reverse=True))
    return cases


def test_criterion_1_golden_counterexample(capsys):
    t0 = time.perf_counter()
    ring_r = monomial_factor(["x"], [(3,)])
    ring_s = monomial_factor(["y"], [(2,)])
    rep = friendliness(ring_r, ring_s, 2, 1, i_lo=-6, i_hi=6)
    elapsed = time.perf_counter() - t0
    assert nonzero(rep.compared, rep.left_dims) == {1: 1, 2: 1}
    assert nonzero(rep.compared, rep.right_dims) == {2: 1}
    assert rep.verdict == "not_friendly_certified"
    assert elapsed < 1.0, f"golden counterexample took {elapsed:.2f}s"
    code = run(["oracle", "friendly", "--ring1", "x:3", "--ring2", "y:2",
                "--shift1", "2", "--shift2", "1"])
    capsys.readouterr()
    assert code == 0
    with capsys.disabled():
        print(f"\ncriterion 1 PASS: golden counterexample certified "
              f"not friendly in {elapsed * 1000:.1f} ms")


def test_criterion_2_equivalence_sweep(capsys):
    t0 = time.perf_counter()
    cases = _sweep_cases()
    assert len(cases) >= 1200
    checked = 0
    for rhos in cases:
        for a in range(-10, 11):
            fast = cm_uniform_twist(rhos, a)
            assert fast == cm_uniform_twist_raw(rhos, a), (rhos, a)
            assert fast == uniform_twist_by_subsets(rhos, a), (rhos, a)
            if a not in (0, 1):
                assert fast == chain_by_fractions(rhos, a), (rhos, a)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"sweep took {elapsed:.2f}s"
    with capsys.disabled():
        print(f"criterion 2 PASS: {checked} criterion evaluations agree "
              f"across all three forms and the exhaustive subset check "
              f"in {elapsed:.2f}s")


def test_criterion_3_two_factor_conformance(capsys):
    checked = 0
    for r in range(2, 5):
        for s in range(2, 5):
            for rho in range(-5, 0):
                for sigma in range(-5, 0):
                    for a in range(-6, 7):
                        for b in range(-6, 7):
                            cases = prop_depth_m2(r, s, rho, sigma, a, b)
                            factors = [(r, -a, rho - a), (s, -b, sigma - b)]
                            kunneth = cohomology_support(factors)
                            assert cases.depth == kunneth.depth, \
                                (r, s, rho, sigma, a, b)
                            assert (cases.depth == cases.dim) == \
                                (kunneth.depth == kunneth.dim), \
                                (r, s, rho, sigma, a, b)
                            assert [tuple(w) for w in kunneth.witnesses] == \
                                support_witnesses(factors), (r, s, rho, sigma, a, b)
                            checked += 1
    with capsys.disabled():
        print(f"criterion 3 PASS: case split, support analysis and exhaustive "
              f"subsets agree on {checked} grid points")


def test_criterion_4_interval_law(capsys):
    rng = random.Random(77)
    vectors = []
    for _ in range(200):
        m = rng.randint(1, 6)
        vectors.append(sorted((rng.randint(1, 10) for _ in range(m)),
                              reverse=True))
    vectors.append([5, 5, 5])        # ratio 1: every twist works
    vectors.append([4, 2])           # ratio 2: exactly twists 0 and 1
    vectors.append([9, 3, 1])        # ratio 3
    for rhos in vectors:
        interval = cm_twist_interval(rhos)
        scan = [a for a in range(-50, 51) if cm_uniform_twist(rhos, a)]
        from_interval = [a for a in range(-50, 51)
                         if interval.lo is None or interval.lo < a < interval.hi]
        assert scan == from_interval, rhos
        if interval.lo is not None:
            pts = [a for a in interval.integer_points() if -50 <= a <= 50]
            assert pts == scan, rhos
    all_integers = cm_twist_interval([5, 5, 5])
    assert (all_integers.lo, all_integers.hi) == (None, None)
    assert cm_twist_interval([4, 2]).integer_points() == [0, 1]
    assert cm_twist_interval([9, 3, 1]).integer_points() == [0, 1]
    with capsys.disabled():
        print(f"criterion 4 PASS: twist intervals match brute scans on "
              f"{len(vectors)} vectors")


def test_criterion_5_anticanonical_consistency(capsys):
    checked = 0
    for rho1 in range(1, 11):
        for rho2 in range(1, rho1 + 1):
            assert anticanonical_cm_m2(-rho1, -rho2) == \
                cm_uniform_twist([rho1, rho2], -1), (rho1, rho2)
            checked += 1
    with capsys.disabled():
        print(f"criterion 5 PASS: two-factor anticanonical criterion matches "
              f"the twist criterion on {checked} pairs")


def test_criterion_6_toric_segre_census(capsys):
    sg = segre(I2, I2)
    counts = census(sg, 6)
    assert counts == tuple((n + 1) ** 2 for n in range(7))
    plane = HilbertSeries([(0, 1)], 2)
    product = plane.hadamard(plane)
    assert product == HilbertSeries([(0, 1), (1, 1)], 3)
    assert product.window(0, 6) == counts
    basis = kernel_lattice(sg)
    assert len(basis) == 1
    assert basis[0] == (1, -1, -1, 1)
    with capsys.disabled():
        print("criterion 6 PASS: plane product census, series product and "
              "relation lattice all agree exactly")


def test_criterion_7_census_hadamard_law(capsys):
    rng = random.Random(1234)
    done = 0
    while done < 20:
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        mat = [[1] * cols] + [[rng.randint(0, 3) for _ in range(cols)]
                              for _ in range(rows - 1)]
        p = validate(mat)
        rows2 = rng.randint(1, 3)
        cols2 = rng.randint(1, 4)
        mat2 = [[1] * cols2] + [[rng.randint(0, 3) for _ in range(cols2)]
                                for _ in range(rows2 - 1)]
        q = validate(mat2)
        left = census(segre(p, q), 5)
        cp, cq = census(p, 5), census(q, 5)
        assert left == tuple(a * b for a, b in zip(cp, cq)), (mat, mat2)
        done += 1
    with capsys.disabled():
        print(f"criterion 7 PASS: degreewise product census law holds on "
              f"{done} random presentations")


def test_criterion_8_toric_dual_consistency(capsys):
    compared_total = 0
    plane = toric_factor(I2)
    for a in (1, 2):
        rep = friendliness(plane, plane, -a, 0, -4, 4)
        for off, i in enumerate(range(-4, 5)):
            expected = (i + a + 1) * (i + 1) if i >= 0 else 0
            assert rep.left_dims[off] == expected, (a, i, rep.left_dims[off], expected)
            compared_total += 1
    assert compared_total >= 14
    with capsys.disabled():
        print(f"criterion 8 PASS: dual dimensions match the twisted product "
              f"Hilbert function on {compared_total} degrees")


def test_criterion_9_involution_and_ring_cm(capsys):
    rng = random.Random(99)
    for _ in range(100):
        v = [rng.randint(-30, 30) for _ in range(rng.randint(1, 8))]
        dual = [-x for x in v]  # the shift vector of the dual
        assert [-x for x in dual] == v
    # a Cohen-Macaulay twist module forces positive rho entries, hence a
    # Cohen-Macaulay ring; with a single factor there is no condition to
    # test, so the sweep covers factor counts from 2 up
    checked = 0
    for rhos in _sweep_cases():
        if len(rhos) < 2:
            continue
        for a in range(-10, 11):
            if cm_uniform_twist(rhos, a):
                assert rhos[-1] > 0, (rhos, a)
                checked += 1
    assert checked > 0
    with capsys.disabled():
        print(f"criterion 9 PASS: shift duality is an involution and "
              f"{checked} Cohen-Macaulay cases all have positive entries")
