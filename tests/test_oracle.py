import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrecm.errors import EmptyWindow, ResourceCap, WindowTooSmall
from segrecm.oracle import (TruncatedModule, _first_unspanned,
                            algebra_from_monomial_quotient,
                            algebra_from_toric, friendliness_witness,
                            hom_window, parse_ring_spec, segre_module,
                            shift_module, toric_friendliness)
from segrecm.toric import census, segre, validate

from oracles import dense_hom_dim, points_by_multisets


def nilpotent(name, power, n=8):
    return algebra_from_monomial_quotient([name], [(power,)], n)


R3 = nilpotent("x", 3)
S2 = nilpotent("y", 2)
I2 = validate([[1, 0], [0, 1]])


class TestMonomialQuotient:
    def test_truncated_powers(self):
        assert nilpotent("x", 3, 5).dims() == {0: 1, 1: 1, 2: 1, 3: 0, 4: 0, 5: 0}
        assert nilpotent("y", 2, 5).dims() == {0: 1, 1: 1, 2: 0, 3: 0, 4: 0, 5: 0}

    def test_polynomial_ring(self):
        poly = algebra_from_monomial_quotient(["x", "y"], [], 3)
        assert poly.dims() == {0: 1, 1: 2, 2: 3, 3: 4}
        assert not poly.complete

    def test_square_relations(self):
        alg = algebra_from_monomial_quotient(["x", "y"], [(2, 0), (0, 2)], 4)
        assert alg.dims() == {0: 1, 1: 2, 2: 1, 3: 0, 4: 0}
        assert alg.complete

    def test_label_products(self):
        alg = nilpotent("x", 3, 4)
        assert alg.basis[1] == ((1,),)
        assert (2,) in alg.basis[2]    # x * x = x^2
        assert alg.basis[3] == ()      # x * x^2 = 0

    def test_cap(self):
        with pytest.raises(ResourceCap, match="monomial quotient K\\[a,b,c,d\\].* cap of 10"):
            algebra_from_monomial_quotient(list("abcd"), [], 6, cap=10)

    def test_enumeration_stops_at_first_empty_level(self):
        # eight labels and 201 levels fit the cap; the monomials of
        # degrees up to 200 in three variables would not
        alg = algebra_from_monomial_quotient(list("abc"), [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
                                             200, cap=300)
        assert alg.complete and alg.hi == 200
        assert [alg.dim(k) for k in range(6)] == [1, 3, 3, 1, 0, 0]


class TestToricAlgebra:
    def test_plane(self):
        alg = algebra_from_toric(I2, 2)
        assert alg.dims() == {0: 1, 1: 2, 2: 3}
        assert not alg.complete

    def test_segre_census_dims(self):
        alg = algebra_from_toric(segre(I2, I2), 2)
        assert alg.dims() == {0: 1, 1: 4, 2: 9}

    def test_product_is_vector_sum(self):
        alg = algebra_from_toric(I2, 3)
        sums = {tuple(a + b for a, b in zip(gen, pt))
                for gen in alg.basis[1] for pt in alg.basis[1]}
        assert sums == set(alg.basis[2])


class TestSegreModule:
    def test_golden_twisted_pair(self):
        m = segre_module(shift_module(R3, 2), shift_module(S2, 1))
        assert m.dims()[-1] == 1 and m.dims()[0] == 1
        assert m.support() == [-1, 0]
        assert m.basis[0] == ((1, 0),)       # x tensor 1 in degree -1
        assert m.basis[1] == ((2, 1),)       # x^2 tensor y in degree 0

    def test_ring_as_module(self):
        t = segre_module(R3, S2)
        assert t.support() == [0, 1]
        assert t.dims() == {k: int(k < 2) for k in range(9)}
        assert t.gens == ((1, 1),) and t.complete

    def test_dimension_law(self):
        rng = random.Random(41)
        for _ in range(10):
            a = rng.choice([2, 3, 4])
            b = rng.choice([2, 3])
            sa, sb = rng.randint(-2, 2), rng.randint(-2, 2)
            m1 = shift_module(nilpotent("x", a, 6), sa)
            m2 = shift_module(nilpotent("y", b, 6), sb)
            prod = segre_module(m1, m2)
            for k in range(prod.lo, prod.hi + 1):
                assert prod.dim(k) == m1.dim(k) * m2.dim(k)

    def test_disjoint_windows(self):
        with pytest.raises(EmptyWindow):
            segre_module(shift_module(R3, 30), shift_module(S2, -30))

    def test_toric_free_product_reproduces_census(self):
        from segrecm.toric import census
        cubic = validate([[1, 1, 1], [0, 1, 2]])
        m = segre_module(algebra_from_toric(I2, 5), algebra_from_toric(cubic, 5))
        counts_i2 = census(I2, 5).counts
        counts_cubic = census(cubic, 5).counts
        for k in range(6):
            assert m.dim(k) == counts_i2[k] * counts_cubic[k]


class TestShiftModule:
    def test_identity(self):
        assert shift_module(R3, 0) == R3

    def test_golden_shift(self):
        m = shift_module(nilpotent("x", 3, 5), 2)
        assert {k: d for k, d in m.dims().items() if d} == {-2: 1, -1: 1, 0: 1}

    def test_round_trip(self):
        assert shift_module(shift_module(S2, 3), -3) == S2


class TestHomWindow:
    def test_golden_dual_components(self):
        t = segre_module(R3, S2)
        m = segre_module(shift_module(R3, 2), shift_module(S2, 1))
        hom = hom_window(m, t, -6, 6)
        assert hom.exact
        assert hom.nonzero() == {1: 1, 2: 1}

    def test_hom_of_ring_is_hilbert_function(self):
        for alg in (R3, S2, algebra_from_monomial_quotient(
                ["x", "y"], [(2, 0), (0, 2)], 6)):
            hom = hom_window(alg, alg, -3, 6)
            assert hom.exact
            for i in range(-3, 7):
                assert hom.dim_at(i) == alg.dim(i)

    def test_free_shift_dual(self):
        # hom dimensions of a shifted free module match the opposite shift
        for a in (-2, -1, 0, 1, 2):
            m = shift_module(R3, a)
            dual = shift_module(R3, -a)
            hom = hom_window(m, R3, -6, 6)
            assert hom.exact
            for i in range(-6, 7):
                assert hom.dim_at(i) == dual.dim(i)

    def test_single_socle_module(self):
        # one basis element with zero action: only one hom degree survives
        t = segre_module(R3, S2)
        m = segre_module(shift_module(R3, -2), shift_module(S2, -1))
        assert m.support() == [2]
        hom = hom_window(m, t, -6, 6)
        assert hom.exact
        assert hom.nonzero() == {-1: 1}

    def test_empty_window(self):
        t = segre_module(R3, S2)
        m = segre_module(shift_module(R3, 2), shift_module(S2, -1))
        assert not m.support()
        with pytest.raises(WindowTooSmall):
            hom_window(m, t, -2, 2)

    def test_matches_dense_solver(self):
        algebras = [
            (nilpotent("x", 3), nilpotent("y", 2)),
            (nilpotent("x", 4), nilpotent("y", 3)),
            (algebra_from_monomial_quotient(["x", "y"], [(2, 0), (0, 2)], 8),
             nilpotent("z", 2)),
        ]
        for ra, rb in algebras:
            t = segre_module(ra, rb)
            for sa in (-1, 0, 2):
                for sb in (0, 1):
                    m = segre_module(shift_module(ra, sa), shift_module(rb, sb))
                    if not m.support():
                        continue
                    hom = hom_window(m, t, -5, 5)
                    assert hom.exact
                    for i in range(-5, 6):
                        assert hom.dim_at(i) == dense_hom_dim(m, t, i), (
                            ra.name, rb.name, sa, sb, i)

    def test_relabeling_invariance(self):
        base = algebra_from_monomial_quotient(["x", "y"], [(3, 0), (1, 1)], 6)
        perm = _permuted_copy(base, random.Random(43))
        left = hom_window(base, base, -2, 5).dims
        right = hom_window(perm, perm, -2, 5).dims
        assert left == right


def _shuffled_levels(levels, rng):
    """Each degree's labels listed in another order."""
    return tuple(tuple(rng.sample(level, len(level))) for level in levels)


def _permuted_copy(mod, rng):
    """Same ring or module with each degree's basis listed in another order."""
    return TruncatedModule(mod.lo, _shuffled_levels(mod.basis, rng),
                           mod.complete, name=mod.name + " permuted")


class TestFriendliness:
    def test_golden_counterexample(self):
        rep = friendliness_witness(R3, S2, 2, 1)
        assert rep.verdict == "not_friendly_certified"
        assert rep.exact
        assert rep.left_nonzero() == {1: 1, 2: 1}
        assert rep.right_nonzero() == {2: 1}

    def test_zero_shifts_always_match(self):
        for ra, rb in ((R3, S2), (nilpotent("x", 4), nilpotent("y", 4))):
            rep = friendliness_witness(ra, rb, 0, 0)
            assert rep.verdict == "consistent"
            assert rep.left_nonzero() == rep.right_nonzero()

    def test_toric_pair_consistent(self):
        plane = algebra_from_toric(I2, 9)
        rep = friendliness_witness(plane, plane, 1, 0, i_lo=-4, i_hi=4)
        assert rep.verdict == "consistent"
        assert not rep.exact
        assert rep.mismatches == ()


# the rational quartic K[s^4, s^3 t, s t^3, t^4]: not normal, depth 1
QUARTIC = validate([[4, 3, 1, 0], [0, 1, 3, 4]])


class TestToricFriendliness:
    def test_plane_square_is_exact(self):
        rep = toric_friendliness(I2, I2, 1, 0, -4, 4)
        assert rep.exact and rep.verdict == "consistent"
        assert rep.compared == tuple(range(-4, 5))
        assert rep.left_dims == rep.right_dims == (0, 0, 0, 0, 0, 2, 6, 12, 20)

    def test_quartic_is_certified_not_friendly(self):
        rep = toric_friendliness(QUARTIC, I2, 1, 0, -3, 3)
        assert rep.exact and rep.verdict == "not_friendly_certified"
        assert rep.mismatches == (2,)
        assert (rep.left_dims[5], rep.right_dims[5]) == (15, 12)
        rep = toric_friendliness(QUARTIC, QUARTIC, 2, 0, -3, 3)
        assert rep.verdict == "not_friendly_certified" and rep.mismatches == (3,)
        assert (rep.left_dims[6], rep.right_dims[6]) == (65, 52)

    def test_candidate_cap(self):
        # the census of I2 to degree 4 holds 15 points; the candidates of
        # degrees 0..4 times the two generators of G_R make 30 tests, and
        # times the one generator of G_S another 15
        toric_friendliness(I2, I2, 1, 0, -4, 4, cap=45)
        with pytest.raises(ResourceCap, match="toric Hom candidates: .* 30 .* cap of 20"):
            toric_friendliness(I2, I2, 1, 0, -4, 4, cap=20)

    def test_empty_window(self):
        with pytest.raises(ValueError, match="empty"):
            toric_friendliness(I2, I2, 0, 0, 1, 0)


class TestRingSpec:
    def test_single_variable(self):
        assert parse_ring_spec("x:3") == (["x"], [(3,)])

    def test_multi_variable(self):
        assert parse_ring_spec("x,y:2 0,0 2") == (["x", "y"], [(2, 0), (0, 2)])

    def test_polynomial_ring(self):
        assert parse_ring_spec("x,y") == (["x", "y"], [])

    def test_errors(self):
        for bad in ("", ":3", "x:1 2", "x:q", "x,x:2 0"):
            with pytest.raises(ValueError):
                parse_ring_spec(bad)


class TestModuleInvariants:
    def test_unspanned_algebra_rejected(self):
        # (1, 1) minus the only generator (1, 0) is no degree-1 label
        ring = TruncatedModule(0, (((0, 0),), ((1, 0),), ((1, 1),)), complete=False)
        with pytest.raises(ValueError, match="not spanned"):
            hom_window(ring, ring, 0, 1)

    def test_degree_zero_must_be_one_dimensional(self):
        ring = TruncatedModule(0, (((0,), (1,)), ((1,),)), complete=False)
        with pytest.raises(ValueError, match="one-dimensional"):
            hom_window(ring, ring, 0, 1)
        with pytest.raises(ValueError, match="one-dimensional"):
            hom_window(R3, shift_module(R3, 1), 0, 1)

    def test_gap_rejected(self):
        alg = nilpotent("x", 3, 5)
        bad_basis = list(alg.basis)
        bad_basis[1] = ()   # punch a hole below nonzero degree 2
        mod = TruncatedModule(0, tuple(bad_basis), complete=True)
        with pytest.raises(ValueError, match="not generated"):
            hom_window(mod, alg, -2, 2)


class TestCaps:
    def test_segre_levels(self):
        plane = algebra_from_toric(I2, 6)
        with pytest.raises(ResourceCap, match="Segre product .* cap of 40"):
            segre_module(plane, plane, cap=40)
        with pytest.raises(ResourceCap, match="Segre product .* cap of 40"):
            segre_module(shift_module(plane, 1), shift_module(plane, 1), cap=40)


# random Artinian monomial quotients: pure powers of every variable keep
# the quotient Artinian, an optional mixed monomial makes it non-Gorenstein
artinian_rings = st.one_of(
    st.tuples(st.just(1), st.integers(2, 4)).map(lambda p: ((p[1],),)),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.booleans()).map(
        lambda p: ((p[0], 0), (0, p[1])) + (((1, 1),) if p[2] else ())),
)
truncated_rings = st.sampled_from((((0,),), ((0, 0),), ((1, 1),), ((2, 0),)))


def quotient(relations, n_max, name):
    rels = [r for r in relations if any(r)]
    names = [f"{name}{j}" for j in range(len(relations[0]))]
    return algebra_from_monomial_quotient(names, rels, n_max)


def _unit_vectors(nvars):
    return [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]


@st.composite
def monomial_quotients(draw):
    """(nvars, relations): random nonzero exponent vectors, plus a pure
    power of every variable when the draw asks for an Artinian quotient."""
    nvars = draw(st.integers(1, 3))
    rels = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars).filter(any),
                         max_size=3))
    if draw(st.booleans()):
        rels += [tuple(draw(st.integers(1, 4)) * u for u in unit)
                 for unit in _unit_vectors(nvars)]
    return nvars, rels


class TestMonomialQuotientProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(monomial_quotients(), st.integers(1, 6))
    def test_levels_are_standard_monomials(self, quotient_rels, n_max):
        nvars, rels = quotient_rels
        alg = algebra_from_monomial_quotient([f"x{j}" for j in range(nvars)], rels, n_max)
        for k in range(n_max + 1):
            monomials = points_by_multisets(_unit_vectors(nvars), k)
            assert alg.basis[k] == tuple(
                m for m in monomials if not any(all(a >= r for a, r in zip(m, rel))
                                                 for rel in rels))
        assert alg.complete == (alg.basis[n_max] == ())


class TestHomProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(artinian_rings, artinian_rings, st.integers(-2, 3), st.integers(-2, 3))
    def test_matches_dense_solver(self, rels1, rels2, a, b):
        ra, rb = quotient(rels1, 10, "x"), quotient(rels2, 10, "y")
        try:
            m = segre_module(shift_module(ra, a), shift_module(rb, b))
        except EmptyWindow:
            return
        if not m.support():
            return
        t = segre_module(ra, rb)
        hom = hom_window(m, t, -4, 4)
        assert hom.exact
        for i in range(-4, 5):
            assert hom.dim_at(i) == dense_hom_dim(m, t, i), (ra.name, rb.name, a, b, i)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(artinian_rings, truncated_rings), artinian_rings,
           st.integers(-2, 2), st.integers(-2, 2), st.randoms(use_true_random=False))
    def test_reordering_each_degree(self, rels1, rels2, a, b, rng):
        ra, rb = quotient(rels1, 6, "x"), quotient(rels2, 6, "y")
        try:
            m = segre_module(shift_module(ra, a), shift_module(rb, b))
        except EmptyWindow:
            return
        if not m.support():
            return
        t = segre_module(ra, rb)
        left = hom_window(m, t, -3, 3)
        right = hom_window(_permuted_copy(m, rng), _permuted_copy(t, rng), -3, 3)
        assert (left.dims, left.squares, left.clipped) == \
            (right.dims, right.squares, right.clipped)


any_rings = st.one_of(artinian_rings, truncated_rings)


class TestConstructorsKeepTheChecks:
    """hom_window checks that the ring is standard graded and the module
    is generated in its lowest degree; Segre products and shifts keep
    both, which is why the constructors do not check them."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(any_rings, any_rings)
    def test_segre_of_rings_is_standard_graded(self, rels1, rels2):
        t = segre_module(quotient(rels1, 6, "x"), quotient(rels2, 6, "y"))
        assert t.lo == 0 and t.dim(0) == 1
        assert _first_unspanned(t.basis, t.gens) is None

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(any_rings, any_rings, st.integers(-3, 3), st.integers(-3, 3))
    def test_shifted_segre_generated_in_lowest_degree(self, rels1, rels2, a, b):
        ra, rb = quotient(rels1, 6, "x"), quotient(rels2, 6, "y")
        try:
            m = segre_module(shift_module(ra, a), shift_module(rb, b))
        except EmptyWindow:
            return
        assert _first_unspanned(m.basis, segre_module(ra, rb).gens) is None

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(any_rings, any_rings, st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-3, 3))
    def test_shift_commutes_with_segre(self, rels1, rels2, a, b, c):
        m = shift_module(quotient(rels1, 6, "x"), a)
        n = shift_module(quotient(rels2, 6, "y"), b)
        try:
            expected = shift_module(segre_module(m, n), c)
        except EmptyWindow:
            with pytest.raises(EmptyWindow):
                segre_module(shift_module(m, c), shift_module(n, c))
            return
        assert segre_module(shift_module(m, c), shift_module(n, c)) == expected


# small standard graded presentations: an all-ones top row grades every column
toric_presentations = st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), max_size=2)
    .map(lambda rows: validate([[1] * cols] + rows)))


class TestToricFriendlinessProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(toric_presentations, toric_presentations, st.integers(-2, 2),
           st.integers(-2, 2), st.integers(-3, 1), st.integers(0, 3))
    def test_matches_truncated_engine(self, p, q, a, b, i_lo, width):
        i_hi = i_lo + width
        rep = toric_friendliness(p, q, a, b, i_lo, i_hi)
        assert rep.exact and rep.compared == tuple(range(i_lo, i_hi + 1))
        # the truncated engine: certified degrees are exact, clipped ones
        # upper bounds; the windows overlap since n_alg >= |a - b|
        n_alg = max(0, i_hi) + max(abs(a), abs(b)) + 2
        r1, r2 = algebra_from_toric(p, n_alg), algebra_from_toric(q, n_alg)
        hom = hom_window(segre_module(shift_module(r1, a), shift_module(r2, b)),
                         segre_module(r1, r2), i_lo, i_hi)
        n_max = max(0, i_hi - min(a, b))
        c1, c2 = census(p, n_max).counts, census(q, n_max).counts
        for off, i in enumerate(range(i_lo, i_hi + 1)):
            if hom.certified(i):
                assert rep.left_dims[off] == hom.dims[off], (p, q, a, b, i)
            elif hom.dims[off] is not None:
                assert rep.left_dims[off] <= hom.dims[off], (p, q, a, b, i)
            want = c1[i - a] * c2[i - b] if i >= max(a, b) else 0
            assert rep.right_dims[off] == want, (p, q, a, b, i)
