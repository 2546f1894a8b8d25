import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segrecm.errors import ResourceCap, WindowTooSmall
from segrecm.oracle import (_levels, _linked_counts, _sides, friendliness,
                            monomial_factor, parse_ring_spec, toric_factor)
from segrecm.toric import census, segre, validate

from oracles import (TruncatedModule, _first_unspanned,
                     algebra_from_monomial_quotient, algebra_from_toric,
                     dense_hom_dim, hom_window, nonzero, points_by_multisets,
                     segre_module, shift_module)


def nilpotent(name, power, n=8):
    return algebra_from_monomial_quotient([name], [(power,)], n)


# truncated reference rings, and the same rings as factors of the engine
R3 = nilpotent("x", 3)
S2 = nilpotent("y", 2)
X3 = monomial_factor(["x"], [(3,)])
Y2 = monomial_factor(["y"], [(2,)])
# K[z] is the unit of the Segre product: R # K[z] is R, R(a) # K[z](a) is R(a)
Z = monomial_factor(["z"], [])
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
        with pytest.raises(ResourceCap, match="labels of K\\[a,b,c,d\\].* cap of 10"):
            _levels(monomial_factor(list("abcd"), []), 6, cap=10)

    def test_enumeration_stops_at_first_empty_level(self):
        # eight labels and 201 levels fit the cap; the monomials of
        # degrees up to 200 in three variables would not
        levels = _levels(monomial_factor(list("abc"), [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
                         200, cap=300)
        assert len(levels) == 201 and levels[200] == ()
        assert [len(level) for level in levels[:6]] == [1, 3, 3, 1, 0, 0]


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
        with pytest.raises(ValueError, match="do not overlap"):
            segre_module(shift_module(R3, 30), shift_module(S2, -30))

    def test_toric_free_product_reproduces_census(self):
        from segrecm.toric import census
        cubic = validate([[1, 1, 1], [0, 1, 2]])
        m = segre_module(algebra_from_toric(I2, 5), algebra_from_toric(cubic, 5))
        counts_i2 = census(I2, 5)
        counts_cubic = census(cubic, 5)
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
    """The exact engine on Artinian pairs, where the truncated reference
    and the dense solver see the whole module."""

    def test_golden_dual_components(self):
        rep = friendliness(X3, Y2, 2, 1, -6, 6)
        assert nonzero(rep.compared, rep.left_dims) == {1: 1, 2: 1}

    def test_hom_of_ring_is_hilbert_function(self):
        for alg, factor in ((R3, X3), (S2, Y2), (
                algebra_from_monomial_quotient(["x", "y"], [(2, 0), (0, 2)], 6),
                monomial_factor(["x", "y"], [(2, 0), (0, 2)]))):
            rep = friendliness(factor, Z, 0, 0, -3, 6)
            for off, i in enumerate(range(-3, 7)):
                assert rep.left_dims[off] == alg.dim(i)

    def test_free_shift_dual(self):
        # hom dimensions of a shifted free module match the opposite shift
        for a in (-2, -1, 0, 1, 2):
            rep = friendliness(X3, Z, a, a, -6, 6)
            dual = shift_module(R3, -a)
            for off, i in enumerate(range(-6, 7)):
                assert rep.left_dims[off] == rep.right_dims[off] == dual.dim(i)

    def test_single_socle_module(self):
        # one basis element with zero action: only one hom degree survives
        m = segre_module(shift_module(R3, -2), shift_module(S2, -1))
        assert m.support() == [2]
        rep = friendliness(X3, Y2, -2, -1, -6, 6)
        assert nonzero(rep.compared, rep.left_dims) == {-1: 1}

    def test_empty_window(self):
        m = segre_module(shift_module(R3, 2), shift_module(S2, -1))
        assert not m.support()
        with pytest.raises(WindowTooSmall):
            friendliness(X3, Y2, 2, -1, -2, 2)

    def test_matches_dense_solver(self):
        pairs = [
            ((["x"], [(3,)]), (["y"], [(2,)])),
            ((["x"], [(4,)]), (["y"], [(3,)])),
            ((["x", "y"], [(2, 0), (0, 2)]), (["z"], [(2,)])),
        ]
        for spec1, spec2 in pairs:
            ra, rb = (algebra_from_monomial_quotient(*spec, 8) for spec in (spec1, spec2))
            t = segre_module(ra, rb)
            for sa in (-1, 0, 2):
                for sb in (0, 1):
                    m = segre_module(shift_module(ra, sa), shift_module(rb, sb))
                    if not m.support():
                        continue
                    rep = friendliness(monomial_factor(*spec1), monomial_factor(*spec2),
                                       sa, sb, -5, 5)
                    for off, i in enumerate(range(-5, 6)):
                        assert rep.left_dims[off] == dense_hom_dim(m, t, i), (
                            ra.name, rb.name, sa, sb, i)

    def test_relabeling_invariance(self):
        # listing the variables in another order changes no dimension
        base = monomial_factor(["x", "y"], [(3, 0), (1, 1)])
        swapped = monomial_factor(["y", "x"], [(0, 3), (1, 1)])
        for a, b in ((0, 0), (1, 0), (-1, 2)):
            assert friendliness(base, Z, a, b, -2, 5) == friendliness(swapped, Z, a, b, -2, 5)


def _shuffled_levels(levels, rng):
    """Each degree's labels listed in another order."""
    return tuple(tuple(rng.sample(level, len(level))) for level in levels)


def _permuted_copy(mod, rng):
    """Same ring or module with each degree's basis listed in another order."""
    return TruncatedModule(mod.lo, _shuffled_levels(mod.basis, rng),
                           mod.complete, name=mod.name + " permuted")


class TestFriendliness:
    def test_golden_counterexample(self):
        rep = friendliness(X3, Y2, 2, 1, -6, 6)
        assert rep.verdict == "not_friendly_certified"
        assert nonzero(rep.compared, rep.left_dims) == {1: 1, 2: 1}
        assert nonzero(rep.compared, rep.right_dims) == {2: 1}

    def test_zero_shifts_always_match(self):
        for f1, f2 in ((X3, Y2), (monomial_factor(["x"], [(4,)]), monomial_factor(["y"], [(4,)]))):
            rep = friendliness(f1, f2, 0, 0, -6, 6)
            assert rep.verdict == "consistent"
            assert nonzero(rep.compared, rep.left_dims) == nonzero(rep.compared, rep.right_dims)

    def test_toric_pair_consistent(self):
        # the plane as a semigroup ring and as the polynomial ring K[x, y]
        rep = friendliness(toric_factor(I2), monomial_factor(["x", "y"], []), 1, 0,
                           i_lo=-4, i_hi=4)
        assert rep.verdict == "consistent"
        assert rep.mismatches == ()


# the rational quartic K[s^4, s^3 t, s t^3, t^4]: not normal, depth 1
QUARTIC = validate([[4, 3, 1, 0], [0, 1, 3, 4]])
P2 = toric_factor(I2)
Q = toric_factor(QUARTIC)


class TestToricFriendliness:
    def test_plane_square_is_exact(self):
        rep = friendliness(P2, P2, 1, 0, -4, 4)
        assert rep.verdict == "consistent"
        assert rep.compared == tuple(range(-4, 5))
        assert rep.left_dims == rep.right_dims == (0, 0, 0, 0, 0, 2, 6, 12, 20)

    def test_quartic_is_certified_not_friendly(self):
        rep = friendliness(Q, P2, 1, 0, -3, 3)
        assert rep.verdict == "not_friendly_certified"
        assert rep.mismatches == (2,)
        assert (rep.left_dims[5], rep.right_dims[5]) == (15, 12)
        rep = friendliness(Q, Q, 2, 0, -3, 3)
        assert rep.verdict == "not_friendly_certified" and rep.mismatches == (3,)
        assert (rep.left_dims[6], rep.right_dims[6]) == (65, 52)

    def test_candidate_cap(self):
        # the census of I2 to degree 4 holds 15 points; the candidates of
        # degrees 0..4 times the two generators of G_R make 30 tests, and
        # times the one generator of G_S another 15
        friendliness(P2, P2, 1, 0, -4, 4, cap=45)
        with pytest.raises(ResourceCap, match="toric Hom candidates: .* 30 .* cap of 20"):
            friendliness(P2, P2, 1, 0, -4, 4, cap=20)

    def test_empty_window(self):
        with pytest.raises(ValueError, match="empty"):
            friendliness(P2, P2, 0, 0, 1, 0)


class TestRingSpec:
    def test_single_variable(self):
        assert parse_ring_spec("x:3") == (["x"], [(3,)])

    def test_multi_variable(self):
        assert parse_ring_spec("x,y:2 0,0 2") == (["x", "y"], [(2, 0), (0, 2)])

    def test_polynomial_ring(self):
        assert parse_ring_spec("x,y") == (["x", "y"], [])

    def test_errors(self):
        # only the text is checked here; monomial_factor checks the ring
        with pytest.raises(ValueError, match="bad relation"):
            parse_ring_spec("x:q")
        assert parse_ring_spec("") == ([], [])
        assert parse_ring_spec("x,x:2 0") == (["x", "x"], [(2, 0)])

    @pytest.mark.parametrize("spec, match", [
        ("", "at least one variable"), (":3", "at least one variable"),
        ("x,x", "repeats a variable name"), ("x,x:2 0", "repeats a variable name"),
        ("x:1 2", "bad relation exponent vector"), ("x,y:1 -1", "bad relation exponent vector"),
        ("x,y:0 0", "bad relation exponent vector")])
    def test_monomial_factor_rejects(self, spec, match):
        with pytest.raises(ValueError, match=match):
            monomial_factor(*parse_ring_spec(spec))


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
    def test_monomial_hom_candidates(self):
        # (a^2, b^2)(1) # (c^3): 2 x 2 pairs of the generators a, b, and
        # the distinct multidegree signatures over degrees 0..2 hold 8
        # candidates and 7 fired links, 4 of them to a relation
        pair = (monomial_factor(["a", "b"], [(2, 0), (0, 2)]), monomial_factor(["c"], [(3,)]))
        friendliness(*pair, 1, 0, -4, 4, cap=19)
        with pytest.raises(ResourceCap, match="monomial Hom candidates: .* 19 .* cap of 18"):
            friendliness(*pair, 1, 0, -4, 4, cap=18)


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


def quotient_factor(relations, name):
    """The engine's factor for the ring that quotient(relations, n, name) truncates."""
    return monomial_factor([f"{name}{j}" for j in range(len(relations[0]))],
                           [r for r in relations if any(r)])


def reference_ring(spec, n_alg, name):
    """The truncated reference ring of a monomial quotient (nvars, relations)
    or of a toric presentation."""
    if isinstance(spec, tuple):
        nvars, rels = spec
        return algebra_from_monomial_quotient([f"{name}{j}" for j in range(nvars)], rels, n_alg)
    return algebra_from_toric(spec, n_alg)


def engine_factor(spec, name):
    if isinstance(spec, tuple):
        nvars, rels = spec
        return monomial_factor([f"{name}{j}" for j in range(nvars)], rels)
    return toric_factor(spec)


# small standard graded presentations: an all-ones top row grades every column
toric_presentations = st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), max_size=2)
    .map(lambda rows: validate([[1] * cols] + rows)))


class TestHomProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(artinian_rings, artinian_rings, st.integers(-2, 3), st.integers(-2, 3))
    def test_matches_dense_solver(self, rels1, rels2, a, b):
        ra, rb = quotient(rels1, 10, "x"), quotient(rels2, 10, "y")
        pair = (quotient_factor(rels1, "x"), quotient_factor(rels2, "y"))
        m = segre_module(shift_module(ra, a), shift_module(rb, b))
        if not m.support():
            with pytest.raises(WindowTooSmall):
                friendliness(*pair, a, b, -4, 4)
            return
        t = segre_module(ra, rb)
        hom = hom_window(m, t, -4, 4)
        rep = friendliness(*pair, a, b, -4, 4)
        assert hom.exact
        for off, i in enumerate(range(-4, 5)):
            assert rep.left_dims[off] == hom.dim_at(i) == dense_hom_dim(m, t, i), (
                ra.name, rb.name, a, b, i)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(monomial_quotients(), st.one_of(monomial_quotients(), toric_presentations),
           st.integers(-2, 2), st.integers(-2, 2), st.booleans())
    def test_matches_truncated_reference(self, spec1, spec2, a, b, swap):
        # non-Artinian quotients and quotients paired with toric rings:
        # the reference is exact on its certified degrees and an upper
        # bound on the other degrees it models
        specs = (spec2, spec1) if swap else (spec1, spec2)
        n_alg = 2 + max(abs(a), abs(b)) + 4
        r1, r2 = (reference_ring(spec, n_alg, name) for spec, name in zip(specs, "xy"))
        m = segre_module(shift_module(r1, a), shift_module(r2, b))
        pair = [engine_factor(spec, name) for spec, name in zip(specs, "xy")]
        if not m.support():
            with pytest.raises(WindowTooSmall):
                friendliness(*pair, a, b, -2, 2)
            return
        hom = hom_window(m, segre_module(r1, r2), -2, 2)
        rep = friendliness(*pair, a, b, -2, 2)
        for off, i in enumerate(range(-2, 3)):
            if hom.certified(i):
                assert rep.left_dims[off] == hom.dims[off], (specs, a, b, i)
            elif hom.dims[off] is not None:
                assert rep.left_dims[off] <= hom.dims[off], (specs, a, b, i)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(artinian_rings, truncated_rings), artinian_rings,
           st.integers(-2, 2), st.integers(-2, 2), st.randoms(use_true_random=False))
    def test_reordering_each_degree(self, rels1, rels2, a, b, rng):
        ra, rb = quotient(rels1, 6, "x"), quotient(rels2, 6, "y")
        m = segre_module(shift_module(ra, a), shift_module(rb, b))
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
        m = segre_module(shift_module(ra, a), shift_module(rb, b))
        assert _first_unspanned(m.basis, segre_module(ra, rb).gens) is None

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(any_rings, any_rings, st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-3, 3))
    def test_shift_commutes_with_segre(self, rels1, rels2, a, b, c):
        m = shift_module(quotient(rels1, 6, "x"), a)
        n = shift_module(quotient(rels2, 6, "y"), b)
        try:
            expected = shift_module(segre_module(m, n), c)
        except ValueError:
            with pytest.raises(ValueError):
                segre_module(shift_module(m, c), shift_module(n, c))
            return
        assert segre_module(shift_module(m, c), shift_module(n, c)) == expected


class TestToricFriendlinessProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(toric_presentations, toric_presentations, st.integers(-2, 2),
           st.integers(-2, 2), st.integers(-3, 1), st.integers(0, 3))
    def test_matches_truncated_engine(self, p, q, a, b, i_lo, width):
        i_hi = i_lo + width
        rep = friendliness(toric_factor(p), toric_factor(q), a, b, i_lo, i_hi)
        assert rep.compared == tuple(range(i_lo, i_hi + 1))
        # the truncated engine: certified degrees are exact, clipped ones
        # upper bounds; the windows overlap since n_alg >= |a - b|
        n_alg = max(0, i_hi) + max(abs(a), abs(b)) + 2
        r1, r2 = algebra_from_toric(p, n_alg), algebra_from_toric(q, n_alg)
        hom = hom_window(segre_module(shift_module(r1, a), shift_module(r2, b)),
                         segre_module(r1, r2), i_lo, i_hi)
        n_max = max(0, i_hi - min(a, b))
        c1, c2 = census(p, n_max), census(q, n_max)
        for off, i in enumerate(range(i_lo, i_hi + 1)):
            if hom.certified(i):
                assert rep.left_dims[off] == hom.dims[off], (p, q, a, b, i)
            elif hom.dims[off] is not None:
                assert rep.left_dims[off] <= hom.dims[off], (p, q, a, b, i)
            want = c1[i - a] * c2[i - b] if i >= max(a, b) else 0
            assert rep.right_dims[off] == want, (p, q, a, b, i)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(toric_presentations, toric_presentations, st.integers(-2, 2),
           st.integers(-2, 2), st.integers(-3, 1), st.integers(0, 3))
    def test_union_find_matches_product_count(self, p, q, a, b, i_lo, width):
        # without relations every candidate links and no class is zero,
        # so the union-find count is the product count
        pair = (toric_factor(p), toric_factor(q))
        rep = friendliness(*pair, a, b, i_lo, i_lo + width)
        k0, sides = _sides(pair, (a, b), i_lo + width, 10**9)
        unit, side = sides if a <= b else sides[::-1]
        degrees = range(i_lo, i_lo + width + 1)
        assert tuple(_linked_counts(unit, side, degrees, k0, 10**9)) == rep.left_dims
