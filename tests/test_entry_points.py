"""Library entry points end in a documented way on any argument.

The seven public callables of cohomo, toric.validate,
oracle.monomial_factor, the HilbertSeries constructor, coeff, shift and
window of a fixed series and integer_points of a fixed TwistInterval
each get arguments drawn from a small grammar:
ints, huge ints, floats, Fractions, None, strings and nested tuples of
these; window's cap is at most the default one.  Each call must return,
or raise TypeError, ValueError, a DomainError or ResourceCap, within two
seconds; any other exception fails the test as it propagates.
"""

import inspect
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from segrecm import cohomo
from segrecm.errors import DEFAULT_POINT_CAP, DomainError, ResourceCap
from segrecm.oracle import monomial_factor
from segrecm.series import HilbertSeries
from segrecm.toric import validate

SERIES = HilbertSeries([(0, 1), (1, 1)], 3)
ENTRY_POINTS = {f.__name__: f for f in (
    cohomo.cohomology_support, cohomo.cm_uniform_twist, cohomo.cm_uniform_twist_raw,
    cohomo.cm_chain, cohomo.anticanonical_cm_m2, cohomo.cm_twist_interval,
    cohomo.canonical_power_cm, validate, monomial_factor, HilbertSeries,
    SERIES.coeff, SERIES.shift, SERIES.window, cohomo.cm_twist_interval([4, 2]).integer_points)}
DOCUMENTED = (TypeError, ValueError, DomainError, ResourceCap)

ints = st.one_of(st.integers(-6, 6), st.sampled_from([10**200, -10**200, 2**64 + 1]))
not_ints = st.one_of(
    st.sampled_from([2.0, 1e200, -1.0, 0.5, float("inf"), float("nan")]),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.none(),
    st.sampled_from(["", "x", "y", "2", "x y"]))
int_rows = st.lists(ints, min_size=1, max_size=4).map(tuple)
# most draws have the shape of a valid argument, an int or tuples of ints
# (or of variable names), so the checks past the first reader run too
values = st.one_of(
    ints, int_rows, st.lists(int_rows, min_size=1, max_size=4).map(tuple),
    st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3).map(tuple),
    st.recursive(st.one_of(ints, not_ints), lambda inner: st.lists(inner, max_size=4).map(tuple),
                 max_leaves=12))
# a cap is the work the caller allows: window(0, 2**64, 2**64 + 1) may list
# 2**64 coefficients, so window's drawn cap is at most the default one
window_caps = st.one_of(st.integers(-6, 6), st.sampled_from([DEFAULT_POINT_CAP, -10**200]),
                        not_ints)


def arguments(name):
    """Every required positional argument of the entry point, and maybe its cap."""
    params = inspect.signature(ENTRY_POINTS[name]).parameters.values()
    required = sum(p.default is p.empty for p in params)
    caps = window_caps if name == "window" else values
    return st.tuples(st.tuples(*[values] * required),
                     st.lists(caps, max_size=len(params) - required)).map(
                         lambda drawn: drawn[0] + tuple(drawn[1]))


calls = st.sampled_from(sorted(ENTRY_POINTS)).flatmap(
    lambda name: st.tuples(st.just(name), arguments(name)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(call=calls)
@example(call=("cm_chain", ((3, 2, 1), 1e200)))
@example(call=("cm_uniform_twist", ((2, 2), 1e200)))
@example(call=("cm_uniform_twist_raw", ((1, 3, 2), 2.0)))
@example(call=("canonical_power_cm", ((3, 2), 10**200)))
@example(call=("cm_chain", ((2, 2), 10**200)))
@example(call=("cm_twist_interval", ((10**200 + 1, 10**200),)))
@example(call=("cohomology_support",
               (((2, 0, -2), (2, -10**200, -2 - 10**200)), 2**64 + 1)))
@example(call=("monomial_factor", (("x", "y"), ((10**200, 0),))))
@example(call=("validate", (((1, 2), (3,)),)))
@example(call=("HilbertSeries", (((0, 1), (10**200, -1)), 1)))
@example(call=("window", (-5, 2**64 + 1)))
def test_every_call_ends_in_a_documented_way(call):
    name, args = call
    start = time.perf_counter()
    try:
        ENTRY_POINTS[name](*args)
    except DOCUMENTED:
        pass
    assert time.perf_counter() - start < 2, call
