"""The README's python example prints what its trailing comments say, a
non-integer entry raises TypeError, as its sign conventions state, and a
cap or window end is read as an integer, as its cap rules state."""

import contextlib
import io
from fractions import Fraction
from pathlib import Path

import pytest

from segrecm.cohomo import (anticanonical_cm_m2, cm_twist_interval, cm_uniform_twist_raw,
                            cohomology_support)
from segrecm.linalg import integer_kernel, pivot_columns, solve_right
from segrecm.oracle import friendliness, monomial_factor
from segrecm.series import HilbertSeries
from segrecm.toric import census, validate

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_readme_example_prints_its_comments():
    code = python_block()
    want = [line.rpartition("#")[2].strip() for line in code.splitlines()
            if line.startswith("print(")]
    assert want
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, str(README), "exec"), {})
    assert buf.getvalue().splitlines() == want


# each entry point once, with an entry int() would truncate to a valid input
NON_INTEGER = {
    "validate": lambda: validate([[1.5, 0], [0, 1]]),
    "monomial_factor": lambda: monomial_factor(["x"], [(Fraction(5, 2),)]),
    "cm_uniform_twist_raw": lambda: cm_uniform_twist_raw([Fraction(7, 2), 3], 2),
    "cm_twist_interval": lambda: cm_twist_interval([2.9, 1]),
    "solve_right": lambda: solve_right([[2]], [Fraction(1, 2)]),
    "pivot_columns": lambda: pivot_columns([[0.5, 1]]),
    "integer_kernel": lambda: integer_kernel([[1.5, 1]]),
    "cohomology_support": lambda: cohomology_support([(3, 0, -2.5), (2, 0, -2)]),
    "anticanonical_cm_m2": lambda: anticanonical_cm_m2(-2.5, -2),
    "HilbertSeries-exponent": lambda: HilbertSeries([(0.5, 1)], 2),
    "HilbertSeries-coefficient": lambda: HilbertSeries([(0, Fraction(3, 2))], 2),
    "HilbertSeries-denom_power": lambda: HilbertSeries([(0, 1)], 2.5),
    "shift": lambda: HilbertSeries([(0, 1)], 2).shift(0.5),
    "coeff": lambda: HilbertSeries([(0, 1)], 2).coeff(Fraction(5, 2)),
}


@pytest.mark.parametrize("call", NON_INTEGER.values(), ids=NON_INTEGER)
def test_non_integer_entry_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


I2, H2, ZERO = validate([[1, 0], [0, 1]]), HilbertSeries([(0, 1)], 2), HilbertSeries([], 0)
X3, Y2 = monomial_factor(["x"], [(3,)]), monomial_factor(["y"], [(2,)])
TRIPLES = [(3, 0, -3), (2, 3, 1)]
# each capped entry point with a cap that is no integer or is negative, and
# each window end or shift that is no integer: never an AttributeError, a
# cap stop or an answer
BAD_CAP_OR_WINDOW = {
    "census-cap": (lambda: census(I2, 3, cap=10.5), TypeError),
    "census-negative-cap": (lambda: census(I2, 3, cap=-1), ValueError),
    "census-degree-0-cap": (lambda: census(I2, 0, cap=2.5), TypeError),
    "census-degree-0-negative-cap": (lambda: census(I2, 0, cap=-1), ValueError),
    "cohomology_support-cap": (lambda: cohomology_support(TRIPLES, cap=2.5), TypeError),
    "cohomology_support-negative-cap": (lambda: cohomology_support(TRIPLES, cap=-1), ValueError),
    "coeff-cap": (lambda: H2.coeff(5, cap=2.5), TypeError),
    "coeff-negative-cap": (lambda: H2.coeff(5, cap=-1), ValueError),
    "polynomial-coeff-cap": (lambda: HilbertSeries([(0, 1)], 0).coeff(0, cap=2.5), TypeError),
    "polynomial-coeff-negative-cap": (lambda: HilbertSeries([(0, 1)], 0).coeff(0, cap=-1),
                                      ValueError),
    "window-end": (lambda: H2.window(0, 2.5), TypeError),
    "window-cap": (lambda: H2.window(0, 2, cap=Fraction(7, 2)), TypeError),
    "window-negative-cap": (lambda: H2.window(0, 2, cap=-1), ValueError),
    "hadamard-cap": (lambda: H2.hadamard(H2, cap=2.5), TypeError),
    "hadamard-negative-cap": (lambda: H2.hadamard(H2, cap=-1), ValueError),
    "zero-hadamard-cap": (lambda: ZERO.hadamard(H2, cap=2.5), TypeError),
    "zero-hadamard-negative-cap": (lambda: ZERO.hadamard(H2, cap=-1), ValueError),
    "all-integers-points-cap": (lambda: cm_twist_interval([5, 5]).integer_points(2.5), TypeError),
    "all-integers-points-negative-cap": (lambda: cm_twist_interval([5, 5]).integer_points(-1),
                                         ValueError),
    "friendliness-shift": (lambda: friendliness(X3, Y2, 0.5, 0, -2, 2), TypeError),
    "friendliness-window-end": (lambda: friendliness(X3, Y2, 0, 0, -2, 2.5), TypeError),
    "friendliness-cap": (lambda: friendliness(X3, Y2, 0, 0, -2, 2, cap=100.5), TypeError),
    "friendliness-negative-cap": (lambda: friendliness(X3, Y2, 0, 0, -2, 2, cap=-1), ValueError),
}
MESSAGE = {TypeError: "cannot be interpreted as an integer",
           ValueError: "cap must be a nonnegative integer"}


@pytest.mark.parametrize("call, error", BAD_CAP_OR_WINDOW.values(), ids=BAD_CAP_OR_WINDOW)
def test_cap_and_window_are_read_as_integers(call, error):
    with pytest.raises(error, match=MESSAGE[error]):
        call()
