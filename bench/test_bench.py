"""Tests of the benchmark's own machinery: checkers, reference, tracer."""

import ast
import json
import os
import sys
import types

import pytest

import checks
import reference
import tracing
import workloads
from workloads import Query

HERE = os.path.dirname(os.path.abspath(__file__))


def report(command, results):
    return {"command": command, "results": results}


def test_census_check_rejects_off_by_one():
    i2 = ((1, 0), (0, 1))
    shape = ("segre", ("poly", 2, i2), ("poly", 2, i2))
    query = Query(("toric", "census", "--matrix", "I2xI2.mat", "--upto", "3"),
                  {"shape": shape, "upto": 3})
    checks.check(query, report("toric census", {"counts": [1, 4, 9, 16]}))
    with pytest.raises(checks.CheckFailed):
        checks.check(query, report("toric census", {"counts": [1, 4, 9, 17]}))


def test_census_check_by_multiset_enumeration():
    cols = ((3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (1, 2, 0))
    matrix = workloads.from_columns(cols)
    # degree 2: 15 multisets; x^3 y^3 = (x^2 y)(x y^2), x^3 (x y^2) = (x^2 y)^2
    # and y^3 (x^2 y) = (x y^2)^2 collide
    assert checks.multiset_census(matrix, 2) == [1, 5, 12]
    shape = ("tensor", ("set", "R", matrix), ("poly", 1, ((1,),)))
    assert checks.expected_census(shape, 2) == [1, 6, 18]


def test_oracle_check_rejects_changed_hom_dimension():
    golden = {"kind": "artinian", "rings": ((1, ((3,),)), (1, ((2,),))),
              "shifts": (2, 1), "window": (-1, 3), "golden": True}
    query = Query(("oracle", "friendly"), golden)
    good = {"left_dims": [0, 0, 1, 1, 0], "right_dims": [0, 0, 0, 1, 0],
            "left_nonzero": {"1": 1, "2": 1}, "right_nonzero": {"2": 1},
            "verdict": "not_friendly_certified"}
    checks.check(query, report("oracle friendly", good))
    bad = dict(good, left_dims=[0, 0, 1, 2, 0])
    with pytest.raises(checks.CheckFailed):
        checks.check(query, report("oracle friendly", bad))


def test_toric_oracle_check_uses_divisorial_dimensions():
    spec = {"kind": "toric", "nvars": (2, 2), "shifts": (1, 0), "window": (0, 2)}
    query = Query(("oracle", "friendly"), spec)
    dims = [0, 2, 6]  # C(i, 1) * C(i + 1, 1)
    checks.check(query, report("oracle friendly", {"left_dims": dims, "right_dims": dims}))
    with pytest.raises(checks.CheckFailed):
        checks.check(query, report("oracle friendly",
                                   {"left_dims": [0, 2, 5], "right_dims": dims}))


def test_depth_check_rejects_flipped_is_cm():
    spec = {"dims": [3, 2], "ainv": [-3, -2], "shifts": [0, -3]}
    query = Query(("classify", "depth"), spec)
    good = {"dim": 4, "depth": 2, "is_cm": False,
            "witnesses": [{"q": 2, "subset": [2], "lo": 0, "hi": 1},
                          {"q": 4, "subset": [1, 2], "lo": None, "hi": -3}]}
    checks.check(query, report("classify depth", good))
    with pytest.raises(checks.CheckFailed):
        checks.check(query, report("classify depth", dict(good, is_cm=True)))


def test_cm_twist_check_rejects_flipped_is_cm():
    query = Query(("classify", "cm-twist"), {"rho": [3, 2], "a": 2})
    checks.check(query, report("classify cm-twist",
                               {"is_cm": True, "is_cm_raw": True, "chain": True}))
    with pytest.raises(checks.CheckFailed):
        checks.check(query, report("classify cm-twist",
                                   {"is_cm": False, "is_cm_raw": False, "chain": False}))


def test_hilbert_checks_expand_by_prefix_sums():
    assert checks.expand([(0, 1), (1, 1)], 3, 0, 3) == [1, 4, 9, 16]
    left = ([(0, 1)], 2)
    query = Query(("hilbert", "hadamard"), {"left": left, "right": left})
    checks.check(query, report("hilbert hadamard", {"series": "num: 1 0 1 1 ; den: 3"}))
    with pytest.raises(checks.CheckFailed):
        checks.check(query, report("hilbert hadamard", {"series": "num: 1 0 2 1 ; den: 3"}))


def test_reference_imports_nothing_from_the_package():
    with open(os.path.join(HERE, "reference.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    imported.discard("__future__")
    assert imported <= set(sys.stdlib_module_names), imported
    unit, units = reference.reference_sample()
    assert unit > 0 and units >= reference.UNITS_PER_SAMPLE


def test_missing_layer_function_reports_zero_calls(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tracer = tracing.Tracer(targets=(("fake_layer", "present", "toric.census", None),
                                     ("fake_layer", "removed", "oracle.hom_window", None),
                                     ("no_such_module", "run", "cli.run", None)))
    tracer.query = 0
    tracer.install()
    try:
        assert fake.present(1) == 2
    finally:
        tracer.uninstall()
    assert fake.present(1) == 2 and len(tracer.spans) == 1
    totals = tracing.layer_totals(tracer.spans, {0: 1.0})
    metrics = tracing.layer_metrics(totals, 1, 0, 0.0)
    assert metrics["toric.census.calls"]["value"] == 1
    assert metrics["oracle.hom_window.calls"]["value"] == 0
    assert metrics["cli.run.calls"]["value"] == 0
    json.dumps(metrics)


def test_counter_that_does_not_fit_records_no_counts(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.census = lambda n_max: n_max  # returns no .counts
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tracer = tracing.Tracer(targets=(("fake_layer", "census", "toric.census",
                                      lambda a, k, r: {"points": sum(r.counts)}),))
    tracer.install()
    try:
        assert fake.census(n_max=3) == 3
    finally:
        tracer.uninstall()
    assert tracer.spans[0].counts is None
    assert tracer.counter_errors == {"toric.census"}


def test_self_time_subtracts_children():
    spans = [tracing.Span("cli.run", None, 0), tracing.Span("toric.census", 0, 0)]
    spans[0].start, spans[0].end = 0.0, 0.010
    spans[1].start, spans[1].end = 0.002, 0.006
    totals = tracing.layer_totals(spans, {0: 2.0})
    assert totals["cli.run"]["ms"] == pytest.approx(20.0)
    assert totals["cli.run"]["self_ms"] == pytest.approx(12.0)
    assert totals["toric.census"]["ms"] == pytest.approx(8.0)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workloads_repeat_per_seed(tmp_path, name):
    first = workloads.build(name, 7, str(tmp_path))
    again = workloads.build(name, 7, str(tmp_path))
    other = workloads.build(name, 8, str(tmp_path))
    assert [q.argv for q in first.queries] == [q.argv for q in again.queries]
    assert [q.argv for q in first.queries] != [q.argv for q in other.queries]
    assert sorted(q.argv[:2] for q in first.queries) == sorted(q.argv[:2] for q in other.queries)
