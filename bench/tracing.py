"""Spans recorded from outside the program, and the per-layer metrics.

The tracer replaces public functions by module attribute with wrappers
that record a span (name, start, end, parent, query) and a work count
computed from the call's arguments and result.  A function that a later
change removes is skipped: its metrics read zero calls instead of
failing the run.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
from time import perf_counter


def _first(args, kwargs):
    """The first argument, whether passed by position or by keyword."""
    return args[0] if args else next(iter(kwargs.values()))


def _levels(result):
    """Total basis size of a truncated algebra or module."""
    return sum(len(level) for level in getattr(result, "basis", ()))


def _hom_counts(args, kwargs, result):
    dims = getattr(result, "dims", ())
    certified = getattr(result, "certified", None)
    lo = getattr(result, "i_lo", 0)
    return {"degrees": len(dims), "squares": sum(getattr(result, "squares", ())),
            "certified": sum(1 for i in range(lo, lo + len(dims))
                             if certified is not None and certified(i))}


# (module, attribute, span name, counter); the class path handles methods
TARGETS = (
    ("segrecm.cli", "run", "cli.run", None),
    ("segrecm.toric", "validate", "toric.validate", None),
    ("segrecm.toric", "kernel_lattice", "toric.kernel_lattice", None),
    ("segrecm.toric", "census", "toric.census",
     lambda a, k, r: {"points": sum(r.counts)}),
    ("segrecm.linalg", "integer_kernel", "linalg.integer_kernel", None),
    ("segrecm.linalg", "solve_right", "linalg.solve_right", None),
    # oracle imports nullspace_int by name, so both bindings are wrapped
    ("segrecm.linalg", "nullspace_int", "linalg.nullspace_int",
     lambda a, k, r: {"rows": len(_first(a, k))}),
    ("segrecm.oracle", "nullspace_int", "linalg.nullspace_int",
     lambda a, k, r: {"rows": len(_first(a, k))}),
    ("segrecm.series", "HilbertSeries.hadamard", "series.hadamard",
     lambda a, k, r: {"terms": len(r.numerator)}),
    ("segrecm.cohomo", "cohomology_support", "cohomo.cohomology_support",
     lambda a, k, r: {"subsets": 2 ** len(_first(a, k)) - 1, "witnesses": len(r.witnesses)}),
    ("segrecm.cohomo", "cm_uniform_twist_raw", "cohomo.cm_uniform_twist_raw",
     lambda a, k, r: {"subsets": 2 ** len(_first(a, k)) - 2}),
    ("segrecm.oracle", "algebra_from_monomial_quotient", "oracle.algebra",
     lambda a, k, r: {"basis": _levels(r)}),
    ("segrecm.oracle", "algebra_from_toric", "oracle.algebra",
     lambda a, k, r: {"basis": _levels(r)}),
    ("segrecm.oracle", "segre_algebra", "oracle.segre",
     lambda a, k, r: {"basis": _levels(r)}),
    ("segrecm.oracle", "segre_module", "oracle.segre",
     lambda a, k, r: {"basis": _levels(r)}),
    ("segrecm.oracle", "hom_window", "oracle.hom_window", _hom_counts),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "query", "counts")

    def __init__(self, name, parent, query):
        self.name, self.parent, self.query = name, parent, query
        self.start = self.end = 0.0
        self.counts = None

    def as_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "query": self.query, "counts": self.counts}


class Tracer:
    """Wraps TARGETS while installed; spans accumulate in self.spans.

    A counter that no longer fits a changed function records no counts
    and adds the span name to counter_errors; the call itself proceeds.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.counter_errors = set()
        self.query = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.query)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, StopIteration):
                    self.counter_errors.add(name)
            return result
        return traced

    def install(self):
        for module_name, attr, name, counter in self.targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name, counter))

    def uninstall(self):
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)


# per-layer metrics: (name, unit, better)
LAYER_METRICS = (
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_ms", "ms", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("toric.census.calls", "count", "lower"),
    ("toric.census.ms", "ms", "lower"),
    ("toric.census.points", "count", "lower"),
    ("toric.census.points_per_s", "1/s", "higher"),
    ("toric.validate.ms", "ms", "lower"),
    ("toric.kernel_lattice.ms", "ms", "lower"),
    ("linalg.integer_kernel.ms", "ms", "lower"),
    ("linalg.solve_right.ms", "ms", "lower"),
    ("linalg.nullspace_int.calls", "count", "lower"),
    ("linalg.nullspace_int.ms", "ms", "lower"),
    ("linalg.nullspace_int.rows", "count", "lower"),
    ("series.hadamard.calls", "count", "lower"),
    ("series.hadamard.ms", "ms", "lower"),
    ("series.hadamard.terms", "count", "lower"),
    ("cohomo.cohomology_support.calls", "count", "lower"),
    ("cohomo.cohomology_support.ms", "ms", "lower"),
    ("cohomo.subsets", "count", "lower"),
    ("cohomo.witnesses", "count", "lower"),
    ("cohomo.cm_uniform_twist_raw.ms", "ms", "lower"),
    ("cohomo.cm_uniform_twist_raw.subsets", "count", "lower"),
    ("oracle.algebra.ms", "ms", "lower"),
    ("oracle.algebra.basis", "count", "lower"),
    ("oracle.segre.ms", "ms", "lower"),
    ("oracle.segre.basis", "count", "lower"),
    ("oracle.hom_window.calls", "count", "lower"),
    ("oracle.hom_window.ms", "ms", "lower"),
    ("oracle.hom.degrees", "count", "lower"),
    ("oracle.hom.squares", "count", "lower"),
    ("oracle.hom.certified_share", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_totals(spans, factors):
    """Calls, calibrated milliseconds and counts per span name.

    factors[q] scales the spans of query q to calibrated time.  A span
    nested inside a span of the same name adds to calls and counts but
    not to time, which the outer span already covers.  self_ms is the
    span time minus the time of its direct children.
    """
    totals = {}
    child_ms = [0.0] * len(spans)
    for span in spans:
        ms = (span.end - span.start) * 1e3 * factors[span.query]
        if span.parent is not None:
            child_ms[span.parent] += ms
    for idx, span in enumerate(spans):
        ms = (span.end - span.start) * 1e3 * factors[span.query]
        entry = totals.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += ms - child_ms[idx]
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            entry["ms"] += ms
        for key, value in (span.counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def layer_metrics(totals, passes, output_bytes, overhead_pct):
    """Per-pass values of LAYER_METRICS from layer_totals."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0) / passes

    census_ms = get("toric.census", "ms")
    degrees = get("oracle.hom_window", "degrees")
    values = {
        "cli.run.calls": get("cli.run", "calls"),
        "cli.run.self_ms": get("cli.run", "self_ms"),
        "cli.output_bytes": output_bytes / passes,
        "toric.census.calls": get("toric.census", "calls"),
        "toric.census.ms": census_ms,
        "toric.census.points": get("toric.census", "points"),
        "toric.census.points_per_s": (get("toric.census", "points") / census_ms * 1e3
                                      if census_ms else 0.0),
        "toric.validate.ms": get("toric.validate", "ms"),
        "toric.kernel_lattice.ms": get("toric.kernel_lattice", "ms"),
        "linalg.integer_kernel.ms": get("linalg.integer_kernel", "ms"),
        "linalg.solve_right.ms": get("linalg.solve_right", "ms"),
        "linalg.nullspace_int.calls": get("linalg.nullspace_int", "calls"),
        "linalg.nullspace_int.ms": get("linalg.nullspace_int", "ms"),
        "linalg.nullspace_int.rows": get("linalg.nullspace_int", "rows"),
        "series.hadamard.calls": get("series.hadamard", "calls"),
        "series.hadamard.ms": get("series.hadamard", "ms"),
        "series.hadamard.terms": get("series.hadamard", "terms"),
        "cohomo.cohomology_support.calls": get("cohomo.cohomology_support", "calls"),
        "cohomo.cohomology_support.ms": get("cohomo.cohomology_support", "ms"),
        "cohomo.subsets": get("cohomo.cohomology_support", "subsets"),
        "cohomo.witnesses": get("cohomo.cohomology_support", "witnesses"),
        "cohomo.cm_uniform_twist_raw.ms": get("cohomo.cm_uniform_twist_raw", "ms"),
        "cohomo.cm_uniform_twist_raw.subsets": get("cohomo.cm_uniform_twist_raw", "subsets"),
        "oracle.algebra.ms": get("oracle.algebra", "ms"),
        "oracle.algebra.basis": get("oracle.algebra", "basis"),
        "oracle.segre.ms": get("oracle.segre", "ms"),
        "oracle.segre.basis": get("oracle.segre", "basis"),
        "oracle.hom_window.calls": get("oracle.hom_window", "calls"),
        "oracle.hom_window.ms": get("oracle.hom_window", "ms"),
        "oracle.hom.degrees": degrees,
        "oracle.hom.squares": get("oracle.hom_window", "squares"),
        "oracle.hom.certified_share": (get("oracle.hom_window", "certified") / degrees
                                       if degrees else 0.0),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
