"""Machine-speed reference for calibrating query times.

The benchmark runs on shared machines whose speed drifts by 10-20 %
from one minute to the next.  Every timed query is therefore
paired with a fixed computation whose cost does not depend on the
program under test: a query's calibrated time is its raw time scaled by
NOMINAL_UNIT_S / (measured duration of one reference unit).  The unit
mixes the kinds of work the program does (hashing tuples into sets,
small-integer arithmetic, Fraction elimination) so that it slows down
when the program would.

This module uses the standard library only and must never import the
package it calibrates.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Nominal duration of one reference unit: about its median on the 2-core
# VM (Python 3.11.7) the benchmark was tuned on, when that machine was
# quiet.  Calibrated times are in seconds of that machine; the constant
# never changes with the program.
NOMINAL_UNIT_S = 0.00050

UNITS_PER_SAMPLE = 5

_COLUMNS = ((3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (0, 1, 2))
_LAYERS = 4
_MATRIX = tuple(tuple((3 * i + 5 * j) % 7 - 3 for j in range(5)) for i in range(5))


def reference_unit():
    """One fixed unit of work; returns a checksum so it cannot be elided."""
    layer = {(0, 0, 0)}
    for _ in range(_LAYERS):
        layer = {(a + x, b + y, c + z) for (a, b, c) in layer for (x, y, z) in _COLUMNS}
    rows = [[Fraction(v) for v in row] for row in _MATRIX]
    rank = 0
    for col in range(5):
        pivot = next((r for r in range(rank, 5) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(5):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return len(layer) * 10 + rank


EXPECTED_CHECKSUM = reference_unit()


def reference_sample(min_seconds=0.0):
    """(median unit duration in seconds, units run) over at least
    UNITS_PER_SAMPLE units and at least min_seconds of them.

    The median rejects a unit hit by an interrupt, while the sample as a
    whole tracks how fast the machine runs right now.  Callers pass a
    share of the neighbouring query's duration as min_seconds, because
    the machine's speed drifts within a second: a long query needs a
    long sample to be calibrated well.
    """
    times = []
    start = perf_counter()
    while len(times) < UNITS_PER_SAMPLE or perf_counter() - start < min_seconds:
        t0 = perf_counter()
        value = reference_unit()
        times.append(perf_counter() - t0)
        if value != EXPECTED_CHECKSUM:
            raise RuntimeError(f"reference checksum {value} != {EXPECTED_CHECKSUM}")
    return statistics.median(times), len(times)


def calibration(before, after):
    """Factor from raw to calibrated time for work between two samples.

    The samples are weighted by their unit counts, so the long sample
    that follows a long query outweighs the short one before it.
    """
    (t_before, n_before), (t_after, n_after) = before, after
    unit = (t_before * n_before + t_after * n_after) / (n_before + n_after)
    return NOMINAL_UNIT_S / unit
