"""End-to-end benchmark of the segrecm command line.

Run from the root of a checkout:

    python3 bench/run.py --workload classify-sweep --seed 1 --seconds 20 --trace 0

One process runs one workload on one thread as a closed loop with a
single client: each CLI command is issued through segrecm.cli.run with
stdout captured, and the next is issued only after it returns.  Every
answer is checked by bench/checks.py.  Times are calibrated against the
reference computation in bench/reference.py, run between queries.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run.  Raw (uncalibrated)
figures go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import checks
import tracing
import workloads
from reference import NOMINAL_UNIT_S, calibration, reference_sample

# Calibrated seconds of one pass over each workload's batch, as measured
# when the benchmark was tuned.  The pass count is --seconds over this,
# rounded, and at least 3; it never depends on how fast a run goes.
PASS_SECONDS = {"toric-census": 2.6, "oracle-friendly": 5.7, "classify-sweep": 7.3}
MIN_PASSES = 3
SETUP_REPEATS = 9
# reference time after a query, as a share of the query's own time
REFERENCE_SHARE = 0.1
OUT_DIR = ".bench_out"


def invoke(cli, argv):
    """(exit code, stdout, raw seconds) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.run(list(argv))
        except Exception:  # a crash is a failed operation, not a dead run
            code = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - t0
    if code != 0:
        print(f"query failed ({code}): {' '.join(argv)}\n{err.getvalue()}", file=sys.stderr)
    return code, out.getvalue(), elapsed


def set_up(name, seed, src, workdir):
    """Import the package fresh, build the inputs, warm the CLI up."""
    for mod in [m for m in sys.modules if m == "segrecm" or m.startswith("segrecm.")]:
        del sys.modules[mod]
    cli = importlib.import_module("segrecm.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"segrecm was imported from {cli.__file__}, not from {src}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workloads.build(name, seed, workdir)
    for argv in workload.warmup:
        if invoke(cli, argv)[0] != 0:
            raise SystemExit(f"warm-up command failed: {' '.join(argv)}")
    return cli, workload


def run_pass(cli, queries, tracer=None, pass_idx=0):
    """Run the batch once; returns [(code, out, raw s, calibration factor)].

    A reference sample is taken between consecutive queries; a query's
    factor uses the samples just before and just after it.
    """
    rows = []
    gc.collect()
    before = reference_sample()
    for idx, query in enumerate(queries):
        if tracer is not None:
            tracer.query = (pass_idx, idx)
        code, out, elapsed = invoke(cli, query.argv)
        after = reference_sample(REFERENCE_SHARE * elapsed)
        rows.append((code, out, elapsed, calibration(before, after)))
        gc.collect()
        before = after
    return rows


def summarize(passes, n, scale):
    """queries_per_s over all passes, and p50 and p90 over the batch of
    each query's median latency across passes; scale(row) is the
    calibration factor, or 1.0 for raw figures."""
    per_query = [[scale(row) * row[2] for row in rows] for rows in passes]
    latency = [statistics.median(p[i] for p in per_query) * 1e3 for i in range(n)]
    return {"queries_per_s": n * len(passes) / sum(map(sum, per_query)),
            "query_p50_ms": statistics.median(latency),
            "query_p90_ms": statistics.quantiles(latency, n=10)[8]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "segrecm", "cli.py")):
        print(f"error: no segrecm sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(root, OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")

    setups = []
    for _ in range(SETUP_REPEATS):
        before = reference_sample()
        t0 = perf_counter()
        cli, workload = set_up(args.workload, args.seed, src, workdir)
        elapsed = perf_counter() - t0
        after = reference_sample(REFERENCE_SHARE * elapsed)
        setups.append((elapsed, calibration(before, after)))

    queries = workload.queries
    n_passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
    tracer = tracing.Tracer() if args.trace else None
    passes = []
    for idx in range(n_passes):
        # the traced run alternates plain (even) and traced (odd) passes
        if tracer is not None and idx % 2 == 1:
            tracer.install()
            try:
                passes.append(run_pass(cli, queries, tracer, idx))
            finally:
                tracer.uninstall()
        else:
            passes.append(run_pass(cli, queries))

    correct, failed, verified = True, 0, {}
    for rows in passes:
        for query, (code, out, _, _) in zip(queries, rows):
            if code != 0:
                failed += 1
                continue
            if verified.get(query.argv) == out:
                continue
            try:
                checks.check(query, json.loads(out))
            except (checks.CheckFailed, ValueError, KeyError, TypeError) as exc:
                correct = False
                print(f"check failed: {' '.join(query.argv)}: {exc!r}", file=sys.stderr)
            else:
                verified[query.argv] = out
    shutil.rmtree(workdir, ignore_errors=True)

    n = len(queries)
    raw = summarize(passes, n, lambda row: 1.0)
    raw["setup_s"] = statistics.median(t for t, _ in setups)
    calibrated_pass = [sum(r[2] * r[3] for r in rows) for rows in passes]
    raw["pass_s"] = [sum(r[2] for r in rows) for rows in passes]
    raw["calibrated_pass_s"] = calibrated_pass
    raw["reference_unit_ms"] = statistics.median(
        NOMINAL_UNIT_S / r[3] for rows in passes for r in rows) * 1e3
    print(f"raw {args.workload} seed {args.seed}: {json.dumps(raw)}", file=sys.stderr)

    if tracer is None:
        values = summarize(passes, n, lambda row: row[3])
        values["setup_s"] = statistics.median(t * f for t, f in setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {"setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
                 "query_p90_ms": "ms", "peak_rss_mb": "MB"}
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    else:
        traced = range(1, n_passes, 2)
        overhead = (statistics.mean(calibrated_pass[i] for i in traced)
                    / statistics.mean(calibrated_pass[0::2]) - 1) * 100
        factors = {(i, q): row[3] for i in traced for q, row in enumerate(passes[i])}
        output_bytes = sum(len(row[1].encode()) for i in traced for row in passes[i])
        if tracer.counter_errors:
            print(f"counts not recorded for: {sorted(tracer.counter_errors)}", file=sys.stderr)
        totals = tracing.layer_totals(tracer.spans, factors)
        metrics = tracing.layer_metrics(totals, len(traced), output_bytes, overhead)
        path = os.path.join(root, OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_json() for s in tracer.spans], fh)

    attempted = n * n_passes
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
