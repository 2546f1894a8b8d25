"""Command line front end with deterministic JSON reports.

Subcommand tree mirrors the library modules: toric, hilbert, classify,
oracle.  Every successful run prints one report object with the fields
command, inputs, results, assumptions, version; keys are sorted and
rationals are rendered as lowest-terms "p/q" strings, so identical
invocations produce identical bytes.

Exit codes: 0 success, 2 usage error, 3 domain error, 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, cohomo, oracle, series, toric
from .errors import DomainError, ResourceCap


def _rat(x):
    """Canonical string for an integer or rational value."""
    if isinstance(x, Fraction):
        return str(x)
    return x


def _int_list(text, flag):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma separated integers, got {text!r}") from None


def _cap(text):
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"expects a nonnegative integer, got {text!r}")
    return cap


def _parse_window(text):
    lo_txt, sep, hi_txt = text.partition("..")
    if not sep:
        raise ValueError(f"--window expects 'lo..hi', got {text!r}")
    try:
        lo, hi = int(lo_txt), int(hi_txt)
    except ValueError:
        raise ValueError(f"--window expects integers, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"--window bounds are reversed in {text!r}")
    return lo, hi


GORENSTEIN_NOTE = "factor rings are Gorenstein standard graded with the stated data (not verified)"
FRIENDLY_NOTE = "the factor family is friendly: duals commute with the degreewise product (not verified)"
DIM_NOTE = "every factor has dimension at least 2 (not verified)"
DOMAIN_NOTE = "the tensor product of the factors is a domain (not verified)"
TORIC_DEPTH_NOTE = "toric factors have depth at least 2 (user supplied, not verified)"
TWIST_NOTES = [GORENSTEIN_NOTE, FRIENDLY_NOTE, DIM_NOTE]
DIM_ONE_NOTE = "subset support analysis with a dimension-1 factor (not independently verified)"


# ---------------------------------------------------------------------------
# handlers: each returns (inputs, results, assumptions)


def _do_toric_validate(ns):
    pres = toric.validate(toric.load_matrix(ns.matrix))
    inputs = {"matrix": [list(r) for r in pres.matrix]}
    results = {"rows": pres.nrows, "cols": pres.ncols,
               "grading": [_rat(x) for x in pres.grading]}
    return inputs, results, []


def _pres_results(pres, census_upto, cap):
    results = {"matrix": [list(r) for r in pres.matrix],
               "grading": [_rat(x) for x in pres.grading]}
    kern = toric.kernel_lattice(pres)
    results["kernel"] = {"rank": kern.rank,
                         "vectors": [list(v) for v in kern.vectors]}
    if census_upto is not None:
        results["census"] = list(toric.census(pres, census_upto, cap=cap).counts)
    return results


def _do_toric_product(ns):
    """toric tensor and toric segre: the subcommand names the product."""
    left = toric.validate(toric.load_matrix(ns.left))
    right = toric.validate(toric.load_matrix(ns.right))
    pres = getattr(toric, ns.subcommand)(left, right)
    inputs = {"left": [list(r) for r in left.matrix],
              "right": [list(r) for r in right.matrix]}
    return inputs, _pres_results(pres, ns.census, ns.cap), []


def _do_toric_kernel(ns):
    pres = toric.validate(toric.load_matrix(ns.matrix))
    kern = toric.kernel_lattice(pres)
    inputs = {"matrix": [list(r) for r in pres.matrix]}
    return inputs, {"rank": kern.rank,
                    "vectors": [list(v) for v in kern.vectors]}, []


def _do_toric_census(ns):
    pres = toric.validate(toric.load_matrix(ns.matrix))
    counts = toric.census(pres, ns.upto, cap=ns.cap).counts
    inputs = {"matrix": [list(r) for r in pres.matrix], "upto": ns.upto}
    return inputs, {"counts": list(counts)}, []


def _do_hilbert_coeff(ns):
    h = series.parse_series(ns.series)
    inputs = {"series": series.format_series(h), "n": ns.n}
    return inputs, {"coefficient": h.coeff(ns.n)}, []


def _do_hilbert_shift(ns):
    h = series.parse_series(ns.series)
    inputs = {"series": series.format_series(h), "a": ns.a}
    return inputs, {"series": series.format_series(h.shift(ns.a))}, []


def _do_hilbert_window(ns):
    h = series.parse_series(ns.series)
    win = h.window(ns.lo, ns.hi, cap=ns.cap)
    inputs = {"series": series.format_series(h), "lo": ns.lo, "hi": ns.hi}
    return inputs, {"lo": win.lo, "hi": win.hi, "values": list(win.values)}, []


def _do_hilbert_hadamard(ns):
    left = series.parse_series(ns.left)
    right = series.parse_series(ns.right)
    inputs = {"left": series.format_series(left),
              "right": series.format_series(right), "guard": ns.guard}
    out = left.hadamard(right, guard=ns.guard, cap=ns.cap)
    return inputs, {"series": series.format_series(out)}, []


def _do_classify_depth(ns):
    dims = _int_list(ns.dims, "--dims")
    ainv = _int_list(ns.ainv, "--ainv")
    shifts = _int_list(ns.shifts, "--shifts")
    if not (len(dims) == len(ainv) == len(shifts)) or not dims:
        raise ValueError("--dims, --ainv and --shifts must list the same "
                         "positive number of factors")
    inputs = {"dims": dims, "a_invariants": ainv, "shifts": shifts}
    assumptions = [GORENSTEIN_NOTE, FRIENDLY_NOTE]
    if len(dims) == 2 and min(dims) < 2:
        assumptions.append(DIM_ONE_NOTE)
    report = cohomo.cohomology_support(list(zip(dims, ainv, shifts)), cap=ns.cap)
    results = {"dim": report.dim, "depth": report.depth, "is_cm": report.is_cm,
               "witnesses": [w._asdict() for w in report.witnesses],
               "method": "subset-support"}
    return inputs, results, assumptions


def _do_classify_cm_twist(ns):
    rhos = _int_list(ns.rho, "--rho")
    inputs = {"rho": rhos, "a": ns.a}
    is_cm = cohomo.cm_uniform_twist(rhos, ns.a)
    raw = cohomo.cm_uniform_twist_raw(rhos, ns.a)
    chain = None if ns.a in (0, 1) else cohomo.cm_chain(rhos, ns.a)
    results = {"is_cm": is_cm, "is_cm_raw": raw, "chain": chain}
    return inputs, results, TWIST_NOTES


def _do_classify_interval(ns):
    rhos = _int_list(ns.rho, "--rho")
    inputs = {"rho": rhos}
    interval = cohomo.cm_twist_interval(rhos)
    results = {"kind": interval.kind,
               "lo": _rat(interval.lo) if interval.lo is not None else None,
               "hi": _rat(interval.hi) if interval.hi is not None else None,
               "integer_points": interval.integer_points()}
    return inputs, results, TWIST_NOTES


def _do_classify_anticanonical(ns):
    rhos = _int_list(ns.rho, "--rho")
    inputs = {"rho": rhos}
    is_cm = cohomo.cm_uniform_twist(rhos, -1)
    m2 = cohomo.anticanonical_cm_m2(-rhos[0], -rhos[1]) if len(rhos) == 2 else None
    return inputs, {"is_cm": is_cm, "m2_criterion": m2}, TWIST_NOTES


def _do_classify_power(ns):
    rhos = _int_list(ns.rho, "--rho")
    inputs = {"rho": rhos, "a": ns.a}
    return inputs, {"is_cm": cohomo.canonical_power_cm(rhos, ns.a)}, TWIST_NOTES + [DOMAIN_NOTE]


def _build_oracle_ring(ring_spec, toric_path, n_alg, cap, which):
    if (ring_spec is None) == (toric_path is None):
        raise ValueError(f"give exactly one of --ring{which} or --toric{which}")
    if ring_spec is not None:
        names, rels = oracle.parse_ring_spec(ring_spec)
        return oracle.algebra_from_monomial_quotient(names, rels, n_alg, cap=cap), False
    pres = toric.validate(toric.load_matrix(toric_path))
    return oracle.algebra_from_toric(pres, n_alg, cap=cap), True


def _do_oracle_friendly(ns):
    i_lo, i_hi = _parse_window(ns.window)
    shifts = (ns.shift1, ns.shift2)
    n_alg = max(0, i_hi) + max(abs(shifts[0]), abs(shifts[1])) + \
        oracle.MIN_INFORMATIVE_STEPS + 2
    ring1, toric1 = _build_oracle_ring(ns.ring1, ns.toric1, n_alg, ns.cap, 1)
    ring2, toric2 = _build_oracle_ring(ns.ring2, ns.toric2, n_alg, ns.cap, 2)
    report = oracle.friendliness_witness(ring1, ring2, shifts[0], shifts[1],
                                         i_lo=i_lo, i_hi=i_hi, cap=ns.cap)
    inputs = {"ring1": ring1.name, "ring2": ring2.name,
              "shift1": shifts[0], "shift2": shifts[1],
              "window": [i_lo, i_hi]}
    results = {
        "window": [i_lo, i_hi],
        "left_dims": list(report.left_dims),
        "right_dims": list(report.right_dims),
        "left_nonzero": {str(k): v for k, v in sorted(report.left_nonzero().items())},
        "right_nonzero": {str(k): v for k, v in sorted(report.right_nonzero().items())},
        "exact": report.exact,
        "compared_degrees": list(report.compared),
        "mismatch_degrees": list(report.mismatches),
        "verdict": report.verdict,
    }
    assumptions = []
    if toric1 or toric2:
        assumptions.append(TORIC_DEPTH_NOTE)
    return inputs, results, assumptions


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="segrecm",
        description="Exact calculator for degreewise products of standard "
                    "graded algebras: Hilbert series, toric presentations, "
                    "depth classification, truncated module checks.")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--cap", type=_cap, default=toric.DEFAULT_POINT_CAP,
                        help="resource bound for point enumerations")
    sub = parser.add_subparsers(dest="command", required=True)

    toric_p = sub.add_parser("toric", help="toric presentation constructions")
    toric_sub = toric_p.add_subparsers(dest="subcommand", required=True)
    p = toric_sub.add_parser("validate")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=_do_toric_validate)
    for name in ("tensor", "segre"):
        p = toric_sub.add_parser(name)
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.add_argument("--census", type=int, default=None,
                       help="also count semigroup elements up to this degree")
        p.set_defaults(handler=_do_toric_product)
    p = toric_sub.add_parser("kernel")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=_do_toric_kernel)
    p = toric_sub.add_parser("census")
    p.add_argument("--matrix", required=True)
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(handler=_do_toric_census)

    hil_p = sub.add_parser("hilbert", help="exact Hilbert series arithmetic")
    hil_sub = hil_p.add_subparsers(dest="subcommand", required=True)
    for name, handler, int_flags in (("coeff", _do_hilbert_coeff, ("--n",)),
                                     ("shift", _do_hilbert_shift, ("--a",)),
                                     ("window", _do_hilbert_window, ("--lo", "--hi"))):
        p = hil_sub.add_parser(name)
        p.add_argument("--series", required=True)
        for flag in int_flags:
            p.add_argument(flag, type=int, required=True)
        p.set_defaults(handler=handler)
    p = hil_sub.add_parser("hadamard")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--guard", type=int, default=series.DEFAULT_GUARD)
    p.set_defaults(handler=_do_hilbert_hadamard)

    cls_p = sub.add_parser("classify", help="depth and Cohen-Macaulay criteria")
    cls_sub = cls_p.add_subparsers(dest="subcommand", required=True)
    p = cls_sub.add_parser("depth")
    p.add_argument("--dims", required=True)
    p.add_argument("--ainv", required=True)
    p.add_argument("--shifts", required=True)
    p.set_defaults(handler=_do_classify_depth)
    for name, handler, int_flags in (("cm-twist", _do_classify_cm_twist, ("--a",)),
                                     ("interval", _do_classify_interval, ()),
                                     ("anticanonical", _do_classify_anticanonical, ()),
                                     ("power", _do_classify_power, ("--a",))):
        p = cls_sub.add_parser(name)
        p.add_argument("--rho", required=True)
        for flag in int_flags:
            p.add_argument(flag, type=int, required=True)
        p.set_defaults(handler=handler)

    orc_p = sub.add_parser("oracle", help="truncated graded module checks")
    orc_sub = orc_p.add_subparsers(dest="subcommand", required=True)
    p = orc_sub.add_parser("friendly")
    p.add_argument("--ring1", default=None, help='monomial quotient, e.g. "x:3"')
    p.add_argument("--ring2", default=None)
    p.add_argument("--toric1", default=None, help="toric matrix file")
    p.add_argument("--toric2", default=None)
    p.add_argument("--shift1", type=int, required=True)
    p.add_argument("--shift2", type=int, required=True)
    p.add_argument("--window", default="-6..6")
    p.set_defaults(handler=_do_oracle_friendly)

    return parser


PARSER = build_parser()


def _render_text(report):
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        else:
            lines.append(f"{prefix}: {json.dumps(value)}")

    walk("", report)
    return "\n".join(lines)


def _merge_dash_values(argv):
    """Join '--flag -3,-2' into '--flag=-3,-2' so negative values parse."""
    out = []
    skip = False
    for pos, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[pos + 1] if pos + 1 < len(argv) else None
        if (tok.startswith("--") and "=" not in tok and nxt is not None
                and nxt.startswith("-") and len(nxt) > 1 and nxt[1].isdigit()):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def run(argv=None):
    """Parse argv, run one subcommand, print the report, return exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_dash_values(list(argv))
    try:
        ns = PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        inputs, results, assumptions = ns.handler(ns)
    except ResourceCap as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    command = ns.command + (f" {ns.subcommand}" if getattr(ns, "subcommand", None) else "")
    report = {"command": command, "inputs": inputs, "results": results,
              "assumptions": assumptions, "version": __version__}
    if ns.format == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ": ")))
    else:
        print(_render_text(report))
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
