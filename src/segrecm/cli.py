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

from . import __version__, cohomo, oracle, series, toric
from .errors import DomainError, ResourceCap


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


def _load(path):
    return toric.validate(toric.load_matrix(path))


def _kernel(pres):
    vectors = toric.kernel_lattice(pres)
    return {"rank": len(vectors), "vectors": vectors}


def _do_toric_validate(ns):
    pres = _load(ns.matrix)
    return {"matrix": pres.matrix}, {"rows": pres.nrows, "cols": pres.ncols,
                                     "grading": pres.grading}, []


def _do_toric_product(ns):
    """toric tensor and toric segre: the subcommand names the product."""
    left, right = _load(ns.left), _load(ns.right)
    pres = getattr(toric, ns.subcommand)(left, right)
    results = {"matrix": pres.matrix, "grading": pres.grading,
               "kernel": _kernel(pres)}
    if ns.census is not None:
        results["census"] = toric.census(pres, ns.census, cap=ns.cap).counts
    return {"left": left.matrix, "right": right.matrix}, results, []


def _do_toric_kernel(ns):
    pres = _load(ns.matrix)
    return {"matrix": pres.matrix}, _kernel(pres), []


def _do_toric_census(ns):
    pres = _load(ns.matrix)
    counts = toric.census(pres, ns.upto, cap=ns.cap).counts
    return {"matrix": pres.matrix, "upto": ns.upto}, {"counts": counts}, []


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
    values = h.window(ns.lo, ns.hi, cap=ns.cap)
    inputs = {"series": series.format_series(h), "lo": ns.lo, "hi": ns.hi}
    return inputs, {"lo": ns.lo, "hi": ns.hi, "values": list(values)}, []


def _do_hilbert_hadamard(ns):
    left, right = series.parse_series(ns.left), series.parse_series(ns.right)
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
    results = {"is_cm": cohomo.cm_uniform_twist(rhos, ns.a),
               "is_cm_raw": cohomo.cm_uniform_twist_raw(rhos, ns.a),
               "chain": None if ns.a in (0, 1) else cohomo.cm_chain(rhos, ns.a)}
    return inputs, results, TWIST_NOTES


def _do_classify_interval(ns):
    rhos = _int_list(ns.rho, "--rho")
    interval = cohomo.cm_twist_interval(rhos)
    results = {"kind": interval.kind,
               "lo": interval.lo, "hi": interval.hi,
               "integer_points": interval.integer_points()}
    return {"rho": rhos}, results, TWIST_NOTES


def _do_classify_anticanonical(ns):
    rhos = _int_list(ns.rho, "--rho")
    is_cm = cohomo.cm_uniform_twist(rhos, -1)
    m2 = cohomo.anticanonical_cm_m2(-rhos[0], -rhos[1]) if len(rhos) == 2 else None
    return {"rho": rhos}, {"is_cm": is_cm, "m2_criterion": m2}, TWIST_NOTES


def _do_classify_power(ns):
    rhos = _int_list(ns.rho, "--rho")
    inputs = {"rho": rhos, "a": ns.a}
    return inputs, {"is_cm": cohomo.canonical_power_cm(rhos, ns.a)}, TWIST_NOTES + [DOMAIN_NOTE]


def _oracle_factor(ring_spec, toric_path, which):
    """The factor named by --ring or --toric: a monomial quotient or a semigroup ring."""
    if (ring_spec is None) == (toric_path is None):
        raise ValueError(f"give exactly one of --ring{which} or --toric{which}")
    if ring_spec is not None:
        return oracle.monomial_factor(*oracle.parse_ring_spec(ring_spec))
    return oracle.toric_factor(_load(toric_path))


def _do_oracle_friendly(ns):
    i_lo, i_hi = _parse_window(ns.window)
    shifts = (ns.shift1, ns.shift2)
    factors = [_oracle_factor(ns.ring1, ns.toric1, 1), _oracle_factor(ns.ring2, ns.toric2, 2)]
    report = oracle.friendliness(*factors, *shifts, i_lo, i_hi, cap=ns.cap)
    inputs = {"ring1": factors[0].name, "ring2": factors[1].name,
              "shift1": shifts[0], "shift2": shifts[1],
              "window": [i_lo, i_hi]}
    results = {
        "window": [i_lo, i_hi],
        "left_dims": list(report.left_dims),
        "right_dims": list(report.right_dims),
        "left_nonzero": {str(k): v for k, v in sorted(report.left_nonzero().items())},
        "right_nonzero": {str(k): v for k, v in sorted(report.right_nonzero().items())},
        "exact": True,
        "compared_degrees": list(report.compared),
        "mismatch_degrees": list(report.mismatches),
        "verdict": report.verdict,
    }
    toric_given = ns.toric1 is not None or ns.toric2 is not None
    return inputs, results, [TORIC_DEPTH_NOTE] if toric_given else []


# ---------------------------------------------------------------------------
# parser


REQUIRED = {"required": True}
REQUIRED_INT = {"type": int, "required": True}
CENSUS = {"type": int, "default": None,
          "help": "also count semigroup elements up to this degree"}
PRODUCT = {"--left": REQUIRED, "--right": REQUIRED, "--census": CENSUS}

# command -> (help, {subcommand: (handler, {flag: add_argument keywords})})
COMMANDS = {
    "toric": ("toric presentation constructions", {
        "validate": (_do_toric_validate, {"--matrix": REQUIRED}),
        "tensor": (_do_toric_product, PRODUCT),
        "segre": (_do_toric_product, PRODUCT),
        "kernel": (_do_toric_kernel, {"--matrix": REQUIRED}),
        "census": (_do_toric_census, {"--matrix": REQUIRED, "--upto": REQUIRED_INT}),
    }),
    "hilbert": ("exact Hilbert series arithmetic", {
        "coeff": (_do_hilbert_coeff, {"--series": REQUIRED, "--n": REQUIRED_INT}),
        "shift": (_do_hilbert_shift, {"--series": REQUIRED, "--a": REQUIRED_INT}),
        "window": (_do_hilbert_window, {"--series": REQUIRED, "--lo": REQUIRED_INT,
                                        "--hi": REQUIRED_INT}),
        "hadamard": (_do_hilbert_hadamard, {
            "--left": REQUIRED, "--right": REQUIRED,
            "--guard": {"type": int, "default": series.DEFAULT_GUARD}}),
    }),
    "classify": ("depth and Cohen-Macaulay criteria", {
        "depth": (_do_classify_depth, {"--dims": REQUIRED, "--ainv": REQUIRED,
                                       "--shifts": REQUIRED}),
        "cm-twist": (_do_classify_cm_twist, {"--rho": REQUIRED, "--a": REQUIRED_INT}),
        "interval": (_do_classify_interval, {"--rho": REQUIRED}),
        "anticanonical": (_do_classify_anticanonical, {"--rho": REQUIRED}),
        "power": (_do_classify_power, {"--rho": REQUIRED, "--a": REQUIRED_INT}),
    }),
    "oracle": ("exact graded Hom checks", {
        "friendly": (_do_oracle_friendly, {
            "--ring1": {"help": 'monomial quotient, e.g. "x:3"'}, "--ring2": {},
            "--toric1": {"help": "toric matrix file"}, "--toric2": {},
            "--shift1": REQUIRED_INT, "--shift2": REQUIRED_INT,
            "--window": {"default": "-6..6"}}),
    }),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="segrecm",
        description="Exact calculator for degreewise products of standard "
                    "graded algebras: Hilbert series, toric presentations, "
                    "depth classification, exact graded Hom checks.")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--cap", type=_cap, default=toric.DEFAULT_POINT_CAP,
                        help="resource bound for point enumerations")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, subcommands) in COMMANDS.items():
        command_sub = sub.add_parser(command, help=help_text).add_subparsers(
            dest="subcommand", required=True)
        for name, (handler, flags) in subcommands.items():
            p = command_sub.add_parser(name)
            for flag, keywords in flags.items():
                p.add_argument(flag, **keywords)
            p.set_defaults(handler=handler)
    return parser


PARSER = build_parser()


def _render_text(report):
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        else:
            lines.append(f"{prefix}: {json.dumps(value, default=str)}")

    walk("", report)
    return "\n".join(lines)


def _merge_dash_values(argv):
    """Join '--flag -3,-2' into '--flag=-3,-2' so negative values parse."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"{prev}={tok}"
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
        print(json.dumps(report, sort_keys=True, separators=(",", ": "), default=str))
    else:
        print(_render_text(report))
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
