"""Command line front end with deterministic JSON reports.

Usage: segrecm [--format json|text] [--cap N] COMMAND SUBCOMMAND --flag value ...
with the commands toric, hilbert, classify and oracle, each importing only
the library modules it runs, on first use.  Global flags go before the
command.  Flags take '--flag value' or '--flag=value', typed when read (the
last given wins); -h or --help anywhere on the command line prints the
usage.  The flag types are the only readers of text: the library takes
values.  A successful run prints one report object with the fields command,
inputs, results, assumptions, version, keys sorted and rationals as
lowest-terms "p/q" strings, so identical invocations produce identical bytes.

Exit codes: 0 success, 2 usage error, 3 domain error, 4 resource cap (also
for a report integer longer than str() may convert), and 141 (128 + SIGPIPE,
as shells report a filter stopped by a closed pipe) when stdout closes early.
"""

import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from .errors import DEFAULT_POINT_CAP, DomainError, ResourceCap

# lib.toric is a plain attribute once imported; lib.census would run __getattr__ each call
lib = sys.modules[__package__]
REPORT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ": "), default=str)


def _ints(tokens, message):
    """The tokens as ints; ValueError(message) when one is not an integer."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(message) from None


def _int_list(text):
    tokens = [tok for tok in text.split(",") if tok.strip() != ""]
    return _ints(tokens, f"expects comma separated integers, got {text!r}")


def _cap(text):
    (cap,) = _ints([text], message := f"expects a nonnegative integer, got {text!r}")
    if cap < 0:
        raise ValueError(message)
    return cap


def _window(text):
    lo, sep, hi = text.partition("..")
    lo, hi = _ints([lo, hi], message := f"expects 'lo..hi' with lo <= hi, got {text!r}")
    if not sep or lo > hi:
        raise ValueError(message)
    return lo, hi


def _matrix(path):
    """A toric presentation from a matrix file: "r n", then r rows of n integers."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh.read().splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix text")
    header, bad_header = lines[0].split(), f"matrix header must be 'r n', got {lines[0]!r}"
    if len(header) != 2:
        raise ValueError(bad_header)
    r, n = _ints(header, bad_header)
    if len(lines) != r + 1:
        raise ValueError(f"expected {r} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln.split()) != n:
            raise ValueError(f"expected {n} entries in row {ln!r}")
        rows.append(_ints(ln.split(), f"bad integer in matrix row {ln!r}"))
    return lib.toric.validate(rows)


def _series(text):
    """A HilbertSeries from "num: c0 e0 c1 e1 ... ; den: d"."""
    num_part, sep, den_part = (part.strip() for part in text.partition(";"))
    if not sep or ";" in den_part:
        raise ValueError(f"series text needs one ';': {text!r}")
    if not num_part.startswith("num:") or not den_part.startswith("den:"):
        raise ValueError(f"series text needs 'num:' and 'den:' markers: {text!r}")
    tokens = num_part[len("num:"):].split()
    if len(tokens) % 2 != 0:
        raise ValueError(f"numerator tokens must come in (coeff, exponent) pairs: {text!r}")
    *ints, d = _ints([*tokens, den_part[len("den:"):]], f"bad integer in series text {text!r}")
    return lib.series.HilbertSeries(zip(ints[1::2], ints[::2]), d)


def _format_series(h):
    return f"num:{''.join(f' {c} {e}' for e, c in h.numerator)} ; den: {h.denom_power}"


def _ring(spec):
    """A monomial quotient from "x,y:2 0,0 2": variables, then relations,
    each an exponent vector; monomial_factor checks the ring."""
    names, _, rels = spec.partition(":")
    relations = [_ints(chunk.split(), f"bad relation in ring spec {spec!r}")
                 for chunk in rels.split(",") if chunk.strip()]
    names = [name.strip() for name in names.split(",") if name.strip()]
    return lib.oracle.monomial_factor(names, relations)


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
    p = ns.matrix
    return {"matrix": p.matrix}, {"rows": p.nrows, "cols": p.ncols, "grading": p.grading}, []


def _do_toric_product(ns):
    """toric tensor and toric segre: the subcommand names the product."""
    pres, vectors = lib.toric.product_kernel(ns.subcommand, ns.left, ns.right)
    results = {"matrix": pres.matrix, "grading": pres.grading,
               "kernel": {"rank": len(vectors), "vectors": vectors}}
    if ns.census is not None:
        results["census"] = lib.toric.census(pres, ns.census, cap=ns.cap)
    return {"left": ns.left.matrix, "right": ns.right.matrix}, results, []


def _do_toric_kernel(ns):
    vectors = lib.toric.kernel_lattice(ns.matrix)
    return {"matrix": ns.matrix.matrix}, {"rank": len(vectors), "vectors": vectors}, []


def _do_toric_census(ns):
    counts = lib.toric.census(ns.matrix, ns.upto, cap=ns.cap)
    return {"matrix": ns.matrix.matrix, "upto": ns.upto}, {"counts": counts}, []


def _do_hilbert_coeff(ns):
    inputs = {"series": _format_series(ns.series), "n": ns.n}
    return inputs, {"coefficient": ns.series.coeff(ns.n, ns.cap)}, []


def _do_hilbert_shift(ns):
    inputs = {"series": _format_series(ns.series), "a": ns.a}
    return inputs, {"series": _format_series(ns.series.shift(ns.a))}, []


def _do_hilbert_window(ns):
    values = ns.series.window(ns.lo, ns.hi, cap=ns.cap)
    inputs = {"series": _format_series(ns.series), "lo": ns.lo, "hi": ns.hi}
    return inputs, {"lo": ns.lo, "hi": ns.hi, "values": list(values)}, []


def _do_hilbert_hadamard(ns):
    inputs = {"left": _format_series(ns.left), "right": _format_series(ns.right)}
    out = ns.left.hadamard(ns.right, cap=ns.cap)
    return inputs, {"series": _format_series(out)}, []


def _do_classify_depth(ns):
    dims, ainv, shifts = ns.dims, ns.ainv, ns.shifts
    if not (len(dims) == len(ainv) == len(shifts)) or not dims:
        raise ValueError("--dims, --ainv and --shifts must list the same positive number of factors")
    inputs = {"dims": dims, "a_invariants": ainv, "shifts": shifts}
    assumptions = [GORENSTEIN_NOTE, FRIENDLY_NOTE]
    if len(dims) == 2 and min(dims) < 2:
        assumptions.append(DIM_ONE_NOTE)
    report = lib.cohomo.cohomology_support(  # R(a), a-invariant alpha: s = -a, h = alpha - a
        [(d, -a, alpha - a) for d, alpha, a in zip(dims, ainv, shifts)], cap=ns.cap)
    results = {"dim": report.dim, "depth": report.depth, "is_cm": report.depth == report.dim,
               "witnesses": [w._asdict() for w in report.witnesses],
               "method": "subset-support"}
    return inputs, results, assumptions


def _do_classify_cm_twist(ns):
    inputs = {"rho": ns.rho, "a": ns.a}
    is_cm = lib.cohomo.cm_uniform_twist(ns.rho, ns.a)
    results = {"is_cm": is_cm, "is_cm_raw": lib.cohomo.cm_uniform_twist_raw(ns.rho, ns.a),
               "chain": None if ns.a in (0, 1) else is_cm}
    return inputs, results, TWIST_NOTES


def _do_classify_interval(ns):
    interval = lib.cohomo.cm_twist_interval(ns.rho)
    results = {"kind": "all_integers" if interval.lo is None else "open_interval",
               "lo": interval.lo, "hi": interval.hi, "integer_points": interval.integer_points(ns.cap)}
    return {"rho": ns.rho}, results, TWIST_NOTES


def _do_classify_anticanonical(ns):
    is_cm = lib.cohomo.cm_uniform_twist(ns.rho, -1)
    m2 = lib.cohomo.anticanonical_cm_m2(-ns.rho[0], -ns.rho[1]) if len(ns.rho) == 2 else None
    return {"rho": ns.rho}, {"is_cm": is_cm, "m2_criterion": m2}, TWIST_NOTES


def _do_classify_power(ns):
    inputs = {"rho": ns.rho, "a": ns.a}
    return inputs, {"is_cm": lib.cohomo.canonical_power_cm(ns.rho, ns.a)}, TWIST_NOTES + [DOMAIN_NOTE]


def _oracle_factor(ring, toric_ring, which):
    """The factor given by --ring or --toric: a monomial quotient or a semigroup ring."""
    if (ring is None) == (toric_ring is None):
        raise ValueError(f"give exactly one of --ring{which} or --toric{which}")
    return toric_ring if ring is None else ring


def _do_oracle_friendly(ns):
    factors = [_oracle_factor(ns.ring1, ns.toric1, 1), _oracle_factor(ns.ring2, ns.toric2, 2)]
    report = lib.oracle.friendliness(*factors, ns.shift1, ns.shift2, *ns.window, cap=ns.cap)
    inputs = {"ring1": factors[0].name, "ring2": factors[1].name,
              "shift1": ns.shift1, "shift2": ns.shift2, "window": list(ns.window)}
    results = {
        "window": list(ns.window), "exact": True, "verdict": report.verdict,
        "left_dims": list(report.left_dims), "right_dims": list(report.right_dims),
        "left_nonzero": {str(i): d for i, d in zip(report.compared, report.left_dims) if d},
        "right_nonzero": {str(i): d for i, d in zip(report.compared, report.right_dims) if d},
        "compared_degrees": list(report.compared),
        "mismatch_degrees": list(report.mismatches),
    }
    toric_given = ns.toric1 is not None or ns.toric2 is not None
    return inputs, results, [TORIC_DEPTH_NOTE] if toric_given else []


# ---------------------------------------------------------------------------
# parser: one pass over argv, driven by GLOBALS and COMMANDS


INT = {"type": lambda text: _ints([text], f"expects an integer, got {text!r}")[0]}
REQUIRED_INT = INT | {"required": True}
INTS = {"type": _int_list, "required": True}
SERIES = {"type": _series, "required": True}
MATRIX = {"type": _matrix, "required": True}
RING = {"type": _ring}
TORIC = {"type": lambda path: lib.oracle.toric_factor(_matrix(path))}
PRODUCT = {"--left": MATRIX, "--right": MATRIX, "--census": INT}
GLOBALS = {"--format": {"choices": ("json", "text"), "default": "json"},
           "--cap": {"type": _cap, "default": DEFAULT_POINT_CAP}}

# command -> (help, {subcommand: (handler, {flag: spec})}); a spec may give
# the flag's type, choices and default (else None), or make it required
COMMANDS = {
    "toric": ("toric presentation constructions", {
        "validate": (_do_toric_validate, {"--matrix": MATRIX}),
        "tensor": (_do_toric_product, PRODUCT),
        "segre": (_do_toric_product, PRODUCT),
        "kernel": (_do_toric_kernel, {"--matrix": MATRIX}),
        "census": (_do_toric_census, {"--matrix": MATRIX, "--upto": REQUIRED_INT}),
    }),
    "hilbert": ("exact Hilbert series arithmetic", {
        "coeff": (_do_hilbert_coeff, {"--series": SERIES, "--n": REQUIRED_INT}),
        "shift": (_do_hilbert_shift, {"--series": SERIES, "--a": REQUIRED_INT}),
        "window": (_do_hilbert_window, {"--series": SERIES, "--lo": REQUIRED_INT,
                                        "--hi": REQUIRED_INT}),
        "hadamard": (_do_hilbert_hadamard, {"--left": SERIES, "--right": SERIES}),
    }),
    "classify": ("depth and Cohen-Macaulay criteria", {
        "depth": (_do_classify_depth, {"--dims": INTS, "--ainv": INTS, "--shifts": INTS}),
        "cm-twist": (_do_classify_cm_twist, {"--rho": INTS, "--a": REQUIRED_INT}),
        "interval": (_do_classify_interval, {"--rho": INTS}),
        "anticanonical": (_do_classify_anticanonical, {"--rho": INTS}),
        "power": (_do_classify_power, {"--rho": INTS, "--a": REQUIRED_INT}),
    }),
    "oracle": ("exact graded Hom checks", {
        "friendly": (_do_oracle_friendly, {
            "--ring1": RING, "--ring2": RING, "--toric1": TORIC, "--toric2": TORIC,
            "--shift1": REQUIRED_INT, "--shift2": REQUIRED_INT,
            "--window": {"type": _window, "default": (-6, 6)}}),
    }),
}


def _usage():
    """Help text generated from GLOBALS and COMMANDS."""
    def synopsis(spec):
        for flag, keys in spec.items():
            text = f"{flag} {'|'.join(keys.get('choices', ())) or flag[2:].upper()}"
            yield text if keys.get("required") else f"[{text}]"

    lines = [f"usage: segrecm {' '.join(synopsis(GLOBALS))} COMMAND SUBCOMMAND [FLAGS]",
             "Global flags go before the command. Flags take '--flag value' or '--flag=value'."]
    for command, (help_text, subs) in COMMANDS.items():
        lines += [f"\n{command}: {help_text}"] + [
            f"  {command} {name} {' '.join(synopsis(spec))}" for name, (_, spec) in subs.items()]
    return "\n".join(lines)


def _flags(tokens, spec):
    """Pop '--flag value' or '--flag=value' pairs off the reversed argv while
    a flag comes next; returns {name: typed value or default} for spec."""
    values = {flag[2:]: keys.get("default") for flag, keys in spec.items()}
    while tokens and tokens[-1].startswith("-"):
        flag, eq, text = tokens.pop().partition("=")
        if flag not in spec or not (eq or tokens):
            raise ValueError(f"{flag} expects a value" if flag in spec else f"unknown flag {flag}")
        keys, text = spec[flag], text if eq else tokens.pop()
        if text not in keys.get("choices", (text,)):
            raise ValueError(f"{flag} expects one of {', '.join(keys['choices'])}, got {text!r}")
        try:
            values[flag[2:]] = keys.get("type", str)(text)
        except (ValueError, OSError) as exc:
            raise ValueError(f"{flag}: {exc}") from None
    for flag, keys in spec.items():
        if keys.get("required") and values[flag[2:]] is None:
            raise ValueError(f"{flag} is required")
    return values


def _parse(argv):
    """Options of argv: global flags, then the command, subcommand and its flags."""
    tokens, table = argv[::-1], COMMANDS
    options = _flags(tokens, GLOBALS)
    for what in ("command", "subcommand"):
        word = tokens.pop() if tokens else None
        if word not in table:
            raise ValueError(f"{what} {word!r} is not one of {', '.join(table)}")
        options[what] = word
        handler, table = table[word]  # (help, subcommands), then (handler, flags)
    options.update(_flags(tokens, table))
    if tokens:
        raise ValueError(f"unexpected argument {tokens[-1]!r}")
    return SimpleNamespace(handler=handler, **options)


def _text_lines(prefix, value):
    """Dotted 'key: value' lines of a report, keys sorted."""
    if not isinstance(value, dict):
        return [f"{prefix}: {json.dumps(value, sort_keys=True, default=str)}"]
    return [line for key in sorted(value)
            for line in _text_lines(f"{prefix}.{key}" if prefix else str(key), value[key])]


def run(argv=None):
    """Print the usage when argv holds -h or --help, else run one subcommand; return exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if {"-h", "--help"}.intersection(argv):
            text = _usage()
        else:
            ns = _parse(argv)
            inputs, results, assumptions = ns.handler(ns)
            report = {"command": f"{ns.command} {ns.subcommand}", "inputs": inputs,
                      "results": results, "assumptions": assumptions, "version": __version__}
            try:
                text = (REPORT_ENCODER.encode(report) if ns.format == "json"
                        else "\n".join(_text_lines("", report)))
            except ValueError:  # an int longer than str() may convert
                raise ResourceCap("report integer: more digits than sys.get_int_max_str_digits() "
                                  f"= {sys.get_int_max_str_digits()}") from None
    except ResourceCap as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:  # Python's recipe: stdout to devnull, so exit flushes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
