"""Command-line front end: batch analysis with machine-readable reports.

main(argv) is the one entry point, for the console script and for callers
in Python alike; it returns the exit status.  It parses argv once: argv
that starts with a subcommand is read by that subcommand's parser alone,
and anything else by the full parser, with parse_args' messages and exit
codes either way.  Subcommands: parse, ellipticity, pencil, spectrum,
res, index, adjoint, adjoint-check, norm, model-solve, verify-cc.  Exit
codes: 0 success, 2 schema error (also an unknown flag, an input file
that cannot be read or is not UTF-8 JSON, and a report that cannot be
written), 3 numerical guard, 4 not applicable (also an operator with no
formal adjoint).  A process keeps the operators of the last four
documents it read, matched byte for byte, so a repeated document is not
parsed or fingerprinted again.  Each subcommand
takes only the flags it reads: -o on all, --format {json,csv} on res and
index, --seed on norm, --threads on ellipticity (spectrum accepts it
without effect).  The only randomness is the fixed compression seed of
the coupled eigensolve and the --seed of norm --kind holder, so reports
are byte-identical across repeated runs and across --threads settings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import NotApplicable, NumericalGuard, SchemaError
from .index_ledger import (
    Anchor,
    adjoint_res_check,
    build_ledger,
    check_anchor,
    pn_mu_nu,
)
from .model_solver import (
    line_difference_expansion,
    mode_pencil,
    verify_coefficient_formula,
)
from .operator_ast import (
    check_ellipticity,
    formal_adjoint,
    is_homogeneous_cc,
    parse_operator,
    serialize_operator,
)
from .pencil import _PENCIL_CAP, assemble_pencil, default_l_max
from .radial_algebra import Expr
from .spectrum import strip_spectrum


def _read_json(path, what, load=json.loads):
    """load(the file's text); a file that cannot be read, or is not UTF-8
    JSON, is a SchemaError naming the path."""
    try:
        with open(path, "rb") as fh:
            return load(fh.read().decode())
    except FileNotFoundError:
        raise SchemaError(f"{what} not found: {path}")
    except OSError as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


@functools.lru_cache(maxsize=_PENCIL_CAP)
def _parse_document(text):
    """The operator of one document, keyed by its exact text.  The last
    _PENCIL_CAP documents read are kept, so a repeated one is not
    JSON-decoded, validated or canonicalized again; one that fails is not
    kept."""
    return parse_operator(json.loads(text))


def _load_operator(path):
    return _read_json(path, "operator file", _parse_document)


def _emit(payload, args):
    if isinstance(payload, str):
        text = payload
    else:
        payload = dict(payload)
        payload["tool_version"] = __version__
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write report to {args.output}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _fingerprinted(op, body):
    out = {"operator_fingerprint": op.fingerprint()}
    out.update(body)
    return out


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def cmd_parse(args):
    op = _load_operator(args.operator)
    _emit(_fingerprinted(op, {"canonical": serialize_operator(op)}), args)
    return 0


def cmd_ellipticity(args):
    op = _load_operator(args.operator)
    rep = check_ellipticity(op, xi_samples=args.xi_samples,
                            x_samples=args.x_samples,
                            threshold=args.threshold, threads=args.threads)
    _emit(_fingerprinted(op, rep.to_json()), args)
    return 0


def cmd_pencil(args):
    op = _load_operator(args.operator)
    degree = 6 if args.degree is None else args.degree
    P = assemble_pencil(op, args.l_max if args.l_max is not None
                        else default_l_max(op, degree))
    _emit({**P.to_json(), "fingerprint": op.fingerprint()}, args)
    return 0


def cmd_strip(args):
    """spectrum: the full report; res: only its critical lines, as JSON or
    CSV."""
    op = _load_operator(args.operator)
    rep = strip_spectrum(op, args.strip[0], args.strip[1], args.degree)
    if args.command == "spectrum":
        _emit(rep.to_json(), args)
    elif args.format == "csv":
        _emit(rep.res_lines_csv(), args)
    else:
        _emit(_fingerprinted(op, {"strip": [rep.beta1, rep.beta2],
                                  "res_lines": rep.res_lines_json()}), args)
    return 0


def _key_values(text, what):
    """{key: value} of a comma-separated key=value list ('' gives {}); a
    repeated key is refused, not resolved by order."""
    pairs = [kv.partition("=") for kv in text.split(",")] if text else []
    fields = {key: val for key, _, val in pairs}
    if any(not key or not eq for key, eq, _ in pairs) or len(fields) < len(pairs):
        raise SchemaError(f"{what} must be key=value with distinct keys, "
                          f"got {text!r}")
    return fields


def _parse_anchor(spec):
    if spec in ("cc", "selfadjoint"):
        return Anchor(spec)
    if spec.startswith("user:"):
        fields = _key_values(spec[len("user:"):], "user anchor fields")
        if set(fields) != {"beta0", "index"}:
            raise SchemaError(f"user anchor needs exactly beta0 and index, "
                              f"got {sorted(fields)}")
        try:
            beta0, index0 = float(fields["beta0"]), int(fields["index"])
        except ValueError as exc:
            raise SchemaError(f"user anchor: {exc}")
        if not math.isfinite(beta0):
            raise SchemaError(f"user anchor needs a finite beta0, got {beta0}")
        return Anchor("user", beta0=beta0, index0=index0)
    raise SchemaError(f"bad anchor spec {spec!r} "
                      "(use cc | selfadjoint | user:beta0=V,index=W)")


def cmd_index(args):
    anchor = _parse_anchor(args.anchor)
    op = _load_operator(args.operator)
    check_anchor(op, anchor)   # refuse before the strip is solved
    rep = strip_spectrum(op, args.window[0], args.window[1], args.degree)
    led = build_ledger(rep, anchor)
    if args.format == "csv":
        _emit(led.to_csv(), args)
    else:
        _emit(_fingerprinted(op, led.to_json()), args)
    return 0


def cmd_adjoint(args):
    op = _load_operator(args.operator)
    adj = formal_adjoint(op)
    _emit(_fingerprinted(op, {"adjoint": serialize_operator(adj)}), args)
    return 0


def cmd_adjoint_check(args):
    op = _load_operator(args.operator)
    adj = formal_adjoint(op)
    b1, b2 = args.window
    rep_a = strip_spectrum(op, b1, b2, args.degree)
    shift = op.n + op.m
    rep_adj = strip_spectrum(adj, shift - b2, shift - b1, args.degree)
    check = adjoint_res_check(rep_a.res_lines, rep_adj.res_lines, op.n, op.m)
    _emit(_fingerprinted(op, check.to_json()), args)
    return 0 if check.passed else 3


def cmd_norm(args):
    # the norms are a leaf module only this command loads
    from .weighted_norms import (check_symbol_class, weighted_cl_norm,
                                 weighted_holder_seminorm, weighted_sobolev_norm)
    u = Expr.from_json(_read_json(args.expr, "Expr file"), args.n)
    if args.kind == "sobolev":
        res = weighted_sobolev_norm(u, args.p, args.k, args.beta)
    elif args.kind == "cl":
        res = weighted_cl_norm(u, args.l, args.beta)
    elif args.kind == "holder":
        res = weighted_holder_seminorm(u, args.sigma, args.beta,
                                       samples=args.samples, seed=args.seed)
    else:  # decay, the last of argparse's choices
        rep = check_symbol_class(u, args.beta, max_order=args.k)
        _emit(rep.to_json(), args)
        return 0 if rep.passed else 3
    _emit({"kind": args.kind, "beta": args.beta, **res.to_json()}, args)
    return 0


def _finite_samples(vals, flag):
    if not np.all(np.isfinite(vals)):
        raise SchemaError(f"{flag} samples must be finite")
    return vals


def _parse_f_spec(args):
    """(t, f) for line_difference_expansion: samples on the CSV grid, or
    (None, callable) for the grid it chooses."""
    if args.f_csv:
        try:
            rows = np.loadtxt(args.f_csv, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise SchemaError(f"--f-csv {args.f_csv}: {exc}")
        if rows.shape[0] < 2 or rows.shape[1] != 3:
            raise SchemaError("--f-csv needs at least two rows t,re,im")
        t = rows[:, 0]
        if not np.all(np.isfinite(t)):
            raise SchemaError("--f-csv times must be finite")
        dt = np.diff(t)
        if not dt[0] > 0 or np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
            raise SchemaError("--f-csv t-grid must be uniform and increasing")
        return t, _finite_samples(rows[:, 1] + 1j * rows[:, 2], "--f-csv")
    if args.f_expr:
        u = Expr.from_json(_read_json(args.f_expr, "--f-expr file"), 1)
        return None, lambda t: _finite_samples(u.evaluate(t[:, None]), "--f-expr")
    spec = args.f or "gaussian"
    name, _, params = spec.partition(":")
    if name != "gaussian":
        raise SchemaError(f"unknown f spec {spec!r}")
    opts = _key_values(params, "gaussian options")
    unknown = sorted(set(opts) - {"a", "t0"})
    if unknown:
        raise SchemaError(f"unknown gaussian options {unknown}")
    try:
        a = float(opts.get("a", 1.0))
        t0 = float(opts.get("t0", 0.0))
    except ValueError as exc:
        raise SchemaError(f"gaussian options: {exc}")
    if not (math.isfinite(a) and a > 0 and math.isfinite(t0)):
        raise SchemaError(f"gaussian needs a finite a > 0 and a finite t0, "
                          f"got a={a} t0={t0}")
    return None, lambda t: np.exp(-a * (t - t0) ** 2)


def cmd_model_solve(args):
    t, f = _parse_f_spec(args)
    op = _load_operator(args.operator)
    P = assemble_pencil(op, default_l_max(op, args.mode),
                        analysis_degree=args.mode)
    mp = mode_pencil(P, args.mode)
    if mp.size > 1:
        raise NotApplicable(f"degree {args.mode} block has size {mp.size}; "
                            "right-hand sides are scalar")
    res = line_difference_expansion(mp, f, args.beta1, args.beta2, t)
    report = verify_coefficient_formula(res)
    _emit(_fingerprinted(op, {
        "mode": args.mode,
        "expansion": res.to_json(),
        "coefficient_check": report,
    }), args)
    return 0 if report["passed"] else 3


def cmd_verify_cc(args):
    """Cross-check: combinatorial breakpoints == computed critical lines."""
    op = _load_operator(args.operator)
    if not is_homogeneous_cc(op):
        raise NotApplicable("verify-cc requires a homogeneous cc principal part")
    b1, b2 = args.window
    rep = strip_spectrum(op, b1, b2, args.degree)
    checks = []
    ok = True
    for b in range(math.ceil(b1), math.floor(b2) + 1):
        jump = (pn_mu_nu(op.n, op.mu, op.nu, b - 0.5)
                - pn_mu_nu(op.n, op.mu, op.nu, b + 0.5))
        line = next((l for l in rep.res_lines if abs(l - b) < 1e-6), None)
        mult = rep.res_lines.get(line, 0) if line is not None else 0
        checks.append({"beta": b, "formula_jump": jump, "computed_mult": mult,
                       "match": jump == mult})
        ok = ok and jump == mult
    stray = [l for l in rep.res_lines if abs(l - round(l)) > 1e-6]
    if stray:
        ok = False
    _emit(_fingerprinted(op, {
        "window": [b1, b2], "degree": args.degree,
        "checks": checks, "stray_lines": [f"{l:.9g}" for l in stray],
        "passed": ok,
    }), args)
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args only reads it."""
    p = argparse.ArgumentParser(
        prog="oppencil",
        description="Spectral pencils, critical weight lines and Fredholm "
                    "index ledgers for elliptic operators on R^n")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices   # name -> its parser, for main's one parse
    # a float literal is a value: argparse alone reads -1e-3 and -5. as options
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def subcommand(name, fn, help, operator=True):
        sp = sub.add_parser(name, help=help)
        sp._negative_number_matcher = p._negative_number_matcher
        if operator:
            sp.add_argument("operator", help="operator-spec JSON file")
        sp.add_argument("-o", "--output", help="write the report here")
        sp.set_defaults(fn=fn)
        return sp

    def band(sp, flag):
        sp.add_argument(f"--{flag}", type=float, nargs=2,
                        required=True, metavar=("BETA1", "BETA2"))
        sp.add_argument("--degree", type=int, default=6)

    subcommand("parse", cmd_parse, "validate and canonicalize an operator")

    sp = subcommand("ellipticity", cmd_ellipticity,
                    "sampled ellipticity check")
    sp.add_argument("--xi-samples", type=int, default=2000)
    sp.add_argument("--x-samples", type=int, default=500)
    sp.add_argument("--threshold", type=float, default=1e-9)
    sp.add_argument("--threads", type=int, default=1,
                    help="worker threads; the report does not depend on it")

    sp = subcommand("pencil", cmd_pencil, "dump assembled pencil matrices")
    size = sp.add_mutually_exclusive_group()
    size.add_argument("--l-max", type=int, default=None)
    size.add_argument("--degree", type=int, default=None, help="default 6")

    sp = subcommand("spectrum", cmd_strip, "pencil spectrum in a strip")
    band(sp, "strip")
    sp.add_argument("--threads", type=int, default=1,
                    help="no effect: the strip solve runs on one thread")

    sp = subcommand("res", cmd_strip, "critical weight lines in a strip")
    band(sp, "strip")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = subcommand("index", cmd_index,
                    "Fredholm index ledger over a window")
    sp.add_argument("--anchor", default="cc",
                    help="cc | selfadjoint | user:beta0=V,index=W")
    band(sp, "window")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    subcommand("adjoint", cmd_adjoint, "formal adjoint operator")

    sp = subcommand("adjoint-check", cmd_adjoint_check,
                    "critical lines of the adjoint vs reflection")
    band(sp, "window")

    sp = subcommand("norm", cmd_norm, "weighted norm of a ring expression",
                    operator=False)
    sp.add_argument("expr", help="Expr JSON file")
    sp.add_argument("--kind", choices=("sobolev", "cl", "holder", "decay"),
                    required=True)
    sp.add_argument("--n", type=int, required=True, help="ambient dimension, 2 or 3")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--sigma", type=float, default=0.5)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--samples", type=int, default=4096)
    sp.add_argument("--seed", type=int, default=0,
                    help="sampling seed of --kind holder")

    sp = subcommand("model-solve", cmd_model_solve,
                    "per-mode line solves and the jump expansion")
    sp.add_argument("--mode", type=int, required=True, help="harmonic degree")
    sp.add_argument("--beta1", type=float, required=True)
    sp.add_argument("--beta2", type=float, required=True)
    f = sp.add_mutually_exclusive_group()
    f.add_argument("--f", default=None, help="gaussian[:a=..,t0=..]")
    f.add_argument("--f-csv", default=None, help="CSV file t,re,im")
    f.add_argument("--f-expr", default=None, help="1-D Expr JSON file")

    sp = subcommand("verify-cc", cmd_verify_cc,
                    "combinatorial index jumps vs computed lines")
    band(sp, "window")

    return p


def _check_args(args):
    """Reject numeric flags no analysis can use, before any work is done."""
    for low, names in ((0, ("degree", "mode", "l_max", "k", "l", "seed")),
                       (1, ("samples", "xi_samples", "x_samples", "threads"))):
        for name in names:
            v = getattr(args, name, None)
            if v is not None and v < low:
                raise SchemaError(f"--{name.replace('_', '-')} must be >= {low}, "
                                  f"got {v}")
    # written so that nan fails each test
    checks = []
    if args.command == "norm":
        checks = [("--n", args.n in (2, 3), "2 or 3"),
                  ("--p", math.isfinite(args.p) and args.p >= 1, "finite and >= 1"),
                  ("--sigma", 0 < args.sigma < 1, "in (0, 1)"),
                  ("--beta", math.isfinite(args.beta), "finite")]
    elif args.command == "ellipticity":
        checks = [("--threshold", math.isfinite(args.threshold)
                   and args.threshold >= 0, "finite and >= 0")]
    for flag, ok, need in checks:
        if not ok:
            raise SchemaError(f"{flag} must be {need}, got {getattr(args, flag[2:])}")
    bands = {f"--{name}": getattr(args, name, None) for name in ("strip", "window")}
    if getattr(args, "beta1", None) is not None:
        bands["--beta1/--beta2"] = (args.beta1, args.beta2)
    for flag, b in bands.items():
        if b is None:
            continue
        if not all(math.isfinite(v) for v in b):
            raise SchemaError(f"{flag} bounds must be finite, got {b[0]} {b[1]}")
        if b[0] >= b[1]:
            raise SchemaError(f"{flag} needs BETA1 < BETA2, got {b[0]} {b[1]}")


def _parse_argv(argv):
    """build_parser().parse_args(argv) in one pass: argv that starts with a
    subcommand goes straight to that subcommand's parser, and what it does
    not read is refused as the top parser refuses it.  Any other argv (none,
    -h, --version, an unknown command) goes through the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None):
    args = _parse_argv(argv)
    try:
        _check_args(args)
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except NotApplicable as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 4
    except NumericalGuard as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
