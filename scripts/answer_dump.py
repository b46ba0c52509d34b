#!/usr/bin/env python3
"""Dump the answers of the command line over a fixed grid of cases.

Usage: python scripts/answer_dump.py [OPERATOR.json ...] > answers.jsonl

Runs `oppencil.cli.main` in this process (defaults: every operators/*.json)
on fixed cases: `parse`, `adjoint` and `ellipticity` once (the canonical
form, the formal adjoint and the principal symbol), then `spectrum`,
`index --anchor cc`, `index --anchor selfadjoint`, `verify-cc` and
`adjoint-check` (which also solves the formal adjoint's strip) on each
strip at each degree, and `model-solve` for modes 0-2 on fixed line
pairs, each with the default f, with the gaussian F_SPEC and with the same
gaussian sampled into a CSV file.  Prints one JSON line per case: argv,
exit code, sha256 of stdout and the first line of stderr; the CSV file's
temporary path is printed as the token F_CSV.  Two checkouts that give
the same answers print the same file, so `diff` of two dumps lists every
case whose answer moved.  A `spectrum` case also prints `answer_sha256`,
the hash of its report without convergence, chain vectors and residuals,
so a dump diff tells a moved answer from a rotated null-space basis.  A
`model-solve` case prints it too, as the hash of its poles, its paired
coefficients (`coeffs_direct`) and `coefficient_check.passed`, so a moved
answer shows apart from round-off in the residue route and the
deviations.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from oppencil.cli import main as cli_main  # noqa: E402

STRIPS = ((-0.5, 3.5), (0.4, 4.6), (0.4, 2.3), (-1.7, 2.6))
DEGREES = (2, 4, 6)
MODES = (0, 1, 2)
LINE_PAIRS = ((1.5, 2.5), (0.5, 3.5), (2.05, 2.95), (-0.3, 0.3))
F_SPEC = "gaussian:a=0.7,t0=0.4"
F_CSV = "<f.csv>"


def cases(path):
    """argv of every case for one operator file, in a fixed order."""
    for command in ("parse", "adjoint", "ellipticity"):
        yield [command, path]
    for b1, b2 in STRIPS:
        for d in DEGREES:
            band = [str(b1), str(b2), "--degree", str(d)]
            yield ["spectrum", path, "--strip", *band]
            yield ["index", path, "--anchor", "cc", "--window", *band]
            yield ["index", path, "--anchor", "selfadjoint", "--window", *band]
            yield ["verify-cc", path, "--window", *band]
            yield ["adjoint-check", path, "--window", *band]
    for mode in MODES:
        for b1, b2 in LINE_PAIRS:
            argv = ["model-solve", path, "--mode", str(mode),
                    "--beta1", str(b1), "--beta2", str(b2)]
            yield argv
            yield argv + ["--f", F_SPEC]
            yield argv + ["--f-csv", F_CSV]


def write_f_csv(path):
    """F_SPEC's gaussian, sampled on a uniform grid of [-40, 40]."""
    t = np.linspace(-40, 40, 8192)
    f = np.exp(-0.7 * (t - 0.4) ** 2)
    np.savetxt(path, np.column_stack([t, f, 0 * t]), fmt="%.17g",
               delimiter=",", header="t,re,im", comments="")


def run_case(argv, csv_path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main([csv_path if a == F_CSV else a for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an answer too
            code = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    case = {"argv": argv, "exit": code, "stdout_sha256": _sha256(out.getvalue()),
            "stderr": (err.getvalue().replace(csv_path, F_CSV).splitlines()
                       or [""])[0]}
    if argv[0] in ("spectrum", "model-solve"):
        case["answer_sha256"] = answer_sha256(out.getvalue())
    return case


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def answer_sha256(stdout):
    """sha256 of the part of a report that does not move at round-off
    (empty stdout hashes as is).  A spectrum report without its
    convergence, chain vectors and residuals, so a rotated null-space basis
    or a drift changed at round-off keeps it; of a model-solve report, the
    poles, the paired coefficients and whether the check passed."""
    if not stdout:
        return _sha256(stdout)
    report = json.loads(stdout)
    if "expansion" in report:
        report = {"poles": report["expansion"]["poles"],
                  "coeffs_direct": report["expansion"]["coeffs_direct"],
                  "passed": report["coefficient_check"]["passed"]}
    else:
        report.pop("convergence")
        for ep in report["eigenpoints"]:
            ep.pop("chains")
            ep.pop("residuals")
    return _sha256(json.dumps(report, sort_keys=True))


def main(paths=None):
    paths = paths or sorted(os.path.relpath(p)
                            for p in (ROOT / "operators").glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "f.csv")
        write_f_csv(csv_path)
        for path in paths:
            for argv in cases(path):
                print(json.dumps(run_case(argv, csv_path)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
