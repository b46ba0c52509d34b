#!/usr/bin/env python3
"""Dump the answers of the command line over a fixed grid of cases, and
compare two dumps.

Usage: python scripts/answer_dump.py [OPERATOR.json ...] > answers.jsonl
       python scripts/answer_dump.py --compare A.jsonl B.jsonl

Runs `oppencil.cli.main` in this process (defaults: every operators/*.json)
on fixed cases: `parse`, `adjoint`, `ellipticity` and `pencil --degree 2`
once (the canonical form, the formal adjoint, the principal symbol and
the pencil matrices), then `spectrum`,
`index --anchor cc`, `index --anchor selfadjoint`, `verify-cc` and
`adjoint-check` (which also solves the formal adjoint's strip) on each
strip at each degree, and `model-solve` for modes 0-2 on fixed line
pairs, each with the default f, with the gaussian F_SPEC and with the same
gaussian sampled into a CSV file.  Prints one JSON line per case: argv,
exit code, sha256 of stdout, the first line of stderr and the answer; the
CSV file's temporary path is printed as the token F_CSV.  The answer is
the report as printed, except that a `spectrum` report drops its chain
vectors and residuals, and a `model-solve` report keeps only its poles,
its paired coefficients (`coeffs_direct`) and `coefficient_check.passed`.
A `spectrum` or `model-solve` case also prints `answer_sha256`, the hash
of its answer, so a moved answer shows apart from a rotated null-space
basis or round-off in the residue route.

Hashes move with the last printed digit, so `--compare` matches the two
dumps case by case instead: exit codes, integers, booleans and strings
exactly, floats to 1e-9 of their magnitude (absolute below 1), in the
answer and among the words of the first stderr line.  It prints every case
that moved, with what moved, then the count of cases whose bytes differ
(stdout hash, exit code or first stderr line), and exits 1 when any moved.

Run as a script, it pins OpenBLAS, OpenMP and MKL to one thread before
numpy loads, whatever the environment says: the last printed digits of an
eigensolve depend on the BLAS thread count (11 of the 100
dipole_laplacian3d cases print other digits with 2 threads than with 1),
so only dumps made with one thread count compare byte by byte.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # one BLAS thread before numpy loads: the eigensolves' last digits
    # depend on the thread count, and the dumps are compared byte by byte
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

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
    yield ["pencil", path, "--degree", "2"]
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
    case["answer"] = answer(out.getvalue())
    if argv[0] in ("spectrum", "model-solve"):
        case["answer_sha256"] = answer_sha256(out.getvalue())
    return case


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def answer(stdout):
    """The answer a report gives (None for empty stdout): a spectrum report
    without its chain vectors and residuals, so a rotated null-space
    basis keeps it; of a model-solve report, the poles, the paired
    coefficients and whether the check passed; any other report whole."""
    if not stdout:
        return None
    report = json.loads(stdout)
    if "expansion" in report:
        return {"poles": report["expansion"]["poles"],
                "coeffs_direct": report["expansion"]["coeffs_direct"],
                "passed": report["coefficient_check"]["passed"]}
    if "eigenpoints" in report:
        for ep in report["eigenpoints"]:
            ep.pop("chains")
            ep.pop("residuals")
    return report


def answer_sha256(stdout):
    """sha256 of answer(stdout) (empty stdout hashes as is)."""
    if not stdout:
        return _sha256(stdout)
    return _sha256(json.dumps(answer(stdout), sort_keys=True))


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _words(line):
    """A stderr line as its text between numbers and the numbers, parsed."""
    return [(float(w) if any(c in w for c in ".eE") else int(w)) if k % 2 else w
            for k, w in enumerate(_NUMBER.split(line))]


def moved(a, b, where="answer"):
    """Where b differs from a: floats by more than 1e-9 of the larger
    magnitude (absolute below 1), anything else at all.  Objects pair their
    entries in printed order, and their keys compare as words of text and
    numbers, since a report may key its lines by value."""
    if isinstance(a, dict) and isinstance(b, dict) and len(a) == len(b):
        return [m for (ka, va), (kb, vb) in zip(a.items(), b.items())
                for m in moved(_words(ka), _words(kb), f"{where} key {ka}")
                + moved(va, vb, f"{where}.{ka}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [m for i, (x, y) in enumerate(zip(a, b))
                for m in moved(x, y, f"{where}[{i}]")]
    if type(a) is float and type(b) is float:
        if abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0):
            return []
    elif type(a) is type(b) and a == b:
        return []
    return [f"{where}: {json.dumps(a)} -> {json.dumps(b)}"]


def compare(path_a, path_b):
    """Print every case whose exit code, answer or first stderr line moved
    from dump A to dump B (or that only one dump has), and the count of
    cases whose stdout hash, exit code or first stderr line differ at all;
    1 if any moved."""
    dumps = [{tuple(row["argv"]): row
              for row in map(json.loads, Path(path).read_text().splitlines())}
             for path in (path_a, path_b)]
    argvs = dict.fromkeys([*dumps[0], *dumps[1]])
    n_moved = n_bytes = 0
    for argv in argvs:
        a, b = (d.get(argv) for d in dumps)
        n_bytes += a is None or b is None or any(
            a[key] != b[key] for key in ("stdout_sha256", "exit", "stderr"))
        if a is None or b is None:
            what = [f"only in {path_a if b is None else path_b}"]
        else:
            what = (moved(a["exit"], b["exit"], "exit")
                    + moved(_words(a["stderr"]), _words(b["stderr"]), "stderr")
                    + moved(a["answer"], b["answer"]))
        if what:
            n_moved += 1
            print(" ".join(argv) + "\n    " + "\n    ".join(what))
    print(f"{len(argvs)} cases, {n_moved} moved; {n_bytes} differ in stdout hash, "
          "exit code or first stderr line")
    return int(n_moved > 0)


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
    if sys.argv[1:2] == ["--compare"]:
        if len(sys.argv) != 4:
            print("usage: answer_dump.py --compare A.jsonl B.jsonl", file=sys.stderr)
            sys.exit(2)
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    main(sys.argv[1:])
