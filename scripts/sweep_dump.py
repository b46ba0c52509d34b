#!/usr/bin/env python3
"""Dump `res` over two sweeps of operators near where lines meet, and
over unit strips of the constant-coefficient operators, in the format of
answer_dump.py, so that `answer_dump.py --compare` reads them.

Usage: python scripts/sweep_dump.py [GRID ...] > sweep.jsonl
       python scripts/sweep_dump.py --tally DUMP.jsonl

GRID is `drift`, `inverse_square` or `cc` (default: drift and
inverse_square, in that order).  `--tally` reads a dump and prints, in
one block per grid, how many cases answered, how many of those answered
the closed form, how many answered something else (wrong at exit 0), and
the refusals by reason (their first stderr line, numbers and complex
points elided).  A drift answer is right when its strip total is
-Delta's on R^n (which the drift keeps at half-integer edges); an
inverse-square answer when its lines are those of every mode's quadratic
(inverse_square_lines), each within 1e-6 and of the same multiplicity.  A
cc answer of -Delta + 0.25 r^-2 is right when its lines are those of
inverse_square_lines (c read from the document), of the dipole operator
when its strip total is -Delta's (the dipole keeps it at half-integer
edges, as the drift does), and of a homogeneous constant-coefficient
operator when its one line, if any, is the strip's integer k and its
multiplicity is the jump of the cc index formula across the strip
(cc_jump; no line where the jump is 0).  It exits 1 when any answer is
wrong at exit 0.

* drift (1440 cases): -Delta + eps (x_1/r) r^-2 on R^2 and R^3 for 60
  values of |eps| evenly spaced in [0.005, 0.8], both signs, on the strips
  (-0.5, 3.5), (-1.5, 2.5) and (0.5, 4.5), at degrees 4 and 6 on R^2 and
  2 and 4 on R^3.  The drift couples harmonic degrees, so these strips
  certify their candidates and chain on the blocks of the exact pencil.
* inverse_square (648 cases): -Delta + c r^-2 on R^2 and R^3 with
  c = -(l + (n-2)/2)^2 + delta for l = 0, 1, 2 and delta in {0, +-1e-9,
  +-1e-6, +-1e-3, +-0.3}, on the strips (-0.5, 3.5), (0.6, 3.9),
  (-1.5, 2.5) and (0.5, 4.5), at degrees 2, 4 and 6.  At delta = 0 the
  two lines of mode l meet at (n+2)/2 (D_l = 0), so each delta puts two
  simple roots, or a complex pair, that close together.
* cc (672 cases): laplacian2d, laplacian3d, dbar2d, cr_system2d,
  schrodinger_inverse_square3d and dipole_laplacian3d from operators/ on
  the unit strips (k - 1/2, k + 1/2), k = -12 .. 15, at degrees 2, 4, 6
  and 8.  A strip beyond the degrees the pencil assembles
  holds lines of modes it does not see.

The operator documents are built here, or read from operators/, and
written, each under a stable name (`drift2d_eps-0.005.json`,
`inverse_square3d_l1_d+1e-09.json`, `dbar2d.json`), to a temporary
directory where the cases run, so argv and the first stderr line print
that name.  Of answer_dump.py it uses only run_case and F_CSV, and of the
program only harmonic_dim (the cc index formula is copied here), so this
file can be copied into an older checkout and run there to compare two
commits.
"""

import json
import math
import os
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

if __name__ == "__main__":
    # one BLAS thread before numpy loads, as answer_dump.py pins it
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from answer_dump import F_CSV, run_case  # noqa: E402
from oppencil.radial_algebra import harmonic_dim  # noqa: E402

EPSILONS = np.round(np.linspace(0.005, 0.8, 60), 6).tolist()
DRIFT_STRIPS = ((-0.5, 3.5), (-1.5, 2.5), (0.5, 4.5))
DRIFT_DEGREES = {2: (4, 6), 3: (2, 4)}
DELTAS = (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.3, -0.3)
INVERSE_SQUARE_STRIPS = ((-0.5, 3.5), (0.6, 3.9), (-1.5, 2.5), (0.5, 4.5))
INVERSE_SQUARE_DEGREES = (2, 4, 6)
CC_OPERATORS = ("laplacian2d", "laplacian3d", "dbar2d", "cr_system2d",
                "schrodinger_inverse_square3d", "dipole_laplacian3d")
CC_STRIPS = tuple((k - 0.5, k + 0.5) for k in range(-12, 16))
CC_DEGREES = (2, 4, 6, 8)
LINE_TOL = 1e-6   # the cluster radius: lines nearer than this print as one
OPERATORS = Path(__file__).resolve().parent.parent / "operators"


def laplacian_doc(n):
    """-Delta = sum_i D_i^2 on R^n."""
    terms = [{"alpha": [2 * (j == i) for j in range(n)], "radial_exponent": 0.0,
              "poly": {" ".join(["0"] * n): [1.0, 0.0]}} for i in range(n)]
    return {"n": n, "k": 1, "mu": [2], "nu": [0],
            "entries": [{"i": 0, "j": 0, "terms": terms}]}


def with_term(doc, radial_exponent, monomial, coeff):
    """doc plus the zeroth-order term coeff * x^monomial * r^radial_exponent."""
    doc["entries"][0]["terms"].append(
        {"alpha": [0] * doc["n"], "radial_exponent": radial_exponent,
         "poly": {" ".join(map(str, monomial)): [coeff, 0.0]}})
    return doc


def res_argvs(name, strips, degrees):
    for b1, b2 in strips:
        for d in degrees:
            yield ["res", name, "--strip", str(b1), str(b2), "--degree", str(d)]


def drift_cases():
    """(name, document, argv) of every drift case, in a fixed order."""
    for n, degrees in DRIFT_DEGREES.items():
        for eps in EPSILONS:
            for sign in (1, -1):
                name = f"drift{n}d_eps{sign * eps:+g}.json"
                doc = with_term(laplacian_doc(n), -3.0, [1] + [0] * (n - 1), sign * eps)
                for argv in res_argvs(name, DRIFT_STRIPS, degrees):
                    yield name, doc, argv


def inverse_square_cases():
    """(name, document, argv) of every inverse-square case, in a fixed order."""
    for n in (2, 3):
        for l in range(3):
            for delta in DELTAS:
                name = f"inverse_square{n}d_l{l}_d{delta:+g}.json"
                c = -(l + (n - 2) / 2) ** 2 + delta
                doc = with_term(laplacian_doc(n), -2.0, [0] * n, c)
                for argv in res_argvs(name, INVERSE_SQUARE_STRIPS, INVERSE_SQUARE_DEGREES):
                    yield name, doc, argv


def cc_cases():
    """(name, document, argv) of every cc case, in a fixed order."""
    for name in CC_OPERATORS:
        doc = json.loads((OPERATORS / f"{name}.json").read_text())
        for argv in res_argvs(f"{name}.json", CC_STRIPS, CC_DEGREES):
            yield f"{name}.json", doc, argv


GRIDS = {"drift": drift_cases, "inverse_square": inverse_square_cases, "cc": cc_cases}
DEFAULT_GRIDS = ("drift", "inverse_square")


def grid_of(name):
    """The grid whose cases run the operator file `name`."""
    return next((grid for grid in ("drift", "inverse_square") if name.startswith(grid)), "cc")


def laplacian_total(n, beta1, beta2, top=60):
    """Strip total of -Delta on R^n: the degree-l harmonics on each of the
    lines 2 - l and n + l strictly inside (beta1, beta2), for l < top."""
    return sum(harmonic_dim(n, l) for l in range(top) for line in (2 - l, n + l)
               if beta1 < line < beta2)


def inverse_square_lines(n, c, beta1, beta2, top=60):
    """Sorted [line, multiplicity] of -Delta + c r^-2 on R^n strictly inside
    (beta1, beta2): mode l < top has the lines (n+2)/2 -+ Re sqrt(D_l),
    D_l = (l + (n-2)/2)^2 + c, each of the degree-l harmonics' dimension (a
    complex pair on the centre line); lines within LINE_TOL are one."""
    lines = []
    for l in range(top):
        root = math.sqrt(max((l + (n - 2) / 2) ** 2 + c, 0.0))
        lines += [(line, harmonic_dim(n, l)) for line in (n / 2 + 1 - root, n / 2 + 1 + root)
                  if beta1 < line < beta2]
    merged = []
    for line, dim in sorted(lines):
        if merged and line - merged[-1][0] < LINE_TOL:
            merged[-1][1] += dim
        else:
            merged.append([line, dim])
    return merged


def pn(n, beta):
    """Dimension of the polynomials of degree <= beta in n variables, 0 for
    beta < 0."""
    return math.comb(math.floor(beta) + n, n) if beta >= 0 else 0


def cc_jump(n, mu, nu, beta1, beta2):
    """The drop of the cc index formula sum_i pn(n, mu_i - beta) - pn(n,
    nu_i - beta) - pn(n, beta - nu_i - n) + pn(n, beta - mu_i - n) of a
    homogeneous constant-coefficient operator from beta1 to beta2: the
    total multiplicity of its lines between."""
    def index(beta):
        return sum(pn(n, m - beta) - pn(n, v - beta) - pn(n, beta - v - n) + pn(n, beta - m - n)
                   for m, v in zip(mu, nu))
    return index(beta1) - index(beta2)


def total_check(row, n):
    """(right, what was printed) of an answered row whose strip total must
    be -Delta's on R^n."""
    argv = row["argv"]
    total = sum(row["answer"]["res_lines"].values())
    return total == laplacian_total(n, float(argv[3]), float(argv[4])), f"total {total}"


def lines_check(row, want):
    """(right, what was printed) of an answered row whose lines must be
    want's, [line, multiplicity] in ascending order: each within LINE_TOL
    and of the same multiplicity, and none missing."""
    got = sorted((float(line), mult) for line, mult in row["answer"]["res_lines"].items())
    right = len(got) == len(want) and all(
        abs(a - b) < LINE_TOL and m == d for (a, m), (b, d) in zip(got, want))
    return right, f"lines {row['answer']['res_lines']}"


def drift_check(row):
    """total_check of an answered drift row."""
    return total_check(row, int(re.match(r"drift(\d)d_", row["argv"][1]).group(1)))


def inverse_square_check(row):
    """lines_check of an answered inverse-square row against
    inverse_square_lines."""
    argv = row["argv"]
    n, l, delta = re.match(r"inverse_square(\d)d_l(\d)_d(.+)\.json$", argv[1]).groups()
    n = int(n)
    return lines_check(row, inverse_square_lines(n, -(int(l) + (n - 2) / 2) ** 2 + float(delta),
                                                 float(argv[3]), float(argv[4])))


def cc_check(row):
    """(right, what was printed) of an answered cc row: the dipole
    operator's strip total is -Delta's, -Delta + c r^-2's lines are
    inverse_square_lines', and the lines of a homogeneous
    constant-coefficient operator are the strip's integer k with the jump
    of the cc index formula, or none where the jump is 0."""
    argv = row["argv"]
    doc = json.loads((OPERATORS / argv[1]).read_text())
    beta1, beta2 = float(argv[3]), float(argv[4])
    if argv[1] == "dipole_laplacian3d.json":
        return total_check(row, doc["n"])
    if argv[1] == "schrodinger_inverse_square3d.json":
        c = next(t["poly"]["0 0 0"][0] for t in doc["entries"][0]["terms"]
                 if not any(t["alpha"]))
        return lines_check(row, inverse_square_lines(doc["n"], c, beta1, beta2))
    jump = cc_jump(doc["n"], doc["mu"], doc["nu"], beta1, beta2)
    right, what = lines_check(row, [[(beta1 + beta2) / 2, jump]] if jump else [])
    return right, f"{what}, formula jump {jump}"


CHECKS = {"drift": drift_check, "inverse_square": inverse_square_check, "cc": cc_check}
_POINT = re.compile(r"\([^)]*j\)")
_NUMBER = re.compile(r"(?<![A-Za-z_])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def tally(path):
    """Print the counts of a dump, grid by grid (see the module docstring);
    1 if any answer is wrong at exit 0."""
    rows = {grid: [] for grid in GRIDS}
    for row in map(json.loads, Path(path).read_text().splitlines()):
        rows[grid_of(row["argv"][1])].append(row)
    wrong = 0
    for grid, grid_rows in rows.items():
        if grid_rows:
            wrong += tally_grid(grid, grid_rows)
    return int(bool(wrong))


def tally_grid(grid, rows):
    """Print one grid's block of the tally; the number of wrong answers."""
    answered = right = 0
    wrong, refused = [], Counter()
    for row in rows:
        if row["exit"] == 0:
            answered += 1
            ok, what = CHECKS[grid](row)
            if ok:
                right += 1
            else:
                wrong.append(f"{' '.join(row['argv'])}: {what}")
        else:
            reason = _NUMBER.sub("#", _POINT.sub("(z)", row["stderr"]))
            refused[f"exit {row['exit']}: {reason}"] += 1
    print(f"{grid} cases: {len(rows)}")
    print(f"answered: {answered}")
    print(f"  with the closed-form answer: {right}")
    print(f"  wrong at exit 0: {len(wrong)}")
    for line in wrong:
        print(f"    {line}")
    print(f"refused: {sum(refused.values())}")
    for reason, count in refused.most_common():
        print(f"  {count:5d}  {reason}")
    return len(wrong)


def main(grids=None):
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for grid in grids or DEFAULT_GRIDS:
                for name, doc, argv in GRIDS[grid]():
                    if not Path(name).exists():
                        Path(name).write_text(json.dumps(doc))
                    # no case reads a CSV file, so its token maps to itself
                    print(json.dumps(run_case(argv, F_CSV)), flush=True)
        finally:
            os.chdir(here)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--tally"]:
        if len(sys.argv) != 3:
            print("usage: sweep_dump.py --tally DUMP.jsonl", file=sys.stderr)
            sys.exit(2)
        sys.exit(tally(sys.argv[2]))
    unknown = sorted(set(sys.argv[1:]) - set(GRIDS))
    if unknown:
        print(f"usage: sweep_dump.py [{' | '.join(GRIDS)} ...]; unknown: "
              + ", ".join(unknown), file=sys.stderr)
        sys.exit(2)
    main(sys.argv[1:])
