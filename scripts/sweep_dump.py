#!/usr/bin/env python3
"""Dump `res` over two sweeps of operators near where lines meet, in the
format of answer_dump.py, so that `answer_dump.py --compare` reads them.

Usage: python scripts/sweep_dump.py [GRID ...] > sweep.jsonl
       python scripts/sweep_dump.py --tally DUMP.jsonl

GRID is `drift` or `inverse_square` (default: both, in that order).
`--tally` reads a drift dump and prints how many cases answered, how many
of those answered the closed-form total (that of -Delta on R^n, which the
drift keeps at half-integer edges), how many answered another total (wrong
at exit 0), and the refusals by reason (their first stderr line, numbers
and complex points elided).  It exits 1 when any answer is wrong at exit 0.

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

The operator documents are built here and written, each under a stable
name (`drift2d_eps-0.005.json`, `inverse_square3d_l1_d+1e-09.json`), to a
temporary directory where the cases run, so argv and the first stderr
line print that name.  Of answer_dump.py it uses only run_case and
F_CSV, so this file can be copied into an older checkout and run there
to compare two commits.
"""

import json
import os
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from answer_dump import F_CSV, run_case  # noqa: E402

EPSILONS = np.round(np.linspace(0.005, 0.8, 60), 6).tolist()
DRIFT_STRIPS = ((-0.5, 3.5), (-1.5, 2.5), (0.5, 4.5))
DRIFT_DEGREES = {2: (4, 6), 3: (2, 4)}
DELTAS = (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.3, -0.3)
INVERSE_SQUARE_STRIPS = ((-0.5, 3.5), (0.6, 3.9), (-1.5, 2.5), (0.5, 4.5))
INVERSE_SQUARE_DEGREES = (2, 4, 6)


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


GRIDS = {"drift": drift_cases, "inverse_square": inverse_square_cases}


def laplacian_total(n, beta1, beta2, top=60):
    """Strip total of -Delta on R^n: the degree-l harmonics, of dimension
    1, 2, 2, ... on R^2 and 2l + 1 on R^3, on each of the lines 2 - l and
    n + l strictly inside (beta1, beta2), for l < top."""
    def dim(l):
        return 2 * l + 1 if n == 3 else min(l, 1) + 1
    return sum(dim(l) for l in range(top) for line in (2 - l, n + l) if beta1 < line < beta2)


_POINT = re.compile(r"\([^)]*j\)")
_NUMBER = re.compile(r"(?<![A-Za-z_])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def tally(path):
    """Print the counts of a drift dump (see the module docstring); 1 if any
    answer is wrong at exit 0."""
    answered = right = 0
    wrong, refused = [], Counter()
    for row in map(json.loads, Path(path).read_text().splitlines()):
        argv = row["argv"]
        n = int(re.match(r"drift(\d)d_", argv[1]).group(1))
        if row["exit"] == 0:
            answered += 1
            total = sum(row["answer"]["res_lines"].values())
            if total == laplacian_total(n, float(argv[3]), float(argv[4])):
                right += 1
            else:
                wrong.append(f"{' '.join(argv)}: total {total}")
        else:
            reason = _NUMBER.sub("#", _POINT.sub("(z)", row["stderr"]))
            refused[f"exit {row['exit']}: {reason}"] += 1
    print(f"cases: {answered + sum(refused.values())}")
    print(f"answered: {answered}")
    print(f"  with the closed-form total: {right}")
    print(f"  wrong at exit 0: {len(wrong)}")
    for line in wrong:
        print(f"    {line}")
    print(f"refused: {sum(refused.values())}")
    for reason, count in refused.most_common():
        print(f"  {count:5d}  {reason}")
    return int(bool(wrong))


def main(grids=None):
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for grid in grids or GRIDS:
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
