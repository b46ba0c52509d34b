#!/usr/bin/env python3
"""Walk the Fredholm index of an operator across a beta window.

Usage: python scripts/index_walk.py operators/laplacian3d.json -2.5 6.5 8
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oppencil.index_ledger import Anchor, build_ledger, cc_index, check_anchor
from oppencil.operator_ast import is_homogeneous_cc, parse_operator
from oppencil.spectrum import strip_spectrum


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "operators/laplacian3d.json"
    b1 = float(sys.argv[2]) if len(sys.argv) > 2 else -2.5
    b2 = float(sys.argv[3]) if len(sys.argv) > 3 else 6.5
    degree = int(sys.argv[4]) if len(sys.argv) > 4 else 8

    op = parse_operator(json.load(open(path)))
    anchor = Anchor("cc") if is_homogeneous_cc(op) else Anchor("selfadjoint")
    check_anchor(op, anchor)
    rep = strip_spectrum(op, b1, b2, degree)
    led = build_ledger(rep, anchor)

    print(f"anchor: beta0={led.anchor[0]:.4g} index={led.anchor[1]} "
          f"({led.anchor[2]})")
    print(f"{'component':>24} {'index':>6}  jump at right edge")
    mult = dict(led.breakpoints)
    for left, right, idx in led.values:
        line = next((b for b in mult if abs(b - right) < 1e-9), None)
        jump = f"-{mult[line]}" if line is not None else ""
        print(f"  ({left:9.4f}, {right:9.4f}) {idx:6d}  {jump}")
    if is_homogeneous_cc(op):
        mism = sum(1 for l, r, i in led.values
                   if i != cc_index(op, (l + r) / 2))
        print(f"closed-form cross-check mismatches: {mism}")


if __name__ == "__main__":
    main()
