#!/usr/bin/env python3
"""Demonstrate the line-difference expansion for one spherical mode.

Solves b(D_t) u = e^(-t^2) on two weight lines, subtracts, and compares
against the residue calculus and the biorthogonal coefficient pairing.
Each crossed pole is printed as the Eigenpoint its Jordan chains came
with: multiplicities, the det-order cross-check and the chain residuals.

Usage: python scripts/expansion_demo.py operators/laplacian3d.json 0 1.5 2.5
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oppencil.model_solver import (
    line_difference_expansion,
    mode_pencil,
    verify_coefficient_formula,
)
from oppencil.operator_ast import parse_operator
from oppencil.pencil import assemble_pencil
from oppencil.spectrum import default_l_max, solve_pencil_eigenvalues


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "operators/laplacian3d.json"
    mode = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    b1 = float(sys.argv[3]) if len(sys.argv) > 3 else 1.5
    b2 = float(sys.argv[4]) if len(sys.argv) > 4 else 2.5

    op = parse_operator(json.load(open(path)))
    P = assemble_pencil(op, default_l_max(op, mode), analysis_degree=mode)
    mp = mode_pencil(P, mode)
    print(f"mode l={mode}: block size {mp.size}, eigenvalues "
          f"{sorted(round(float(v.imag), 6) for v in solve_pencil_eigenvalues(mp))}")

    res = line_difference_expansion(mp, lambda t: np.exp(-t * t), b1, b2)
    print(f"lines {b1} / {b2}; poles crossed:")
    for e in res.eigenpoints:
        print(f"  lambda0 = {e.lambda0:.6f}: geometric {e.geometric}, partial "
              f"multiplicities {e.partial_multiplicities}, algebraic {e.algebraic} "
              f"(det order {e.det_order}), chain residuals "
              f"{', '.join(f'{r:.2e}' for r in e.residuals)}")
    print("pairwise deviations:")
    for k, v in res.deviations.items():
        print(f"  {k:18s} {v:.3e}")
    for c in res.coeffs_direct:
        print(f"  c[j={c.j}, m={c.m}] = {c.value:.8f}")
    print("coefficient formula check:",
          "PASS" if verify_coefficient_formula(res)["passed"] else "FAIL")


if __name__ == "__main__":
    main()
