"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.  All tolerances are pinned here; nothing is deferred to
later calibration.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from conftest import (
    cr_system_doc,
    dbar_doc,
    inverse_square_doc,
    laplacian_doc,
)
from oppencil.index_ledger import Anchor, adjoint_res_check, build_ledger
from oppencil.model_solver import line_difference_expansion, mode_pencil, \
    verify_coefficient_formula
from oppencil.operator_ast import formal_adjoint, is_formally_self_adjoint, \
    parse_operator
from oppencil.pencil import assemble_pencil
from oppencil.spectrum import strip_spectrum
from oppencil.weighted_norms import check_symbol_class, weighted_sobolev_norm
from oracles import biorthogonalize, chains_at, index_at, lambda_power, special_index

REPO = Path(__file__).resolve().parent.parent


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def lap3():
    return parse_operator(laplacian_doc(3))


@pytest.fixture(scope="module")
def lap2():
    return parse_operator(laplacian_doc(2))


# ---------------------------------------------------------------------------
# 1. Laplacian spectrum, n = 3
# ---------------------------------------------------------------------------

def test_criterion_1_laplacian_spectrum(lap3):
    t0 = time.time()
    rep = strip_spectrum(lap3, -3.5, 6.5, 8)
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"

    lines = {round(l): m for l, m in rep.res_lines.items()}
    want = {}
    for l in range(0, 6):          # lower family 2 - l in [-3.5, 6.5]
        want[2 - l] = want.get(2 - l, 0) + (2 * l + 1)
    for l in range(0, 4):          # upper family 3 + l in [-3.5, 6.5]
        want[3 + l] = want.get(3 + l, 0) + (2 * l + 1)
    assert lines == want

    # eigenvalue positions within 1e-8 of the closed-form quadratic roots
    for ep in rep.eigenpoints:
        lam = ep.lambda0
        best = min(min(abs(lam - 1j * (2 - l)), abs(lam - 1j * (3 + l)))
                   for l in range(0, 12))
        assert best < 1e-8
    report(1, f"lines {{-3..2}} u {{3..6}} with mults 2l+1, positions < 1e-8, "
              f"runtime {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 2. Jordan chain detection, n = 2
# ---------------------------------------------------------------------------

def test_criterion_2_jordan_chain(lap2):
    P = assemble_pencil(lap2, 6)
    ep = chains_at(P, 2j)
    assert ep.geometric == 1
    assert ep.partial_multiplicities == [2]
    assert max(ep.residuals) < 1e-8
    assert ep.det_order == 2
    P_adj = assemble_pencil(formal_adjoint(lap2), 6)
    ac = biorthogonalize(P, P_adj, ep)
    assert ac.biorth_residual < 1e-8
    report(2, f"J=1, M1=2, chain residual {max(ep.residuals):.1e} < 1e-8, "
              f"det order 2, biorth residual {ac.biorth_residual:.1e} < 1e-8")


# ---------------------------------------------------------------------------
# 3. Constant-coefficient cross-check
# ---------------------------------------------------------------------------

def test_criterion_3_verify_cc():
    ops = {
        "laplacian n=2": laplacian_doc(2),
        "laplacian n=3": laplacian_doc(3),
        "dbar n=2": dbar_doc(),
        "2x2 first-order system": cr_system_doc(),
    }
    from oppencil.index_ledger import pn_mu_nu
    for name, doc in ops.items():
        op = parse_operator(doc)
        rep = strip_spectrum(op, -3.5, 6.5, 8)
        for b in range(-3, 7):
            jump = (pn_mu_nu(op.n, op.mu, op.nu, b - 0.5)
                    - pn_mu_nu(op.n, op.mu, op.nu, b + 0.5))
            line = next((l for l in rep.res_lines if abs(l - b) < 1e-6), None)
            mult = rep.res_lines.get(line, 0) if line is not None else 0
            assert jump == mult, (name, b, jump, mult)
        assert all(abs(l - round(l)) < 1e-6 for l in rep.res_lines)
    report(3, "pn_mu_nu jumps == computed multiplicities on [-3, 6] for "
              "-Delta (n=2,3), D1+iD2, and the 2x2 system (exact integers)")


# ---------------------------------------------------------------------------
# 4. Index ledger, n = 3 Laplacian
# ---------------------------------------------------------------------------

def test_criterion_4_index_ledger(lap3):
    rep = strip_spectrum(lap3, -2.5, 6.5, 8)
    led = build_ledger(rep, Anchor("user", beta0=2.5, index0=0))
    comps = {(round(l), round(r)): i for l, r, i in led.values
             if abs(l - round(l)) < 1e-6 and abs(r - round(r)) < 1e-6}
    expected = {(1, 2): 1, (2, 3): 0, (3, 4): -1, (4, 5): -4}
    for key, val in expected.items():
        assert comps[key] == val
    # every integer component of (-2, 6) agrees with the closed form
    for k in range(-2, 6):
        assert index_at(led, k + 0.5) == special_index(3, 1, 2, k + 0.5)
    report(4, "ledger from (2.5, 0) reproduces the m=2 closed form on every "
              "component of (-2, 6) \\ Z exactly")


# ---------------------------------------------------------------------------
# 5. Adjoint relation for the inverse-square perturbation
# ---------------------------------------------------------------------------

def test_criterion_5_adjoint_relation():
    op = parse_operator(inverse_square_doc(0.25))
    adj = formal_adjoint(op)
    assert is_formally_self_adjoint(op)
    rep_a = strip_spectrum(op, -1.5, 6.5, 6)
    rep_adj = strip_spectrum(adj, -1.5, 6.5, 6)
    check = adjoint_res_check(rep_a.res_lines, rep_adj.res_lines, 3, 2)
    assert check.passed, check.failures

    # self-adjoint symmetry about (n+m)/2 = 2.5
    lines = sorted(rep_a.res_lines.items())
    for line, mult in lines:
        partner = [m for l, m in lines if abs(l - (5 - line)) < 1e-6]
        assert partner and partner[0] == mult

    # lines irrational (off the integers) and on the per-mode oracle
    for line, _ in lines:
        assert abs(line - round(line)) > 1e-3
        oracle_hit = False
        for l in range(0, 10):
            disc = math.sqrt(4 * l * (l + 1) + 2)
            for s in ((-1 + disc) / 2, (-1 - disc) / 2):
                if abs(line - (2 - s)) < 1e-7:
                    oracle_hit = True
        assert oracle_hit, line
    report(5, "Res(A*) == 5 - Res(A) line-by-line < 1e-7 with equal mults; "
              "symmetric about 2.5; all lines irrational and on the "
              "l(l+1)+1/4 oracle")


# ---------------------------------------------------------------------------
# 6. Model-problem expansion
# ---------------------------------------------------------------------------

def test_criterion_6_model_expansion(lap3, lap2):
    gauss = lambda t: np.exp(-t * t)
    mp3 = mode_pencil(assemble_pencil(lap3, 2), 0)
    res3 = line_difference_expansion(mp3, gauss, 1.5, 2.5)
    assert all(v < 1e-6 for v in res3.deviations.values()), res3.deviations
    assert verify_coefficient_formula(res3)["passed"]

    mp2 = mode_pencil(assemble_pencil(lap2, 2), 0)
    res2 = line_difference_expansion(mp2, gauss, 1.5, 2.5)
    assert all(v < 1e-6 for v in res2.deviations.values()), res2.deviations
    assert res2.eigenpoints[0].partial_multiplicities == [2]
    mask = np.abs(res2.t) <= -res2.t[0] / 2
    t = res2.t[mask]
    basis = np.stack([np.exp(-2 * t), 1j * t * np.exp(-2 * t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, res2.diff_solve[mask, 0], rcond=None)
    fit_res = np.linalg.norm(basis @ coef - res2.diff_solve[mask, 0]) / \
        np.linalg.norm(res2.diff_solve[mask, 0])
    assert fit_res < 1e-6
    assert abs(coef[1]) > 1e-3 * abs(coef[0])
    report(6, f"solve/residue/pairing agree pairwise < 1e-6 (n=3 worst "
              f"{max(res3.deviations.values()):.1e}); n=2 Jordan block gives a "
              f"degree-1 t-factor, fit residual {fit_res:.1e} < 1e-6")


# ---------------------------------------------------------------------------
# 7. Weighted norms
# ---------------------------------------------------------------------------

def test_criterion_7_weighted_norms():
    u = lambda_power(3, -4)   # (1+r^2)^(-2)
    got0 = weighted_sobolev_norm(u, 2, 0, 0.0).value
    want0 = 4 * math.pi * 0.5 * beta_fn(1.5, 4.0)
    assert got0 == pytest.approx(want0, rel=1e-6)
    got1 = weighted_sobolev_norm(u, 2, 1, 0.0).value
    want1 = want0 + 16 * 4 * math.pi * 0.5 * beta_fn(2.5, 4.0)
    assert got1 == pytest.approx(want1, rel=1e-6)

    g = 1.5
    shifted = weighted_sobolev_norm(lambda_power(3, g) * u, 2, 0, 0.5)
    direct = weighted_sobolev_norm(u, 2, 0, 0.5 + g)
    assert shifted.value == direct.value  # bit-for-bit

    ok = check_symbol_class(lambda_power(3, -3), beta=2.0, max_order=2)
    bad = check_symbol_class(lambda_power(3, -2), beta=2.0, max_order=2)
    assert ok.passed and not bad.passed
    report(7, f"Beta-function oracle match < 1e-6 (k=0: {got0:.6g}, k=1: "
              f"{got1:.6g}); Lambda-shift identity bit-for-bit; order-2 "
              f"remainder test accepts (1+r^2)^-3/2, rejects (1+r^2)^-1")


# ---------------------------------------------------------------------------
# 8. Stability and determinism
# ---------------------------------------------------------------------------

def test_criterion_8_stability_and_determinism(lap3, lap2):
    suite = [
        (lap3, (-0.5, 3.5)),
        (lap2, (-0.5, 2.5)),
        (parse_operator(dbar_doc()), (-2.5, 2.5)),
        (parse_operator(cr_system_doc()), (-1.5, 1.5)),
        (parse_operator(inverse_square_doc()), (-0.5, 4.5)),
    ]
    # degrees 5 and 7 give each strip the same lines, multiplicities and
    # eigenpoints, the centres within 1e-6
    worst = 0.0
    for op, (b1, b2) in suite:
        low, high = (strip_spectrum(op, b1, b2, degree) for degree in (5, 7))
        assert low.eigenpoints, "suite operator produced an empty strip"
        lines = [sorted(rep.res_lines.items()) for rep in (low, high)]
        assert [m for _, m in lines[0]] == [m for _, m in lines[1]]
        assert [e.algebraic for e in low.eigenpoints] == \
            [e.algebraic for e in high.eigenpoints]
        for a, b in zip(low.eigenpoints, high.eigenpoints):
            worst = max(worst, abs(a.lambda0 - b.lambda0))
        for (a, _), (b, _) in zip(*lines):
            worst = max(worst, abs(a - b))
        assert worst < 1e-6

    lap3_path = REPO / "operators" / "laplacian3d.json"
    outs = []
    for threads in ("1", "8"):
        r = subprocess.run(
            [sys.executable, "-m", "oppencil.cli", "spectrum",
             str(lap3_path), "--strip", "-0.5", "3.5", "--degree", "5",
             "--threads", threads],
            capture_output=True, text=True, cwd=REPO)
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1]

    r1 = subprocess.run(
        [sys.executable, "-m", "oppencil.cli", "ellipticity", str(lap3_path),
         "--threads", "1"], capture_output=True, text=True, cwd=REPO)
    r8 = subprocess.run(
        [sys.executable, "-m", "oppencil.cli", "ellipticity", str(lap3_path),
         "--threads", "8"], capture_output=True, text=True, cwd=REPO)
    assert r1.stdout == r8.stdout
    report(8, f"degree 5 vs 7: same lines and multiplicities, eigenvalue drift "
              f"< 1e-6 on the whole suite (worst {worst:.1e}); --threads 1 vs 8 "
              f"reports byte-identical")
