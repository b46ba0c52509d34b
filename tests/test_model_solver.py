"""Tests for per-mode line solves and the solution-difference expansion."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import laplacian_doc
from oppencil.errors import GridTooShort, LineTooClose, NotApplicable, PoleOnLine
from oppencil.model_solver import (
    line_difference_expansion,
    mode_pencil,
    solve_on_line,
    verify_coefficient_formula,
)
from oppencil.operator_ast import parse_operator
from oppencil.pencil import assemble_pencil
from oppencil.spectrum import default_l_max, jordan_chains, power_solutions

OPERATORS = Path(__file__).resolve().parent.parent / "operators"


def gauss(t):
    return np.exp(-t * t)


@pytest.fixture(scope="module")
def mode3_l0():
    op = parse_operator(laplacian_doc(3))
    return mode_pencil(assemble_pencil(op, 2), 0)


@pytest.fixture(scope="module")
def mode2_l0():
    op = parse_operator(laplacian_doc(2))
    return mode_pencil(assemble_pencil(op, 2), 0)


def test_mode_pencil_matches_block(mode3_l0):
    # l = 0 block of -Delta (n=3): b(lam) = -(i lam + 2)(i lam + 3)
    for lam in (0.0, 1.0 + 0.5j, -2.3j):
        want = -((1j * lam + 2) * (1j * lam + 3))
        assert mode3_l0.eval(lam)[0, 0] == pytest.approx(want, rel=1e-12)


def test_mode_pencil_reduces_scalar():
    op = parse_operator(laplacian_doc(3))
    P = assemble_pencil(op, 3)
    mp = mode_pencil(P, 2)   # h_2 = 5, but the block is scalar x identity
    assert mp.size == 1


def _off_block_coupled(P, l):
    """Oracle: some B_j entry links degree l to another degree or
    component, above 1e-10 of the degree-l block."""
    idx = np.where(P.degrees_vector() == l)[0]
    rest = np.setdiff1d(np.arange(P.size), idx)
    scale = max(np.linalg.norm(Bj[np.ix_(idx, idx)], np.inf) for Bj in P.B) or 1.0
    return any(np.max(np.abs(Bj[np.ix_(idx, rest)]), initial=0.0) > 1e-10 * scale
               for Bj in P.B)


def test_mode_pencil_accepts_only_decoupled_degrees():
    accepted = set()
    for path in sorted(OPERATORS.glob("*.json")):
        op = parse_operator(json.loads(path.read_text()))
        for l in range(4):
            P = assemble_pencil(op, default_l_max(op, l), analysis_degree=l)
            if _off_block_coupled(P, l):
                with pytest.raises(NotApplicable, match="coupled"):
                    mode_pencil(P, l)
                continue
            mp = mode_pencil(P, l)
            idx = np.where(P.degrees_vector() == l)[0][:mp.size]
            assert all(np.array_equal(b, Bj[np.ix_(idx, idx)])
                       for b, Bj in zip(mp.blocks, P.B))
            accepted.add(path.stem)
    assert accepted == {"laplacian2d", "laplacian3d", "schrodinger_inverse_square3d"}


# ---------------------------------------------------------------------------
# line solves
# ---------------------------------------------------------------------------

def test_solve_zero_rhs(mode3_l0):
    t = np.linspace(-30, 30, 4096, endpoint=False)
    sol = solve_on_line(mode3_l0, np.zeros((len(t), 1)), 1.5, t)
    assert np.max(np.abs(sol.u)) == 0.0


def test_solve_gaussian_residual(mode3_l0):
    sol = solve_on_line(mode3_l0, gauss, 1.5)
    assert sol.ode_residual < 1e-8


def test_solve_against_causal_quadrature(mode3_l0):
    # independent oracle: -(d/dt+2)(d/dt+3) u = f with u -> 0 as t -> -inf;
    # two nested first-order causal integrals
    sol = solve_on_line(mode3_l0, gauss, 1.5)

    def u_direct(tv):
        w = lambda s: -quad(lambda r: math.exp(-3 * (s - r)) * math.exp(-r * r),
                            -15, s)[0]
        val, _ = quad(lambda s: math.exp(-2 * (tv - s)) * w(s), -15, tv)
        return val

    for tv in (-1.0, 0.0, 0.7, 2.0):
        i = int(np.argmin(np.abs(sol.t - tv)))
        assert complex(sol.u[i]).real == pytest.approx(u_direct(sol.t[i]), rel=1e-7)
        assert abs(complex(sol.u[i]).imag) < 1e-10


def test_weight_independence_same_gap(mode3_l0):
    # both lines inside the gap (2, 3): identical solutions; compare in the
    # center-weighted sup norm (the solution grows like e^(2|t|) on the left)
    a = solve_on_line(mode3_l0, gauss, 2.3)
    b = solve_on_line(mode3_l0, gauss, 2.7, a.t)
    mask = np.abs(a.t) <= -a.t[0] / 2
    w = np.exp(2.5 * a.t[mask])
    num = np.max(np.abs(w * (a.u[mask] - b.u[mask])))
    den = np.max(np.abs(w * a.u[mask]))
    assert num < 1e-8 * den


def test_solve_line_too_close(mode3_l0):
    with pytest.raises(LineTooClose):
        solve_on_line(mode3_l0, gauss, 2.0 + 1e-9)


def test_solve_grid_too_short(mode3_l0):
    t = np.linspace(-3, 3, 512, endpoint=False)
    f = gauss(t)[:, None] + 0.01
    with pytest.raises(GridTooShort):
        solve_on_line(mode3_l0, f, 1.5, t)


# ---------------------------------------------------------------------------
# difference expansion
# ---------------------------------------------------------------------------

def test_single_pole_difference(mode3_l0):
    res = line_difference_expansion(mode3_l0, gauss, 1.5, 2.5)
    for v in res.deviations.values():
        assert v < 1e-6
    # difference is a pure multiple of e^(i (2i) t): e^(2t)-rescaled constant
    mask = np.abs(res.t) <= -res.t[0] / 2
    d = res.diff_solve[mask, 0] * np.exp(2 * res.t[mask])
    mean = complex(np.mean(d))
    assert np.max(np.abs(d - mean)) < 1e-6 * abs(mean)
    # and the constant is -fhat(2i) = -sqrt(pi) e  [i * Res with b'(2i) = -i]
    assert mean.real == pytest.approx(-math.sqrt(math.pi) * math.e, rel=1e-8)
    assert abs(mean.imag) < 1e-8
    assert verify_coefficient_formula(res)["passed"]


def test_two_pole_difference(mode3_l0):
    res = line_difference_expansion(mode3_l0, gauss, 1.5, 3.5)
    for v in res.deviations.values():
        assert v < 1e-6
    # difference = c1 e^(-2t) + c2 e^(-3t); fit both exponentials
    mask = np.abs(res.t) <= -res.t[0] / 2
    t = res.t[mask]
    basis = np.stack([np.exp(-2 * t), np.exp(-3 * t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, res.diff_solve[mask, 0], rcond=None)
    fit = basis @ coef
    rel = np.linalg.norm(fit - res.diff_solve[mask, 0]) / np.linalg.norm(fit)
    assert rel < 1e-6
    assert verify_coefficient_formula(res)["passed"]


def test_double_pole_polynomial_factor(mode2_l0):
    res = line_difference_expansion(mode2_l0, gauss, 1.5, 2.5)
    for v in res.deviations.values():
        assert v < 1e-6
    assert res.eigendata[0].partial == [2]  # Jordan block of length 2
    mask = np.abs(res.t) <= -res.t[0] / 2
    t = res.t[mask]
    basis = np.stack([np.exp(-2 * t), 1j * t * np.exp(-2 * t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, res.diff_solve[mask, 0], rcond=None)
    rel = np.linalg.norm(basis @ coef - res.diff_solve[mask, 0]) / \
        np.linalg.norm(res.diff_solve[mask, 0])
    assert rel < 1e-6
    assert abs(coef[1]) > 1e-3 * abs(coef[0])  # genuine degree-1 factor
    assert verify_coefficient_formula(res)["passed"]


def test_expansion_dimension_matches_multiplicity(mode2_l0, mode3_l0):
    res2 = line_difference_expansion(mode2_l0, gauss, 1.5, 2.5)
    assert sum(sum(d.partial) for d in res2.eigendata) == 2
    res3 = line_difference_expansion(mode3_l0, gauss, 1.5, 3.5)
    assert sum(sum(d.partial) for d in res3.eigendata) == 2  # two simple poles


def test_pole_on_line(mode3_l0):
    with pytest.raises(PoleOnLine):
        line_difference_expansion(mode3_l0, gauss, 2.0, 3.5)


def test_zero_rhs_coefficients(mode3_l0):
    t = np.linspace(-60, 60, 8192, endpoint=False)
    res = line_difference_expansion(mode3_l0, lambda tv: 0.0 * tv, 1.5, 2.5, t)
    assert all(abs(c.value) < 1e-12 for c in res.coeffs_direct)


def test_translation_covariance(mode3_l0):
    # shifting f by tau scales the coefficient by e^(-i lam0 tau)
    tau = 0.6
    res0 = line_difference_expansion(mode3_l0, gauss, 1.5, 2.5)
    res1 = line_difference_expansion(mode3_l0,
                                     lambda t: gauss(t - tau), 1.5, 2.5)
    c0 = res0.coeffs_direct[0].value
    c1 = res1.coeffs_direct[0].value
    lam0 = res0.coeffs_direct[0].lambda0
    assert c1 == pytest.approx(c0 * np.exp(-1j * lam0 * tau), rel=1e-7)


def test_homogeneous_annihilation(mode2_l0):
    # b(D_t) applied to each power solution of the chain vanishes
    op = parse_operator(laplacian_doc(2))
    P = assemble_pencil(op, 2)
    ep = jordan_chains(P, 2j)
    sols = power_solutions(ep)
    t = np.linspace(-8, 8, 2048)
    # l = 0 block: scalar b; power solutions have constant sphere part
    b_coeffs = [mode2_l0.blocks[j][0, 0] for j in range(mode2_l0.m + 1)]
    for s in sols:
        vals = s.evaluate_t(t)[:, 0]  # first basis coordinate (l = 0)
        # apply b(D_t) via exact differentiation of the closed form:
        # u = e^(i lam0 t) p(it) with p from coeffs; D_t u = -i u'
        dt = t[1] - t[0]
        u = vals
        acc = np.zeros_like(u)
        du = u.copy()
        for j, bc in enumerate(b_coeffs):
            if j > 0:
                du = np.gradient(du, dt) * (-1j)
                acc = acc + bc * du
            else:
                acc = acc + bc * u
        # numerical differentiation is crude; check well inside the grid
        mask = np.abs(t) < 4
        assert np.max(np.abs(acc[mask])) < 1e-3 * max(np.max(np.abs(u[mask])), 1e-300)
