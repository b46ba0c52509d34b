"""Tests for per-mode line solves and the solution-difference expansion."""

import dataclasses
import json
import math
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    coupled_pair_doc,
    d1d2_doc,
    drift_doc,
    inverse_square_doc,
    laplacian_doc,
    with_drift,
)
from oppencil import model_solver, pencil, spectrum
from oppencil.cli import main
from oppencil.errors import (
    GridTooShort,
    LineTooClose,
    MultiplicityMismatch,
    NotApplicable,
    SingularLeadingCoeff,
)
from oppencil.model_solver import (
    _laurent_coefficients,
    _taylor_moments,
    line_difference_expansion,
    mode_pencil,
    solve_on_line,
    verify_coefficient_formula,
)
from oppencil.operator_ast import parse_operator
from oppencil.pencil import PencilMatrices, assemble_pencil, horner
from oppencil.spectrum import default_l_max, power_solutions
from oracles import chains_at

REPO = Path(__file__).resolve().parent.parent
OPERATORS = REPO / "operators"


def gauss(t):
    return np.exp(-t * t)


def _evaluate_t(u, t):
    """A spectrum.PowerExpSolution on the grid t, shape (N, q):
    e^(i lam0 t) sum_l (it)^l/l! coeffs[l], term by term."""
    acc = np.zeros((len(t), len(u.coeffs[0])), dtype=complex)
    for l, vec in enumerate(u.coeffs):
        acc += ((1j * t) ** l / math.factorial(l))[:, None] * np.asarray(vec)
    return np.exp(1j * u.lambda0 * t)[:, None] * acc


@pytest.fixture(scope="module")
def mode3_l0():
    op = parse_operator(laplacian_doc(3))
    return mode_pencil(assemble_pencil(op, 2), 0)


@pytest.fixture(scope="module")
def mode2_l0():
    op = parse_operator(laplacian_doc(2))
    return mode_pencil(assemble_pencil(op, 2), 0)


def _mode(doc, l):
    op = parse_operator(doc)
    return mode_pencil(assemble_pencil(op, default_l_max(op, l), analysis_degree=l), l)


@pytest.fixture(scope="module")
def mode2_l2():
    return _mode(laplacian_doc(2), 2)   # poles 0 and 4i


@pytest.fixture(scope="module")
def mode2_l3():
    return _mode(laplacian_doc(2), 3)   # poles -i and 5i


def _pencil_2x2(B):
    """A first-order 2 x 2 mode pencil sum B_j lam^j on the two degree-1
    harmonics of R^2."""
    return PencilMatrices(B=np.array(B, dtype=complex), degrees=np.array([1, 1]),
                          k=1, n=2, mu=(1,), nu=(0,), l_max=1, analysis_degree=1,
                          bandwidth=0)


def _jordan_pencil(lam0):
    """b(lam) = lam - A with A similar to a 2x2 Jordan block at lam0: one
    chain of length 2 (partial multiplicities [2]), non-triangular data."""
    S = np.array([[1, 0.5], [0.3 + 0.2j, 1]])
    A = S @ np.array([[lam0, 1], [0, lam0]]) @ np.linalg.inv(S)
    return _pencil_2x2([-A, np.eye(2)])


def test_mode_pencil_matches_block(mode3_l0):
    # l = 0 block of -Delta (n=3): b(lam) = -(i lam + 2)(i lam + 3)
    for lam in (0.0, 1.0 + 0.5j, -2.3j):
        want = -((1j * lam + 2) * (1j * lam + 3))
        assert horner(mode3_l0.B, lam)[0, 0] == pytest.approx(want, rel=1e-12)


def test_mode_pencil_reduces_scalar():
    op = parse_operator(laplacian_doc(3))
    P = assemble_pencil(op, 3)
    mp = mode_pencil(P, 2)   # h_2 = 5, but the block is scalar x identity
    assert mp.size == 1


def test_mode_pencil_builds_no_view_of_its_own(monkeypatch):
    # a mode cut reads P's block view, and a c(lam) I block is P's own 1 x 1
    # square: the only views built are P's and, once it is solved, the mode
    # pencil's
    built = []
    blocks = PencilMatrices.__dict__["blocks"].func

    def counted(P):
        built.append(P)
        return blocks(P)

    view = cached_property(counted)
    view.__set_name__(PencilMatrices, "blocks")
    monkeypatch.setattr(PencilMatrices, "blocks", view)
    op = parse_operator(laplacian_doc(3))
    P = assemble_pencil(op, default_l_max(op, 2), analysis_degree=2)
    modes = [mode_pencil(P, l) for l in range(3)]
    assert [mp.size for mp in modes] == [1, 1, 1]
    assert [b is P for b in built] == [True]
    line_difference_expansion(modes[0], gauss, 1.5, 2.5)
    assert [b is mp for b, mp in zip(built, [P, modes[0]])] == [True, True]


def _off_block_coupled(P, l):
    """Oracle: some B_j entry links degree l to another degree or
    component, on B's exact pattern (the assembly cuts round-off to 0), as
    a -Delta + 1e-11 drift couples."""
    idx = np.where(P.row_degrees == l)[0]
    rest = np.setdiff1d(np.arange(P.size), idx)
    return any(Bj[np.ix_(idx, rest)].any() or Bj[np.ix_(rest, idx)].any() for Bj in P.B)


def test_mode_pencil_accepts_only_decoupled_degrees():
    # every operators/ file, two components at bandwidth 0, coupled (0.7)
    # or not (0.0), and bandwidth > 0, where P.blocks are the components of
    # the kept columns' rectangular pattern
    docs = [(path.stem, json.loads(path.read_text()))
            for path in sorted(OPERATORS.glob("*.json"))]
    docs += [("pair0", coupled_pair_doc(0.0)), ("pair07", coupled_pair_doc(0.7)),
             ("drift", drift_doc(0.5)), ("d1d2", d1d2_doc()),
             ("tiny_drift2d", with_drift(laplacian_doc(2), 1e-11))]
    accepted = set()
    for name, doc in docs:
        op = parse_operator(doc)
        for l in range(4):
            P = assemble_pencil(op, default_l_max(op, l), analysis_degree=l)
            if _off_block_coupled(P, l):
                with pytest.raises(NotApplicable, match="coupled"):
                    mode_pencil(P, l)
                continue
            mp = mode_pencil(P, l)
            idx = np.where(P.row_degrees == l)[0][:mp.size]
            assert all(np.array_equal(b, Bj[np.ix_(idx, idx)])
                       for b, Bj in zip(mp.B, P.B))
            accepted.add(name)
    assert accepted == {"laplacian2d", "laplacian3d", "schrodinger_inverse_square3d",
                        "pair0", "pair07"}


# ---------------------------------------------------------------------------
# line solves
# ---------------------------------------------------------------------------

def _samples(t):
    return gauss(t)[:, None]


def test_solve_zero_rhs(mode3_l0):
    t = np.linspace(-30, 30, 4096, endpoint=False)
    u = solve_on_line(mode3_l0, np.zeros((len(t), 1)), 1.5, t)
    assert u.shape == (len(t), 1)
    assert np.max(np.abs(u)) == 0.0


def test_solve_against_causal_quadrature(mode3_l0):
    # independent oracle: -(d/dt+2)(d/dt+3) u = f with u -> 0 as t -> -inf;
    # two nested first-order causal integrals
    t = np.linspace(-60, 60, 4096, endpoint=False)
    u = solve_on_line(mode3_l0, _samples(t), 1.5, t)[:, 0]

    def u_direct(tv):
        w = lambda s: -quad(lambda r: math.exp(-3 * (s - r)) * math.exp(-r * r),
                            -15, s)[0]
        val, _ = quad(lambda s: math.exp(-2 * (tv - s)) * w(s), -15, tv)
        return val

    for tv in (-1.0, 0.0, 0.7, 2.0):
        i = int(np.argmin(np.abs(t - tv)))
        assert complex(u[i]).real == pytest.approx(u_direct(t[i]), rel=1e-7)
        assert abs(complex(u[i]).imag) < 1e-10


def test_weight_independence_same_gap(mode3_l0):
    # both lines inside the gap (2, 3): identical solutions; compare in the
    # center-weighted sup norm (the solution grows like e^(2|t|) on the left)
    t = np.linspace(-100, 100, 8192, endpoint=False)
    a = solve_on_line(mode3_l0, _samples(t), 2.3, t)[:, 0]
    b = solve_on_line(mode3_l0, _samples(t), 2.7, t)[:, 0]
    mask = np.abs(t) <= -t[0] / 2
    w = np.exp(2.5 * t[mask])
    num = np.max(np.abs(w * (a[mask] - b[mask])))
    den = np.max(np.abs(w * a[mask]))
    assert num < 1e-8 * den


def test_solve_line_too_close(mode3_l0):
    t = np.linspace(-60, 60, 4096, endpoint=False)
    with pytest.raises(LineTooClose):
        solve_on_line(mode3_l0, _samples(t), 2.0 + 1e-9, t)


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
    assert res.eigenpoints[0].partial_multiplicities == [2]  # Jordan block of length 2
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
    assert sum(sum(d.partial_multiplicities) for d in res2.eigenpoints) == 2
    res3 = line_difference_expansion(mode3_l0, gauss, 1.5, 3.5)
    assert sum(sum(d.partial_multiplicities) for d in res3.eigenpoints) == 2  # two simple poles


def test_pole_on_line(mode3_l0):
    with pytest.raises(LineTooClose):
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
    ep = chains_at(P, 2j)
    sols = power_solutions(ep)
    t = np.linspace(-8, 8, 2048)
    # l = 0 block: scalar b; power solutions have constant sphere part
    b_coeffs = [mode2_l0.B[j][0, 0] for j in range(mode2_l0.m + 1)]
    for s in sols:
        vals = _evaluate_t(s, t)[:, 0]  # first basis coordinate (l = 0)
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


def _jordan_f(t):
    return np.stack([gauss(t), (0.5 - 1j) * t * gauss(t - 0.2)], axis=1)


def test_jordan_block_difference():
    # a defective 2x2 block: the expansion carries a (it) e^(i lam0 t) term
    res = line_difference_expansion(_jordan_pencil(2j), _jordan_f, 1.5, 2.5)
    assert [d.partial_multiplicities for d in res.eigenpoints] == [[2]]
    assert verify_coefficient_formula(res)["passed"]


def _direct_residuals(P, ep, ac):
    """The chain equations of ep, the adjoint chain equations of ac (on the
    kept rows) and the pairings of the two, evaluated term by term:
    (chain residuals, biorthogonality residual, adjoint chain residual)."""
    T = pencil.taylor(P.B, ep.lambda0)
    Ts = lambda s: T[s] if s < len(T) else np.zeros_like(T[0])
    scale = spectrum._chain_scale(P, ep.lambda0)
    chain_res = [max(np.linalg.norm(sum(Ts(s) @ chain[Mp - s] for s in range(Mp + 1)))
                     for Mp in range(len(chain))) / scale for chain in ep.chains]
    biorth = 0.0
    for j, chain in enumerate(ep.chains):
        for mm in range(len(chain)):
            for jp, psi in enumerate(ac.chains):
                for mp in range(len(psi)):
                    acc = sum(np.vdot(psi[mp - lp], Ts(l + lp + 1) @ chain[mm - l])
                              for l in range(mm + 1) for lp in range(mp + 1))
                    want = 1.0 if (j == jp and len(chain) - 1 - mm == mp) else 0.0
                    biorth = max(biorth, abs(acc - want))
    adjoint = max(np.linalg.norm(sum(Ts(s).conj().T @ psi[Mp - s]
                                     for s in range(Mp + 1))[P.kept])
                  for psi in ac.chains for Mp in range(len(psi))) / scale
    return chain_res, biorth, adjoint


@pytest.mark.parametrize("case", ["jordan", "laplacian2d"])
def test_residuals_match_the_direct_pairing(case):
    # the residuals are read off the solved systems; the term-by-term
    # evaluation on the returned chains is the oracle.  At the eigenvalue
    # all of them are round-off; 1e-7 off it the adjoint systems cannot be
    # solved exactly and leave residuals of about 1e-8
    P = (_jordan_pencil(2j) if case == "jordan"
         else assemble_pencil(parse_operator(laplacian_doc(2)), 4))
    ep = chains_at(P, 2j)
    assert ep.partial_multiplicities == [2]
    chain_res, _, _ = _direct_residuals(P, ep, spectrum.adjoint_chains(P, ep))
    assert np.max(np.abs(np.subtract(ep.residuals, chain_res))) <= 1e-14
    for shift in (0.0, 1e-7):
        off = dataclasses.replace(ep, lambda0=ep.lambda0 + shift)
        ac = spectrum.adjoint_chains(P, off)
        _, biorth, adjoint = _direct_residuals(P, off, ac)
        assert (max(biorth, adjoint) > 4e-9) == (shift > 0)
        assert abs(ac.biorth_residual - biorth) <= 1e-14
        assert abs(ac.chain_residual - adjoint) <= 1e-14


# ---------------------------------------------------------------------------
# the strip's guards on the mode path
# ---------------------------------------------------------------------------

def test_chain_count_checked_against_det_order(monkeypatch, mode3_l0, capsys):
    # on a copy of the module's mode pencil, which has chained nothing yet
    true_order = spectrum.det_vanishing_order
    monkeypatch.setattr(spectrum, "det_vanishing_order",
                        lambda P, lam0, radius, square:
                        true_order(P, lam0, radius, square) + 1)
    with pytest.raises(MultiplicityMismatch, match="chain count 1 != det root order 2"):
        line_difference_expansion(dataclasses.replace(mode3_l0), gauss, 1.5, 2.5)
    code = main(["model-solve", str(OPERATORS / "laplacian3d.json"), "--mode", "0",
                 "--beta1", "1.5", "--beta2", "2.5"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("numerical guard: chain count") and "Traceback" not in err


def test_model_solve_far_data_is_solved_or_refused(capsys):
    # a gaussian at t0 moves the line-1 coefficient by e^(t0 - 50) against
    # t0 = 50.  Data beyond every grid the search tries vanishes on it, and
    # its all-zero samples must not pass for decayed ones: the answer is
    # right, or the run exits 3, never a printed 0
    def coeffs(t0):
        code = main(["model-solve", str(OPERATORS / "laplacian3d.json"), "--mode", "1",
                     "--beta1", "0.5", "--beta2", "1.5", "--f", f"gaussian:a=1,t0={t0}"])
        out = capsys.readouterr().out
        return code, [complex(*c["value"]) for c in json.loads(out)["expansion"][
            "coeffs_direct"]] if code == 0 else None

    code, near = coeffs(50)
    assert code == 0 and len(near) == 1 and abs(near[0]) > 1e21
    code, far = coeffs(100)
    assert code == 3 or abs(far[0] - math.exp(50) * near[0]) <= 1e-6 * abs(far[0])
    assert coeffs(200)[0] == 3


INV_SQ3 = str(OPERATORS / "schrodinger_inverse_square3d.json")
INV_SQ3_POLE = (5 - math.sqrt(2)) / 2     # mode 0 poles are i (5 -+ sqrt 2)/2


def _inverse_square_expansion(capsys, f, b1=1.25, b2=2.75):
    code = main(["model-solve", INV_SQ3, "--mode", "0", "--beta1", str(b1),
                 "--beta2", str(b2), "--f", f])
    return code, json.loads(capsys.readouterr().out)["expansion"]


def test_sharp_gaussian_answers_the_closed_form(capsys):
    # the line-1.79 coefficient of exp(-a (t - t0)^2) is a constant times
    # fhat(i s) = sqrt(pi/a) e^(s t0 + s^2/(4a)); a grid whose spacing did
    # not resolve a = 1e4 printed it 9.1e-4 off with passed: true
    ratios = []
    for a in (1e4, 1.0):
        code, expansion = _inverse_square_expansion(capsys, f"gaussian:a={a},t0=0.1")
        (c,) = expansion["coeffs_direct"]
        assert code == 0 and c["lambda0"][1] == pytest.approx(INV_SQ3_POLE, abs=1e-12)
        s = INV_SQ3_POLE
        ratios.append(complex(*c["value"])
                      / (math.sqrt(math.pi / a) * math.exp(s * 0.1 + s * s / (4 * a))))
    assert abs(ratios[0] - ratios[1]) <= 1e-9 * abs(ratios[1])


def test_report_names_a_grid_sized_by_the_spectrum(capsys):
    # the mode_solves workload's widest default gaussian (a = 2) on lines
    # 0.25 from the pole, and the sharp a = 1e4 gaussian
    lines = (INV_SQ3_POLE - 0.25, INV_SQ3_POLE + 0.25)
    code, smooth = _inverse_square_expansion(capsys, "gaussian:a=2,t0=1", *lines)
    assert code == 0 and smooth["grid"]["points"] <= 2048
    assert smooth["grid"]["half_width"] == pytest.approx(120.0, rel=1e-12)
    code, sharp = _inverse_square_expansion(capsys, "gaussian:a=10000,t0=0.1")
    assert code == 0 and sharp["grid"]["points"] > 8192


def test_choose_grid_refines_past_all_zero_samples():
    # a gaussian of width 0.01 centred between the 256-point nodes on
    # [-80, 80) underflows to 0 at every one of them; the search refines
    # the spacing until its spectrum has decayed, before any lengthening
    a, c = 1e4, 80 / 256
    f = lambda t: np.exp(-a * (t - c) ** 2)
    assert not f(np.linspace(-80, 80, 256, endpoint=False)).any()
    t, vals, _ = model_solver.choose_grid(f, [0.0], min_T=80.0)
    assert (t[0], len(t)) == (-80.0, 2 ** 16)
    assert (t[1] - t[0]) * vals.sum() == pytest.approx(math.sqrt(math.pi / a), rel=1e-12)


@pytest.mark.parametrize("width", [None, 3], ids=["1d", "2d"])
def test_spectrum_read_without_the_shift_decides_as_the_shifted_read(width):
    # one entry of 1e-11 against a peak of 1 at each position in turn, on
    # every length from 2 to 70: the slice read fails exactly where the
    # fftshifted read does, so both see the same highest frequencies
    rng = np.random.default_rng(7)
    seen = set()
    for N in range(2, 71):
        shape = (N,) if width is None else (N, width)
        for pos in range(N):
            what = 1e-14 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            what[(pos + N // 2) % N] = 1.0
            what[pos] = 1e-11
            read = model_solver._decays_in_spectrum(what)
            assert read == model_solver._decays(np.fft.fftshift(what, axes=0)), (N, pos)
            seen.add(read)
    assert seen == {True, False}


def test_choose_grid_takes_a_dft_only_while_the_grid_can_pass(monkeypatch):
    # at 256 points the first line's spectrum has not decayed, so the
    # second line's DFT is not taken; at 512 both pass, and the hats are
    # each line's DFT
    sizes, fft = [], np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda w, axis: sizes.append(len(w)) or fft(w, axis=axis))
    betas = [0.0, 0.5]
    t, vals, hats = model_solver.choose_grid(lambda t: np.exp(-50 * t ** 2), betas)
    assert sizes == [256, 512, 512]
    for beta, what in zip(betas, hats):
        assert np.array_equal(what, fft(np.exp(beta * t) * vals, axis=0))


def test_choose_grid_refuses_a_spectrum_that_does_not_decay():
    # a box has a jump at each edge, so its spectrum decays like 1/sigma;
    # a longer grid would only be coarser
    with pytest.raises(GridTooShort, match="spectrum's highest frequencies at 65536"):
        model_solver.choose_grid(lambda t: (np.abs(t) < 1).astype(float), [0.0])


def test_singular_leading_coefficient_refused():
    mp = _pencil_2x2([[[-2j, 1], [0.5, 1]], [[1, 0], [0, 0]]])
    with pytest.raises(SingularLeadingCoeff):
        line_difference_expansion(mp, gauss, 1.5, 2.5)


def test_expansion_runs_one_companion_qz(monkeypatch):
    # the one solve runs inside spectrum.solve_pencil_eigenvalues, the
    # eigensolve stage, the first time the expansion reads the poles; the
    # mode is a 1 x 1 scalar, so it is one batch of one scalar's roots
    calls, depth = [], []
    qz = pencil._companion_eigenvalues
    monkeypatch.setattr(pencil, "_companion_eigenvalues",
                        lambda Bs: calls.append(("companion", len(depth))) or qz(Bs))
    roots = pencil._scalar_roots
    monkeypatch.setattr(pencil, "_scalar_roots",
                        lambda C: calls.append((len(C), len(depth))) or roots(C))
    solve = spectrum.solve_pencil_eigenvalues

    def staged(P, band=None, spurious=None):
        depth.append(P)
        try:
            return solve(P, band, spurious)
        finally:
            depth.pop()

    monkeypatch.setattr(spectrum, "solve_pencil_eigenvalues", staged)
    mp = _mode(laplacian_doc(3), 0)
    res = line_difference_expansion(mp, gauss, 1.5, 3.5)   # two poles, two lines
    assert len(res.eigenpoints) == 2 and calls == [(1, 1)]


# ---------------------------------------------------------------------------
# the weighted check: placements that need it, and wrong expansions it sees
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode, b1, b2", [
    (3, -2.0, -1.3),    # no pole crossed, below both
    (3, -0.7, 4.7),     # no pole crossed, between the two
    (3, -1.2, 0.8),     # one pole, the upper line far from it
    (2, -0.2, 1.8),     # one pole, the upper line far from it
])
def test_check_passes_without_pole_or_with_far_line(mode2_l2, mode2_l3, mode, b1, b2):
    # the max-norm check over |t| <= T/2 read 1.0 on all but (3, -1.2, 0.8):
    # round-off over round-off, or round-off times e^(beta |t|)
    mp = {2: mode2_l2, 3: mode2_l3}[mode]
    res = line_difference_expansion(mp, gauss, b1, b2)
    report = verify_coefficient_formula(res)
    assert report["passed"], report["deviations"]
    assert max(report["deviations"].values()) < 1e-10


def test_model_solve_far_line_passes_end_to_end():
    r = subprocess.run([sys.executable, "-m", "oppencil.cli", "model-solve",
                        str(OPERATORS / "laplacian2d.json"), "--mode", "2",
                        "--beta1", "-0.2", "--beta2", "1.8"],
                       capture_output=True, text=True, cwd=REPO)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["coefficient_check"]["passed"] is True
    poles = doc["expansion"]["poles"]
    assert len(poles) == 1 and abs(complex(*poles[0])) < 1e-8


MUTATIONS = {
    "scaled": lambda res: 1.01 * res.diff_coeff,
    "pole_shifted": lambda res: res.diff_coeff * np.exp(-1e-3 * res.t)[:, None],
    "dropped": lambda res: np.zeros_like(res.diff_coeff),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("case", ["simple", "two_poles", "double", "far_line"])
def test_check_sees_wrong_expansion(mode3_l0, mode2_l0, mode2_l2, case, mutation):
    mp, b1, b2 = {"simple": (mode3_l0, 1.5, 2.5), "two_poles": (mode3_l0, 1.5, 3.5),
                  "double": (mode2_l0, 1.5, 2.5), "far_line": (mode2_l2, -0.2, 1.8)}[case]
    res = line_difference_expansion(mp, gauss, b1, b2)
    assert verify_coefficient_formula(res)["passed"]
    # the coefficients stay right, so only the weighted deviation can see it
    wrong = dataclasses.replace(res, diff_coeff=MUTATIONS[mutation](res))
    report = verify_coefficient_formula(wrong)
    assert report["mismatches"] == [] and not report["passed"]
    assert report["deviations"]["solve_vs_coeff"] > 100 * report["tolerance"]


def _two_column_f(t):
    return np.stack([gauss(t - 0.3) * (1 + 0.5j), (0.5 - 1j) * t * gauss(t + 0.2)], axis=1)


def _two_pole_pencil():
    """b(lam) = lam - A, A similar to diag(2i, 3i): two simple poles, q = 2."""
    S = np.array([[1, 0.5], [0.3 + 0.2j, 1]])
    return _pencil_2x2([-(S @ np.diag([2j, 3j]) @ np.linalg.inv(S)), np.eye(2)])


def _grid_pairing(res, fvals, v):
    """The pairing c = i <f, v> as the grid sum i dt sum_t f conj(v(t))."""
    dt = res.t[1] - res.t[0]
    return complex(1j * dt * np.sum(fvals * np.conj(_evaluate_t(v, res.t))))


@pytest.mark.parametrize("case", ["simple", "two_poles", "double", "jordan", "q2"])
def test_moment_pairing_matches_the_grid_pairing(mode3_l0, mode2_l0, case):
    # c_(j,m) = i sum_l conj(psi_l) . F_l is the grid pairing reordered:
    # the dual solutions v_(j,m) on the grid are the oracle
    mp, f, b1, b2 = {"simple": (mode3_l0, gauss, 1.5, 2.5),
                     "two_poles": (mode3_l0, gauss, 1.5, 3.5),
                     "double": (mode2_l0, gauss, 1.5, 2.5),
                     "jordan": (_jordan_pencil(2j), _jordan_f, 1.5, 2.5),
                     "q2": (_two_pole_pencil(), _two_column_f, 1.5, 3.5)}[case]
    res = line_difference_expansion(mp, f, b1, b2)
    fvals = f(res.t).reshape(len(res.t), mp.size)
    want = {(ep.lambda0, v.j, v.m): _grid_pairing(res, fvals, v)
            for ep in res.eigenpoints
            for v in power_solutions(spectrum.adjoint_chains(mp, ep))}
    got = {(c.lambda0, c.j, c.m): c.value for c in res.coeffs_direct}
    assert got.keys() == want.keys() and len(got) == (1 if case == "simple" else 2)
    scale = max(abs(w) for w in want.values())
    assert max(abs(got[k] - want[k]) for k in want) <= 1e-12 * scale
    assert verify_coefficient_formula(res)["passed"]


@pytest.mark.parametrize("case", ["simple", "double"])
def test_solve_route_checks_the_shared_moments(monkeypatch, mode3_l0, mode2_l0, case):
    # the pairing and the residue route both read f through the Taylor
    # moments: a wrong F_0 moves both coefficient sets together, and only
    # the line solves can see it
    mp = {"simple": mode3_l0, "double": mode2_l0}[case]
    moments = model_solver._taylor_moments

    def scaled(*args):
        F, expo, powers = moments(*args)
        F = F.copy()
        F[0] *= 1.01
        return F, expo, powers

    monkeypatch.setattr(model_solver, "_taylor_moments", scaled)
    report = verify_coefficient_formula(line_difference_expansion(mp, gauss, 1.5, 2.5))
    assert report["mismatches"] == [] and not report["passed"]
    assert report["deviations"]["solve_vs_coeff"] > 100 * report["tolerance"]


def test_expansion_runs_two_line_solves_through_the_module(monkeypatch, mode3_l0):
    # perfbench's tracer times model_solver.solve_on_line by replacing the
    # module attribute: one expansion makes exactly two such calls
    calls = []
    solve = model_solver.solve_on_line
    monkeypatch.setattr(model_solver, "solve_on_line",
                        lambda *a: calls.append(a[2]) or solve(*a))
    line_difference_expansion(mode3_l0, gauss, 1.5, 3.5)
    assert calls == [1.5, 3.5]


# ---------------------------------------------------------------------------
# the residue route against the kernel oracle
# ---------------------------------------------------------------------------

def _fhat_at(t, fvals, lam):
    """Continuous Fourier transform integral f^(lam) = int f e^(-i lam t) dt,
    as one exponential kernel row per lam (trapezoid rule on the grid)."""
    dt = t[1] - t[0]
    ker = np.exp(-1j * np.multiply.outer(np.asarray(lam, complex), t))
    return dt * (ker @ fvals)


def _kernel_laurent(mp, t, fvals, lam0, radius, max_order):
    """Laurent coefficients of b(lam)^(-1) fhat(lam) at lam0 from an FFT of
    the whole product on a 128-node circle, fhat by the kernel."""
    lams = lam0 + radius * np.exp(2j * math.pi * np.arange(128) / 128)
    g = np.linalg.solve(horner(mp.B, lams), _fhat_at(t, fvals, lams)[..., None])[..., 0]
    coeffs = np.fft.fft(g, axis=0) / 128
    return [coeffs[-(1 + s)] * radius ** (1 + s) for s in range(max_order)]


@pytest.mark.parametrize("case, lam0, order", [
    ("lap3_l0", 2j, 1),            # simple poles of -Delta on R^3, mode 0
    ("lap3_l0", 3j, 1),
    ("inv_sq3_l0", 2.5j, 2),       # -Delta - 1/(4 r^2) on R^3: double pole
    ("lap2_l0", 2j, 2),            # -Delta on R^2, mode 0: double pole
    ("jordan", 2j, 2),             # 2x2 Jordan block: L_(s+k) @ F_k in order
])
def test_moment_laurent_matches_kernel_oracle(mode3_l0, mode2_l0, case, lam0, order):
    mp = {"lap3_l0": lambda: mode3_l0, "lap2_l0": lambda: mode2_l0,
          "inv_sq3_l0": lambda: _mode(inverse_square_doc(-0.25), 0),
          "jordan": lambda: _jordan_pencil(lam0)}[case]()
    t = np.linspace(-40, 40, 8192, endpoint=False)
    fvals = _two_column_f(t)[:, :mp.size]
    F, *_ = _taylor_moments(t, fvals, lam0, order)
    got = _laurent_coefficients(mp, F, lam0, 0.4, order)
    want = _kernel_laurent(mp, t, fvals, lam0, 0.4, order)
    assert len(got) == len(want) == order
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    if order == 2:
        assert np.max(np.abs(got[1])) > 1e-3 * np.max(np.abs(got[0]))  # a real double pole
