"""Tests for pencil assembly, against closed forms and a decompose oracle."""

import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import (
    coupled_pair_doc,
    cr_system_doc,
    d1d2_doc,
    dbar_doc,
    drift_doc,
    inverse_square_doc,
    laplacian_doc,
)
from oppencil import pencil, spectrum
from oppencil.errors import CouplingOverflow, SingularLeadingCoeff
from oppencil.model_solver import mode_pencil
from oppencil.operator_ast import (
    formal_adjoint,
    is_formally_self_adjoint,
    parse_operator,
    principal_part,
)
from oppencil.pencil import (
    _CLUSTER_RADIUS,
    _SCALAR_TOL,
    _SHIFTS,
    PencilMatrices,
    _companion_eigenvalues,
    _ladder_maps,
    _ladder_step,
    assemble_pencil,
    default_l_max,
    horner,
    taylor,
)
from oppencil.radial_algebra import _moment_fraction, harmonic_dim
from oracles import (
    RadialFunction,
    adjoint_identity_residual,
    differentiate,
    exact_harmonics,
    homog,
    monomial,
    poly_mul,
    radial_add,
    radial_zero,
)

OPERATORS = Path(__file__).resolve().parent.parent / "operators"


def laplacian_mode_scalar(n, l, lam):
    """Closed form: pencil of -Delta acts on degree-l harmonics as
    -(i lam + 2 - l)(i lam + n + l) ... derived from
    Delta(r^a H_l) = a(a + n - 2 + 2l) r^(a-2) H_l with a = i lam + 2 - l."""
    a = 1j * lam + 2 - l
    return -(a * (a + n - 2 + 2 * l))


# ---------------------------------------------------------------------------
# the pencil on single modes
# ---------------------------------------------------------------------------

def test_apply_laplacian_lambda0_constant(laplacian3d):
    # the constant column at lam = 0: -Delta r^2 = -6, nothing else
    col = horner(assemble_pencil(laplacian3d, 2).B, 0.0)[:, 0]
    assert col[0] == pytest.approx(-6.0)
    assert np.max(np.abs(col[1:])) < 1e-12


@pytest.mark.parametrize("l", [0, 1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 1.3, 2.0 - 0.7j])
def test_apply_laplacian_modes(laplacian3d, l, lam):
    P = assemble_pencil(laplacian3d, 3)
    mat = horner(P.B, lam)
    cols = np.flatnonzero(P.degrees == l)
    want = laplacian_mode_scalar(3, l, lam)
    expect = np.zeros((len(P.degrees), harmonic_dim(3, l)), dtype=complex)
    expect[cols] = want * np.eye(harmonic_dim(3, l))
    assert np.max(np.abs(mat[:, cols] - expect)) < 1e-10 * max(1.0, abs(want))


def test_apply_dbar_shifts_mode(dbar2d):
    # the pencil maps e^(i k theta) to a multiple of e^(i (k+1) theta); the
    # factor vanishes exactly at i*lam = k - 1.
    k = 2
    P = assemble_pencil(dbar2d, 5)
    col = np.flatnonzero(P.degrees == k)[0]  # cos(k theta) direction
    up = np.flatnonzero(P.degrees == k + 1)
    lam_special = -1j * (k - 1)  # i*lam = k-1
    assert np.max(np.abs(horner(P.B, lam_special)[up, col])) < 1e-12
    assert np.max(np.abs(horner(P.B, 0.5)[up, col])) > 0.1


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_laplacian_block_diagonal(laplacian3d):
    P = assemble_pencil(laplacian3d, 4)
    assert P.bandwidth == 0
    lam = 1.7 + 0.4j
    mat = horner(P.B, lam)
    # off block-diagonal exactly zero; diagonal equals the mode scalar
    pos = 0
    for l in range(P.degrees[-1] + 1):
        h = harmonic_dim(3, l)
        want = laplacian_mode_scalar(3, l, lam)
        blk = mat[pos:pos + h, pos:pos + h]
        assert np.max(np.abs(blk - want * np.eye(h))) < 1e-9 * max(1, abs(want))
        mat[pos:pos + h, pos:pos + h] = 0.0
        pos += h
    assert np.max(np.abs(mat)) < 1e-10


def test_assemble_interpolation_consistency(laplacian2d):
    # Horner on the B_j at a lam off the integer nodes equals the oracle
    # pencil applied column by column at that lam
    P = assemble_pencil(laplacian2d, 4)
    lam = 2.7 + 0.3j
    direct = _oracle_matrix(laplacian2d, P.n, P.degrees, lam)[0]
    assert np.max(np.abs(horner(P.B, lam) - direct)) < 1e-10 * P.scale


def test_evaluate_at_sample_bit_for_bit(laplacian3d):
    # Horner at lam = 0 returns B_0 exactly
    for op in (laplacian3d, parse_operator(drift_doc())):
        P = assemble_pencil(op, 3 if op.max_poly_degree == 0 else 5)
        assert np.array_equal(horner(P.B, 0.0), P.B[0])


def test_lambda_degree_bound(laplacian3d):
    # exactly m + 1 coefficients, and their Horner value is the oracle column
    P = assemble_pencil(laplacian3d, 3)
    assert len(P.B) == P.m + 1
    for lam in (0.0, 1.0, 2.0, 0.437 + 0.291j):
        want = _oracle_matrix(laplacian3d, P.n, P.degrees, lam)[0]
        assert np.max(np.abs(horner(P.B, lam) - want)) < 1e-12 * P.scale


@pytest.mark.parametrize("name,degree,work_l_max", [
    ("drift", 1, 7),
    ("dipole_laplacian3d", 9, 15),
    ("dipole_laplacian3d", 10, 16),
])
def test_drift_coupling_bandwidth_one(name, degree, work_l_max):
    op = parse_operator(_ORACLE_DOCS[name]())
    P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
    assert P.bandwidth == 1
    assert P.degrees[-1] == work_l_max
    mat = horner(P.B, 0.9 + 0.2j)
    # entries outside the |l - l'| <= 1 band vanish
    degs = P.row_degrees
    outside = np.abs(degs[:, None] - degs[None, :]) > 1
    assert np.max(np.abs(mat[outside])) < 1e-12 * P.scale


def test_coupling_overflow_raised():
    op = parse_operator(drift_doc())
    with pytest.raises(CouplingOverflow):
        assemble_pencil(op, 3, analysis_degree=3)


@pytest.mark.parametrize("doc_fn", [laplacian_doc, drift_doc, dbar_doc])
def test_default_analysis_degree_is_the_margin_rule(doc_fn):
    # assemble_pencil(op, l_max) analyses the degree that default_l_max
    # assembles at l_max (and 0 below the margin)
    op = parse_operator(doc_fn(3) if doc_fn is laplacian_doc else doc_fn())
    for degree in (0, 2):
        assert assemble_pencil(op, default_l_max(op, degree)).analysis_degree == degree
    assert assemble_pencil(op, 1).analysis_degree == 0


def test_dbar_bandwidth_and_shape(dbar2d):
    P = assemble_pencil(dbar2d, 5)
    assert P.bandwidth == 1
    assert P.degrees[-1] == 5 + 2  # extended by 2*bandwidth


@pytest.mark.parametrize("doc_fn,nm", [
    (lambda: laplacian_doc(3), 5),
    (lambda: laplacian_doc(2), 4),
])
def test_adjoint_pencil_identity_selfadjoint(doc_fn, nm):
    op = parse_operator(doc_fn())
    P = assemble_pencil(op, 4)
    P_adj = assemble_pencil(formal_adjoint(op), 4)
    assert adjoint_identity_residual(P, P_adj) < 1e-9


def test_adjoint_pencil_identity_nonselfadjoint(dbar2d):
    P = assemble_pencil(dbar2d, 5)
    P_adj = assemble_pencil(formal_adjoint(dbar2d), 5)
    assert adjoint_identity_residual(P, P_adj) < 1e-9


def test_adjoint_pencil_identity_variable_coeff():
    op = parse_operator(drift_doc())
    P = assemble_pencil(op, 5)
    P_adj = assemble_pencil(formal_adjoint(op), 5)
    assert adjoint_identity_residual(P, P_adj) < 1e-9


# ---------------------------------------------------------------------------
# ladder maps against exact rationals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_ladder_maps_resolve_the_identity(n):
    # sum_i x_i^2 = 1 on the sphere and x_i Y splits into orthogonal parts
    # of degrees l + 1 and l - 1, so the maps' Gram matrices sum to I
    for l in range(31):
        total = np.zeros((harmonic_dim(n, l),) * 2)
        for i in range(n):
            up, down = _ladder_maps(n, l, i)
            total += up.T @ up
            if l:
                total += down.T @ down / (2 * l + n - 2) ** 2
        assert np.max(np.abs(total - np.eye(len(total)))) <= 1e-15


def _sphere_inner(P, Q):
    """Exact integral of P Q over S^(n-1), per unit surface measure."""
    return sum((c1 * c2 * _moment_fraction(tuple(a + b for a, b in zip(m1, m2)))
                for m1, c1 in P.coeffs.items() for m2, c2 in Q.coeffs.items()),
               Fraction(0))


@pytest.mark.parametrize("n,l_top", [(2, 30), (3, 8)])
def test_up_maps_match_exact_rationals(n, l_top):
    # up[a, b] = <x_i E_b, F_a> / (|E_b| |F_a|) for the exact harmonics E
    # of degree l and F of degree l + 1: same sign, square to 1e-15
    for l in range(l_top + 1):
        E, F = exact_harmonics(n, l), exact_harmonics(n, l + 1)
        E2, F2 = [_sphere_inner(e, e) for e in E], [_sphere_inner(f, f) for f in F]
        for i in range(n):
            xi = monomial(n, [int(a == i) for a in range(n)], Fraction(1))
            up = _ladder_maps(n, l, i)[0]
            for b, e in enumerate(E):
                xe = poly_mul(xi, e)
                for a, f in enumerate(F):
                    ip = _sphere_inner(xe, f)
                    assert np.sign(up[a, b]) == (ip > 0) - (ip < 0)
                    assert abs(up[a, b] ** 2 - float(ip * ip / (E2[b] * F2[a]))) <= 1e-15


# ---------------------------------------------------------------------------
# oracle: pencil columns at sampled lam through the Gauss decomposition
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _unit_harmonics(n, l):
    """exact_harmonics(n, l) with their exact norms on S^(n-1)."""
    return [(E, math.sqrt(_sphere_inner(E, E))) for E in exact_harmonics(n, l)]


def _coords(H):
    """Coordinates of a harmonic H in the orthonormal basis of its degree.

    In R^2 they are read off the x^l and x^(l-1) y coefficients, which the
    cos and sin harmonics Re (x + iy)^l and Im (x + iy)^l hold as 1 and l
    (and the other one as 0), so no sum cancels; in R^3 through the exact
    sphere moments."""
    units = _unit_harmonics(H.n, H.degree)
    if H.n == 2:
        l = H.degree
        c = (H.coeffs.get((l, 0), 0), H.coeffs.get((l - 1, 1), 0) / max(l, 1))
        return np.array([complex(ci) * norm for ci, (_, norm) in zip(c, units)])
    return np.array([complex(_sphere_inner(H, E)) / norm for E, norm in units])


def _shift_exponent(f, delta):
    """f * r^delta; a common shift keeps the terms canonical."""
    return RadialFunction(f.n, [(c + delta, H) for c, H in f.terms])


def _max_abs_coeff(f):
    return max((H.norm_inf() for _, H in f.terms), default=0.0)


def _project(degrees, f):
    """Exact coefficients of a degree-zero function f in the basis of the
    given harmonic degrees; harmonic degrees above the top one are dropped."""
    out = np.zeros(len(degrees), dtype=complex)
    for c, H in f.terms:
        assert abs(c + H.degree) <= 1e-10, "term is not homogeneity zero"
        if H.degree <= degrees[-1]:
            out[degrees == H.degree] = _coords(H)
    return out


def _oracle_apply(a0, lam, comp, y):
    """pencil(lam) on the column y of component comp; every product and
    every derivative is re-expanded by harmonic_decompose."""
    n = a0.n
    lifted = _shift_exponent(y, 1j * lam + a0.mu[comp])
    out = []
    for i in range(a0.k):
        acc = radial_zero(n)
        for alpha, t in a0.entries.get((i, comp), []):
            g = lifted
            for ax, count in enumerate(alpha):
                for _ in range(count):
                    g = differentiate(g, ax)
            acc = radial_add(acc, RadialFunction.from_parts(
                n, [(c + t.radial_exponent, poly_mul(homog(t.poly), H)) for c, H in g.terms]))
        out.append(_shift_exponent(acc, -1j * lam - a0.nu[i]))
    return out


def _columns(n, l_max):
    """The basis columns r^(-l) H_l, in basis order (increasing l)."""
    return [RadialFunction(n, [(complex(-l), E.to_float().scale(1 / norm))])
            for l in range(l_max + 1) for E, norm in _unit_harmonics(n, l)]


def _oracle_matrix(op, n, degrees, lam):
    """(pencil(lam) on the basis of R^n harmonics of the given degrees,
    upward bandwidth), pruned at 1e-13 relative."""
    a0 = principal_part(op)
    nb = len(degrees)
    mat = np.zeros((a0.k * nb, a0.k * nb), dtype=complex)
    bandwidth = 0
    for comp in range(a0.k):
        for pos, y in enumerate(_columns(n, degrees[-1])):
            for i, w in enumerate(_oracle_apply(a0, lam, comp, y)):
                w = w.prune_abs(1e-13 * max(_max_abs_coeff(w), 1.0))
                mat[i * nb:(i + 1) * nb, comp * nb + pos] = _project(degrees, w)
                for _, H in w.terms:
                    bandwidth = max(bandwidth, H.degree - degrees[pos])
    return mat, bandwidth


def _oracle_coefficients(op, n, degrees):
    """B_j by a Vandermonde solve on lam = 0..m, and the bandwidth seen at
    those nodes and at a generic lam."""
    m = principal_part(op).m
    lams = list(range(m + 1))
    mats, bws = zip(*[_oracle_matrix(op, n, degrees, lam)
                      for lam in lams + [0.437 + 0.291j]])
    W = np.linalg.inv(np.vander(np.array(lams, dtype=float), increasing=True))
    B = [sum(W[j, t] * mats[t] for t in range(m + 1)) for j in range(m + 1)]
    return B, max(bws)


_ORACLE_DOCS = {
    "laplacian2d": lambda: laplacian_doc(2),
    "laplacian3d": lambda: laplacian_doc(3),
    "dbar": dbar_doc,
    "cr_system": cr_system_doc,
    "inverse_square": inverse_square_doc,
    "drift": drift_doc,
    "d1d2": d1d2_doc,
}
_ORACLE_DOCS.update({f.stem: (lambda f=f: json.loads(f.read_text()))
                     for f in sorted(OPERATORS.glob("*.json"))})


@pytest.mark.parametrize("name", sorted(_ORACLE_DOCS))
def test_ladder_assembly_matches_decompose_oracle(name):
    op = parse_operator(_ORACLE_DOCS[name]())
    degree = 1 if op.n == 3 else 3
    P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
    B, bandwidth = _oracle_coefficients(op, P.n, P.degrees)
    assert P.bandwidth == bandwidth
    scale = max(np.max(np.abs(Bj)) for Bj in B)
    err = max(np.max(np.abs(Bj - Cj)) for Bj, Cj in zip(P.B, B))
    assert err <= 1e-12 * scale


@pytest.mark.parametrize("doc_fn,degree", [
    (lambda: laplacian_doc(3), 3),
    (cr_system_doc, 4),
    (dbar_doc, 6),
    (drift_doc, 2),
    (drift_doc, 8),
    (lambda: json.loads((OPERATORS / "dipole_laplacian3d.json").read_text()), 8),
])
def test_degree_pencil_is_slice_of_degree_plus_two(doc_fn, degree):
    # P is the leading block of each component block of the degree + 2
    # pencil, and P's kept columns are P2's at the same indices with zero
    # rows outside P's basis: a value certified on them is one of P2's
    op = parse_operator(doc_fn())
    P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
    P2 = assemble_pencil(op, default_l_max(op, degree + 2), analysis_degree=degree + 2)
    nb, NB = len(P.degrees), len(P2.degrees)
    idx = np.concatenate([c * NB + np.arange(nb) for c in range(P.k)])
    assert np.array_equal(P2.degrees[:nb], P.degrees)
    assert all(np.array_equal(a[np.ix_(idx, idx)], b) for a, b in zip(P2.B, P.B))
    outside = np.setdiff1d(np.arange(P2.size), idx)
    for a, b in zip(P2.B, P.B):
        cols = a[:, idx[P.kept]]
        assert np.array_equal(cols[idx], b[:, P.kept])
        assert not cols[outside].any()


# ---------------------------------------------------------------------------
# the shifted-companion eigensolve against the QZ of the (A, B) companion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_taylor_matches_the_binomial_sum(m):
    # reference: (1/s!) d^s P(lam0) = sum_(p >= s) C(p, s) lam0^(p-s) B_p
    rng = np.random.default_rng(m)
    B = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
         for _ in range(m + 1)]
    lam0 = 0.7 - 1.3j
    T = taylor(B, lam0)
    assert len(T) == m + 1
    for s, Ts in enumerate(T):
        ref = sum(math.comb(p, s) * lam0 ** (p - s) * B[p] for p in range(s, m + 1))
        assert np.max(np.abs(Ts - ref)) <= 1e-13 * np.max(np.abs(ref))


def _qz_eigenvalues(Bs):
    """Oracle: the generalized eigenvalues of the first companion
    linearization A - lam B of sum B_j lam^j, finite and |lam| < 1e8."""
    m, N = len(Bs) - 1, Bs[0].shape[0]
    A = np.eye(N * m, k=N, dtype=complex)
    A[N * (m - 1):] = -np.hstack(Bs[:m])
    B = np.eye(N * m, dtype=complex)
    B[N * (m - 1):, N * (m - 1):] = Bs[m]
    vals = sla.eigvals(A, B)
    vals = vals[np.isfinite(vals)]
    return vals[np.abs(vals) < 1e8]


def _assert_same_eigenvalues(got, want):
    """Same count; each value to 1e-10 relative, or inside the cluster radius
    where the oracle's value has a neighbour within it (a multiple root,
    which both solvers resolve only to about sqrt(eps))."""
    assert len(got) == len(want)
    left = list(got)
    for w in want:
        i = int(np.argmin(np.abs(np.array(left) - w)))
        clustered = np.count_nonzero(np.abs(want - w) < _CLUSTER_RADIUS) > 1
        tol = _CLUSTER_RADIUS if clustered else 1e-10 * max(abs(w), 1.0)
        assert abs(left.pop(i) - w) <= tol, (w, tol)


@pytest.mark.parametrize("degree", [2, 6])
@pytest.mark.parametrize("path", sorted(OPERATORS.glob("*.json")), ids=lambda p: p.stem)
def test_shifted_companion_matches_qz_oracle(path, degree):
    # P.eigenvalues, with multiplicity, against QZ of each unreduced block
    # (a c(lam) I block is solved as its scalar, counted d times)
    op = parse_operator(json.loads(path.read_text()))
    P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
    blocks = ([P.B[:, idx[:, None], idx] for idx, _ in P.blocks] if P.bandwidth == 0
              else P.squares)
    roots, square = P.roots
    assert len(blocks) == len(P.powers) and set(square) <= set(range(len(blocks)))
    for i, (Bs, d) in enumerate(zip(blocks, P.powers)):
        _assert_same_eigenvalues(np.repeat(roots[square == i], d), _qz_eigenvalues(Bs))
    assert len(P.eigenvalues) == sum(len(_qz_eigenvalues(Bs)) for Bs in blocks)


def test_shifted_companion_drops_infinite_eigenvalues():
    # singular B_2: det P = (lam^2 + 1)(lam - 2) - 0.15 is a cubic, so one
    # of the four companion eigenvalues is infinite
    Bs = [np.array(B, dtype=complex) for B in
          ([[1, 0.5], [0.3, -2]], [[0, 0], [0, 1]], [[1, 0], [0, 0]])]
    vals = _companion_eigenvalues(Bs)
    _assert_same_eigenvalues(vals, np.roots([1, -2, 1, -2.15]))
    _assert_same_eigenvalues(vals, _qz_eigenvalues(Bs))


def test_shifted_companion_passes_over_a_singular_shift():
    # P(lam) = diag(lam - sigma_0, lam - 2) is singular at the first shift
    s0 = _SHIFTS[0]
    Bs = [np.diag([-s0, -2]).astype(complex), np.eye(2, dtype=complex)]
    assert np.linalg.cond(sum(Bj * s0 ** j for j, Bj in enumerate(Bs))) > 1e8
    _assert_same_eigenvalues(_companion_eigenvalues(Bs), np.array([s0, 2]))


def test_shifted_companion_stays_accurate_near_the_first_shift():
    # a random quadratic pencil with an eigenvalue 1e-7 from sigma_0, where
    # cond P(sigma_0) is about 3e7: a solve at sigma_0 would move the far
    # eigenvalues by about 1e-6 relative
    rng = np.random.default_rng(0)
    Bs = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
          for _ in range(3)]
    lam = _SHIFTS[0] + 1e-7
    u, s, vh = np.linalg.svd(horner(Bs, lam))
    Bs[0] = Bs[0] - s[-1] * np.outer(u[:, -1], vh[-1])
    want = _qz_eigenvalues(Bs)
    assert np.min(np.abs(want - lam)) < 1e-12
    assert 1e4 < np.linalg.cond(horner(Bs, _SHIFTS[0])) < 1e8
    _assert_same_eigenvalues(_companion_eigenvalues(Bs), want)


def test_shifted_companion_refuses_a_non_regular_pencil():
    # P(lam) = [[lam, 1], [lam^2, lam]]: det P vanishes identically
    Bs = [np.array(B, dtype=complex) for B in
          ([[0, 1], [0, 0]], [[1, 0], [0, 1]], [[0, 0], [1, 0]])]
    with pytest.raises(SingularLeadingCoeff, match="every shift"):
        _companion_eigenvalues(Bs)


@pytest.mark.parametrize("doc_fn", [
    lambda: json.loads((OPERATORS / "anisotropic2d.json").read_text()),
    lambda: json.loads((OPERATORS / "dipole_laplacian3d.json").read_text()),
    lambda: drift_doc(0.4)], ids=["anisotropic2d", "dipole_laplacian3d", "drift3d"])
@pytest.mark.parametrize("degree", [2, 4])
def test_real_pencil_roots_pair_bit_for_bit(doc_fn, degree):
    # every i^j B_j is real, so each compressed square is real in tau = -i lam
    # and its roots pair exactly as lam, -conj(lam), square by square
    op = parse_operator(doc_fn())
    P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
    assert P.bandwidth > 0 and P.real
    turn = pencil._turn(P.m)
    assert all(not np.any((turn * Bs).imag) for Bs in P.squares)
    roots, square = P.roots
    for i in range(len(P.squares)):
        mine = roots[square == i]
        assert len(mine) and Counter(mine.tolist()) == Counter((-mine.conj()).tolist())


@pytest.mark.parametrize("doc_fn", [dbar_doc, cr_system_doc])
def test_complex_pencils_keep_the_complex_route(doc_fn):
    op = parse_operator(doc_fn())
    P = assemble_pencil(op, default_l_max(op, 4), analysis_degree=4)
    assert P.bandwidth > 0 and not P.real
    roots = P.roots[0]
    assert np.count_nonzero(np.isin(roots, -roots.conj())) < len(roots)


# ---------------------------------------------------------------------------
# the memoized ladder tables
# ---------------------------------------------------------------------------

def _column_loop_pencil(op, l_max):
    """Reference: the pencil assembled column degree by column degree, the
    ladder steps applied per term and monomial, summed per output degree in
    the order of the terms, each (output degree, column) block cut at 1e-13
    of its column's largest entry (or of 1), and the basis extended to
    l_max plus twice the bandwidth.  Returns (B, bandwidth)."""
    a0 = principal_part(op)
    n, m = a0.n, a0.m

    def columns(l):
        blocks, bandwidth, dim = {}, 0, harmonic_dim(n, l)
        for (i, j), terms in a0.entries.items():
            acc = {}
            for alpha, t in terms:
                st = {}
                for expo, a in t.poly.coeffs.items():
                    state = {l: np.zeros((m + 1, dim, dim), dtype=complex)}
                    state[l][0] = np.eye(dim)
                    steps = np.repeat(np.arange(2 * n), alpha + expo).tolist()
                    for s, step in enumerate(steps):
                        state = _ladder_step(state, step, a0.mu[j] - s, n)
                    for lo, V in state.items():
                        st[lo] = st.get(lo, 0) + complex(a) * V
                for lo, V in st.items():
                    acc[lo] = acc.get(lo, 0) + V
            col_max = np.max([np.abs(V).max(axis=(0, 1)) for V in acc.values()], axis=0)
            for lo, V in acc.items():
                alive = np.abs(V).max(axis=(0, 1)) > 1e-13 * np.maximum(col_max, 1.0)
                V[:, :, ~alive] = 0.0
                bandwidth = max(bandwidth, lo - l) if alive.any() else bandwidth
            blocks[i, j] = acc
        return blocks, bandwidth

    cols, top = [], l_max
    while True:
        cols += [columns(l) for l in range(len(cols), top + 1)]
        bandwidth = max(bw for _, bw in cols)
        if top >= l_max + 2 * bandwidth:
            break
        top = l_max + 2 * bandwidth
    start = np.cumsum([0] + [harmonic_dim(n, l) for l in range(top + 1)])
    nb = start[-1]
    B = np.zeros((m + 1, a0.k * nb, a0.k * nb), dtype=complex)
    for l, (blocks, _) in enumerate(cols):
        for (i, j), acc in blocks.items():
            for lo, V in acc.items():
                if lo <= top:
                    B[:, i * nb + start[lo]:i * nb + start[lo + 1],
                      j * nb + start[l]:j * nb + start[l + 1]] = V
    return B, bandwidth


@pytest.mark.parametrize("path", sorted(OPERATORS.glob("*.json")), ids=lambda p: p.stem)
def test_ladder_tables_match_the_column_loop_bit_for_bit(monkeypatch, path):
    # on an empty memo, so each larger degree extends the tables built before
    monkeypatch.setattr(pencil, "_tables", {})
    op = parse_operator(json.loads(path.read_text()))
    for degree in (0, 3, 8):
        P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
        B, bandwidth = _column_loop_pencil(op, default_l_max(op, degree))
        assert np.array_equal(P.B, B) and P.bandwidth == bandwidth


@pytest.mark.parametrize("path", sorted(OPERATORS.glob("*.json")), ids=lambda p: p.stem)
def test_column_memo_assembles_the_same_pencil_cold_and_warm(monkeypatch, path):
    # cold: each degree on an empty memo; warm: from the largest degree
    # down, so the smaller ones read a prefix of its tables and build none.
    # No pencil is kept between them, so each warm one is assembled anew
    op = parse_operator(json.loads(path.read_text()))
    cold = {}
    for degree in (2, 6, 10):
        monkeypatch.setattr(pencil, "_tables", {})
        cold[degree] = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
    tables = dict(pencil._tables)
    for degree in (10, 6, 2):
        pencil._pencils.clear()
        warm = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
        assert warm is not cold[degree]
        assert np.array_equal(warm.B, cold[degree].B)
        assert warm.bandwidth == cold[degree].bandwidth
    assert pencil._tables.keys() == tables.keys()
    assert all(pencil._tables[key] is table for key, table in tables.items())


def test_column_memo_is_read_only_and_bounded(monkeypatch, laplacian3d, laplacian2d, dbar2d):
    monkeypatch.setattr(pencil, "_tables", {})
    assemble_pencil(laplacian3d, 4)
    (table,) = pencil._tables.values()
    for a in table.values():
        for view in (a, a[1:]):   # the table and a slice of it
            with pytest.raises(ValueError, match="read-only"):
                view[..., 0] = 0
    monkeypatch.setattr(pencil, "_TABLE_CAP", 2)
    assemble_pencil(laplacian2d, 4)
    assemble_pencil(dbar2d, 4)
    assert len(pencil._tables) == 2
    assert all(kept is not table for kept in pencil._tables.values())   # the oldest went


@pytest.mark.parametrize("n", [2, 3])
def test_laplacian_off_degree_blocks_are_cut_to_zero(monkeypatch, n):
    # each D_i^2 reaches l - 2, l and l + 2; on -Delta the off-degree sums
    # cancel (in R^3 only to round-off), so the cut leaves them exactly 0
    # and the bandwidth read from the surviving blocks is 0
    monkeypatch.setattr(pencil, "_tables", {})
    op = parse_operator(laplacian_doc(n))
    P = assemble_pencil(op, default_l_max(op, 6), analysis_degree=6)
    (tab,) = pencil._tables.values()
    up = np.repeat(tab["up"], np.diff(tab["bstart"]))   # each position's degree step
    for vals in tab["vals"]:
        assert set(up[np.any(vals != 0, axis=0)].tolist()) == {-2, 0, 2}
    raw = np.abs(tab["vals"].sum(axis=0)[:, up != 0]).max()
    assert raw <= 1e-13 * np.abs(tab["vals"]).max() and (raw > 0) == (n == 3)
    degs = P.row_degrees
    assert P.bandwidth == 0 and not P.B[:, degs[:, None] != degs[None, :]].any()


def test_round_off_cut_floors_the_column_max_at_one():
    # -1e-4 Delta + 1e-14 (x_1/r) r^-2 on R^3: every column's largest entry
    # is below 0.01, and the drift's blocks sit above 1e-13 of it but below
    # 1e-13 of 1, so they are cut: bandwidth 0, as in the column loop
    doc = drift_doc(1e-14)
    for term in doc["entries"][0]["terms"][:3]:
        term["poly"] = {mono: [1e-4, 0.0] for mono in term["poly"]}
    op = parse_operator(doc)
    P = assemble_pencil(op, default_l_max(op, 2), analysis_degree=2)
    B, bandwidth = _column_loop_pencil(op, default_l_max(op, 2))
    assert P.bandwidth == bandwidth == 0 and np.abs(P.B).max() < 0.01
    assert np.array_equal(P.B, B)


@pytest.mark.parametrize("doc_fn", [drift_doc, dbar_doc])
def test_bandwidth_one_is_read_and_an_understated_margin_overflows(doc_fn):
    op = parse_operator(doc_fn())
    for degree in (0, 2, 6):
        P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
        assert P.bandwidth == 1 and P.degrees[-1] == default_l_max(op, degree) + 2
    with pytest.raises(CouplingOverflow, match="bandwidth 1 exceeds margin 0"):
        assemble_pencil(op, 4, analysis_degree=4)


# ---------------------------------------------------------------------------
# c(lam) I blocks in the block view
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_laplacian_blocks_are_scalar_to_round_off(n):
    op = parse_operator(laplacian_doc(n))
    P = assemble_pencil(op, default_l_max(op, 20), analysis_degree=20)
    for (idx, _), d, S in zip(P.blocks, P.powers, P.squares):
        Bs = P.B[:, idx[:, None], idx]
        dev = np.abs(Bs - S * np.eye(len(idx))).max() / np.abs(Bs).sum(axis=2).max()
        assert d == len(idx) and S.shape == (P.m + 1, 1, 1) and dev <= 1e-15


@pytest.mark.parametrize("factor, scalar", [(0.99, True), (1.01, False)],
                         ids=["below", "above"])
def test_a_block_off_c_times_identity_by_the_tolerance_stays_full(laplacian3d, factor,
                                                                  scalar):
    # one tolerance decides the block view and the mode cut alike
    P = assemble_pencil(laplacian3d, 4)
    idx = np.flatnonzero(P.row_degrees == 3)
    B = P.B.copy()
    B[0, idx[0], idx[1]] += factor * _SCALAR_TOL * np.abs(B[:, idx[:, None], idx]).sum(
        axis=2).max()
    Q = replace(P, B=B)
    i = next(i for i, (c, _) in enumerate(Q.blocks) if c[0] == idx[0])
    assert (Q.powers[i], Q.squares[i].shape[1]) == ((7, 1) if scalar else (1, 7))
    assert mode_pencil(Q, 3).size == (1 if scalar else 7)


def test_coupled_pair_keeps_full_squares():
    # [[c, b], [b, c]] (x) I couples the two components' degree-l harmonics
    # into one block of 2(2l+1), which is not c(lam) I
    op = parse_operator(coupled_pair_doc(0.3))
    P = assemble_pencil(op, 4)
    assert P.bandwidth == 0 and P.powers == [1] * len(P.blocks)
    assert [S.shape[1] for S in P.squares] == [2 * (2 * l + 1) for l in range(5)]
    roots, square = P.roots
    for i, (idx, _) in enumerate(P.blocks):
        _assert_same_eigenvalues(roots[square == i], _qz_eigenvalues(P.B[:, idx[:, None], idx]))


@pytest.mark.parametrize("l", [0, 1])
def test_zero_leading_scalar_refused(l):
    # c(lam) = lam - 2 stacked at degree 2 with B_2 = 0, on the degree-l harmonics
    d = harmonic_dim(3, l)
    B = np.zeros((3, d, d), dtype=complex)
    B[0], B[1] = -2 * np.eye(d), np.eye(d)
    P = PencilMatrices(B=B, degrees=np.full(d, l), k=1, n=3, mu=(2,), nu=(0,),
                       l_max=l, analysis_degree=l, bandwidth=0)
    assert P.powers == [d] and P.squares[0].shape == (3, 1, 1)
    with pytest.raises(SingularLeadingCoeff, match="leading coefficient"):
        P.eigenvalues


# ---------------------------------------------------------------------------
# the pencils kept per process
# ---------------------------------------------------------------------------

def _term_doc(re, im):
    """-Delta on R^3 with its first coefficient re + i im."""
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["poly"] = {"0 0 0": [re, im]}
    return parse_operator(doc)


def test_a_perturbation_shares_the_kept_pencil_and_a_last_bit_does_not():
    # a perturbation is not in the principal part, so both operators read
    # the same pencil; a coefficient one ulp off, or a -0.0 for a 0.0, is
    # another key and another assembly
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["perturbation"] = [
        {"b": "-3/2", "c": 0, "poly": {"0 0 0": [1.0, 0.0]}}]
    P = assemble_pencil(parse_operator(laplacian_doc(3)), 4, analysis_degree=2)
    assert assemble_pencil(parse_operator(doc), 4, analysis_degree=2) is P
    assert assemble_pencil(_term_doc(1.0, 0.0), 4, analysis_degree=2) is P
    for other in (_term_doc(np.nextafter(1.0, 2.0), 0.0), _term_doc(1.0, -0.0)):
        Q = assemble_pencil(other, 4, analysis_degree=2)
        assert Q is not P
    assert assemble_pencil(parse_operator(laplacian_doc(3)), 4, analysis_degree=3) is not P


def test_one_key_decides_equality_fingerprint_and_the_kept_pencil(monkeypatch):
    # anisotropic2d with each two-monomial poly written in reverse order is
    # the same operator by every rule, and is assembled once; laplacian3d
    # with every imaginary part written -0.0 prints another canonical form,
    # so it is another operator by every rule, and is assembled again
    calls = []
    assemble = pencil._assemble
    monkeypatch.setattr(pencil, "_assemble", lambda *a: calls.append(a) or assemble(*a))
    doc = json.loads((OPERATORS / "anisotropic2d.json").read_text())
    a = parse_operator(doc)
    for term in doc["entries"][0]["terms"]:
        term["poly"] = dict(reversed(term["poly"].items()))
    b = parse_operator(doc)
    assert a == b and a.fingerprint() == b.fingerprint()
    assert is_formally_self_adjoint(a) and is_formally_self_adjoint(b)
    assert assemble_pencil(a, 4) is assemble_pencil(b, 4) and len(calls) == 1
    doc = laplacian_doc(3)
    c = parse_operator(doc)
    for term in doc["entries"][0]["terms"]:
        term["poly"] = {m: [re, -0.0] for m, (re, _) in term["poly"].items()}
    d = parse_operator(doc)
    assert c != d and c.fingerprint() != d.fingerprint()
    assert is_formally_self_adjoint(c) and is_formally_self_adjoint(d)
    assert assemble_pencil(c, 4) is not assemble_pencil(d, 4) and len(calls) == 3


def test_kept_pencil_is_read_only(laplacian3d, dbar2d):
    for op in (laplacian3d, dbar2d):
        P = assemble_pencil(op, 4)
        for a in (P.B, P.B[1:], P.degrees):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


def test_kept_pencils_are_bounded_in_number(laplacian3d):
    # the least recently returned goes first: a hit moves a pencil last
    assert pencil._PENCIL_CAP == 4
    first = [assemble_pencil(laplacian3d, l, analysis_degree=l) for l in range(4)]
    assert assemble_pencil(laplacian3d, 0, analysis_degree=0) is first[0]
    assemble_pencil(laplacian3d, 4, analysis_degree=4)
    assert len(pencil._pencils) == 4
    assert assemble_pencil(laplacian3d, 0, analysis_degree=0) is first[0]
    assert assemble_pencil(laplacian3d, 1, analysis_degree=1) is not first[1]


def test_kept_pencils_are_bounded_in_bytes(monkeypatch, laplacian3d, laplacian2d,
                                           inverse_square3d):
    # at a zero margin and bandwidth 0 a stack takes exactly its bound,
    # 3 * 25^2 * 16 bytes on R^3 at degree 4 and 3 * 9^2 * 16 on R^2
    monkeypatch.setattr(pencil, "_STACK_CAP", 50000)
    P3 = assemble_pencil(laplacian3d, 4, analysis_degree=4)
    P2 = assemble_pencil(laplacian2d, 4, analysis_degree=4)
    assert (P3.B.nbytes, P2.B.nbytes) == (30000, 3888)
    assert list(pencil._pencils.values()) == [P3, P2]
    Q = assemble_pencil(inverse_square3d, 4, analysis_degree=4)   # 30000 more
    assert list(pencil._pencils.values()) == [P2, Q]
    assert assemble_pencil(laplacian2d, 4, analysis_degree=4) is P2
    # the remembered chains count too: -Delta's 50 eigenvalues at degree 4,
    # all in one strip, take 50 chain vectors of 25 entries, 20000 bytes.
    # Remembered on P3, they leave no room for P2 beside it, whether P2 is
    # kept already (it goes) or assembled next (P3 goes)
    pencil._pencils.clear()
    P3 = assemble_pencil(laplacian3d, 4, analysis_degree=4)
    P2 = assemble_pencil(laplacian2d, 4, analysis_degree=4)
    assert list(pencil._pencils.values()) == [P3, P2]
    points = spectrum.strip_eigenpoints(P3, -2.5, 7.5)
    assert sum(ep.algebraic for ep in points) == 50 and P3.nbytes == 50000
    assert list(pencil._pencils.values()) == [P3] and len(P3.points) == len(points)
    P2 = assemble_pencil(laplacian2d, 4, analysis_degree=4)
    assert list(pencil._pencils.values()) == [P2]
    # chains that cannot fit beside their own stack are not remembered
    pencil._pencils.clear()
    monkeypatch.setattr(pencil, "_STACK_CAP", 49999)
    P3 = assemble_pencil(laplacian3d, 4, analysis_degree=4)
    assert len(spectrum.strip_eigenpoints(P3, -2.5, 7.5)) == len(points)
    assert P3.points == {} and list(pencil._pencils.values()) == [P3]
