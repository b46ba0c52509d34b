"""Tests for the pencil eigensolvers, Jordan chains and adjoint chains."""

import json
import math
import re
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    coupled_pair_doc,
    cr_system_doc,
    dbar_doc,
    drift_doc,
    laplacian_doc,
    symmetrized_doc,
    with_drift,
)
from oppencil import pencil, spectrum
from oppencil.cli import main
from oppencil.errors import (
    MultiplicityMismatch,
    NotAnEigenvalue,
    RefuseBoundary,
    UnstableSpectrum,
)
from oppencil.operator_ast import formal_adjoint, parse_operator
from oppencil.pencil import (
    PencilMatrices,
    assemble_pencil,
    horner,
    taylor,
)
from oppencil.radial_algebra import harmonic_dim
from oppencil.spectrum import (
    _chain_scale,
    chains_from_matrices,
    default_l_max,
    det_vanishing_order,
    jordan_chains,
    power_solutions,
    solve_pencil_eigenvalues,
    strip_spectrum,
)
from oracles import biorthogonalize, chains_at, owners

OPERATORS = Path(__file__).resolve().parent.parent / "operators"


def laplacian_lines_oracle(n, l):
    """Roots of the degree-l mode quadratic: Im lam in {2-l, n-1+l}... derived
    from a(a + n - 2 + 2l) = 0 with a = i lam + 2 - l."""
    return sorted({2 - l, (n - 2 + 2 * l) + 2 - l})


# ---------------------------------------------------------------------------
# raw eigenvalues
# ---------------------------------------------------------------------------

def test_laplacian3d_l0_roots(laplacian3d):
    P = assemble_pencil(laplacian3d, 2)
    vals = [v for v in solve_pencil_eigenvalues(P) if abs(v.real) < 1e-8]
    lines = sorted(set(round(v.imag, 8) for v in vals))
    assert 2.0 in lines and 3.0 in lines


def test_laplacian_mode_pattern(laplacian3d):
    P = assemble_pencil(laplacian3d, 5)
    vals = solve_pencil_eigenvalues(P)
    counts = Counter(round(v.imag, 6) for v in vals)
    # multiplicity 2l+1 on lines 2-l and 3+l, summed over contributing l
    for l in range(4):
        assert counts[2 - l] >= 2 * l + 1
        assert counts[3 + l] >= 2 * l + 1
    # eigenvalues purely imaginary
    assert max(abs(v.real) for v in vals) < 1e-8


def test_laplacian2d_l0_double_root(laplacian2d):
    P = assemble_pencil(laplacian2d, 3)
    vals = [v for v in solve_pencil_eigenvalues(P) if abs(v - 2j) < 1e-6]
    assert len(vals) == 2  # double


def test_dbar_integer_lines(dbar2d):
    P = assemble_pencil(dbar2d, 5)
    vals = solve_pencil_eigenvalues(P)
    assert max(abs(v.real) for v in vals) < 1e-8
    lines = Counter(round(v.imag, 6) for v in vals)
    for line in range(-3, 4):
        assert lines[line] == 1


def test_cr_system_lines_multiplicity_two(cr_system2d):
    P = assemble_pencil(cr_system2d, 4)
    vals = solve_pencil_eigenvalues(P)
    lines = Counter(round(v.imag, 6) for v in vals)
    for line in range(-2, 3):
        assert lines[line] == 2


def test_inverse_square_lines_oracle(inverse_square3d):
    # per-mode quadratic (s - l)(s + l + 1) = 1/4, s = i lam + 2
    P = assemble_pencil(inverse_square3d, 4)
    vals = solve_pencil_eigenvalues(P)
    got = sorted(set(round(v.imag, 9) for v in vals))
    want = set()
    for l in range(P.degrees[-1] + 1):
        disc = math.sqrt(4 * l * (l + 1) + 2)
        for s in ((-1 + disc) / 2, (-1 - disc) / 2):
            want.add(2 - s)
    for v in got:
        assert min(abs(v - w) for w in want) < 1e-7


# how far beyond a strip edge candidates were once certified: a value farther
# out lies more than 0.1 / 0.45 from every centre, so it sets no det radius
_OLD_CERTIFY_REACH = 0.1 / 0.45 + 2e-6


@pytest.mark.parametrize("doc_fn", [dbar_doc, cr_system_doc, drift_doc],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("degree", [2, 4])
def test_a_strip_certifies_only_its_own_candidates(monkeypatch, doc_fn, degree):
    # stacked SVDs certify the candidates in the strip and none of those
    # 0.1 beyond its edges, and every det circle isolates from every
    # eigenvalue: the radii are those of the old rule, isolated from the
    # values certified within the old reach of the strip, read on a copy of
    # P so that P judges its candidates cold.  No stacked SVD or slogdet
    # holds more entries than P.B, unless it is of one point
    op = parse_operator(doc_fn())
    P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
    assert P.bandwidth > 0
    beta1, beta2 = -0.9, 1.9
    im = P.eigenvalues.imag
    edge = spectrum._CLUSTER_RADIUS
    own = np.count_nonzero((beta1 - edge < im) & (im < beta2 + edge))
    reach = (beta1 - _OLD_CERTIFY_REACH, beta2 + _OLD_CERTIFY_REACH)
    assert 0 < own < np.count_nonzero((reach[0] < im) & (im < reach[1]))
    near = solve_pencil_eigenvalues(replace(P), reach)
    stacks = {"svd": [], "slogdet": []}
    for name, ndim in (("svd", 3), ("slogdet", 4)):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _f=fn, _s=stacks[name],
                            _d=ndim, **kw: np.ndim(a) == _d and _s.append(np.shape(a))
                            or _f(a, *args, **kw))
    eigenpoints = spectrum.strip_eigenpoints(P, beta1, beta2)
    assert sum(shape[0] for shape in stacks["svd"]) == own
    assert stacks["slogdet"]
    for shape in stacks["svd"] + stacks["slogdet"]:
        assert shape[0] == 1 or math.prod(shape) <= P.B.size
    for ep in eigenpoints:
        others = [c.lambda0 for c in eigenpoints] + list(near)
        isolation = min((abs(v - ep.lambda0) for v in others
                         if abs(v - ep.lambda0) > spectrum._CLUSTER_RADIUS), default=1.0)
        assert ep.radius == max(min(0.45 * isolation, 0.1), 1e-5)


# ---------------------------------------------------------------------------
# Jordan chains
# ---------------------------------------------------------------------------

def test_chain_simple_n3(laplacian3d):
    P = assemble_pencil(laplacian3d, 4)
    ep = chains_at(P, 2j)
    assert (ep.geometric, ep.partial_multiplicities, ep.algebraic) == (1, [1], 1)
    assert ep.det_order == 1
    assert max(ep.residuals) < 1e-8


def test_chain_double_n2(laplacian2d):
    P = assemble_pencil(laplacian2d, 4)
    ep = chains_at(P, 2j)
    assert (ep.geometric, ep.partial_multiplicities, ep.algebraic) == (1, [2], 2)
    assert ep.det_order == 2
    assert max(ep.residuals) < 1e-8
    # leading vectors linearly independent (trivially here: one chain)
    lead = np.stack([c[0] for c in ep.chains])
    assert np.linalg.svd(lead, compute_uv=False)[-1] > 1e-8


def test_chain_high_multiplicity(laplacian3d):
    P = assemble_pencil(laplacian3d, 4)
    ep = chains_at(P, 1j)  # l = 1 lower family: J = 3
    assert (ep.geometric, ep.algebraic) == (3, 3)
    assert ep.partial_multiplicities == [1, 1, 1]
    lead = np.stack([c[0] for c in ep.chains])
    assert np.linalg.svd(lead, compute_uv=False)[-1] > 1e-8


def _moved_centre(P, lam0, to):
    """P with the centre of its cluster at lam0 moved to `to`, and the
    cluster's number."""
    label, centres = P.clusters
    (cluster,) = np.flatnonzero(np.abs(centres - lam0) < spectrum._CLUSTER_RADIUS)
    P = replace(P)
    P.__dict__["clusters"] = label, np.where(np.arange(len(centres)) == cluster, to, centres)
    return P, cluster


def test_not_an_eigenvalue(laplacian3d):
    # the cluster at 2i chained at 2.5i, where its owner has full rank
    P, cluster = _moved_centre(assemble_pencil(laplacian3d, 4), 2j, 2.5j)
    with pytest.raises(NotAnEigenvalue):
        jordan_chains(P, [cluster])


def test_eigen_residual_bound(laplacian3d):
    P = assemble_pencil(laplacian3d, 4)
    scale = P.scale
    for lam0 in (2j, 3j, 1j):
        ep = chains_at(P, lam0)
        for chain in ep.chains:
            r = np.linalg.norm(horner(P.B, lam0) @ chain[0])
            assert r <= 1e-8 * scale * max(1.0, abs(lam0)) ** P.m


# ---------------------------------------------------------------------------
# determinant order
# ---------------------------------------------------------------------------

def _det_values_on_circle(B, lam0, radius, nodes):
    """det of the square pencil B at `nodes` equispaced circle nodes, all
    evaluated in one stack, divided by the geometric mean of their moduli."""
    points = lam0 + radius * np.exp(2j * math.pi * np.arange(nodes) / nodes)
    sign, logabs = np.linalg.slogdet(horner(B, points))
    return sign * np.exp(logabs - np.mean(logabs))


def _det_circle_oracle(B, lam0, radius):
    """One slogdet per node of the square pencil B (64 nodes), scaled like
    _det_values_on_circle."""
    logs = [np.linalg.slogdet(horner(B, lam0 + radius * np.exp(1j * th)))
            for th in 2 * math.pi * np.arange(64) / 64]
    mean_log = np.mean([la for _, la in logs])
    return np.array([s * np.exp(la - mean_log) for s, la in logs])


def _owner_orders(P, lam0, radius):
    """The nonzero det orders of one point, {square: order}: every square
    read on the circle in one call, nonzero on the owners only."""
    every = np.arange(len(P.squares))
    orders = det_vanishing_order(P, np.full(len(every), complex(lam0)),
                                 np.full(len(every), radius), every)
    assert orders.shape == every.shape
    assert set(np.flatnonzero(orders)) <= set(np.flatnonzero(owners(P, lam0, radius)))
    return {int(i): int(orders[i]) for i in np.flatnonzero(orders)}


def test_det_vanishing_order(laplacian3d, laplacian2d):
    # one order per square, nonzero on the owners only: det pencil's order
    # at the point is their sum
    P = assemble_pencil(laplacian3d, 4)
    owner = int(np.flatnonzero(owners(P, 2j, 0.1))[0])
    assert _owner_orders(P, 2j, 0.1) == {owner: 1}      # simple root
    assert _owner_orders(P, 2.5j, 0.1) == {}            # off the spectrum
    P = assemble_pencil(laplacian2d, 3)
    owner = int(np.flatnonzero(owners(P, 2j, 0.1))[0])
    assert _owner_orders(P, 2j, 0.1) == {owner: 2}      # the l = 0 double root
    # at 0 the c(lam) I_2 scalar of component 0 holds order 2 and the 4 x 4
    # square of components 1 and 2 order 4; points read in one call
    op = _mixed_owner_op()
    P = assemble_pencil(op, default_l_max(op, 2), analysis_degree=2)
    scalar, full = (int(np.flatnonzero(owners(P, 0j, 0.1) & side)[0])
                    for side in (P.scalars[0] >= 0, P.scalars[0] < 0))
    assert _owner_orders(P, 0j, 0.1) == {scalar: 2, full: 4}
    every = len(P.squares)
    orders = det_vanishing_order(P, np.repeat([0j, 2.5j], every), np.full(2 * every, 0.1),
                                 np.tile(np.arange(every), 2))
    assert orders.reshape(2, every).sum(axis=1).tolist() == [6, 0]


def test_det_circle_matches_full_slogdet(laplacian3d, dbar2d):
    # prod_i det(square_i) ** d_i is det pencil: every block of -Delta is
    # c(lam) I, held as its 1 x 1 scalar with d its size
    P = assemble_pencil(laplacian3d, 6)
    assert P.bandwidth == 0 and len(P.squares) > 1
    assert P.powers == [len(idx) for idx, _ in P.blocks] and max(P.powers) > 1
    got = np.prod([_det_values_on_circle(S, 2j, 0.1, 64) ** d
                   for S, d in zip(P.squares, P.powers)], axis=0)
    want = _det_circle_oracle(P.B, 2j, 0.1)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # at bandwidth > 0 each block is one square of power 1, as wide as the
    # block, and each square's stacked det read is its per-node slogdet
    P = assemble_pencil(dbar2d, 8)
    assert P.bandwidth > 0 and P.powers == [1] * len(P.squares) and len(P.squares) > 1
    for S, (_, cols) in zip(P.squares, P.blocks):
        assert S.shape[1:] == (len(cols), len(cols))
        assert np.array_equal(_det_values_on_circle(S, 1j, 0.1, 64),
                              _det_circle_oracle(S, 1j, 0.1))


def test_det_order_refuses_an_undersized_circle(laplacian3d):
    # the l = 3 line -1 has order 7.  The l = 3 block times diag(1..7) on
    # the right is no longer c(lam) I, so its det is read on the 7 x 7
    # square.  Its 7 roots size the circle at 32 nodes; a count of 1
    # sizes it at 16, where order 7 lands in the top quarter of the 8
    # coefficients kept, and it is refused, not misread
    P = assemble_pencil(laplacian3d, 4)
    idx = np.flatnonzero(P.row_degrees == 3)
    B = P.B.copy()
    B[:, idx[:, None], idx] *= np.arange(1, 8)
    P = replace(P, B=B)
    owner = np.flatnonzero(owners(P, -1j, 0.1))
    assert len(owner) == 1 and P.squares[owner[0]].shape[1:] == (7, 7)
    assert _owner_orders(P, -1j, 0.1) == {int(owner[0]): 7}
    P = replace(P)
    P.__dict__["roots"] = (np.array([-1j]), owner)   # the count alone is forced
    with pytest.raises(MultiplicityMismatch,
                       match=r"unresolved on 16 circle nodes .*: 7 of 8\)"):
        det_vanishing_order(P, -1j, 0.1, owner[0])


@pytest.mark.parametrize("count", [1, 2, 3])
def test_det_order_of_a_scalar_block_reads_on_its_scalar(laplacian3d, count):
    # the l = 6 line -4 has order 13.  With the count forced to 1-3 the
    # circle has 16 nodes, too few for order 13 on the 13 x 13 block (it
    # aliased to 0); the block is c(lam) I, so its order is 13 times that of
    # its scalar's simple zero, which 16 nodes resolve
    P = assemble_pencil(laplacian3d, default_l_max(laplacian3d, 7), analysis_degree=7)
    owner = np.flatnonzero(owners(P, -4j, 0.1))
    assert len(owner) == 1 and P.powers[owner[0]] == 13
    P = replace(P)
    P.__dict__["roots"] = (np.array([-4j] * count), np.repeat(owner, count))
    assert _owner_orders(P, -4j, 0.1) == {int(owner[0]): 13}


@pytest.mark.parametrize("count", [1, 2, 3])
def test_chains_refuse_a_det_order_aliased_on_a_full_block(laplacian3d, count):
    # the l = 6 block times diag(1..13) is no longer c(lam) I, so the order
    # 13 of -4i is read on the 13 x 13 square.  With the count forced to
    # 1-3 its 16-node circle aliases that order to 0 (CHANGES.md, FOUND);
    # the chain count 13 then disagrees, and the point is refused, never
    # returned
    P = assemble_pencil(laplacian3d, default_l_max(laplacian3d, 7), analysis_degree=7)
    idx = np.flatnonzero(P.row_degrees == 6)
    B = P.B.copy()
    B[:, idx[:, None], idx] *= np.arange(1, 14)
    P = replace(P, B=B)
    owner = np.flatnonzero(owners(P, -4j, 0.1))
    assert len(owner) == 1 and P.squares[owner[0]].shape[1:] == (13, 13)
    P.__dict__["roots"] = (np.array([-4j] * count), np.repeat(owner, count))
    with pytest.raises(MultiplicityMismatch, match="det root order"):
        chains_at(P, -4j)


@pytest.mark.parametrize("order, read", [(5, 5), (6, "6 of 8"), (8, "none of 8")],
                         ids=["order5", "order6", "order8"])
def test_det_order_of_lam_power_on_16_nodes(order, read):
    # det = lam^order, counted once: 16 nodes.  Order 5 is read exactly;
    # order 6 falls in the top quarter, order 8 beyond the 8 kept
    B = np.zeros((order + 1, 1, 1), dtype=complex)
    B[order] = 1.0
    P = PencilMatrices(B=B, degrees=np.array([0]), k=1, n=2, mu=(order,), nu=(0,),
                       l_max=0, analysis_degree=0, bandwidth=0)
    P.__dict__["roots"] = (np.array([0j]), np.array([0]))
    if isinstance(read, int):
        assert det_vanishing_order(P, 0j, 0.1, 0) == read
    else:
        with pytest.raises(MultiplicityMismatch,
                           match=rf"unresolved on 16 circle nodes .*: {read}\)"):
            det_vanishing_order(P, 0j, 0.1, 0)


# ---------------------------------------------------------------------------
# block view
# ---------------------------------------------------------------------------

def _whole_pencil_certified(P, band):
    """The candidates in the band that certify on one fixed random
    compression of the whole kept pencil, against its whole rectangular
    restriction: the route the blocks replaced, kept as an oracle."""
    R = P.B[:, :, P.kept]
    n_r, n_c = R.shape[1:]
    rng = np.random.default_rng(20240900 + 7 * n_r + n_c)
    Q = rng.standard_normal((n_c, n_r)) + 1j * rng.standard_normal((n_c, n_r))
    vals = pencil._companion_eigenvalues(Q @ R / math.sqrt(2 * n_r))
    vals = vals[(band[0] < vals.imag) & (vals.imag < band[1])]
    sv = [np.linalg.svd(horner(R, v), compute_uv=False) for v in vals]
    return np.array([v for v, s in zip(vals, sv) if s[-1] < 1e-8 * max(s[0], P.scale)])


@pytest.mark.parametrize("doc_fn, degree, tol", [
    (cr_system_doc, 8, 1e-9),
    (dbar_doc, 12, 1e-9),
    (lambda: drift_doc(0.3), 2, 1e-9),
    (lambda: with_drift(laplacian_doc(2), 0.3), 4, 1e-9),
    (lambda: json.loads((OPERATORS / "anisotropic2d.json").read_text()), 2, 1e-7),
], ids=["cr_system2d", "dbar2d", "drift3d", "drift2d", "anisotropic2d"])
def test_blocks_partition_the_kept_columns_and_keep_the_spectrum(doc_fn, degree, tol):
    # the blocks partition the kept columns, their row sets are disjoint and
    # each at least as long as its columns, and B[:, :, kept] has no nonzero
    # outside them; the certified values of a strip are those of the whole
    # pencil's compression, to tol (anisotropic2d's near-double pairs move
    # by up to 2e-8)
    op = parse_operator(doc_fn())
    P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
    assert P.bandwidth > 0 and len(P.blocks) > 1
    rows = np.concatenate([r for r, _ in P.blocks])
    cols = np.concatenate([c for _, c in P.blocks])
    assert np.array_equal(np.sort(cols), P.kept)
    assert len(np.unique(rows)) == len(rows)
    assert all(len(r) >= len(c) for r, c in P.blocks)
    inside = np.zeros(P.B.shape[1:], dtype=bool)
    for r, c in P.blocks:
        inside[r[:, None], c] = True
    assert not (P.B != 0).any(axis=0)[:, P.kept][~inside[:, P.kept]].any()
    band = (-1.7, 3.6)
    got = solve_pencil_eigenvalues(P, band)
    want = _whole_pencil_certified(P, band)
    assert len(got) == len(want) > 0
    left = list(got)
    for w in want:
        i = int(np.argmin(np.abs(np.array(left) - w)))
        assert abs(left.pop(i) - w) <= tol

@pytest.mark.parametrize("doc_fn, strip, degree", [
    (lambda: laplacian_doc(3), (-0.5, 3.5), 4),
    (dbar_doc, (-1.5, 2.5), 6),
])
def test_strip_builds_each_block_view_once(monkeypatch, doc_fn, strip, degree):
    built = []
    square_pieces = PencilMatrices.__dict__["squares"].func

    def counted(P):
        built.append(P)
        return square_pieces(P)

    view = cached_property(counted)
    view.__set_name__(PencilMatrices, "squares")
    monkeypatch.setattr(PencilMatrices, "squares", view)
    rep = strip_spectrum(parse_operator(doc_fn()), *strip, degree)
    assert len(rep.eigenpoints) >= 3
    # the degree pencil once, not per eigenpoint, and no other at any bandwidth
    assert built == [rep.pencil]
    assert rep.pencil.squares is rep.pencil.squares


def test_replace_builds_a_fresh_view(laplacian3d, dbar2d):
    for op in (laplacian3d, dbar2d):
        P = assemble_pencil(op, 4)
        squares = P.squares
        P2 = replace(P, B=2 * P.B)
        assert P2.squares is not squares
        for S, S2 in zip(squares, P2.squares):
            assert np.array_equal(2 * S, S2)
        with pytest.raises(FrozenInstanceError):
            P.B = P2.B


def test_eigenvalues_concatenate_the_squares(laplacian3d):
    P = assemble_pencil(laplacian3d, 4)
    roots, square = P.roots
    assert len(P.squares) == len(P.powers) > 1 and np.array_equal(square, np.sort(square))
    assert np.array_equal(P.eigenvalues, np.concatenate(
        [np.repeat(roots[square == i], d) for i, d in enumerate(P.powers)]))
    # the l = 1 block alone owns the triple root at 1i.  At bandwidth > 0 a
    # block owns only the circles that hold one of its roots: the block
    # owning 1i is singular there, the others are not
    owning = np.flatnonzero(owners(P, 1j, 0.1))
    assert len(owning) == 1 and len(P.blocks[owning[0]][0]) == 3
    assert not owners(P, 2.5j, 0.1).any()
    Q = assemble_pencil(parse_operator(dbar_doc()), 4)
    assert Q.bandwidth > 0 and len(Q.squares) > 1 and not owners(Q, 2.5j, 0.1).any()
    owned = owners(Q, 1j, 0.1)
    assert owned.sum() == 1
    for i, own in enumerate(owned.tolist()):
        sv = np.linalg.svd(horner(Q.restriction(i), 1j), compute_uv=False)
        assert bool(sv[-1] < 1e-8 * sv[0]) is own


def _full_pencil_chains(P, lam0):
    """chains_from_matrices on every kept column of the whole pencil."""
    T = [Ts[:, P.kept] for Ts in taylor(P.B, lam0)]
    return chains_from_matrices(T, _chain_scale(P, lam0))


def _full_det_order(P, lam0):
    """Vanishing order of det of the whole pencil P.B, on the circle a strip
    would use (0.45 of the isolation in P.eigenvalues, at most 0.1)."""
    iso = min(abs(v - lam0) for v in P.eigenvalues if abs(v - lam0) > 1e-6)
    t = np.fft.fft(_det_circle_oracle(P.B, lam0, min(0.45 * iso, 0.1)))
    t = np.abs(t[:len(t) // 2])
    return int(np.argmax(t > 1e-6 * t.max()))


def _span_projector(vecs):
    Q, _ = np.linalg.qr(np.column_stack(vecs))
    return Q @ Q.conj().T


@pytest.mark.parametrize("op_fn, strip, degree", [
    (lambda: parse_operator(laplacian_doc(3)), (-0.5, 3.5), 4),
    (lambda: _inverse_square_op(3, -3.0), (0.5, 4.5), 4),
    (lambda: _inverse_square_op(2, -7.0), (0.1, 3.9), 6),
], ids=["laplacian3d", "inverse_square3d_c-3", "inverse_square2d_c-7"])
def test_block_chains_match_full_pencil(op_fn, strip, degree):
    rep = strip_spectrum(op_fn(), *strip, degree)
    P = rep.pencil
    assert P.bandwidth == 0 and len(P.squares) > 1 and rep.eigenpoints
    for ep in rep.eigenpoints:
        _, partial, chains, _ = _full_pencil_chains(P, ep.lambda0)
        assert ep.partial_multiplicities == partial
        assert ep.det_order == _full_det_order(P, ep.lambda0) == ep.algebraic
        got = _span_projector([chain[0] for chain in ep.chains])
        want = _span_projector([chain[0] for chain in chains])
        assert np.max(np.abs(got - want)) <= 1e-12


def _full_owner_work(monkeypatch):
    """Record each chains_from_matrices call the program makes, as its
    block's shape and the shapes of the SVDs it runs."""
    calls, active = [], []
    chains, svd = spectrum.chains_from_matrices, np.linalg.svd

    def recorded(T, scale):
        calls.append((T[0].shape, []))
        active.append(calls[-1][1])
        try:
            return chains(T, scale)
        finally:
            active.pop()

    monkeypatch.setattr(spectrum, "chains_from_matrices", recorded)
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: (
        active and active[-1].append(np.shape(a))) or svd(a, *args, **kw))
    return calls


@pytest.mark.parametrize("doc_fn, strip, degree", [
    (dbar_doc, (-1.5, 2.5), 6),
    (cr_system_doc, (-0.5, 2.5), 6),
    (lambda: json.loads((OPERATORS / "anisotropic2d.json").read_text()), (0.4, 2.3), 4),
], ids=["dbar2d", "cr_system2d", "anisotropic2d"])
def test_semisimple_points_stop_at_the_first_level(monkeypatch, doc_fn, strip, degree):
    # coupled pencils: the local reduction stops at its first level on a
    # semisimple owner, after three SVDs (of its block at the point, of the
    # projected next equation and of the null basis), none of more rows
    # than the block; its chains span the block's null space
    calls = _full_owner_work(monkeypatch)
    rep = strip_spectrum(parse_operator(doc_fn()), *strip, degree)
    P = rep.pencil
    assert P.bandwidth > 0 and rep.eigenpoints
    work, pairs = list(calls), 0
    for ep in rep.eigenpoints:
        # the whole pencil's nullspace at the point is as wide as the chains
        J, _, _, _ = _full_pencil_chains(P, ep.lambda0)
        assert J == ep.geometric
        # each owner's block at its own centre, as the per-owner det read
        # places it; the chains run owner by owner
        orders = _per_centre_det_orders(P, ep.lambda0, ep.radius)
        assert ep.det_order == sum(order for _, order in orders.values())
        want = []
        for i, (c, _) in orders.items():
            T = taylor(P.restriction(i), c)
            _, partial, chains, residuals = chains_from_matrices(T, _chain_scale(P, c))
            assert partial == [1] * len(chains)
            sv, Vh = np.linalg.svd(T[0])[1:]
            null = Vh[np.count_nonzero(sv >= 1e-8 * max(sv[0], _chain_scale(P, c))):]
            assert np.max(np.abs(_span_projector([chain[0] for chain in chains])
                                 - null.conj().T @ null)) <= 1e-12
            want += [(P.blocks[i][1], chain, res) for chain, res in zip(chains, residuals)]
        pairs += len(orders)
        assert ep.partial_multiplicities == [1] * len(want)
        for got, res, (cols, chain, r) in zip(ep.chains, ep.residuals, want):
            assert np.array_equal(got[0][cols], chain[0])
            assert np.count_nonzero(got[0]) == np.count_nonzero(chain[0])
            assert abs(res - r) <= 1e-15
    # three SVDs per (point, owner), none larger than the owner's block
    assert len(work) == pairs
    assert all(len(svds) == 3 and all(s[0] <= shape[0] for s in svds)
               for shape, svds in work)


def _assert_scalar_chains_match_the_reduction(P, ep):
    """The chains of ep, owned by one c(lam) I scalar with a double zero,
    against the local reduction on its 1 x 1 square, padded at each
    harmonic of its block: equal up to a unit phase."""
    (i,) = np.flatnonzero(owners(P, ep.lambda0, ep.radius))
    assert P.squares[i].shape[1:] == (1, 1)
    _, partial, (want,), _ = chains_from_matrices(
        taylor(P.squares[i], ep.lambda0), _chain_scale(P, ep.lambda0))
    assert partial == [2] and len(ep.chains) == P.powers[i]
    phase = complex(want[0][0])
    assert abs(abs(phase) - 1) < 1e-12
    for got, j in zip(ep.chains, P.blocks[i][0]):
        expect = np.zeros((2, P.size), dtype=complex)
        expect[:, j] = [complex(v[0]) / phase for v in want]
        assert np.max(np.abs(np.array(got) - expect)) < 1e-12


@pytest.mark.parametrize("n, c, line, partial", [
    (3, -0.25, 2.5, [2]),       # D_0 = 0
    (2, -1.0, 2.0, [2, 2]),     # D_1 = 0
], ids=["n3_l0", "n2_l1"])
def test_scalar_double_zeros_take_the_closed_form(monkeypatch, n, c, line, partial):
    # a double root at D_l = 0 holds one chain [1, 0] per degree-l
    # harmonic, read off its scalar's Taylor coefficients: no full owner is
    # chained, at the double root or at the simple ones
    calls = _full_owner_work(monkeypatch)
    rep = strip_spectrum(_inverse_square_op(n, c), 0.5, 3.9, 4)
    assert calls == []
    eps = [ep for ep in rep.eigenpoints if ep.partial_multiplicities != [1] * ep.geometric]
    assert [(ep.lambda0.imag, ep.partial_multiplicities, ep.det_order) for ep in eps] == \
        [(pytest.approx(line), partial, 2 * len(partial))]
    _assert_scalar_chains_match_the_reduction(rep.pencil, eps[0])


def _per_centre_det_orders(P, lam0, radius):
    """The det read of one point, owner by owner, {owner: (centre, order)}:
    each square with a root within the cluster radius of lam0 is read by
    slogdet on its own circle: a sole owner on the point's (lam0, radius),
    and an owner that shares the point centred at the mean of its roots
    there and isolated from its own roots.  The circle takes N = max(16,
    2^ceil(log2(4 c))) nodes, c the square's roots inside, and the order is
    d times the first non-negligible of the lower N/2 FFT coefficients
    (refused in the top quarter)."""
    roots, square = P.roots
    near = np.abs(roots - lam0) < spectrum._CLUSTER_RADIUS
    owners = sorted(set(square[near].tolist()))
    orders = {}
    for i in owners:
        centre, rad = lam0, radius
        if len(owners) > 1:
            centre = np.mean(roots[near & (square == i)])
            isolation = min((abs(v - centre) for v in roots[square == i]
                             if abs(v - centre) > 1e-6), default=1.0)
            rad = max(min(0.45 * isolation, 0.1), 1e-5)
        count = int(np.count_nonzero(np.abs(roots[square == i] - centre) < rad))
        d = P.powers[i]
        nodes = max(16, 1 << (4 * count - 1).bit_length())
        t = np.abs(np.fft.fft(_det_values_on_circle(P.squares[i], centre, rad, nodes)))
        hits = np.flatnonzero(t[:nodes // 2] > 1e-6 * t.max())
        if hits.size == 0 or hits[0] >= 3 * nodes // 8:
            raise MultiplicityMismatch(f"det root order at {lam0} unresolved")
        orders[i] = centre, d * int(hits[0])
    return orders


def _clusters(vals):
    """The single-linkage clusters of `vals` within the cluster radius, by a
    loop over every pair: each cluster's members in their order in `vals`,
    the clusters by the (Im, Re) of their mean."""
    label = list(range(len(vals)))
    for i in range(len(vals)):
        for j in range(i):
            if abs(vals[i] - vals[j]) <= spectrum._CLUSTER_RADIUS and label[i] != label[j]:
                old, new = max(label[i], label[j]), min(label[i], label[j])
                label = [new if a == old else a for a in label]
    groups = [[v for v, a in zip(vals, label) if a == c] for c in sorted(set(label))]
    return sorted(groups, key=lambda g: (np.mean(g).imag, np.mean(g).real))


def _per_centre_eigenpoints(P, beta1, beta2):
    """The reference for strip_eigenpoints at bandwidth 0: the clusters of
    the values within the old certification reach of the strip with a
    member in it, each centre on its own, isolated by a loop over every
    centre and value there, its det orders read by _per_centre_det_orders
    and each owner chained under its own order: a 1 x 1 owner one [1, 0,
    ..., 0] of its scalar's zero order per harmonic, from its Taylor
    coefficients, and a full one by chains_from_matrices; its tail-mass
    verdict from its leading vectors' masses, degree by degree."""
    lo, hi = beta1 - spectrum._CLUSTER_RADIUS, beta2 + spectrum._CLUSTER_RADIUS
    vals = list(solve_pencil_eigenvalues(P, (beta1 - _OLD_CERTIFY_REACH,
                                             beta2 + _OLD_CERTIFY_REACH)))
    groups = _clusters(vals)
    centers = [np.mean(g) for g in groups]
    points = []
    for center in [c for c, g in zip(centers, groups) if any(lo < v.imag < hi for v in g)]:
        others = [c for c in centers if abs(c - center) > 1e-6] + \
                 [v for v in vals if abs(v - center) > 1e-6]
        isolation = min((abs(v - center) for v in others), default=1.0)
        radius = max(min(0.45 * isolation, 0.1), 1e-5)
        orders = _per_centre_det_orders(P, center, radius)
        found = []
        for i, (at, order) in orders.items():
            S, scale = P.squares[i], _chain_scale(P, at)
            if S.shape[1:] == (1, 1):
                c = [abs(complex(cs[0, 0])) for cs in taylor(S, at)]
                o = next(s for s, cs in enumerate(c) if cs > 1e-8 * max(c[0], scale))
                chains = [[np.array([1.0 if s == 0 else 0.0]) for s in range(o)]]
                residuals = [max(c[:o]) / scale]
            else:
                _, _, chains, residuals = chains_from_matrices(taylor(S, at), scale)
            assert P.powers[i] * sum(map(len, chains)) == order
            for keep in P.blocks[i][0].reshape(P.powers[i], -1):
                for chain, res in zip(chains, residuals):
                    padded = []
                    for v in chain:
                        full = np.zeros(P.size, dtype=complex)
                        full[keep] = v
                        padded.append(full)
                    found.append((padded, res))
        found.sort(key=lambda f: -len(f[0]))
        partial = [len(chain) for chain, _ in found]
        # each leading vector's mass by degree, a loop over the degrees
        masses = [[np.sum(np.abs(chain[0][P.row_degrees == d]) ** 2)
                   for d in range(P.degrees[-1] + 1)] for chain, _ in found]
        tail = max(sum(m[P.analysis_degree + 1:]) / sum(m) for m in masses)
        peak = max(int(np.argmax(m)) for m in masses)
        points.append(spectrum.Eigenpoint(
            center, len(partial), partial, sum(partial), [c for c, _ in found],
            [r for _, r in found], sum(order for _, order in orders.values()), radius,
            tail, peak))
    return points


def _mixed_owner_op():
    """-Delta on component 0 and [[-Delta, 0.5 (-Delta)], [0, -Delta]] on
    components 1 and 2 of R^2 (mu = 2, nu = 0): each line 2 -+ l is owned
    by the degree-l c(lam) I block of component 0 and by the full square of
    components 1 and 2 at degree l."""
    lap = laplacian_doc(2)["entries"][0]["terms"]
    half = [dict(term, poly={"0 0": [0.5, 0.0]}) for term in lap]
    entries = [{"i": i, "j": i, "terms": lap} for i in range(3)]
    entries.append({"i": 1, "j": 2, "terms": half})
    return parse_operator({"n": 2, "k": 3, "mu": [2, 2, 2], "nu": [0, 0, 0],
                           "entries": entries})


def _bandwidth_zero_strips():
    for path in sorted(OPERATORS.glob("*.json")):
        op = parse_operator(json.loads(path.read_text()))
        if assemble_pencil(op, default_l_max(op, 2), analysis_degree=2).bandwidth == 0:
            for strip in ((-0.5, 3.5), (0.4, 4.6), (0.4, 2.3), (-1.7, 2.6)):
                for degree in (2, 4, 6):
                    yield pytest.param(op, strip, degree, id=f"{path.stem}-{strip}-d{degree}")
    yield pytest.param(parse_operator(laplacian_doc(3)), (18.5, 19.5), 16,
                       id="laplacian3d-order33")
    for n in (2, 3):
        for c in (-7.0, -3.0, -1.2, -0.8, -0.5, 0.5, 1.5, 2.5):
            for strip in ((-1.7, 2.6), (0.7, 5.2)):
                for degree in (2, 4):
                    yield pytest.param(_inverse_square_op(n, c), strip, degree,
                                       id=f"inverse_square{n}d_c{c}-{strip}-d{degree}")
    # D_l = 0: a double root of the scalar, in closed form
    for n, c in ((3, -0.25), (2, -1.0)):
        yield pytest.param(_inverse_square_op(n, c), (0.5, 3.9), 4,
                           id=f"inverse_square{n}d_c{c}-double")
    # points owned by a c(lam) I scalar and a full square
    for degree in (2, 4):
        yield pytest.param(_mixed_owner_op(), (-0.5, 3.5), degree,
                           id=f"mixed_owner2d-d{degree}")


@pytest.mark.parametrize("op, strip, degree", _bandwidth_zero_strips())
def test_batched_eigenpoints_match_the_per_centre_route(op, strip, degree):
    P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
    assert P.bandwidth == 0
    want = _per_centre_eigenpoints(P, *strip)
    got = spectrum.strip_eigenpoints(P, *strip)
    assert [ep.lambda0 for ep in got] == [ep.lambda0 for ep in want]
    for g, w in zip(got, want):
        assert (g.partial_multiplicities, g.det_order, g.radius, g.peak) == \
            (w.partial_multiplicities, w.det_order, w.radius, w.peak)
        assert g.tail == pytest.approx(w.tail, abs=1e-12)
        assert len(g.chains) == len(w.chains)
        for cg, cw in zip(g.chains, w.chains):
            assert len(cg) == len(cw) and all(np.array_equal(a, b) for a, b in zip(cg, cw))
        assert np.allclose(g.residuals, w.residuals, rtol=0, atol=1e-15)
        assert np.allclose(g.residuals, w.residuals, rtol=1e-9, atol=0)


def test_simple_lines_run_no_svd_and_no_slogdet(monkeypatch):
    # -Delta + 1.5 r^-2 on R^2, lines 2 -+ sqrt(l^2 + 1.5): each eigenpoint
    # of (0.3, 3.7) is a simple root of its degree block's scalar, so its
    # chains are closed form and its det read is one Horner pass (the
    # per-point route took 3 SVDs and 1 slogdet for each)
    calls = Counter()
    for name in ("svd", "slogdet"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _f=fn, _n=name, **k: calls.update([_n]) or _f(*a, **k))
    rep = strip_spectrum(_inverse_square_op(2, 1.5), 0.3, 3.7, 6)
    assert rep.pencil.bandwidth == 0 and len(rep.eigenpoints) == 4
    assert [ep.partial_multiplicities for ep in rep.eigenpoints] == [[1, 1], [1], [1], [1, 1]]
    assert calls == Counter()


def test_mixed_owner_points_chain_owner_by_owner(monkeypatch):
    # each owner under its own det order: at 0, i and 3i the scalar's simple
    # zero is closed form, and the 4 x 4 square stops at the reduction's
    # first level (three SVDs); at the l = 0 double root 2i the scalar's
    # chains [1, 0] are closed form too, and only the 2 x 2 square, whose
    # chains have length 2, goes on: stacks extend at both of its levels,
    # so each takes two more SVDs (the projected equation's null space and
    # the rank of the extending leading vectors), and the second level one
    # more to test its projected equation: 8 (there only the shifted chains
    # (0, x_0) extend, with no leading vector).  No scalar's det is read by
    # slogdet
    calls, stacks = _full_owner_work(monkeypatch), []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet",
                        lambda a: stacks.append(np.shape(a)) or slogdet(a))
    rep = strip_spectrum(_mixed_owner_op(), -0.5, 3.5, 4)
    assert rep.pencil.bandwidth == 0
    assert [(ep.lambda0, ep.partial_multiplicities) for ep in rep.eigenpoints] == [
        (pytest.approx(0j, abs=1e-9), [1] * 6), (pytest.approx(1j), [1] * 6),
        (pytest.approx(2j), [2, 2, 2]), (pytest.approx(3j), [1] * 6)]
    assert [(shape, len(svds)) for shape, svds in calls] == \
        [((4, 4), 3)] * 2 + [((2, 2), 8)] + [((4, 4), 3)]
    assert stacks and all(shape[1:] != (1, 1) for shape in stacks)


def test_criterion_2_chain_takes_the_closed_form(monkeypatch, laplacian2d):
    calls = _full_owner_work(monkeypatch)
    P = assemble_pencil(laplacian2d, 6)
    ep = chains_at(P, 2j)
    assert (ep.partial_multiplicities, ep.det_order) == ([2], 2)
    assert calls == []
    _assert_scalar_chains_match_the_reduction(P, ep)


_LAM0 = 0.3 + 1.1j


def _jordan_form_pencil(blocks, quadratic, rows):
    """The coefficients of lam I - A, A = S J S^-1 with Jordan blocks of
    the given sizes at _LAM0 and three simple eigenvalues elsewhere, or of
    (I + (lam - _LAM0) F)(lam I - A), F small (invertible at _LAM0, so the
    partial multiplicities and the kernel there are A's), with `rows` zero
    rows appended; and a basis of ker(A - _LAM0), S at the blocks' starts."""
    rng = np.random.default_rng(10 * sum(blocks) + len(blocks))
    size = sum(blocks) + 3
    J = np.diag(np.r_[[_LAM0] * sum(blocks), -0.7 + 0.2j, 1.5 - 0.4j, 2.1 + 1.9j])
    starts = np.cumsum([0] + blocks[:-1])
    for start, k in zip(starts, blocks):
        J[start + np.arange(k - 1), start + np.arange(1, k)] = 1.0
    S = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    A = S @ J @ np.linalg.inv(S)
    I = np.eye(size)
    coeffs = [-A, I]
    if quadratic:
        F = 0.1 * (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        coeffs = [-(I - _LAM0 * F) @ A, I - _LAM0 * F - F @ A, F]
    return [np.vstack([C, np.zeros((rows, size))]) for C in coeffs], S[:, starts]


@pytest.mark.parametrize("rows", [0, 3], ids=["square", "rows+3"])
@pytest.mark.parametrize("blocks, quadratic", [
    ([3, 2, 2, 1], False), ([4], False), ([5, 3], False), ([2, 1, 1], False),
    ([3, 2, 2, 1], True),
], ids=["3221", "4", "53", "211", "3221-quadratic"])
def test_long_and_mixed_chains_of_a_jordan_form(blocks, quadratic, rows):
    # the local reduction on a Jordan form at _LAM0, square and with the
    # zero rows of a kept-column block: the partial multiplicities are the
    # block sizes, longest first, and the leading vectors span the kernel
    coeffs, kernel = _jordan_form_pencil(blocks, quadratic, rows)
    scale = max(np.abs(C).sum(axis=1).max() for C in coeffs) * abs(_LAM0) ** (len(coeffs) - 1)
    J, partial, chains, residuals = chains_from_matrices(taylor(coeffs, _LAM0), scale)
    assert (J, partial, [len(chain) for chain in chains]) == (len(blocks), blocks, blocks)
    assert max(residuals) < spectrum._CHAIN_TOL
    assert np.max(np.abs(_span_projector([chain[0] for chain in chains])
                         - _span_projector(kernel.T))) < 1e-8


@pytest.mark.parametrize("moved", [1, -1, -2])
def test_an_owner_chained_under_another_owners_order_is_refused(monkeypatch, moved):
    # at 0 the scalar (order 2) and the 4 x 4 square (order 4) hold 6 chain
    # vectors.  With `moved` of the square's order read on the scalar
    # instead (down to 0 for -2) the point's total is still 6, but each
    # owner's chain count must be its own order
    op = _mixed_owner_op()
    P = assemble_pencil(op, default_l_max(op, 2), analysis_degree=2)
    assert chains_at(P, 0j).algebraic == 6
    owned = owners(P, 0j, 0.1)
    shift = np.zeros(len(P.squares), dtype=int)
    shift[owned & (P.scalars[0] >= 0)] = moved
    shift[owned & (P.scalars[0] < 0)] = -moved
    true_order = spectrum.det_vanishing_order
    monkeypatch.setattr(spectrum, "det_vanishing_order",
                        lambda P, lam0, radius, square:
                        true_order(P, lam0, radius, square) + shift[square])
    with pytest.raises(MultiplicityMismatch,
                       match=rf"chain count 2 != det root order {2 + moved} at "):
        chains_at(P, 0j)


def test_one_pencil_is_solved_at_every_bandwidth(monkeypatch, laplacian3d, dbar2d):
    # one pencil is solved, the strip's own: its kept columns are those of
    # the degree + 2 pencil, so no eigenvalue drifts there
    solved = []
    solve = spectrum.solve_pencil_eigenvalues
    monkeypatch.setattr(spectrum, "solve_pencil_eigenvalues",
                        lambda P, band=None: solved.append(P) or solve(P, band))
    for op, strip, degree, coupled in ((laplacian3d, (-0.5, 3.5), 4, False),
                                       (dbar2d, (-1.5, 2.5), 6, True)):
        solved.clear()
        rep = strip_spectrum(op, *strip, degree)
        assert bool(rep.pencil.bandwidth) is coupled and solved == [rep.pencil]
        assert len(rep.eigenpoints) >= 3


def _count_table_builds(monkeypatch):
    """Count, per (words, l), the ladder table builds that compute the
    columns of degree l (a build extending a table computes only the degrees
    it lacks), on an empty memo."""
    built = Counter()
    build = pencil._build_table

    def counted(n, m, mu, words, top, table=None):
        built.update((words, l) for l in range(0 if table is None else len(table["ends"]),
                                               top + 1))
        return build(n, m, mu, words, top, table)

    monkeypatch.setattr(pencil, "_build_table", counted)
    monkeypatch.setattr(pencil, "_tables", {})
    return built


@pytest.mark.parametrize("op_fn, strip, degree", [
    (lambda: parse_operator(laplacian_doc(3)), (-0.5, 3.5), 4),
    (lambda: _inverse_square_op(2, -7.0), (0.1, 3.9), 6),
], ids=["laplacian3d", "inverse_square2d_c-7"])
def test_bandwidth_zero_strip_computes_only_its_degrees(monkeypatch, op_fn, strip,
                                                        degree):
    built = _count_table_builds(monkeypatch)
    op = op_fn()
    rep = strip_spectrum(op, *strip, degree)
    assert rep.pencil.bandwidth == 0 and rep.eigenpoints
    # each table's degrees up to l_max once, and none above
    words = {w for w, _ in built}
    assert words and built == Counter(
        (w, l) for w in words for l in range(default_l_max(op, degree) + 1))


@pytest.mark.parametrize("doc_fn, strip, degree", [
    (dbar_doc, (-1.5, 2.5), 6),
    (cr_system_doc, (-0.5, 2.5), 4),
], ids=["dbar2d", "cr_system2d"])
def test_coupled_strip_computes_each_degree_once(monkeypatch, doc_fn, strip, degree):
    built = _count_table_builds(monkeypatch)
    op = parse_operator(doc_fn())
    rep = strip_spectrum(op, *strip, degree)
    P = rep.pencil
    assert P.bandwidth > 0 and rep.eigenpoints
    # P's work basis only, and each table's degrees once: the l_max tables
    # are extended, not rebuilt
    words = {w for w, _ in built}
    assert words and built == Counter((w, l) for w in words for l in range(P.degrees[-1] + 1))


def _count_solves(monkeypatch):
    """Record the squares given to _companion_eigenvalues and the scalar
    coefficient rows given to _scalar_roots, one list per batch."""
    seen, batches = [], []
    qz, roots = pencil._companion_eigenvalues, pencil._scalar_roots
    monkeypatch.setattr(pencil, "_companion_eigenvalues",
                        lambda Bs: seen.append(Bs) or qz(Bs))
    monkeypatch.setattr(pencil, "_scalar_roots", lambda C: batches.append(C) or roots(C))
    return seen, batches


def test_bandwidth_zero_strip_solves_each_block_of_p_once(monkeypatch, laplacian3d):
    # -Delta's blocks are c(lam) I: all their scalars are solved in one batch
    seen, batches = _count_solves(monkeypatch)
    rep = strip_spectrum(laplacian3d, -0.5, 3.5, 4)
    squares = rep.pencil.squares
    assert len(squares) > 1 and seen == [] and len(batches) == 1
    assert len(batches[0]) == len(squares)
    assert all(np.array_equal(c, S[:, 0, 0]) for c, S in zip(batches[0], squares))


def test_full_squares_are_solved_each_once(monkeypatch):
    # the pair's blocks are not c(lam) I: each is solved once, on its own
    seen, batches = _count_solves(monkeypatch)
    rep = strip_spectrum(parse_operator(coupled_pair_doc(0.3)), -0.5, 3.5, 4)
    squares = rep.pencil.squares
    assert len(squares) > 1 and all(S.shape[1] > 1 for S in squares)
    assert len(seen) == len(squares) and all(a is b for a, b in zip(seen, squares))
    assert [len(C) for C in batches] == [0]


@pytest.mark.parametrize("doc_fn, strips, degree", [
    (lambda: laplacian_doc(3), [(-0.5, 3.5), (0.5, 2.5)], 4),
    (dbar_doc, [(-1.5, 2.5), (0.5, 3.5)], 6),
], ids=["laplacian3d", "dbar2d"])
def test_strips_of_one_operator_and_degree_share_one_pencil(monkeypatch, doc_fn, strips,
                                                            degree):
    # a second strip of the same (operator, degree), parsed anew, is solved on
    # the first strip's pencil: one assembly and one eigensolve for both
    assembled = []
    assemble = pencil._assemble
    monkeypatch.setattr(pencil, "_assemble",
                        lambda *args: assembled.append(args) or assemble(*args))
    seen, batches = _count_solves(monkeypatch)
    first = strip_spectrum(parse_operator(doc_fn()), *strips[0], degree)
    solves = (len(seen), len(batches))
    second = strip_spectrum(parse_operator(doc_fn()), *strips[1], degree)
    assert second.pencil is first.pencil and len(assembled) == 1
    assert (len(seen), len(batches)) == solves and second.eigenpoints


@pytest.mark.parametrize("doc_fn", [dbar_doc, cr_system_doc, drift_doc],
                         ids=lambda f: f.__name__)
def test_each_candidate_is_certified_once_across_overlapping_strips(monkeypatch, doc_fn):
    # two overlapping strips of one kept pencil: the first certifies its
    # own candidates, the second only those of clusters the first did not
    # remember, here those outside the first's band, so the stacked SVDs
    # take each candidate of the union once.  The second chains only the
    # clusters the first did not
    op = parse_operator(doc_fn())
    P = assemble_pencil(op, default_l_max(op, 4), analysis_degree=4)
    im, edge = P.eigenvalues.imag, spectrum._CLUSTER_RADIUS

    def band(b1, b2):
        return (b1 - edge < im) & (im < b2 + edge)

    first, second = (-0.9, 1.9), (0.6, 3.4)
    assert (band(*first) & band(*second)).any() and (band(*second) & ~band(*first)).any()
    certified, chained = [], []
    stacked, chain = spectrum._stacked, spectrum.jordan_chains
    # the certification SVDs' candidates, one point each (det reads stack circles)
    monkeypatch.setattr(spectrum, "_stacked", lambda fn, B, points, size: (
        np.ndim(points) == 1 and certified.extend(points.tolist())) or stacked(fn, B, points, size))
    monkeypatch.setattr(spectrum, "jordan_chains", lambda P, clusters:
                        chained.append(list(clusters)) or chain(P, clusters))
    one = spectrum.strip_eigenpoints(P, *first)
    assert certified == P.eigenvalues[band(*first)].tolist()
    two = spectrum.strip_eigenpoints(P, *second)
    assert certified == P.eigenvalues[band(*first)].tolist() + \
        P.eigenvalues[band(*second) & ~band(*first)].tolist()
    # a cluster both strips pick keeps its eigenpoint
    shared = [ep for ep in two if any(ep is e for e in one)]
    assert shared and len(chained) == 2
    assert len(chained[1]) == len(two) - len(shared)
    assert not set(chained[0]) & set(chained[1])


def test_a_remembered_eigenpoint_is_read_only(dbar2d):
    P = assemble_pencil(dbar2d, default_l_max(dbar2d, 6), analysis_degree=6)
    points = spectrum.strip_eigenpoints(P, -1.5, 2.5)
    assert all(a is b for a, b in zip(P.points.values(), points, strict=True))
    for ep in points:
        with pytest.raises(ValueError, match="read-only"):
            ep.chains[0][0][0] = 1.0
        with pytest.raises(FrozenInstanceError):
            ep.lambda0 = 0j
    again = spectrum.strip_eigenpoints(P, -1.5, 2.5)
    assert all(a is b for a, b in zip(again, points, strict=True))


def test_a_failed_chain_is_not_remembered(monkeypatch, cr_system2d):
    # a det order one too high refuses the strip and leaves no eigenpoint
    # behind; the strip then answers on the same kept pencil
    P = assemble_pencil(cr_system2d, default_l_max(cr_system2d, 4), analysis_degree=4)
    true_order = spectrum.det_vanishing_order
    with monkeypatch.context() as m:
        m.setattr(spectrum, "det_vanishing_order",
                  lambda *args: true_order(*args) + 1)
        with pytest.raises(MultiplicityMismatch, match="chain count"):
            spectrum.strip_eigenpoints(P, -0.5, 1.5)
    assert P.points == {}
    points = spectrum.strip_eigenpoints(P, -0.5, 1.5)
    assert [ep.algebraic for ep in points] == [2, 2]
    assert all(a is b for a, b in zip(P.points.values(), points, strict=True))


def test_a_kept_pencil_holds_one_eigenpoint_per_point():
    # laplacian3d at degree 4 on three overlapping strips in one process:
    # lines 0-3, 2-4 and -1-1 are six points, each a cluster of P, chained
    # once and remembered under its number whichever strips pick it.  Each
    # report equals the strip's on no kept pencil
    op = parse_operator(json.loads((OPERATORS / "laplacian3d.json").read_text()))
    strips = [(-0.49, 3.49), (1.51, 4.49), (-1.49, 1.49)]
    cold = []
    for strip in strips:
        pencil._pencils.clear()
        cold.append(strip_spectrum(op, *strip, 4).to_json())
    pencil._pencils.clear()
    reports = [strip_spectrum(op, *strip, 4) for strip in strips]
    assert [rep.to_json() for rep in reports] == cold
    P = reports[0].pencil
    assert all(rep.pencil is P for rep in reports)
    centres = P.clusters[1]
    lines = {round(ep.lambda0.imag): ep for rep in reports for ep in rep.eigenpoints}
    assert sorted(lines) == [-1, 0, 1, 2, 3, 4] and len(P.points) == 6
    assert all(P.points[c] is lines[round(centres[c].imag)] for c in P.points)
    three = [ep for rep in reports[:2] for ep in rep.eigenpoints if abs(ep.lambda0 - 3j) < 1e-6]
    assert len(three) == 2 and three[0] is three[1]


@pytest.mark.parametrize("doc_fn", [lambda: laplacian_doc(3), dbar_doc, cr_system_doc],
                         ids=["laplacian3d", "dbar2d", "cr_system2d"])
def test_a_remembered_strip_does_no_partition_work(monkeypatch, doc_fn):
    # a strip inside one already solved on a kept pencil picks remembered
    # clusters only: no clustering, isolation or chaining runs
    op = parse_operator(doc_fn())
    P = assemble_pencil(op, default_l_max(op, 4), analysis_degree=4)
    wide = spectrum.strip_eigenpoints(P, -1.5, 3.5)
    calls = []
    for module, name in ((spectrum, "jordan_chains"), (spectrum, "_isolation"),
                         (pencil, "component_labels")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=fn, _n=name, **kw:
                            calls.append(_n) or _f(*a, **kw))
    narrow = spectrum.strip_eigenpoints(P, -0.5, 2.5)
    assert calls == [] and narrow
    assert all(any(ep is e for e in wide) for ep in narrow)


@pytest.mark.parametrize("doc_fn", [lambda: laplacian_doc(3), dbar_doc, cr_system_doc],
                         ids=["laplacian3d", "dbar2d", "cr_system2d"])
def test_a_remembered_strip_reads_no_degree_masses(monkeypatch, doc_fn):
    # the tail-mass refusal of a strip whose clusters are all remembered
    # reads the verdict each eigenpoint stores
    op = parse_operator(doc_fn())
    calls = []
    masses = spectrum._degree_masses
    monkeypatch.setattr(spectrum, "_degree_masses",
                        lambda *a: calls.append(1) or masses(*a))
    wide = strip_spectrum(op, -1.5, 3.5, 4)
    assert calls == [1]
    narrow = strip_spectrum(op, -0.5, 2.5, 4)
    assert calls == [1] and narrow.eigenpoints
    assert all(any(ep is e for e in wide.eigenpoints) for ep in narrow.eigenpoints)


# ---------------------------------------------------------------------------
# biorthogonal chains
# ---------------------------------------------------------------------------

def test_biorth_simple(laplacian3d):
    P = assemble_pencil(laplacian3d, 4)
    P_adj = assemble_pencil(formal_adjoint(laplacian3d), 4)
    ep = chains_at(P, 2j)
    ac = biorthogonalize(P, P_adj, ep)
    assert ac.biorth_residual < 1e-8
    assert ac.chain_residual < 1e-8
    assert ac.lambda0 == np.conj(ep.lambda0)


def test_biorth_double(laplacian2d):
    P = assemble_pencil(laplacian2d, 4)
    P_adj = assemble_pencil(formal_adjoint(laplacian2d), 4)
    ep = chains_at(P, 2j)
    ac = biorthogonalize(P, P_adj, ep)
    assert ac.biorth_residual < 1e-8


def test_biorth_unitary_invariance(laplacian2d):
    # conjugating the pencil by a unitary leaves the pairing residual intact
    P = assemble_pencil(laplacian2d, 3)
    P_adj = assemble_pencil(formal_adjoint(laplacian2d), 3)
    ep = chains_at(P, 2j)
    ac = biorthogonalize(P, P_adj, ep)

    rng = np.random.default_rng(3)
    X = rng.standard_normal((P.size, P.size)) + 1j * rng.standard_normal((P.size, P.size))
    U, _ = np.linalg.qr(X)
    # the rotation mixes every degree block; bandwidth 0 keeps all columns
    assert P.bandwidth == P_adj.bandwidth == 0
    P2 = replace(P, B=U @ P.B @ U.conj().T)
    P2a = replace(P_adj, B=U @ P_adj.B @ U.conj().T)
    assert len(P2.squares) == 1
    ep2 = chains_at(P2, 2j)
    ac2 = biorthogonalize(P2, P2a, ep2)
    assert abs(ac2.biorth_residual - ac.biorth_residual) < 1e-10


def test_biorth_mismatched_adjoint_rejected(laplacian3d, dbar2d):
    P = assemble_pencil(laplacian3d, 3)
    P_bad = assemble_pencil(dbar2d, 3)
    ep = chains_at(P, 2j)
    with pytest.raises(ValueError):
        biorthogonalize(P, P_bad, ep)


# ---------------------------------------------------------------------------
# power solutions
# ---------------------------------------------------------------------------

def test_power_solutions_simple(laplacian3d):
    P = assemble_pencil(laplacian3d, 3)
    ep = chains_at(P, 2j)
    sols = power_solutions(ep)
    assert len(sols) == ep.algebraic == 1
    assert len(sols[0].coeffs) == 1  # no polynomial part


def test_power_solutions_chain(laplacian2d):
    P = assemble_pencil(laplacian2d, 3)
    ep = chains_at(P, 2j)
    sols = power_solutions(ep)
    assert len(sols) == 2
    degrees = sorted(len(s.coeffs) for s in sols)
    assert degrees == [1, 2]  # phi_0 and phi_1 + it phi_0


# ---------------------------------------------------------------------------
# strips
# ---------------------------------------------------------------------------

def test_strip_laplacian3d(laplacian3d):
    rep = strip_spectrum(laplacian3d, -0.5, 3.5, 6)
    lines = {round(l, 6): m for l, m in rep.res_lines.items()}
    assert lines == {0.0: 5, 1.0: 3, 2.0: 1, 3.0: 1}
    assert rep.total_multiplicity() == 10
    assert rep.to_json()["x_sigma_dim"] == 10


def test_strip_dbar(dbar2d):
    rep = strip_spectrum(dbar2d, -2.5, 2.5, 6)
    lines = {round(l, 6): m for l, m in rep.res_lines.items()}
    assert lines == {-2.0: 1, -1.0: 1, 0.0: 1, 1.0: 1, 2.0: 1}


def test_strip_empty(laplacian3d):
    rep = strip_spectrum(laplacian3d, 2.25, 2.75, 4)
    assert rep.eigenpoints == []
    assert rep.res_lines == {}


def test_strip_refuses_boundary(laplacian3d):
    with pytest.raises(RefuseBoundary):
        strip_spectrum(laplacian3d, 0.5, 3.0 + 1e-9, 4)


def _diagonal_pencil(vals):
    """lam I - diag(vals): one degree-0 component per value, each block the
    1 x 1 scalar lam - v, so P.roots are `vals` in their order."""
    k = len(vals)
    P = PencilMatrices(B=np.array([-np.diag(vals), np.eye(k)], dtype=complex),
                       degrees=np.array([0]), k=k, n=3, mu=(1,) * k, nu=(0,) * k,
                       l_max=0, analysis_degree=0, bandwidth=0)
    assert P.roots[0].tolist() == list(vals)
    return P


def test_cluster_links_interleaved_copies():
    # copies of a and b sorted by (Im, Re) interleave; both still form one
    # cluster each, numbered by centre in (Im, Re) order: a's centre lies
    # 3.3e-8 above 2.5, b's 2.5e-7, so a's is first
    a, b = 2.5j + 0.3, 2.5j - 0.3
    vals = [a + 4e-7j, b, a, b + 5e-7j, a - 3e-7j]
    label, centres = _diagonal_pencil(vals).clusters
    assert label.tolist() == [0, 1, 0, 1, 0]
    assert centres.tolist() == [np.mean([a + 4e-7j, a, a - 3e-7j]), np.mean([b, b + 5e-7j])]


def test_cluster_radius():
    vals = [2j, 2j + 1e-9, 1j, 1.0 + 1j]
    label, centres = _diagonal_pencil(vals).clusters
    assert label.tolist() == [2, 2, 0, 1]
    assert centres.tolist() == [1j, 1.0 + 1j, np.mean(vals[:2])]


def test_a_cluster_wider_than_the_radius_is_chained_whole():
    # four simple values 0.9e-6 apart link into one cluster 2.7e-6 wide.
    # Its outer members lie 1.35e-6 from its centre, beyond the cluster
    # radius, yet they carry its label: each of the four 1 x 1 owners is
    # read at its own member, and the one eigenpoint holds all four
    P = _diagonal_pencil([1j + 0.9e-6 * s for s in range(4)])
    (ep,) = spectrum.strip_eigenpoints(P, 0.5, 1.5)
    assert ep.lambda0 == pytest.approx(1j + 1.35e-6, abs=1e-15)
    assert ep.partial_multiplicities == [1, 1, 1, 1] and ep.det_order == 4


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_adjoint_spectrum_reflection(inverse_square3d):
    # spec(pencil of A*) == conj(spec(pencil of A)) + i(n+m) pointwise
    P = assemble_pencil(inverse_square3d, 4)
    P_adj = assemble_pencil(formal_adjoint(inverse_square3d), 4)
    shift = 1j * (P.n + P.m)
    va = sorted(solve_pencil_eigenvalues(P), key=lambda z: (z.imag, z.real))
    vb = solve_pencil_eigenvalues(P_adj)
    for v in va:
        target = np.conj(v) + shift
        assert min(abs(target - w) for w in vb) < 1e-7


def test_selfadjoint_symmetry_lines(inverse_square3d):
    rep = strip_spectrum(inverse_square3d, -1.5, 6.5, 5)
    center = (3 + 2) / 2.0
    lines = sorted(rep.res_lines.items())
    for line, mult in lines:
        mirrored = 2 * center - line
        partner = [m for l, m in lines if abs(l - mirrored) < 1e-6]
        assert partner and partner[0] == mult


def test_wedge_monotone_smoke(laplacian3d, dbar2d):
    # max |Re lambda| grows at most linearly with strip height (here: zero)
    for op in (laplacian3d, dbar2d):
        P = assemble_pencil(op, 6)
        vals = solve_pencil_eigenvalues(P)
        heights = [1.0, 2.0, 4.0, 8.0]
        widths = []
        for h in heights:
            sel = [abs(v.real) for v in vals if abs(v.imag) <= h]
            widths.append(max(sel) if sel else 0.0)
        assert all(b >= a - 1e-12 for a, b in zip(widths, widths[1:]))
        assert widths[-1] <= 1.0 * heights[-1] + 1.0


def test_center_line_even_multiplicity(laplacian2d):
    # formally self-adjoint with the center line (n+m)/2 = 2 occupied:
    # its total algebraic multiplicity must be even
    rep = strip_spectrum(laplacian2d, -0.5, 2.5, 5)
    center = [m for l, m in rep.res_lines.items() if abs(l - 2.0) < 1e-6]
    assert center and center[0] % 2 == 0


def test_coupled_perturbation_split_lines():
    # the (x_1/r) r^-2 term couples adjacent degrees and splits each
    # unperturbed line into nearby distinct lines; chains at the split
    # eigenvalues must not absorb their close neighbours
    from conftest import drift_doc
    op = parse_operator(drift_doc())
    rep = strip_spectrum(op, 0.6, 2.4, 4)
    # the l=1 lower triplet splits into 0.9919 (mult 1) + 1.0042 (mult 2)
    # and the l=0 line moves from 2 to 2.0429: total multiplicity 4
    assert rep.total_multiplicity() == 4
    assert len(rep.res_lines) == 3
    for ep in rep.eigenpoints:
        assert ep.algebraic == ep.det_order
        assert max(ep.residuals) < 1e-8
    # the adjoint reflection holds for the coupled operator as well
    from oppencil.index_ledger import adjoint_res_check
    adj = formal_adjoint(op)
    rep_adj = strip_spectrum(adj, 5 - 2.4, 5 - 0.6, 4)
    chk = adjoint_res_check(rep.res_lines, rep_adj.res_lines, 3, 2)
    assert chk.passed, chk.failures


@pytest.mark.parametrize("eps", [s * e for e in (0.3, 0.35, 0.4, 0.45, 0.5)
                                 for s in (1, -1)])
@pytest.mark.parametrize("beta2", [3.5, 4.5])
def test_drift_keeps_top_mode_lines(eps, beta2):
    # a mode-2 eigenvector of the drift carries ~1e-3 of its mass at degree
    # 3; it must stay, so the strip total is that of the Laplacian on R^3,
    # lines 2 - l and 3 + l of multiplicity 2l + 1 (half-integer edges: the
    # drift moves no line across one)
    rep = strip_spectrum(parse_operator(drift_doc(eps)), -0.5, beta2, 2)
    want = sum(harmonic_dim(3, l) for l in range(20) for line in (2 - l, 3 + l)
               if -0.5 < line < beta2)
    assert want == {3.5: 10, 4.5: 13}[beta2]
    assert rep.total_multiplicity() == want


@pytest.mark.parametrize("strip", [(-0.5, 3.5), (0.4, 4.6), (0.4, 2.3)])
def test_dipole_degree_two_has_the_degree_four_lines(strip):
    op = parse_operator(json.loads((OPERATORS / "dipole_laplacian3d.json").read_text()))

    def lines(degree):
        rep = strip_spectrum(op, *strip, degree)
        return {round(line, 8): mult for line, mult in rep.res_lines.items()}

    assert lines(2) == lines(4)


def test_an_order_read_one_too_high_is_refused_by_the_chain_count(monkeypatch):
    # the R^3 drift (eps = 0.05) at degree 2 near -1i: with each owner's
    # det order made to read one more than it is, the local reduction
    # extends no leading vector at the point (per unit leading vector, no
    # stack meets its next equation under the rank cut), so the count
    # refuses
    op = parse_operator(drift_doc(0.05))
    P = assemble_pencil(op, default_l_max(op, 2), analysis_degree=2)
    true_order = spectrum.det_vanishing_order
    monkeypatch.setattr(spectrum, "det_vanishing_order",
                        lambda P, lam0, radius, square:
                        true_order(P, lam0, radius, square) + 1)
    with pytest.raises(MultiplicityMismatch,
                       match=r"chain count 1 != det root order 2 at \(.*-1\.0000\d*j\)"):
        spectrum.strip_eigenpoints(P, -1.5, 2.5)


@pytest.mark.parametrize("off, refused", [(0.5, False), (1.5, True)])
def test_chain_failing_its_equations_refused(off, refused):
    # lam - A on two coupled degree-0 components, A = [[1, 0.1], [0.1, -1]]:
    # a full 2 x 2 owner whose largest singular value near the root
    # sqrt(1.01) is 1.8 times the chain scale.  Read `off` 1e-8 scales off
    # the root (its cluster's centre moved there), the null vector is under the rank cut (1e-8 of the largest
    # singular value) but misses its equation by `off` 1e-8 of the scale:
    # 1.5e-8 is refused, 5e-9 is not
    A = np.array([[1.0, 0.1], [0.1, -1.0]])
    P = PencilMatrices(B=np.array([-A, np.eye(2)], dtype=complex), degrees=np.array([0]),
                       k=2, n=3, mu=(1, 1), nu=(0, 0), l_max=0, analysis_degree=0,
                       bandwidth=0)
    root = P.eigenvalues[np.argmax(P.eigenvalues.real)]
    assert P.scalars[0].tolist() == [-1] and abs(root - math.sqrt(1.01)) < 1e-15
    scale = _chain_scale(P, root)
    assert np.linalg.norm(taylor(P.B, root)[0], 2) / scale == pytest.approx(20 / 11)
    P, cluster = _moved_centre(P, root, root + off * 1e-8 * scale)
    if refused:
        with pytest.raises(MultiplicityMismatch, match=r"chain residual 1\.500e-08 > 1e-08"):
            jordan_chains(P, [cluster])
    else:
        (ep,) = jordan_chains(P, [cluster])
        assert ep.partial_multiplicities == [1]
        assert ep.residuals == [pytest.approx(5e-9, rel=1e-6)]


def test_det_read_is_the_taylor_order_where_a_floored_circle_holds_two_roots():
    # the R^3 drift (eps = 0.05) at degree 2 near -1i: an owner that shares
    # a point is read on a circle floored at radius 1e-5, which holds two
    # of its square's roots.  The FFT read is the Taylor order at the
    # centre, 1, which the chains need, not the count of roots in the disc
    op = parse_operator(drift_doc(0.05))
    P = assemble_pencil(op, default_l_max(op, 2), analysis_degree=2)
    band = (-1.5 - spectrum._CLUSTER_RADIUS, 2.5 + spectrum._CLUSTER_RADIUS)
    in_strip = solve_pencil_eigenvalues(P, band)
    label, centres = P.clusters
    im = P.eigenvalues.imag
    clusters = np.unique(label[(band[0] < im) & (im < band[1])])
    isolation = spectrum._isolation(centres[clusters], np.concatenate([centres, P.eigenvalues]))
    _, square, centre, rad = spectrum._owner_circles(
        P, clusters, centres[clusters], spectrum._det_radius(isolation))
    roots, of = P.roots
    count = ((np.abs(roots - centre[:, None]) < rad[:, None])
             & (of == square[:, None])).sum(axis=1)
    order = det_vanishing_order(P, centre, rad, square)
    two = count == 2
    assert len(count) == 16 and two.sum() == 6
    assert np.all(rad[two] == 1e-5) and np.all(abs(centre[two] + 1j) < 1e-5)
    assert order[two].tolist() == [1] * 6
    assert sum(ep.algebraic for ep in spectrum.strip_eigenpoints(P, -1.5, 2.5)) == len(in_strip)


@pytest.mark.parametrize("argv", [
    ["res", "laplacian3d.json", "--strip", "-0.5", "3.5", "--degree", "2"],
    ["model-solve", "laplacian2d.json", "--mode", "2", "--beta1", "-1", "--beta2", "5"],
], ids=["res", "model-solve"])
def test_dropped_cluster_breaks_the_count(argv, monkeypatch, capsys):
    # the eigenpoints must hold every eigenvalue the eigensolve put in the
    # strip (laplacian3d: lines 0, 1, 2, 3; laplacian2d mode 2: poles 0, 4i).
    # The members of one line (laplacian3d: 2, laplacian2d: 0) are labelled
    # with the next line's cluster, which one scalar owns with them (l = 0:
    # lines 2 and 3; mode 2: poles 0 and 4i).  The sole owner is read on
    # the next centre's circle alone, so no eigenpoint holds the dropped
    # line's eigenvalues
    clusters = PencilMatrices.clusters.func
    dropped = {"res": 2j, "model-solve": 0j}[argv[0]]

    def dropping(P):
        label, centres = clusters(P)
        line = int(np.argmin(np.abs(centres - dropped)))
        return np.where(label == line, line + 1, label), centres

    monkeypatch.setattr(PencilMatrices, "clusters", property(dropping))
    assert main([argv[0], str(OPERATORS / argv[1]), *argv[2:]]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical guard: eigenpoints hold ")


# ---------------------------------------------------------------------------
# strips whose lines need a higher degree are refused
# ---------------------------------------------------------------------------

def _res_csv(name, strip, degree, capsys):
    code = main(["res", str(OPERATORS / name), "--strip", *map(str, strip),
                 "--degree", str(degree), "--format", "csv"])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


def test_multiplicity_above_32_answers_its_closed_form(capsys):
    # mode 16's line 19 holds 2 * 16 + 1 = 33 eigenvalues, read on 256 nodes
    code, out, err = _res_csv("laplacian3d.json", (18.5, 19.5), 16, capsys)
    assert (code, out, err) == (0, "line,multiplicity\n19,33\n", "")


@pytest.mark.parametrize("degree", [2, 4])
def test_anisotropic_degree_two_has_the_degree_four_lines(degree, capsys):
    # the pairs +-0.0099 + 2i and +-0.0063 + 1.00007i are two simple
    # eigenvalues each, one line of multiplicity 2; each eigenpoint's null
    # width is its det order, so no chain extends it
    code, out, err = _res_csv("anisotropic2d.json", (0.4, 2.3), degree, capsys)
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert (code, err) == (0, "")
    assert [(float(line), int(mult)) for line, mult in rows] == \
        [(pytest.approx(1.0000716268, abs=1e-8), 2), (pytest.approx(2.0, abs=2e-8), 2)]
    code = main(["index", str(OPERATORS / "anisotropic2d.json"), "--anchor",
                 "selfadjoint", "--window", "0.4", "2.3", "--degree", str(degree)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert [c["index"] for c in json.loads(out)["components"]] == [3, 1, -1]


def _named_degree(err):
    assert err.startswith("numerical guard: ")
    return int(re.fullmatch(r".*raise --degree to >= (\d+)\n", err, re.S).group(1))


def test_line_above_the_degree_refused(capsys):
    # line 6 is mode 3's (multiplicity 7): degree 2 assembles it, but it
    # is not a degree-2 line, so the strip total would come out short
    code, out, err = _res_csv("laplacian3d.json", (-0.5, 6.5), 2, capsys)
    assert (code, out, _named_degree(err)) == (3, "", 3)
    code, out, err = _res_csv("laplacian3d.json", (-0.5, 6.5), 3, capsys)
    assert code == 0
    assert out.splitlines()[-1] == "6,7"


@pytest.mark.parametrize("name, mult", [("dbar2d.json", 1), ("cr_system2d.json", 2)])
def test_named_degrees_lead_to_the_answer(name, mult, capsys):
    # every integer in [0, 7] is a line; each refusal names a higher
    # degree, and the last one answers
    degree, named = 2, []
    while True:
        code, out, err = _res_csv(name, (-0.5, 7.5), degree, capsys)
        if code == 0:
            break
        assert (code, out) == (3, "")
        named.append(_named_degree(err))
        assert named[-1] > degree
        degree = named[-1]
    assert named == [5, 6]
    assert out == "line,multiplicity\n" + "".join(f"{l},{mult}\n" for l in range(8))


def _x1_squared_d1_squared_doc():
    """-Delta + x1^2 r^-2 D1^2 on R^2 (elliptic, bandwidth > 0)."""
    doc = laplacian_doc(2)
    doc["entries"][0]["terms"].append(
        {"alpha": [2, 0], "radial_exponent": -2.0, "poly": {"2 0": [1.0, 0.0]}})
    return doc


def _symmetrized_anisotropic_doc():
    """(A + A*)/2 for A = -Delta + x1^2 r^-2 D1^2 + 0.7 x1 x2 r^-2 D2^2
    + 0.3 x2^2 r^-2 D1 D2 on R^2."""
    doc = laplacian_doc(2)
    doc["entries"][0]["terms"] += [
        {"alpha": alpha, "radial_exponent": -2.0, "poly": {mono: [c, 0.0]}}
        for alpha, mono, c in (([2, 0], "2 0", 1.0), ([0, 2], "1 1", 0.7),
                               ([1, 1], "0 2", 0.3))]
    return symmetrized_doc(doc)


@pytest.mark.parametrize("beta0, code, ledger", [
    # the centre line 2 prints at 2.000000131898936: an anchor nearer to it
    # than the cluster radius cannot tell which side it is on
    ("2.00000005", 3, None),
    ("2.25", 0, [1, -1])])
def test_user_anchor_within_the_cluster_radius_of_a_line_refuses(beta0, code, ledger,
                                                                 tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(_symmetrized_anisotropic_doc()))
    got = main(["index", str(path), "--anchor", f"user:beta0={beta0},index=-1",
                "--window", "1.5", "2.5", "--degree", "14"])
    out, err = capsys.readouterr()
    assert got == code, err
    if ledger is None:
        assert err.startswith("numerical guard: anchor beta0 = 2.00000005 sits on a")
    else:
        assert [c["index"] for c in json.loads(out)["components"]] == ledger


@pytest.mark.parametrize("doc_fn, strip, degree, failed", [
    # lines 1 and 2 certify; candidates at Im 1.842, 2.817 and 2.872 do not
    # (ratios 4e-8 to 6e-6, falling with the degree): unresolved lines
    (_x1_squared_d1_squared_doc, (0.5, 3.5), 4, "3 of 6"),
    # no candidate certifies, at any of degrees 2, 4 and 6 (the blocks'
    # squares hold 15 candidates at degree 4)
    (_symmetrized_anisotropic_doc, (-3.5, 3.5), 2, "14 of 14"),
    (_symmetrized_anisotropic_doc, (-3.5, 3.5), 4, "15 of 15"),
    (_symmetrized_anisotropic_doc, (-3.5, 3.5), 6, "14 of 14"),
])
def test_uncertified_candidates_refuse_the_strip(doc_fn, strip, degree, failed, tmp_path,
                                                 capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc_fn()))
    code = main(["res", str(path), "--strip", *map(str, strip), "--degree", str(degree)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == (f"numerical guard: {failed} eigenvalues in {strip} fail "
                   "certification at this degree; raise --degree\n")


# ---------------------------------------------------------------------------
# closed forms for -Delta + c r^-2
# ---------------------------------------------------------------------------

def inverse_square_lines(n, c, beta1, beta2, degree):
    """Critical lines of -Delta + c r^-2 on R^n from the mode quadratic.

    On degree-l harmonics the pencil is c - a(a + n - 2 + 2l), a = i lam + 2
    - l, so Im lam = (n+2)/2 -+ Re sqrt(D_l), D_l = (l + (n-2)/2)^2 + c; a
    complex pair sits on the centre line.  Each root carries the dimension
    of the degree-l harmonics (Kozlov, Maz'ya and Rossmann, Spectral
    Problems Associated with Corner Singularities, AMS 2001).
    """
    lines = Counter()
    for l in range(degree + 1):
        dim = harmonic_dim(n, l)
        disc = (l + (n - 2) / 2) ** 2 + c
        root = math.sqrt(abs(disc)) if disc > 0 else 0.0
        for line in ((n + 2) / 2 - root, (n + 2) / 2 + root):
            if beta1 <= line <= beta2:
                lines[round(line, 6)] += dim
    return dict(lines)


def _inverse_square_op(n, c):
    doc = laplacian_doc(n)
    doc["entries"][0]["terms"].append(
        {"alpha": [0] * n, "radial_exponent": -2.0,
         "poly": {" ".join(["0"] * n): [c, 0.0]}})
    return parse_operator(doc)


@pytest.mark.parametrize("n,c,beta1,beta2,degree,centre", [
    (3, -3.0, 0.5, 4.5, 4, 8),
    (3, -4.0, 0.5, 4.5, 4, 8),
    (3, -7.0, -2.0, 5.5, 4, 18),
    (2, -6.5, 0.1, 3.9, 6, 10),
    (2, -7.38, 0.1, 3.9, 6, 10),
    (2, -8.0, 0.1, 3.9, 6, 10),
])
def test_complex_modes_closed_form_multiplicity(n, c, beta1, beta2, degree, centre):
    # complex pairs lam = i(n+2)/2 +- tau_l of one line used to split into
    # several clusters and inflate the line's multiplicity
    rep = strip_spectrum(_inverse_square_op(n, c), beta1, beta2, degree)
    got = {round(line, 6): mult for line, mult in rep.res_lines.items()}
    want = inverse_square_lines(n, c, beta1, beta2, degree)
    assert want[(n + 2) / 2] == centre
    assert got == want


@pytest.mark.parametrize("doc_fn", [dbar_doc, cr_system_doc])
def test_zero_line_reported_as_zero(doc_fn):
    rep = strip_spectrum(parse_operator(doc_fn()), -0.5, 2.5, 6)
    assert 0.0 in rep.res_lines
    assert "0" in rep.to_json()["res_lines"]
    assert rep.res_lines_csv().splitlines()[1].startswith("0,")


def test_inverse_square_sweep_answers_or_names_the_degree():
    # every answer is the closed form over all modes, and every refusal
    # names a degree whose rerun gives it
    refused = 0
    for n in (2, 3):
        for c in (-7.0, -3.0, -1.2, -0.8, -0.5, 0.5, 1.5, 2.5):
            op = _inverse_square_op(n, c)
            for beta1, beta2 in ((-1.7, 2.6), (0.7, 5.2)):
                want = inverse_square_lines(n, c, beta1, beta2, 40)
                for degree in (2, 4):
                    try:
                        rep = strip_spectrum(op, beta1, beta2, degree)
                    except UnstableSpectrum as exc:
                        refused += 1
                        named = int(re.fullmatch(r".*raise --degree to >= (\d+)",
                                                 str(exc)).group(1))
                        assert named > degree
                        rep = strip_spectrum(op, beta1, beta2, named)
                    got = {round(line, 6): mult for line, mult in rep.res_lines.items()}
                    assert got == want, (n, c, beta1, beta2, degree)
    assert refused >= 8


@pytest.mark.parametrize("c, want", [
    (-0.25 + 1e-9, {1.085786: 3, 2.499968: 1, 2.500032: 1}),
    (-2.25 + 1e-9, {2.499968: 3, 2.5: 2, 2.500032: 3}),
    (-2.25 - 1e-9, {2.5: 8}),
], ids=["D0+1e-9", "D1+1e-9", "D1-1e-9"])
def test_close_simple_roots_read_their_det_order(c, want):
    # two simple roots of a scalar 6.3e-5 apart: on the det circle (radius
    # 2.8e-5) |c| is about 3e-9, so the Horner round-off at the centre is
    # above the relative cut; only the scalar's round-off floor reads it
    # as zero, not as an order-0 coefficient
    rep = strip_spectrum(_inverse_square_op(3, c), 0.6, 3.9, 2)
    got = {round(line, 6): mult for line, mult in rep.res_lines.items()}
    assert got == want == inverse_square_lines(3, c, 0.6, 3.9, 2)
