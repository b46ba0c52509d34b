"""Tests for the combinatorial index formulas and the ledger fold."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from oppencil.errors import AnchorOnBreakpoint, NoAnchor, NotApplicable, OnBreakpoint
from oppencil.index_ledger import (
    Anchor,
    adjoint_res_check,
    build_ledger,
    cc_index,
    check_anchor,
    pn,
    pn_mu_nu,
)
from oppencil.spectrum import strip_spectrum
from oracles import index_at, special_index


def count_monomials_oracle(n, l):
    """Brute-force count of monomials in n variables of degree <= l."""
    if l < 0:
        return 0
    count = 0

    def rec(vars_left, deg_left):
        nonlocal count
        if vars_left == 0:
            count += 1
            return
        for d in range(deg_left + 1):
            rec(vars_left - 1, deg_left - d)

    rec(n, l)
    return count


# ---------------------------------------------------------------------------
# pn / pn_mu_nu
# ---------------------------------------------------------------------------

def test_pn_examples():
    assert pn(2, 1.0) == 3          # {1, x, y}
    assert pn(3, -0.5) == 0
    assert pn(3, 2.9) == pn(3, 2) == 10


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(-3, 8))
def test_pn_monomial_oracle(n, l):
    assert pn(n, float(l)) == count_monomials_oracle(n, l)


def test_pn_mu_nu_examples():
    assert pn_mu_nu(3, (2,), (0,), 3.5) == -1
    assert pn_mu_nu(3, (2,), (0,), 2.5) == 0
    for l in range(4):
        assert pn_mu_nu(2, (1,), (0,), l + 0.5) == 1 - l


@settings(max_examples=50, deadline=None)
@given(st.floats(-6, 8), st.floats(0.001, 0.999))
def test_pn_mu_nu_constant_on_components(base, frac):
    # constant on each component of R minus the integers
    import math as _m
    l = _m.floor(base)
    b1, b2 = l + 0.25, l + 0.75
    assert pn_mu_nu(3, (2, 1), (0, 0), b1) == pn_mu_nu(3, (2, 1), (0, 0), b2)
    assert pn_mu_nu(2, (1,), (0,), l + frac) == pn_mu_nu(2, (1,), (0,), l + 0.5)


# ---------------------------------------------------------------------------
# special_index and ccindex
# ---------------------------------------------------------------------------

def test_special_index_examples():
    assert special_index(3, 1, 2, 4.5) == -4
    assert special_index(2, 1, 1, 0.5) == 1


def test_special_matches_pn_mu_nu_sweep():
    for n in (2, 3):
        for m in (1, 2):
            for k in (1, 2):
                mu, nu = (m,) * k, (0,) * k
                b = -4.0 + 0.5
                while b < 6:
                    assert special_index(n, k, m, b) == pn_mu_nu(n, mu, nu, b), (n, m, k, b)
                    b += 1.0


def test_cc_index_laplacian(laplacian3d):
    assert cc_index(laplacian3d, 1.5) == 1
    assert cc_index(laplacian3d, 3.5) == -1
    assert cc_index(laplacian3d, 2.5) == 0


def test_cc_index_on_breakpoint(laplacian3d):
    with pytest.raises(OnBreakpoint):
        cc_index(laplacian3d, 2.0 + 1e-12)


def test_cc_index_not_applicable(inverse_square3d):
    with pytest.raises(NotApplicable):
        cc_index(inverse_square3d, 2.5)


def test_cc_index_with_admissible_perturbation():
    # a declared perturbation keeps the principal part homogeneous cc
    from conftest import laplacian_doc
    from oppencil.operator_ast import parse_operator
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["perturbation"] = [
        {"b": "-3/2", "c": 0, "poly": {"0 0 0": [1.0, 0.0]}}]
    op = parse_operator(doc)
    assert cc_index(op, 1.5) == 1


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lap3_report():
    from oppencil.operator_ast import parse_operator
    from conftest import laplacian_doc
    return strip_spectrum(parse_operator(laplacian_doc(3)), 0.4, 4.6, 6)


def test_ledger_cc_anchor(lap3_report):
    led = build_ledger(lap3_report, Anchor("cc", beta0=2.5))
    vals = {(round(l, 3), round(r, 3)): i for l, r, i in led.values}
    assert vals == {(0.4, 1.0): 4, (1.0, 2.0): 1, (2.0, 3.0): 0,
                    (3.0, 4.0): -1, (4.0, 4.6): -4}
    # cross-check every component against the closed form
    for l, r, i in led.values:
        assert i == cc_index(lap3_report.op, (l + r) / 2)


def test_ledger_selfadjoint_anchor(lap3_report):
    led = build_ledger(lap3_report, Anchor("selfadjoint"))
    assert led.anchor[2] == "selfadjoint"
    assert index_at(led, 2.5) == 0
    assert index_at(led, 1.5) == 1


def test_ledger_user_anchor_matches(lap3_report):
    led_cc = build_ledger(lap3_report, Anchor("cc", beta0=2.5))
    led_user = build_ledger(lap3_report, Anchor("user", beta0=2.5, index0=0))
    assert led_cc.values == led_user.values


def test_ledger_anchor_independence(lap3_report):
    a = build_ledger(lap3_report, Anchor("user", beta0=1.5, index0=1))
    b = build_ledger(lap3_report, Anchor("user", beta0=4.3, index0=-4))
    assert a.values == b.values


def test_ledger_antisymmetry_selfadjoint(lap3_report):
    led = build_ledger(lap3_report, Anchor("selfadjoint"))
    for beta in (0.7, 1.5, 2.2, 2.8, 3.5, 4.3):
        assert index_at(led, beta) + index_at(led, 5 - beta) == 0


def test_ledger_refuses_outside_window(lap3_report):
    led = build_ledger(lap3_report, Anchor("cc", beta0=2.5))
    with pytest.raises(NotApplicable):
        index_at(led, 7.0)


def test_ledger_anchor_on_breakpoint(lap3_report):
    with pytest.raises(AnchorOnBreakpoint):
        build_ledger(lap3_report, Anchor("user", beta0=2.0, index0=0))


def test_ledger_anchor_outside_window_is_guard(lap3_report):
    with pytest.raises(NoAnchor):
        build_ledger(lap3_report, Anchor("user", beta0=5.0, index0=0))


def test_ledger_selfadjoint_anchor_stays_in_window(laplacian2d):
    # the double centre line 2 with line 1 in the window: half the gap above
    # the centre (2.5) lies past the window's edge, so anchor inside it
    rep = strip_spectrum(laplacian2d, 0.4, 2.3, 6)
    assert sorted(round(line) for line in rep.res_lines) == [1, 2]
    led = build_ledger(rep, Anchor("selfadjoint"))
    assert led.anchor[:2] == (pytest.approx(2.15), -1)
    assert len(led.values) == 3
    for l, r, i in led.values:
        assert i == cc_index(laplacian2d, (l + r) / 2)


@pytest.mark.parametrize("shift", [1e-8, -1e-8, 4e-7])
def test_ledger_centre_line_within_the_cluster_radius(laplacian2d, shift):
    # a centre line read 1e-8 off (n + m)/2 at a low degree is one report
    # line with its reflection, so it still occupies the centre
    rep = strip_spectrum(laplacian2d, 0.4, 2.3, 6)
    lines = {round(line) + (shift if round(line) == 2 else 0.0): m
             for line, m in rep.res_lines.items()}
    led = build_ledger(dataclasses.replace(rep, res_lines=lines), Anchor("selfadjoint"))
    assert led.anchor[1] == -1
    for l, r, i in led.values:
        assert i == cc_index(laplacian2d, (l + r) / 2)


def test_ledger_refuses_an_odd_centre_line(laplacian2d):
    # a self-adjoint operator's centre line (n + m)/2 has even multiplicity,
    # so an odd one is not self-adjoint data and no index can be placed
    rep = strip_spectrum(laplacian2d, 0.5, 3.5, 4)
    odd = dataclasses.replace(rep, res_lines={2.0: 3})
    with pytest.raises(NoAnchor, match="odd"):
        build_ledger(odd, Anchor("selfadjoint"))


def test_cc_anchor_moves_off_an_integer_midpoint(laplacian2d):
    # with no line in (0.5, 3.5) the window's midpoint is the breakpoint 2
    # of the cc formula, so the anchor moves a quarter up instead of refusing
    rep = strip_spectrum(laplacian2d, 0.5, 3.5, 4)
    led = build_ledger(dataclasses.replace(rep, res_lines={}), Anchor("cc"))
    assert led.anchor == (2.25, cc_index(laplacian2d, 2.25), "cc")
    assert led.values == [(0.5, 3.5, led.anchor[1])]


def test_ledger_no_selfadjoint_anchor_for_dbar(dbar2d):
    with pytest.raises(NotApplicable):
        check_anchor(dbar2d, Anchor("selfadjoint"))


def test_ledger_breakpoint_jumps_match_multiplicities(lap3_report):
    led = build_ledger(lap3_report, Anchor("cc", beta0=2.5))
    mult = dict(led.breakpoints)
    for (l1, r1, i1), (l2, r2, i2) in zip(led.values, led.values[1:]):
        line = next(b for b in mult if abs(b - r1) < 1e-9)
        assert i1 - i2 == mult[line]


@pytest.mark.parametrize("shift", [0.0, 1e-15, -1e-15])
def test_cc_anchor_tie_ignores_round_off(laplacian3d, shift):
    # lines 1, 2, 3 on [0.5, 3.5]: (1, 2) and (2, 3) are equally wide, and
    # the lower one anchors, whichever round-off the middle line carries
    rep = strip_spectrum(laplacian3d, 0.5, 3.5, 4)
    mult = {round(line): m for line, m in rep.res_lines.items()}
    assert sorted(mult) == [1, 2, 3]
    lines = {1.0: mult[1], 2.0 + shift: mult[2], 3.0: mult[3]}
    led = build_ledger(dataclasses.replace(rep, res_lines=lines), Anchor("cc"))
    assert abs(led.anchor[0] - 1.5) < 1e-9
    assert led.anchor[1] == cc_index(laplacian3d, 1.5) == 1


# ---------------------------------------------------------------------------
# adjoint reflection report
# ---------------------------------------------------------------------------

def test_adjoint_res_check_matches():
    res_a = {0.0: 5, 1.0: 3, 2.0: 1, 3.0: 1}
    res_astar = {5.0: 5, 4.0: 3, 3.0: 1, 2.0: 1}
    rep = adjoint_res_check(res_a, res_astar, 3, 2)
    assert rep.passed and len(rep.matched) == 4


def test_adjoint_res_check_detects_mismatch():
    rep = adjoint_res_check({0.0: 5}, {5.0: 4}, 3, 2)
    assert not rep.passed
    assert any("multiplicity" in f for f in rep.failures)
    rep2 = adjoint_res_check({0.0: 5}, {4.5: 5}, 3, 2)
    assert not rep2.passed
