"""Shared operator documents used across the suite."""

import pytest


@pytest.fixture(autouse=True)
def _cold_pencils():
    """Each test starts with no pencil or operator document kept from an
    earlier one, so counts of parses, assemblies and block views read its
    own work."""
    from oppencil import cli, pencil
    pencil._pencils.clear()
    cli._parse_document.cache_clear()


def laplacian_doc(n):
    """-Delta = sum_i D_i^2 (D_i = -i d/dx_i), so unit coefficients."""
    terms = []
    for i in range(n):
        alpha = [0] * n
        alpha[i] = 2
        terms.append({"alpha": alpha, "radial_exponent": 0.0,
                      "poly": {" ".join(["0"] * n): [1.0, 0.0]}})
    return {"n": n, "k": 1, "mu": [2], "nu": [0],
            "entries": [{"i": 0, "j": 0, "terms": terms}]}


def dbar_doc():
    """D_1 + i D_2 on R^2 (Cauchy-Riemann type, order 1)."""
    return {"n": 2, "k": 1, "mu": [1], "nu": [0],
            "entries": [{"i": 0, "j": 0, "terms": [
                {"alpha": [1, 0], "radial_exponent": 0.0, "poly": {"0 0": [1.0, 0.0]}},
                {"alpha": [0, 1], "radial_exponent": 0.0, "poly": {"0 0": [0.0, 1.0]}},
            ]}]}


def cr_system_doc():
    """2x2 first-order elliptic system [[D1, D2], [-D2, D1]], mu=(1,1), nu=(0,0)."""
    def term(alpha, re):
        return {"alpha": alpha, "radial_exponent": 0.0, "poly": {"0 0": [re, 0.0]}}

    return {"n": 2, "k": 2, "mu": [1, 1], "nu": [0, 0],
            "entries": [
                {"i": 0, "j": 0, "terms": [term([1, 0], 1.0)]},
                {"i": 0, "j": 1, "terms": [term([0, 1], 1.0)]},
                {"i": 1, "j": 0, "terms": [term([0, 1], -1.0)]},
                {"i": 1, "j": 1, "terms": [term([1, 0], 1.0)]},
            ]}


def inverse_square_doc(c=0.25):
    """-Delta + c r^(-2) on R^3; the zeroth-order term is principal."""
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"].append(
        {"alpha": [0, 0, 0], "radial_exponent": -2.0, "poly": {"0 0 0": [c, 0.0]}})
    return doc


def coupled_pair_doc(b):
    """[[-Delta, b r^-2], [b r^-2, -Delta]] on R^3: bandwidth 0, and each
    degree block is [[c, b], [b, c]] (x) I, not c(lam) I."""
    lap = laplacian_doc(3)["entries"][0]["terms"]
    pair = [{"alpha": [0, 0, 0], "radial_exponent": -2.0, "poly": {"0 0 0": [b, 0.0]}}]
    return {"n": 3, "k": 2, "mu": [2, 2], "nu": [0, 0],
            "entries": [{"i": i, "j": j, "terms": lap if i == j else pair}
                        for i in range(2) for j in range(2)]}


def with_drift(doc, eps):
    """doc (a scalar operator on R^n) plus eps (x_1/r) r^(-2): couples
    harmonic degrees by 1."""
    n = doc["n"]
    doc["entries"][0]["terms"].append(
        {"alpha": [0] * n, "radial_exponent": -3.0,
         "poly": {" ".join(["1"] + ["0"] * (n - 1)): [eps, 0.0]}})
    return doc


def drift_doc(eps=0.5):
    """-Delta + eps (x_1/r) r^(-2) on R^3."""
    return with_drift(laplacian_doc(3), eps)


def d1d2_doc():
    """Non-elliptic D_1 D_2 on R^2."""
    return {"n": 2, "k": 1, "mu": [2], "nu": [0],
            "entries": [{"i": 0, "j": 0, "terms": [
                {"alpha": [1, 1], "radial_exponent": 0.0, "poly": {"0 0": [1.0, 0.0]}},
            ]}]}


def symmetrized_doc(doc):
    """(A + A*)/2 for the operator A of `doc` (no perturbations): the terms
    of A's canonical form and of its formal adjoint, each coefficient
    halved.  A* is the oracle's (product_rule_adjoint), so the program's
    adjoint judges a document it did not build."""
    from oppencil.operator_ast import parse_operator, serialize_operator
    from oracles import product_rule_adjoint
    op = parse_operator(doc)
    out = serialize_operator(op)
    entries = {(e["i"], e["j"]): e for e in out["entries"]}
    for e in serialize_operator(product_rule_adjoint(op))["entries"]:
        entries.setdefault((e["i"], e["j"]), dict(e, terms=[]))["terms"] += e["terms"]
    for e in entries.values():
        for t in e["terms"]:
            t["poly"] = {m: [re / 2, im / 2] for m, (re, im) in t["poly"].items()}
    out["entries"] = [entries[key] for key in sorted(entries)]
    return out


@pytest.fixture
def laplacian3d():
    from oppencil.operator_ast import parse_operator
    return parse_operator(laplacian_doc(3))


@pytest.fixture
def laplacian2d():
    from oppencil.operator_ast import parse_operator
    return parse_operator(laplacian_doc(2))


@pytest.fixture
def dbar2d():
    from oppencil.operator_ast import parse_operator
    return parse_operator(dbar_doc())


@pytest.fixture
def cr_system2d():
    from oppencil.operator_ast import parse_operator
    return parse_operator(cr_system_doc())


@pytest.fixture
def inverse_square3d():
    from oppencil.operator_ast import parse_operator
    return parse_operator(inverse_square_doc())
