"""Tests for operator parsing, ellipticity sampling, adjoints and decay checks."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    cr_system_doc,
    d1d2_doc,
    dbar_doc,
    drift_doc,
    inverse_square_doc,
    laplacian_doc,
    symmetrized_doc,
)
from oppencil.errors import BadDNOrders, OrderMismatch, SchemaError
from oppencil.operator_ast import (
    canonicalize,
    check_ellipticity,
    formal_adjoint,
    is_formally_self_adjoint,
    is_homogeneous_cc,
    parse_operator,
    principal_part,
    principal_symbol_matrix,
    serialize_operator,
)
from oppencil.radial_algebra import Expr
from oppencil.weighted_norms import check_symbol_class
from oracles import lambda_power, product_rule_adjoint

REPO = Path(__file__).resolve().parent.parent


def operators_close(a, b, tol=1e-10):
    da, db = serialize_operator(a), serialize_operator(b)
    if [e["i"] for e in da["entries"]] != [e["i"] for e in db["entries"]]:
        return False
    if [e["j"] for e in da["entries"]] != [e["j"] for e in db["entries"]]:
        return False
    for ea, eb in zip(da["entries"], db["entries"]):
        if len(ea["terms"]) != len(eb["terms"]):
            return False
        for ta, tb in zip(ea["terms"], eb["terms"]):
            if ta["alpha"] != tb["alpha"]:
                return False
            if abs(ta["radial_exponent"] - tb["radial_exponent"]) > tol:
                return False
            keys = set(ta["poly"]) | set(tb["poly"])
            for kk in keys:
                ca = complex(*ta["poly"].get(kk, [0, 0]))
                cb = complex(*tb["poly"].get(kk, [0, 0]))
                if abs(ca - cb) > tol:
                    return False
    return (da["mu"], da["nu"]) == (db["mu"], db["nu"])


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_laplacian3d():
    op = parse_operator(laplacian_doc(3))
    assert (op.n, op.k, op.mu, op.nu, op.m) == (3, 1, (2,), (0,), 2)


def test_parse_dbar():
    op = parse_operator(dbar_doc())
    assert (op.k, op.mu, op.nu, op.m) == (1, (1,), (0,), 1)


def test_parse_bad_nu():
    doc = laplacian_doc(3)
    doc["nu"] = [1]
    doc["mu"] = [3]
    with pytest.raises(BadDNOrders):
        parse_operator(doc)


def test_parse_negative_order_entry():
    doc = {"n": 2, "k": 2, "mu": [1, 0], "nu": [0, 1],
           "entries": [{"i": 1, "j": 1, "terms": [
               {"alpha": [0, 0], "radial_exponent": -1.0, "poly": {"0 0": [1.0, 0.0]}},
           ]}]}
    with pytest.raises(BadDNOrders):
        parse_operator(doc)


def test_parse_accepts_empty_negative_order_entry():
    # an entry listed without terms is zero, whatever its order
    term = {"alpha": [1, 0], "radial_exponent": 0.0, "poly": {"0 0": [1.0, 0.0]}}
    doc = {"n": 2, "k": 2, "mu": [1, 1], "nu": [0, 2],
           "entries": [{"i": 0, "j": 0, "terms": [term]},
                       {"i": 1, "j": 0, "terms": []}]}
    assert list(parse_operator(doc).entries) == [(0, 0)]
    doc["entries"][1]["terms"] = [term]
    with pytest.raises(BadDNOrders, match=r"nonzero entry \(1,0\)"):
        parse_operator(doc)


def test_parse_order_mismatch():
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["radial_exponent"] = -1.0
    with pytest.raises(OrderMismatch):
        parse_operator(doc)


def test_parse_rejects_n4():
    doc = laplacian_doc(3)
    doc["n"] = 4
    with pytest.raises(SchemaError):
        parse_operator(doc)


@pytest.mark.parametrize("text", ["{}", json.dumps(laplacian_doc(3)), b"{}"],
                         ids=["empty", "laplacian", "bytes"])
def test_parse_takes_only_a_decoded_document(text):
    with pytest.raises(SchemaError, match="must be a JSON object"):
        parse_operator(text)


def test_parse_rejects_unknown_keys():
    doc = laplacian_doc(3)
    doc["extra"] = 1
    with pytest.raises(SchemaError):
        parse_operator(doc)


def test_roundtrip_exact():
    for doc in (laplacian_doc(2), laplacian_doc(3), dbar_doc(), cr_system_doc(),
                inverse_square_doc(), drift_doc()):
        op = parse_operator(doc)
        again = parse_operator(json.loads(json.dumps(serialize_operator(op))))
        assert serialize_operator(op) == serialize_operator(again)


def test_serialization_is_row_major_in_any_entry_order(cr_system2d):
    doc = cr_system_doc()
    doc["entries"].reverse()
    op = parse_operator(doc)
    out = serialize_operator(op)
    assert [(e["i"], e["j"]) for e in out["entries"]] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert out == serialize_operator(cr_system2d)
    assert op.fingerprint() == cr_system2d.fingerprint()


# the fingerprints of operators/*.json and of their formal adjoints: a change
# to the canonical form or to its serialization moves them.  anisotropic2d
# is (A + A*)/2 with A* taken by the product rule on r^c H terms; the
# program's adjoint differentiates monomials in Expr, so three of its
# coefficients differ from the file's by under 1e-15 relative (0.05000000000000001
# prints as 0.050000000000000044) and the adjoint has its own fingerprint
FINGERPRINTS = {
    "anisotropic2d": ("c62d6c4fdd603e76", "0a57775a8c319cfd"),
    "cr_system2d": ("ca53c734949e0ffa", "2cff5421db06b1f0"),
    "dbar2d": ("0aed05bc14c0694e", "fa4a00e876d39955"),
    "dipole_laplacian3d": ("a30170d594e42c03", "a30170d594e42c03"),
    "laplacian2d": ("e0e3607e819ae55e", "e0e3607e819ae55e"),
    "laplacian3d": ("19836f0173a4b5ff", "19836f0173a4b5ff"),
    "schrodinger_inverse_square3d": ("cad6ff80ea453b65", "cad6ff80ea453b65"),
}


@pytest.mark.parametrize("path", sorted((REPO / "operators").glob("*.json")),
                         ids=lambda p: p.stem)
def test_fingerprints_are_pinned(path):
    op = parse_operator(json.loads(path.read_text()))
    assert (op.fingerprint(), formal_adjoint(op).fingerprint()) == FINGERPRINTS[path.stem]


# (homogeneous cc, formally self-adjoint) of each operators/*.json
VERDICTS = {
    "anisotropic2d": (False, True),
    "cr_system2d": (True, False),
    "dbar2d": (True, False),
    "dipole_laplacian3d": (False, True),
    "laplacian2d": (True, True),
    "laplacian3d": (True, True),
    "schrodinger_inverse_square3d": (False, True),
}


@pytest.mark.parametrize("path", sorted((REPO / "operators").glob("*.json")),
                         ids=lambda p: p.stem)
def test_anchor_verdicts_are_pinned(path):
    op = parse_operator(json.loads(path.read_text()))
    assert (is_homogeneous_cc(op), is_formally_self_adjoint(op)) == VERDICTS[path.stem]


# ---------------------------------------------------------------------------
# ellipticity
# ---------------------------------------------------------------------------

def test_ellipticity_laplacian3d(laplacian3d):
    rep = check_ellipticity(laplacian3d, xi_samples=500, x_samples=60)
    assert rep.elliptic
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-10)


def test_ellipticity_dbar(dbar2d):
    rep = check_ellipticity(dbar2d, xi_samples=500, x_samples=60)
    assert rep.elliptic and rep.min_ratio == pytest.approx(1.0, abs=1e-10)


def test_ellipticity_d1d2_fails():
    op = parse_operator(d1d2_doc())
    rep = check_ellipticity(op, xi_samples=400, x_samples=40)
    assert not rep.elliptic
    assert rep.min_ratio == pytest.approx(0.0, abs=1e-15)
    # witness xi on a coordinate axis
    assert min(abs(abs(rep.witness[1][0]) - 1.0), abs(abs(rep.witness[1][1]) - 1.0)) < 1e-12


def test_ellipticity_cr_system(cr_system2d):
    rep = check_ellipticity(cr_system2d, xi_samples=400, x_samples=40)
    assert rep.elliptic
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-10)


def test_ellipticity_ignores_perturbation(laplacian3d):
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["perturbation"] = [
        {"b": "-3/2", "c": 0, "poly": {"0 0 0": [1.0, 0.0]}}]
    op = parse_operator(doc)
    a = check_ellipticity(op, xi_samples=300, x_samples=30)
    b = check_ellipticity(principal_part(op), xi_samples=300, x_samples=30)
    assert a.min_ratio == b.min_ratio


def test_ellipticity_thread_independent(cr_system2d):
    a = check_ellipticity(cr_system2d, xi_samples=300, x_samples=80, threads=1)
    b = check_ellipticity(cr_system2d, xi_samples=300, x_samples=80, threads=8)
    assert a.min_ratio == b.min_ratio and a.witness == b.witness


def test_symbol_homogeneity(laplacian3d, cr_system2d):
    import numpy as np
    rng = np.random.default_rng(0)
    for op, sigma in ((laplacian3d, 2), (cr_system2d, 2)):
        x = rng.standard_normal((20, op.n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        xi = rng.standard_normal((20, op.n))
        for t in (2.0, 5.0):
            d1 = np.abs(np.linalg.det(principal_symbol_matrix(op, x, xi * t)))
            d0 = np.abs(np.linalg.det(principal_symbol_matrix(op, x, xi)))
            assert np.max(np.abs(d1 - t ** sigma * d0) / np.maximum(d0, 1e-300)) < 1e-12


# ---------------------------------------------------------------------------
# principal part and homogeneity predicates
# ---------------------------------------------------------------------------

def test_principal_part_strips_perturbation():
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["perturbation"] = [
        {"b": "-3/2", "c": 0, "poly": {"0 0 0": [1.0, 0.0]}}]
    op = parse_operator(doc)
    p = principal_part(op)
    assert serialize_operator(p) == serialize_operator(parse_operator(laplacian_doc(3)))
    # idempotent
    assert serialize_operator(principal_part(p)) == serialize_operator(p)


def test_principal_keeps_inverse_square(inverse_square3d):
    p = principal_part(inverse_square3d)
    assert serialize_operator(p) == serialize_operator(inverse_square3d)
    # the r^-2 term is principal: |alpha| - m = -2 matches its exponent
    t = [t for a, t in p.entries[(0, 0)] if sum(a) == 0][0]
    assert t.radial_exponent + t.poly.degree == -2


def test_is_homogeneous_cc(laplacian3d, inverse_square3d, dbar2d):
    assert is_homogeneous_cc(laplacian3d)
    assert is_homogeneous_cc(dbar2d)
    assert not is_homogeneous_cc(inverse_square3d)
    op = parse_operator(drift_doc())
    assert not is_homogeneous_cc(op)  # poly degree 1 coefficient
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["perturbation"] = [
        {"b": "-3/2", "c": 0, "poly": {"0 0 0": [1.0, 0.0]}}]
    assert is_homogeneous_cc(parse_operator(doc))  # the model operator is -Delta


# ---------------------------------------------------------------------------
# the canonical form is a fixed point
# ---------------------------------------------------------------------------

def _random_docs(count, seed=0):
    """-Delta plus two random non-harmonic coefficients of degree 2-4 on
    derivatives of order 0-2, on R^2 and R^3 alternately."""
    rng = np.random.default_rng(seed)
    docs = []
    for t in range(count):
        n = 2 + t % 2
        doc = laplacian_doc(n)
        for _ in range(2):
            d = int(rng.integers(2, 5))
            alpha = [0] * n
            for _ in range(int(rng.integers(0, 3))):
                alpha[int(rng.integers(n))] += 1
            poly = {" ".join(map(str, m)): [round(float(rng.normal()), 3),
                                            round(float(rng.normal()), 3)]
                    for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d}
            doc["entries"][0]["terms"].append(
                {"alpha": alpha, "radial_exponent": float(sum(alpha) - 2 - d),
                 "poly": poly})
        docs.append(doc)
    return docs


def test_canonical_form_is_a_fixed_point():
    paths = sorted((REPO / "operators").glob("*.json"))
    docs = [json.loads(p.read_text()) for p in paths]
    docs += [laplacian_doc(2), laplacian_doc(3), dbar_doc(), cr_system_doc(),
             inverse_square_doc(), drift_doc(), d1d2_doc()] + _random_docs(200)
    ops = [parse_operator(doc) for doc in docs]
    ops += [formal_adjoint(op) for op in ops]
    moved = [i for i, op in enumerate(ops)
             if serialize_operator(canonicalize(op)) != serialize_operator(op)]
    assert moved == []


def test_canonical_polys_store_their_monomials_sorted():
    # the key's order is serialize_operator's, and the order the pencil
    # assembly sums a poly's monomials in
    docs = [json.loads(p.read_text()) for p in sorted((REPO / "operators").glob("*.json"))]
    ops = [parse_operator(doc) for doc in docs + _random_docs(400)]
    ops += [formal_adjoint(op) for op in ops]
    unsorted = [list(t.poly.coeffs) for op in ops
                for terms in op.entries.values() for _, t in terms
                if list(t.poly.coeffs) != sorted(t.poly.coeffs)]
    assert unsorted == []


def test_equality_is_bitwise_and_self_adjointness_is_not():
    # a perturbation coefficient 0.5 - 0.0i prints another canonical form
    # than 0.5, so the operators differ, but both are self-adjoint
    def potential(im):
        doc = laplacian_doc(3)
        doc["entries"][0]["terms"].append(
            {"alpha": [0, 0, 0], "radial_exponent": -2.0, "poly": {"0 0 0": [0.0, 0.0]},
             "perturbation": [{"b": "-2", "c": 0, "poly": {"0 0 0": [0.5, im]}}]})
        return parse_operator(doc)

    a, b = potential(0.0), potential(-0.0)
    assert a == potential(0.0) and a != b and a.fingerprint() != b.fingerprint()
    assert is_formally_self_adjoint(a) and is_formally_self_adjoint(b)


@pytest.mark.parametrize("poly", [{"0 0 0": [0.0, 0.0]}, {"0 0 0": [-0.0, 0.0]},
                                  {"0 0 0": [0.0, 0.0], "1 0 0": [0.0, -0.0]}])
def test_zero_perturbation_terms_are_no_terms(poly):
    # a perturbation whose every term has a zero coefficient is no
    # perturbation: the operator is -Delta, with -Delta's fingerprint
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["perturbation"] = [{"b": "-2", "poly": poly}]
    op, lap = parse_operator(doc), parse_operator(laplacian_doc(3))
    assert op == lap and op.fingerprint() == lap.fingerprint() == "19836f0173a4b5ff"


# ---------------------------------------------------------------------------
# formal adjoint
# ---------------------------------------------------------------------------

def test_adjoint_laplacian_self(laplacian3d):
    adj = formal_adjoint(laplacian3d)
    assert operators_close(adj, laplacian3d, tol=1e-14)
    assert is_formally_self_adjoint(laplacian3d)


def test_adjoint_orders(cr_system2d):
    adj = formal_adjoint(cr_system2d)
    assert adj.mu == (1, 1) and adj.nu == (0, 0)


def test_adjoint_x1_over_r_coefficient():
    # (p D_1)* = conj(p) D_1 + (D_1 conj p), p = x_1/r:
    # D_1(x_1/r) = -i (1/r - x_1^2/r^3)
    doc = {"n": 3, "k": 1, "mu": [1], "nu": [0],
           "entries": [{"i": 0, "j": 0, "terms": [
               {"alpha": [1, 0, 0], "radial_exponent": -1.0,
                "poly": {"1 0 0": [1.0, 0.0]}}]}]}
    op = parse_operator(doc)
    adj = formal_adjoint(op)
    by_alpha = {}
    for a, t in adj.entries[(0, 0)]:
        by_alpha.setdefault(a, []).append(t)
    assert set(by_alpha) == {(0, 0, 0), (1, 0, 0)}
    # order-1 part unchanged
    t1 = by_alpha[(1, 0, 0)][0]
    assert t1.radial_exponent == pytest.approx(-1.0)
    assert t1.poly.coeffs[(1, 0, 0)] == pytest.approx(1.0)
    # zero-order part: -i(1/r - x1^2/r^3) = -i(2/3 r^-1 - r^-3 (x1^2 - r^2/3))
    harm = {t.poly.degree: t for t in by_alpha[(0, 0, 0)]}
    assert harm[0].poly.coeffs[(0, 0, 0)] == pytest.approx(-2j / 3)
    assert harm[2].poly.coeffs[(2, 0, 0)] == pytest.approx(1j * 2 / 3)


@pytest.mark.parametrize("doc_fn", [lambda: laplacian_doc(2), lambda: laplacian_doc(3),
                                    dbar_doc, cr_system_doc, inverse_square_doc, drift_doc])
def test_adjoint_involution(doc_fn):
    op = parse_operator(doc_fn())
    back = formal_adjoint(formal_adjoint(op))
    assert operators_close(back, op, tol=1e-11)


def _perturbed_doc():
    """-Delta on R^3 with the perturbation (1 + r^2)^-2 (1 + 0.5i) x1 on its
    D1^2 term, and (1 + r^2)^-(3/2) / 4 on a zero principal at D1."""
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["perturbation"] = [
        {"b": "-2", "c": 0, "poly": {"1 0 0": [1.0, 0.5]}}]
    doc["entries"][0]["terms"].append(
        {"alpha": [1, 0, 0], "radial_exponent": -1.0, "poly": {"0 0 0": [0.0, 0.0]},
         "perturbation": [{"b": "-3/2", "c": 0, "poly": {"0 0 0": [0.25, 0.0]}}]})
    return doc


def test_perturbations_round_trip_through_the_adjoint():
    op = parse_operator(_perturbed_doc())
    doc = serialize_operator(op)
    # sorted by alpha: D3^2, D2^2, the structural zero at D1, then D1^2
    assert [(t["poly"]["0 0 0"], "perturbation" in t)
            for t in doc["entries"][0]["terms"]] == [
        ([1.0, 0.0], False), ([1.0, 0.0], False), ([0.0, 0.0], True), ([1.0, 0.0], True)]
    assert serialize_operator(parse_operator(doc)) == doc
    adj = formal_adjoint(op)
    # adj carries lower-order perturbations at D1 and D^0; the adjoint of
    # adj sums perturbations at D^0 that cancel, and emits no term there
    assert formal_adjoint(adj) == op
    assert adj != op and not is_formally_self_adjoint(op)


def test_cancelling_perturbations_leave_no_term():
    doc = laplacian_doc(3)
    zero = {"alpha": [1, 0, 0], "radial_exponent": -1.0, "poly": {"0 0 0": [0.0, 0.0]}}
    doc["entries"][0]["terms"] += [
        dict(zero, perturbation=[{"b": "-2", "c": 0, "poly": {"0 0 0": [s, 0.0]}}])
        for s in (1.0, -1.0)]
    assert parse_operator(doc) == parse_operator(laplacian_doc(3))


def test_self_adjointness_detection(inverse_square3d, dbar2d):
    assert is_formally_self_adjoint(inverse_square3d)
    assert not is_formally_self_adjoint(dbar2d)
    # a real potential x2^3 r^-5: x2^3 is not harmonic, so its canonical
    # parts carry round-off
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"].append(
        {"alpha": [0, 0, 0], "radial_exponent": -5.0, "poly": {"0 3 0": [1.0, 0.0]}})
    assert is_formally_self_adjoint(parse_operator(doc))


def test_a_large_potential_keeps_the_principal_part():
    # each multi-index is pruned against its own parts, so the D_i^2 terms
    # stay next to 1e12 r^-2, in the canonical form and in the adjoint
    op = parse_operator(inverse_square_doc(1e12))
    assert [alpha for alpha, _ in op.entries[(0, 0)]] == [
        (0, 0, 0), (0, 0, 2), (0, 2, 0), (2, 0, 0)]
    assert formal_adjoint(op) == op and is_formally_self_adjoint(op)
    assert check_ellipticity(op, xi_samples=200, x_samples=40).elliptic


def test_self_adjointness_is_judged_per_multi_index():
    # 0.3i D1 D2 is minus its adjoint: 0.6 apart whatever the potential
    for c in (1.0, 1e12):
        doc = inverse_square_doc(c)
        doc["entries"][0]["terms"].append(
            {"alpha": [1, 1, 0], "radial_exponent": 0.0, "poly": {"0 0 0": [0.0, 0.3]}})
        assert not is_formally_self_adjoint(parse_operator(doc))


def test_self_adjointness_holds_to_round_off():
    # the Leibniz derivatives of variable coefficients are float, so most
    # (A + A*)/2 differ from their adjoint at round-off
    docs = _random_docs(400)
    assert not any(is_formally_self_adjoint(parse_operator(doc)) for doc in docs)
    symmetrized = [symmetrized_doc(doc) for doc in docs]
    ops = [parse_operator(doc) for doc in symmetrized]
    assert all(is_formally_self_adjoint(op) for op in ops)
    assert any(not op == formal_adjoint(op) for op in ops)
    # ... but not to 1e-6: a self-adjoint operator plus 1e-6 i r^-1 D1
    for doc in symmetrized[:2]:
        n = doc["n"]
        doc["entries"][0]["terms"].append(
            {"alpha": [1] + [0] * (n - 1), "radial_exponent": -1.0,
             "poly": {" ".join(["0"] * n): [0.0, 1e-6]}})
        assert not is_formally_self_adjoint(parse_operator(doc))
    # operators/anisotropic2d.json is (A + A*)/2 for that A
    doc = laplacian_doc(2)
    doc["entries"][0]["terms"].append(
        {"alpha": [2, 0], "radial_exponent": -2.0, "poly": {"1 1": [0.05, 0.0]}})
    op = parse_operator(symmetrized_doc(doc))
    assert is_formally_self_adjoint(op)
    aniso = json.loads((REPO / "operators" / "anisotropic2d.json").read_text())
    assert aniso == serialize_operator(op)


def _random_systems(count, seed):
    """k x k operators, k <= 2, of order m <= 3 on R^2 and R^3: on each
    entry 1-3 terms with random monomials of degree <= 3 in complex
    coefficients on derivatives up to the entry's order, a third of them
    carrying a perturbation."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(count):
        n, k, m = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
        mu = [m] + [int(rng.integers(1, m + 1)) for _ in range(k - 1)]
        nu = [0] + [int(rng.integers(0, 2)) for _ in range(k - 1)]
        entries = []
        for i, j in itertools.product(range(k), repeat=2):
            order = mu[j] - nu[i]
            if order < 0:
                continue
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                alpha = [0] * n
                for _ in range(int(rng.integers(0, order + 1))):
                    alpha[int(rng.integers(n))] += 1
                d = int(rng.integers(0, 4))
                monos = {m for m in itertools.product(range(d + 1), repeat=n) if sum(m) == d}
                poly = {" ".join(map(str, mono)): [round(float(rng.normal()), 3),
                                                   round(float(rng.normal()), 3)]
                        for mono in sorted(monos)[:int(rng.integers(1, 4))]}
                term = {"alpha": alpha, "radial_exponent": float(sum(alpha) - order - d),
                        "poly": poly}
                if rng.random() < 1 / 3:
                    term["perturbation"] = [{"b": str(-int(rng.integers(1, 3))),
                                             "c": int(rng.integers(0, 2)),
                                             "poly": {" ".join(["1"] + ["0"] * (n - 1)):
                                                      [round(float(rng.normal()), 3), 0.5]}}]
                terms.append(term)
            entries.append({"i": i, "j": j, "terms": terms})
        docs.append({"n": n, "k": k, "mu": mu, "nu": nu, "entries": entries})
    return docs


def test_adjoint_matches_the_product_rule_oracle():
    # the program differentiates each coefficient monomial by monomial in
    # Expr; the oracle term by harmonic term by the product rule on r^c H.
    # Same structure and perturbations, principal coefficients to 1e-12 of
    # the largest at the same (i, j, alpha)
    for doc in _random_systems(400, seed=45):
        op = parse_operator(doc)
        got, want = formal_adjoint(op), product_rule_adjoint(op)
        assert got.key[0] == want.key[0] and got.key[2] == want.key[2]
        assert (got.mu, got.nu) == (want.mu, want.nu)
        for key, terms in got.entries.items():
            for (alpha, t), (_, u) in zip(terms, want.entries[key]):
                scale = max(v.poly.norm_inf() for a, v in terms if a == alpha)
                assert all(abs(c - u.poly.coeffs[mono]) <= 1e-12 * scale
                           for mono, c in t.poly.coeffs.items())


def test_symmetrized_first_order_terms_are_self_adjoint():
    # -Delta on R^2 plus two first-order terms with coefficients of degree
    # 1-3: a round-off monomial that the sum (A + A*)/2 leaves next to a
    # large one is cut from the canonical form, so it cannot make the key
    # of the operator differ from its adjoint's in structure
    rng = np.random.default_rng(7)
    for _ in range(500):
        doc = laplacian_doc(2)
        for _ in range(2):
            d = int(rng.integers(1, 4))
            powers = sorted({int(rng.integers(0, d + 1)) for _ in range(int(rng.integers(1, 3)))})
            doc["entries"][0]["terms"].append(
                {"alpha": [[1, 0], [0, 1]][int(rng.integers(2))], "radial_exponent": -1.0 - d,
                 "poly": {f"{a} {d - a}": [round(float(rng.uniform(-0.5, 0.5)), 2), 0.0]
                          for a in powers}})
        assert is_formally_self_adjoint(parse_operator(symmetrized_doc(doc)))


# ---------------------------------------------------------------------------
# symbol class decay
# ---------------------------------------------------------------------------

def test_decay_accepts_order2_remainder():
    f = lambda_power(3, -3)  # (1+r^2)^(-3/2)
    rep = check_symbol_class(f, beta=2.0)
    assert rep.passed


def test_decay_rejects_slow_remainder():
    f = lambda_power(3, -2)  # (1+r^2)^(-1): r^2 f -> 1
    rep = check_symbol_class(f, beta=2.0)
    assert not rep.passed


def test_decay_zero_function():
    rep = check_symbol_class(Expr.zero(3), beta=5.0)
    assert rep.passed


def test_decay_accepts_at_lower_order():
    # (1+r^2)^(-1) IS o(r^(-beta-|alpha|)) for beta = 1 with a full power to spare
    f = lambda_power(2, -2)
    rep = check_symbol_class(f, beta=1.0)
    assert rep.passed
