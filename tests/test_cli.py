"""End-to-end tests of the command-line interface."""

import argparse
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import laplacian_doc, dbar_doc, drift_doc, inverse_square_doc
from oppencil.radial_algebra import Expr
from oppencil.weighted_norms import weighted_cl_norm, weighted_holder_seminorm

REPO = Path(__file__).resolve().parent.parent


def run_cli(args, cwd=REPO):
    return subprocess.run([sys.executable, "-m", "oppencil.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture
def lap3_file(tmp_path):
    p = tmp_path / "lap3.json"
    p.write_text(json.dumps(laplacian_doc(3)))
    return str(p)


def test_parse_ok(lap3_file):
    r = run_cli(["parse", lap3_file])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["canonical"]["mu"] == [2]
    assert "operator_fingerprint" in doc and "tool_version" in doc


def _set(path, value):
    """A mutation of a document: the item at `path` becomes `value`."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


_TERM = ["entries", 0, "terms", 0]
_UNIT = {"0 0 0": [1.0, 0.0]}

# (mutation of laplacian_doc(3), the field the refusal names); truncating
# int() would have answered for another operator or crashed
_MALFORMED_OPERATORS = [
    (_set(["nu"], [1]), "nu"),
    (_set(["mu"], [2.5]), "mu"),
    (_set(["n"], 2.7), "n"),
    (_set(["n"], True), "n"),
    (_set(["k"], True), "k"),
    (_set(["mu"], [True]), "mu"),
    (_set(["nu"], [False]), "nu"),
    (_set(_TERM + ["alpha"], [True, 1, 0]), "alpha"),
    (_set(_TERM + ["poly"], {"x y": [1.0, 0.0]}), "monomial key"),
    (_set(["entries", 0, "i"], "a"), "entry i"),
    (_set(["entries", 0, "terms"], 5), "terms"),
    (_set(["entries"], [5]), "entry"),
    (_set(_TERM + ["radial_exponent"], "x"), "radial_exponent"),
    (lambda doc: doc["entries"].insert(0, {"i": 0, "j": 0, "terms": []}), "duplicate entry"),
    (lambda doc: doc["entries"].append({"i": 0, "j": 0, "terms": []}), "duplicate entry"),
    (_set(["entries", 0, "i"], 1), "out of range"),
    (_set(_TERM + ["poly"], {"0 0 0": [1.0]}), "monomial value"),
    (_set(_TERM + ["poly"], {"-1 0 0": [1.0, 0.0]}), "monomial key"),
    (_set(_TERM + ["poly"], {"0 0 0": [1.0, 0.0], "1 0 0": [1.0, 0.0]}), "homogeneous"),
]

# Expr documents (norm --n 3); a negative exponent would have reached the
# sphere moments
_MALFORMED_EXPRS = [
    ([5], "Expr term"),
    ([{"b": "x", "poly": _UNIT}], "Expr b"),
    ([{"c": float("nan"), "poly": _UNIT}], "Expr c"),
    ([{"poly": {"0 0 x": [1.0, 0.0]}}], "Expr monomial key"),
    ([{"poly": {"0 0 0": [1.0]}}], "Expr monomial value"),
    ([{"poly": [1.0, 0.0]}], "Expr poly"),
    ([{"poly": {"-1 0 0": [1.0, 0.0]}}], "Expr monomial key"),
]


def test_parse_malformed_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for mutate, field in _MALFORMED_OPERATORS:
        doc = laplacian_doc(3)
        mutate(doc)
        bad.write_text(json.dumps(doc))
        code, out, err = _main(["res", str(bad), "--strip", "-0.5", "3.5"], capsys)
        assert (code, out) == (2, ""), field
        assert err.startswith("schema error: ") and field in err  # the offending field
    for doc, field in _MALFORMED_EXPRS:
        bad.write_text(json.dumps(doc))
        code, out, err = _main(["norm", str(bad), "--kind", "sobolev", "--n", "3"], capsys)
        assert (code, out) == (2, ""), field
        assert err.startswith("schema error: ") and field in err


def test_parse_not_json_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    r = run_cli(["parse", str(bad)])
    assert r.returncode == 2


def test_ellipticity_command(lap3_file):
    r = run_cli(["ellipticity", lap3_file, "--xi-samples", "200",
                 "--x-samples", "40"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["elliptic"] is True
    assert abs(doc["min_ratio"] - 1.0) < 1e-9


def test_spectrum_res_lines(lap3_file):
    r = run_cli(["spectrum", lap3_file, "--strip", "-0.5", "3.5",
                 "--degree", "6"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["res_lines"] == {"0": 5, "1": 3, "2": 1, "3": 1}


def test_res_csv(lap3_file, tmp_path):
    out = tmp_path / "res.csv"
    r = run_cli(["res", lap3_file, "--strip", "-0.5", "3.5", "--degree", "6",
                 "--format", "csv", "-o", str(out)])
    assert r.returncode == 0
    assert out.read_text() == "line,multiplicity\n0,5\n1,3\n2,1\n3,1\n"


def test_index_command(lap3_file):
    r = run_cli(["index", lap3_file, "--anchor", "cc", "--window", "0.5",
                 "4.5", "--degree", "6"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    comps = {(round(c["left"], 6), round(c["right"], 6)): c["index"]
             for c in doc["components"]}
    assert comps[(4.0, 4.5)] == -4
    assert comps[(2.0, 3.0)] == 0


def test_index_user_anchor(lap3_file):
    r = run_cli(["index", lap3_file, "--anchor", "user:beta0=2.5,index=0",
                 "--window", "0.5", "4.5", "--degree", "6"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["anchor"]["provenance"] == "user"


def test_verify_cc_pass(lap3_file):
    r = run_cli(["verify-cc", lap3_file, "--window", "-1.5", "3.5",
                 "--degree", "6"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["passed"] is True


def test_verify_cc_not_applicable(tmp_path):
    p = tmp_path / "inv.json"
    p.write_text(json.dumps(inverse_square_doc()))
    r = run_cli(["verify-cc", str(p), "--window", "-0.5", "3.5"])
    assert r.returncode == 4


def test_adjoint_command(tmp_path):
    p = tmp_path / "dbar.json"
    p.write_text(json.dumps(dbar_doc()))
    r = run_cli(["adjoint", str(p)])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["adjoint"]["mu"] == [1] and doc["adjoint"]["nu"] == [0]


@pytest.mark.parametrize("argv", [
    ["adjoint"],
    ["adjoint-check", "--window", "0.5", "1.5"],
    ["index", "--anchor", "selfadjoint", "--window", "0.5", "1.5"],
], ids=["adjoint", "adjoint-check", "index"])
def test_operator_without_an_adjoint_not_applicable(tmp_path, argv, capsys):
    # nu = (0, 2) with m = 1: the adjoint's second row would have order -1,
    # a structural refusal that every command reading the adjoint shares
    p = tmp_path / "d1.json"
    p.write_text(json.dumps({"n": 2, "k": 2, "mu": [1, 1], "nu": [0, 2], "entries": [
        {"i": 0, "j": 0, "terms": [{"alpha": [1, 0], "radial_exponent": 0.0,
                                    "poly": {"0 0": [1.0, 0.0]}}]}]}))
    code, out, err = _main([argv[0], str(p), *argv[1:]], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("not applicable: ")


def test_norm_command(tmp_path):
    expr = tmp_path / "u.json"
    expr.write_text(json.dumps([{"b": "-2", "c": 0,
                                 "poly": {"0 0 0": [1.0, 0.0]}}]))
    r = run_cli(["norm", str(expr), "--kind", "sobolev", "--n", "3",
                 "--p", "2", "--k", "0", "--beta", "0"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["value"] > 0 and doc["tail_bound"] < 1e-6 * doc["value"]


def test_norm_decay_kind(tmp_path):
    expr = tmp_path / "u.json"
    expr.write_text(json.dumps([{"b": "-1", "c": 0,
                                 "poly": {"0 0 0": [1.0, 0.0]}}]))
    r = run_cli(["norm", str(expr), "--kind", "decay", "--n", "3",
                 "--beta", "2", "--k", "2"])
    assert r.returncode == 3  # (1+r^2)^(-1) is not an order-2 remainder


def test_model_solve_command(lap3_file):
    r = run_cli(["model-solve", lap3_file, "--mode", "0",
                 "--beta1", "1.5", "--beta2", "2.5"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["coefficient_check"]["passed"] is True
    devs = doc["expansion"]["deviations"]
    assert all(v < 1e-6 for v in devs.values())


def test_strip_edge_on_line_refused():
    # dbar2d has a line at -2 that the eigensolve puts just below -2
    dbar = str(REPO / "operators" / "dbar2d.json")
    r = run_cli(["res", dbar, "--strip", "-2", "5.5", "--degree", "6"])
    assert r.returncode == 3
    assert "strip boundary -2" in r.stderr
    r = run_cli(["res", dbar, "--strip", "-2.5", "5.5", "--degree", "6"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["res_lines"]["-2"] == 1


def test_model_solve_coupled_not_applicable():
    dipole = str(REPO / "operators" / "dipole_laplacian3d.json")
    r = run_cli(["model-solve", dipole, "--mode", "0",
                 "--beta1", "1.5", "--beta2", "2.5"])
    assert r.returncode == 4
    assert "Traceback" not in r.stderr
    assert "coupled" in r.stderr


@pytest.mark.parametrize("eps", [1e-11, 1e-9])
def test_model_solve_refuses_a_weakly_coupled_mode(tmp_path, capsys, eps):
    # -Delta + eps (x1/r) r^-2 on R^2 couples each degree to its neighbours
    # however small eps is: the coupling graph is B's exact pattern, so the
    # mode-0 block is coupled at 1e-11 as at 1e-9
    from oppencil.operator_ast import parse_operator
    from oppencil.pencil import assemble_pencil
    path = _potential_file(tmp_path, 2, -3.0, [1, 0], eps)
    P = assemble_pencil(parse_operator(json.loads(Path(path).read_text())), 2)
    assert P.bandwidth == 1
    code, out, err = _main(["model-solve", path, "--mode", "0",
                            "--beta1", "1.5", "--beta2", "2.5"], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("not applicable: degree 0 block is coupled")


def test_model_solve_mode_block_of_size_two_not_applicable(tmp_path, capsys):
    # diag(-Delta, -Delta - 0.5 r^-2) on R^3: the mode-0 block is decoupled
    # but not a multiple of the identity, and the right-hand side is scalar
    lap, shifted = (inverse_square_doc(c)["entries"][0]["terms"] for c in (0.0, -0.5))
    doc = {"n": 3, "k": 2, "mu": [2, 2], "nu": [0, 0],
           "entries": [{"i": 0, "j": 0, "terms": lap},
                       {"i": 1, "j": 1, "terms": shifted}]}
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
    code, out, err = _main(["res", str(path), "--strip", "0.5", "3.5"], capsys)
    assert code == 0
    code, out, err = _main(["model-solve", str(path), "--mode", "0",
                            "--beta1", "1.3", "--beta2", "2.2"], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("not applicable: degree 0 block has size 2")


def test_pencil_degree_and_l_max_exclusive(lap3_file, capsys):
    def l_max(flags):
        code, out, err = _main(["pencil", lap3_file, *flags], capsys)
        assert code == 0, err
        return json.loads(out)["l_max"]

    assert l_max([]) == l_max(["--degree", "6"]) == 8
    assert l_max(["--degree", "1"]) == 3
    assert l_max(["--l-max", "5"]) == 5
    for flags in (["--degree", "1", "--l-max", "5"], ["--degree", "6", "--l-max", "5"]):
        with pytest.raises(SystemExit) as exc:
            _main(["pencil", lap3_file, *flags], capsys)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


def test_pencil_report_carries_the_operator_fingerprint(lap3_file, capsys):
    code, out, err = _main(["pencil", lap3_file, "--degree", "2"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert sorted(doc) == ["B", "analysis_degree", "bandwidth", "basis", "fingerprint",
                           "k", "l_max", "m", "mu", "n", "nu", "tool_version"]
    parsed = json.loads(_main(["parse", lap3_file], capsys)[1])
    assert doc["fingerprint"] == parsed["operator_fingerprint"]
    assert doc["basis"]["degrees"] == [l for l in range(doc["basis"]["l_max"] + 1)
                                       for _ in range(2 * l + 1)]


@pytest.mark.parametrize("operator, anchor, window", [
    ("schrodinger_inverse_square3d.json", "cc", ["0.5", "4.5"]),
    ("cr_system2d.json", "selfadjoint", ["-0.5", "2.5"]),
])
def test_index_inapplicable_anchor_exit4(operator, anchor, window):
    r = run_cli(["index", str(REPO / "operators" / operator), "--anchor", anchor,
                 "--window", *window, "--degree", "4"])
    assert r.returncode == 4
    assert r.stderr.startswith("not applicable:")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("operator, anchor, window", [
    ("schrodinger_inverse_square3d.json", "cc", ["-1.7", "2.6"]),
    ("dipole_laplacian3d.json", "cc", ["-1.7", "2.6"]),
    ("cr_system2d.json", "selfadjoint", ["0.4", "4.6"]),
    ("dbar2d.json", "selfadjoint", ["0.4", "4.6"]),
])
def test_index_anchor_checked_before_the_strip(monkeypatch, operator, anchor, window,
                                               capsys):
    # at degree 2 the strip is refused (exit 3), but an anchor that cannot
    # apply is refused first, without solving it
    from oppencil import cli
    path = str(REPO / "operators" / operator)
    code, _, _ = _main(["res", path, "--strip", *window, "--degree", "2"], capsys)
    assert code == 3

    def never(*args):
        raise AssertionError("the strip ran before the anchor was checked")

    monkeypatch.setattr(cli, "strip_spectrum", never)
    code, out, err = _main(["index", path, "--anchor", anchor, "--window", *window,
                            "--degree", "2"], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("not applicable: ")


def test_reports_deterministic_across_threads(lap3_file):
    a = run_cli(["ellipticity", lap3_file, "--threads", "1",
                 "--xi-samples", "300", "--x-samples", "50"])
    b = run_cli(["ellipticity", lap3_file, "--threads", "8",
                 "--xi-samples", "300", "--x-samples", "50"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_reports_deterministic_repeat(lap3_file):
    args = ["spectrum", lap3_file, "--strip", "-0.5", "3.5", "--degree", "5"]
    a, b = run_cli(args), run_cli(args)
    assert a.stdout == b.stdout


# ---------------------------------------------------------------------------
# bad input exits 2 before any analysis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command,value", [("parse", float("nan")),
                                           ("ellipticity", float("inf"))])
def test_non_finite_coefficient_exit2(tmp_path, command, value):
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["poly"]["0 0 0"] = [value, 0.0]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    r = run_cli([command, str(p)])
    assert r.returncode == 2
    assert "non-finite" in r.stderr
    # and as an operator perturbation's exponent
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"][0]["perturbation"] = [{"b": value, "poly": {"0 0 0": [1.0, 0.0]}}]
    p.write_text(json.dumps(doc))
    r = run_cli([command, str(p)])
    assert r.returncode == 2
    assert "non-finite Expr b" in r.stderr


def test_negative_degree_exit2(lap3_file):
    r = run_cli(["res", lap3_file, "--strip", "-0.5", "3.5", "--degree", "-3"])
    assert r.returncode == 2
    assert "--degree" in r.stderr


def test_inverted_strip_exit2(lap3_file):
    r = run_cli(["res", lap3_file, "--strip", "3.5", "-0.5"])
    assert r.returncode == 2
    assert "BETA1 < BETA2" in r.stderr


@pytest.mark.parametrize("argv, dest, value", [
    (["res", "op.json", "--strip", "-1e-3", "2.5"], "strip", [-1e-3, 2.5]),
    (["spectrum", "op.json", "--strip", "-5.", "-2E+0"], "strip", [-5.0, -2.0]),
    (["index", "op.json", "--window", "-.5", "2.5"], "window", [-0.5, 2.5]),
    (["adjoint-check", "op.json", "--window", "-1e-3", "2.5"], "window", [-1e-3, 2.5]),
    (["verify-cc", "op.json", "--window", "-2.5e0", "1."], "window", [-2.5, 1.0]),
    (["model-solve", "op.json", "--mode", "0", "--beta1", "-1e-3", "--beta2", "1"],
     "beta1", -1e-3),
    (["model-solve", "op.json", "--mode", "0", "--beta1", "-9", "--beta2", "-5."],
     "beta2", -5.0),
    (["norm", "u.json", "--kind", "cl", "--n", "3", "--beta", "-1e-3"], "beta", -1e-3),
])
def test_negative_bound_in_any_float_form(argv, dest, value):
    from oppencil.cli import build_parser
    assert getattr(build_parser().parse_args(argv), dest) == value


def test_negative_exponent_bound_answers(lap3_file, capsys):
    from oppencil.cli import main
    code, out, _ = _main(["res", lap3_file, "--strip", "-1e-3", "2.5", "--degree", "2"],
                         capsys)
    assert code == 0 and json.loads(out)["res_lines"] == {"0": 5, "1": 3, "2": 1}
    with pytest.raises(SystemExit) as exc:
        main(["res", lap3_file, "--stripx", "-1e-3", "2.5"])
    assert exc.value.code == 2


def test_non_finite_strip_exit2(lap3_file):
    r = run_cli(["res", lap3_file, "--strip", "-0.5", "inf"])
    assert r.returncode == 2
    assert "finite" in r.stderr


@pytest.mark.parametrize("argv", [
    ["res", "laplacian2d.json", "--strip", "0.5", "2.5", "--degree", "100000"],
    ["pencil", "laplacian3d.json", "--l-max", "300"],
    ["model-solve", "laplacian3d.json", "--mode", "5000", "--beta1", "1", "--beta2", "3"],
], ids=["res", "pencil", "model-solve"])
def test_oversized_degree_refused_before_assembly(monkeypatch, argv, capsys):
    # the coefficient stack would take (m + 1) (k nb)^2 16 bytes, 1.75 TiB
    # for res at degree 100000: the bound refuses it before any ladder
    # table is built, so nothing is allocated
    from oppencil import cli, pencil

    def no_table(*args):
        raise AssertionError("a ladder table was built")

    monkeypatch.setattr(pencil, "_build_table", no_table)
    assert cli.main([argv[0], str(REPO / "operators" / argv[1]), *argv[2:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(
        r"schema error: the basis of harmonic degree \d+ needs up to \S+ GiB of pencil "
        r"coefficients, above the 0.25 GiB bound; lower the degree\n", err)




_ORDER0 = {"n": 3, "k": 1, "mu": [0], "nu": [0], "entries": [{"i": 0, "j": 0, "terms": [
    {"alpha": [0, 0, 0], "radial_exponent": 0.0, "poly": _UNIT}]}]}
_NO_TERM = {"n": 3, "k": 1, "mu": [2], "nu": [0], "entries": []}
_ZERO_PRINCIPAL = {"n": 3, "k": 1, "mu": [2], "nu": [0], "entries": [{"i": 0, "j": 0, "terms": [
    {"alpha": [0, 0, 0], "radial_exponent": -2.0, "poly": {"0 0 0": [0.0, 0.0]},
     "perturbation": [{"b": -2, "c": 0, "poly": _UNIT}]}]}]}
_PENCIL_COMMANDS = [
    ["pencil", "--degree", "2"],
    ["res", "--strip", "0.5", "2.5", "--degree", "2"],
    ["spectrum", "--strip", "0.5", "2.5", "--degree", "2"],
    ["index", "--anchor", "cc", "--window", "0.5", "2.5", "--degree", "2"],
    ["index", "--anchor", "selfadjoint", "--window", "0.5", "2.5", "--degree", "2"],
    ["verify-cc", "--window", "0.5", "2.5", "--degree", "2"],
    ["adjoint-check", "--window", "0.5", "2.5", "--degree", "2"],
    ["model-solve", "--mode", "0", "--beta1", "0.5", "--beta2", "2.5"],
]


@pytest.mark.parametrize("doc, reason", [
    (_ORDER0, "the operator has order 0; a pencil needs positive order"),
    (_NO_TERM, "the principal part has no nonzero term; its pencil is zero"),
    (_ZERO_PRINCIPAL, "the principal part has no nonzero term; its pencil is zero"),
], ids=["order0", "no_term", "zero_principal"])
def test_operator_without_a_pencil_not_applicable(tmp_path, capsys, doc, reason):
    # parse, adjoint and ellipticity answer these operators; every command
    # that needs a pencil refuses them by name, with no traceback
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    from oppencil.cli import main
    assert main(["parse", str(path)]) == 0
    capsys.readouterr()
    for argv in _PENCIL_COMMANDS:
        assert main([argv[0], str(path), *argv[1:]]) == 4, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"not applicable: {reason}\n"), argv
LAP3 = str(REPO / "operators" / "laplacian3d.json")
MODEL_SOLVE = ["model-solve", LAP3, "--mode", "0", "--beta1", "1.5", "--beta2", "2.5"]


def _main(argv, capsys):
    from oppencil.cli import main
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


@pytest.mark.parametrize("name, strip, degree", [
    ("laplacian3d", ["-0.5", "3.5"], "4"),
    ("dbar2d", ["-1.5", "2.5"], "6"),
])
def test_reports_equal_on_cold_and_warm_pencils(monkeypatch, capsys, name, strip, degree):
    # every command that assembles, first each on no kept pencil, then all
    # in a row, each on the pencils kept by the ones before, then all again
    # on every pencil kept: byte-identical reports and exit codes, and the
    # last pass assembles nothing
    from oppencil import pencil
    path = str(REPO / "operators" / f"{name}.json")
    band = ["--degree", degree]
    argvs = [["res", path, "--strip", *strip, *band],
             ["index", path, "--anchor", "cc", "--window", *strip, *band],
             ["index", path, "--anchor", "selfadjoint", "--window", *strip, *band],
             ["spectrum", path, "--strip", *strip, *band],
             ["verify-cc", path, "--window", *strip, *band],
             ["adjoint-check", path, "--window", *strip, *band],
             ["model-solve", path, "--mode", "0", "--beta1", "1.5", "--beta2", "2.5"],
             ["pencil", path, *band]]
    cold = []
    for argv in argvs:
        pencil._pencils.clear()
        cold.append(_main(argv, capsys))
    assert [_main(argv, capsys) for argv in argvs] == cold
    assembled = []
    assemble = pencil._assemble
    monkeypatch.setattr(pencil, "_assemble",
                        lambda *args: assembled.append(args) or assemble(*args))
    assert [_main(argv, capsys) for argv in argvs] == cold
    assert assembled == []


@pytest.mark.parametrize("name, degree", [
    ("cr_system2d", "8"), ("dbar2d", "12"), ("drift3d", "2"), ("laplacian3d", "4"),
])
def test_strip_reports_equal_on_cold_and_remembered_eigenpoints(monkeypatch, tmp_path,
                                                                capsys, name, degree):
    # res, index --anchor cc and spectrum over overlapping strips, strips
    # with an edge 0.05 from a line, and a strip that refuses (an edge on
    # line 1, or the drift's lines of modes above degree 2): first each on
    # no kept pencil, then all in a row, on a pencil that remembers the
    # eigenpoints of the strips before.  Reports, exit codes and first
    # stderr lines are byte-identical, and the row chains fewer clusters
    from oppencil import pencil, spectrum
    if name == "drift3d":
        path = tmp_path / "drift3d.json"
        path.write_text(json.dumps(drift_doc(0.4)))
    else:
        path = REPO / "operators" / f"{name}.json"
    strips = [("-1.5", "2.5"), ("0.5", "3.5"), ("0.95", "3.05"), ("-0.05", "1.95"),
              ("1", "2.5")]
    argvs = [[*command, str(path), flag, *strip, "--degree", degree]
             for strip in strips
             for command, flag in ((["res"], "--strip"), (["index", "--anchor", "cc"],
                                                          "--window"),
                                   (["spectrum"], "--strip"))]
    chained = []
    chain = spectrum.jordan_chains
    monkeypatch.setattr(spectrum, "jordan_chains", lambda P, clusters:
                        chained.append(len(clusters)) or chain(P, clusters))

    def run(argv):
        code, out, err = _main(argv, capsys)
        return code, out, err.split("\n")[0]

    cold = []
    for argv in argvs:
        pencil._pencils.clear()
        cold.append(run(argv))
    cold_chained, chained[:] = sum(chained), []
    assert [run(argv) for argv in argvs] == cold
    assert {0, 3} <= {code for code, _, _ in cold}
    assert sum(chained) < cold_chained


def _write_csv(path, t, vals):
    rows = np.column_stack([t, vals.real, vals.imag])
    np.savetxt(path, rows, delimiter=",", header="t,re,im", comments="")
    return str(path)


def _model_solve_coeffs(argv, capsys):
    code, out, err = _main(MODEL_SOLVE + argv, capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["coefficient_check"]["passed"] is True
    return [c["value"] for c in doc["expansion"]["coeffs_direct"]]


def test_model_solve_f_routes(tmp_path, capsys):
    spec = _model_solve_coeffs(["--f", "gaussian:a=1,t0=0"], capsys)
    t = np.linspace(-40, 40, 8192)
    csv = _write_csv(tmp_path / "f.csv", t, np.exp(-t * t) + 0j)
    sampled = _model_solve_coeffs(["--f-csv", csv], capsys)
    assert len(spec) == len(sampled) == 1
    assert complex(*sampled[0]) == pytest.approx(complex(*spec[0]), rel=1e-8)
    expr = tmp_path / "f.json"
    expr.write_text(json.dumps([{"b": "-40", "c": 0, "poly": {"0": [1.0, 0.0]}}]))
    assert len(_model_solve_coeffs(["--f-expr", str(expr)], capsys)) == 1


def test_index_selfadjoint_anchor_real_potential(tmp_path, capsys):
    # -Delta + x2^3 r^-5 on R^3: multiplying by a real function is
    # self-adjoint, so the anchor applies
    doc = laplacian_doc(3)
    doc["entries"][0]["terms"].append(
        {"alpha": [0, 0, 0], "radial_exponent": -5.0, "poly": {"0 3 0": [1.0, 0.0]}})
    path = tmp_path / "x2cubed.json"
    path.write_text(json.dumps(doc))
    code, out, err = _main(["index", str(path), "--anchor", "selfadjoint",
                            "--window", "1.1", "3.9", "--degree", "0"], capsys)
    assert code == 0, err
    ledger = json.loads(out)
    assert ledger["anchor"]["provenance"] == "selfadjoint"
    assert [c["index"] for c in ledger["components"]] == [1, 0, -1]


def test_index_selfadjoint_anchor_variable_derivative_coefficient(capsys):
    # anisotropic2d is (A + A*)/2 for A = -Delta + 0.05 x1 x2 r^-2 D1^2 on
    # R^2, which equals its formal adjoint to round-off only; its lines
    # 1.00007, 2 and 2.99993 (each of multiplicity 2) are symmetric about 2
    code, out, err = _main(["index", str(REPO / "operators" / "anisotropic2d.json"),
                            "--anchor", "selfadjoint",
                            "--window", "0.5", "3.5", "--degree", "6"], capsys)
    assert code == 0, err
    ledger = json.loads(out)
    assert ledger["anchor"]["provenance"] == "selfadjoint"
    assert [c["index"] for c in ledger["components"]] == [3, 1, -1, -3]


# (A + A*)/2 for A = -Delta - 0.3 x1 x2^2 r^-4 D2 - 0.3 x2 r^-2 D2 on R^2, as
# the product rule wrote it once: its r^-4 potential carries a round-off
# monomial 1.4e-17 x1 x2 next to 0.15
ROUND_OFF_MONOMIAL_DOC = {"n": 2, "k": 1, "mu": [2], "nu": [0], "entries": [
    {"i": 0, "j": 0, "terms": [
        {"alpha": alpha, "radial_exponent": e, "poly": poly} for alpha, e, poly in (
            ([0, 1], -2.0, {"0 1": [-0.15, 0.0], "1 0": [-0.0375, 0.0]}),
            ([0, 1], -4.0, {"1 2": [-0.11249999999999999, 0.0], "3 0": [0.0375, -0.0]}),
            ([0, 2], 0.0, {"0 0": [0.5, 0.0]}),
            ([2, 0], 0.0, {"0 0": [0.5, 0.0]}),
            ([0, 0], -4.0, {"0 2": [0.0, -0.15], "1 1": [0.0, 1.3877787807814457e-17],
                            "2 0": [0.0, 0.15]}),
            ([0, 0], -6.0, {"1 3": [0.0, -0.3], "3 1": [0.0, 0.29999999999999993]}),
            ([0, 1], -2.0, {"0 1": [-0.15, -0.0], "1 0": [-0.0375, -0.0]}),
            ([0, 1], -4.0, {"1 2": [-0.11249999999999999, -0.0], "3 0": [0.0375, 0.0]}),
            ([0, 2], 0.0, {"0 0": [0.5, 0.0]}),
            ([2, 0], 0.0, {"0 0": [0.5, 0.0]}))]}]}


def test_index_selfadjoint_anchor_ignores_a_round_off_monomial(tmp_path, capsys):
    # the canonical form cuts every monomial below 1e-12 of its multi-index's
    # largest part, so the round-off monomial is no structure that the
    # adjoint lacks, and the operator is formally self-adjoint
    path = tmp_path / "round_off.json"
    path.write_text(json.dumps(ROUND_OFF_MONOMIAL_DOC))
    code, out, err = _main(["index", str(path), "--anchor", "selfadjoint",
                            "--window", "0.5", "3.5", "--degree", "4"], capsys)
    assert code == 0, err
    ledger = json.loads(out)
    assert ledger["anchor"]["provenance"] == "selfadjoint"
    assert [(round(b, 3), mult) for b, mult in ledger["breakpoints"]] == [
        (1.001, 1), (1.009, 1), (2.0, 2), (2.991, 1), (2.999, 1)]
    assert [c["index"] for c in ledger["components"]] == [3, 2, 1, -1, -2, -3]


def test_model_solve_near_pole_failed_check_exit3(capsys):
    # the chosen grid ends before the weighted solution near line 2 dies out
    lap2 = str(REPO / "operators" / "laplacian2d.json")
    code, out, err = _main(["model-solve", lap2, "--mode", "0",
                            "--beta1", "2.05", "--beta2", "2.95"], capsys)
    assert code == 3
    assert json.loads(out)["coefficient_check"]["passed"] is False


@pytest.mark.parametrize("half_width, code", [(8, 3), (40, 0)])
def test_model_solve_short_csv_grid_exit3(tmp_path, capsys, half_width, code):
    t = np.linspace(-half_width, half_width, 4096)
    csv = _write_csv(tmp_path / "f.csv", t, np.exp(-t * t) + 0j)
    got, out, err = _main(MODEL_SOLVE + ["--f-csv", csv], capsys)
    assert got == code
    assert json.loads(out)["coefficient_check"]["passed"] is (code == 0)


def test_model_solve_unresolved_csv_grid_exit3(tmp_path, capsys):
    # a gaussian of width 0.01 on a spacing of 0.02: the grid is long
    # enough, but the samples' spectrum has not decayed at Nyquist
    t = np.linspace(-40, 40, 4096)
    csv = _write_csv(tmp_path / "f.csv", t, np.exp(-10000 * (t - 0.1) ** 2) + 0j)
    got, out, err = _main(["model-solve", str(REPO / "operators" /
                                              "schrodinger_inverse_square3d.json"),
                           "--mode", "0", "--beta1", "1.25", "--beta2", "2.75",
                           "--f-csv", csv], capsys)
    assert (got, out) == (3, "")
    assert err.startswith("numerical guard: ") and "spectrum" in err


@pytest.mark.parametrize("spec", ["gaussian:a=-1", "gaussian:t0=inf", "gaussian:a",
                                  "gaussian:a=0", "gaussian:a=nan", "gaussian:a=x",
                                  "gaussian:b=1", "gaussian:a=1,,t0=0",
                                  "gaussian:a=1,a=2"])
def test_model_solve_bad_f_spec_exit2(spec, capsys):
    code, out, err = _main(MODEL_SOLVE + ["--f", spec], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("schema error: ")


@pytest.mark.parametrize("bad", ["csv_inf", "csv_nan", "expr_singular"])
def test_model_solve_non_finite_samples_exit2(tmp_path, bad, capsys):
    t = np.linspace(-40, 40, 8192)
    vals = np.exp(-t * t) + 0j
    if bad == "expr_singular":   # |t|^-1 at the grid point t = 0
        path = tmp_path / "f.json"
        path.write_text(json.dumps([{"b": "-40", "c": -1, "poly": {"0": [1.0, 0.0]}}]))
        argv = ["--f-expr", str(path)]
    else:
        vals[4096] = float("inf") if bad == "csv_inf" else float("nan")
        argv = ["--f-csv", _write_csv(tmp_path / "f.csv", t, vals)]
    code, out, err = _main(MODEL_SOLVE + argv, capsys)
    assert (code, out) == (2, "")
    assert "samples must be finite" in err


@pytest.mark.parametrize("text", [None, "t,re\n0,1\n1,2\n", "t,re,im\n0,1,0\n",
                                  "t,re,im\n1,1,0\n0,1,0\n-1,1,0\n",
                                  "t,re,im\n-inf,1,0\n0,0,0\n", "t,re,im\n0,1,0\ninf,0,0\n",
                                  "t,re,im\n0,1,0\ninf,0,0\ninf,0,0\n"])
def test_model_solve_malformed_csv_exit2(tmp_path, text, capsys):
    # None: no such file; two columns; a single row; a decreasing grid;
    # infinite times, whose grid differences are nan or inf.  Each is
    # refused at parse time, before any warning
    path = tmp_path / "f.csv"
    if text is not None:
        path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _main(MODEL_SOLVE + ["--f-csv", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("schema error: --f-csv")


@pytest.mark.parametrize("other", [["--f-csv", "f.csv"], ["--f-expr", "f.json"]])
def test_model_solve_one_f_source(other, capsys):
    with pytest.raises(SystemExit) as exc:
        _main(MODEL_SOLVE + ["--f", "gaussian:a=3", *other], capsys)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["norm", "missing.json", "--kind", "sobolev", "--n", "3"],
    MODEL_SOLVE + ["--f-expr", "missing.json"],
])
def test_missing_expr_file_exit2(tmp_path, argv, capsys):
    argv = [str(tmp_path / a) if a == "missing.json" else a for a in argv]
    code, out, err = _main(argv, capsys)
    assert (code, out) == (2, "")
    assert "file not found" in err


@pytest.mark.parametrize("flags", [
    ["--p", "0.5"],
    ["--p", "nan"],
    ["--kind", "holder", "--sigma", "1.5"],
    ["--kind", "holder", "--sigma", "0"],
    ["--beta", "nan"],
    ["--kind", "sobolev", "--k", "-1"],
    ["--kind", "cl", "--l", "-1"],
    ["--kind", "holder", "--samples", "0"],
    ["--kind", "holder", "--samples", "-5"],
    ["--kind", "holder", "--seed", "-1"],
    ["--n", "1"],
    ["--n", "0"],
    ["--n", "4"],
])
def test_norm_bad_flag_exit2(tmp_path, flags, capsys):
    expr = tmp_path / "u.json"
    expr.write_text(json.dumps([{"b": "-2", "c": 0, "poly": {"0 0 0": [1.0, 0.0]}}]))
    code, out, err = _main(["norm", str(expr), "--kind", "sobolev", "--n", "3",
                            *flags], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: {flags[-2]} must be")


@pytest.mark.parametrize("flags", [
    ["--threshold", "nan"],
    ["--threshold", "-0.5"],
    ["--threshold", "inf"],
    ["--x-samples", "-5"],
    ["--xi-samples", "0"],
    ["--threads", "0"],
    ["--threads", "-2"],
])
def test_ellipticity_bad_flag_exit2(lap3_file, flags, capsys):
    code, out, err = _main(["ellipticity", lap3_file, *flags], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: {flags[-2]} must be")


@pytest.mark.parametrize("anchor", [
    "user:",
    "user:beta0",
    "user:beta0=1.5",
    "user:index=0",
    "user:beta0=abc,index=0",
    "user:beta0=1.5,index=1.5",
    "user:beta0=nan,index=0",
    "user:beta0=inf,index=0",
    "user:beta0=1.5,index=0,shift=1",
    "user:beta0=1.5,beta0=2.5,index=0",
])
def test_index_bad_user_anchor_exit2(monkeypatch, lap3_file, anchor, capsys):
    from oppencil import cli

    def never(*args):
        raise AssertionError("the strip ran before the anchor was parsed")

    monkeypatch.setattr(cli, "strip_spectrum", never)
    code, out, err = _main(["index", lap3_file, "--anchor", anchor,
                            "--window", "0.5", "4.5", "--degree", "2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("schema error: ")


# ---------------------------------------------------------------------------
# each subcommand takes only the flags its command function reads
# ---------------------------------------------------------------------------

# options of every subcommand besides -h/--help and -o/--output
FLAG_TABLE = {
    "parse": set(),
    "ellipticity": {"--xi-samples", "--x-samples", "--threshold", "--threads"},
    "pencil": {"--l-max", "--degree"},
    "spectrum": {"--strip", "--degree", "--threads"},
    "res": {"--strip", "--degree", "--format"},
    "index": {"--anchor", "--window", "--degree", "--format"},
    "adjoint": set(),
    "adjoint-check": {"--window", "--degree"},
    "norm": {"--kind", "--n", "--p", "--k", "--l", "--sigma", "--beta",
             "--samples", "--seed"},
    "model-solve": {"--mode", "--beta1", "--beta2", "--f", "--f-csv",
                    "--f-expr"},
    "verify-cc": {"--window", "--degree"},
}
SETTINGS = (("--format", "csv"), ("--seed", "1"), ("--threads", "2"))


def readme_section():
    text = (REPO / "README.md").read_text()
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def readme_commands():
    """argv (without the program name) of each oppencil example line."""
    block = readme_section().split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("oppencil ")]


def readme_flag_table():
    """{command: flags} from the README's flag table."""
    table = {}
    for row in readme_section().splitlines():
        cells = row.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            for name in re.findall(r"`([a-z-]+)`", cells[1]):
                table[name] = set(re.findall(r"--[a-z0-9-]+", cells[2]))
    return table


def test_flag_table():
    from oppencil.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FLAG_TABLE)
    for name, sp in sub.choices.items():
        options = {o for a in sp._actions for o in a.option_strings}
        assert options == FLAG_TABLE[name] | {"-h", "--help", "-o", "--output"}, name
    assert readme_flag_table() == FLAG_TABLE


def test_parser_built_once():
    from oppencil.cli import build_parser
    assert build_parser() is build_parser()


def _script(name):
    """The module of scripts/<name>.py, loaded without running its main."""
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,last_line", [
    ("spectrum_table", "total algebraic multiplicity: 10"),
    ("index_walk", "closed-form cross-check mismatches: 0"),
    ("expansion_demo", "coefficient formula check: PASS"),
])
def test_example_scripts_at_their_defaults(monkeypatch, capsys, name, last_line):
    # each example reads its default operator file relative to the repo
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script prepends src/
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
    monkeypatch.chdir(REPO)
    _script(name).main()
    assert capsys.readouterr().out.splitlines()[-1] == last_line


def test_answer_dump_smoke(capsys):
    dump = _script("answer_dump")
    path = str(REPO / "operators" / "laplacian2d.json")
    dump.main([path])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["argv"] for row in rows] == list(dump.cases(path))
    assert all(re.fullmatch(r"[0-9a-f]{64}", row["stdout_sha256"]) for row in rows)
    assert all(("answer_sha256" in row) == (row["argv"][0] in ("spectrum", "model-solve"))
               for row in rows)
    exits = {row["argv"][0]: set() for row in rows}
    for row in rows:
        exits[row["argv"][0]].add(row["exit"])
    # spectrum and index answer everywhere but on the strip whose line -1
    # (mode 3) needs degree 3, which they refuse at degree 2
    refused = {tuple(row["argv"]) for row in rows if row["exit"] != 0
               and row["argv"][0] in ("spectrum", "index")}
    assert {(argv[0], argv[-4], argv[-3], argv[-1]) for argv in refused} == {
        ("spectrum", "-1.7", "2.6", "2"), ("index", "-1.7", "2.6", "2")}
    assert len(refused) == 3
    assert all(row["exit"] == 3 and row["stderr"].endswith("raise --degree to >= 3")
               for row in rows if tuple(row["argv"]) in refused)
    assert exits["parse"] == exits["adjoint"] == exits["ellipticity"] == {0}
    # model-solve fails its own check (exit 3) only on the pair (2.05, 2.95),
    # whose grid ends before the weighted solutions of modes 0 and 1 die out
    failed = {(row["argv"][3], row["argv"][5]) for row in rows
              if row["argv"][0] == "model-solve" and row["exit"] != 0}
    assert failed == {("0", "2.05"), ("1", "2.05")}
    assert exits["model-solve"] == {0, 3}
    assert exits["verify-cc"] <= {0, 3}


def test_answer_dump_pins_one_blas_thread():
    # with 2 BLAS threads, 11 of these 100 cases print other last digits
    # than with 1, unless the script pins the count itself
    outs = []
    for threads in ("2", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        r = subprocess.run([sys.executable, str(REPO / "scripts" / "answer_dump.py"),
                            "operators/dipole_laplacian3d.json"], capture_output=True,
                           text=True, cwd=REPO, env=env, timeout=600)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert len(outs[0].splitlines()) == 100 and outs[0] == outs[1]


def test_sweep_dump_case_list(monkeypatch, capsys):
    from oppencil.operator_ast import parse_operator
    sweep = _script("sweep_dump")
    grids = {grid: list(cases()) for grid, cases in sweep.GRIDS.items()}
    assert {grid: len(rows) for grid, rows in grids.items()} == {
        "drift": 1440, "inverse_square": 648, "cc": 672}
    assert sweep.DEFAULT_GRIDS == ("drift", "inverse_square")
    # the cc grid runs the shipped documents, under their own names, the
    # four homogeneous constant-coefficient ones first
    names = ("laplacian2d", "laplacian3d", "dbar2d", "cr_system2d",
             "schrodinger_inverse_square3d", "dipole_laplacian3d")
    assert list(dict.fromkeys(name for name, _, _ in grids["cc"])) == [
        f"{name}.json" for name in names]
    for name, doc, argv in grids["cc"]:
        assert doc == json.loads((REPO / "operators" / name).read_text())
        assert argv[:3] == ["res", name, "--strip"] and float(argv[4]) - float(argv[3]) == 1
    docs = {}
    for name, doc, argv in grids["drift"] + grids["inverse_square"]:
        assert argv[:3] == ["res", name, "--strip"] and argv[5] == "--degree"
        assert docs.setdefault(name, doc) is doc   # one document per name
    assert len(docs) == 2 * 2 * 60 + 2 * 3 * 9
    assert len({tuple(argv) for _, _, argv in grids["drift"]}) == 1440
    # delta = 0 is the double root of mode l, D_l = (l + (n-2)/2)^2 + c = 0
    c = docs["inverse_square2d_l2_d+0.json"]["entries"][0]["terms"][-1]["poly"]
    assert c == {"0 0": [-4.0, 0.0]}
    assert all(parse_operator(doc) for doc in docs.values())
    # the rows are answer_dump's, under the stable name
    monkeypatch.setattr(sweep, "GRIDS", {"one": lambda: grids["inverse_square"][:1]})
    sweep.main(["one"])
    (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert row["argv"] == grids["inverse_square"][0][2] and row["exit"] == 0
    assert set(row) == {"argv", "exit", "stdout_sha256", "stderr", "answer"}


def _sweep_row(name, code, lines=None, stderr=""):
    return {"argv": ["res", name, "--strip", "-0.5", "3.5", "--degree", "4"], "exit": code,
            "stdout_sha256": "", "stderr": stderr,
            "answer": {"res_lines": lines} if code == 0 else None}


def test_sweep_dump_tally(tmp_path, capsys):
    # -Delta on R^2 on (-0.5, 3.5): lines 0, 1, 2, 3 of multiplicity 2, the
    # drift's total 8; -Delta - (1 + 1e-9) r^-2 puts the pairs of modes 0
    # and 1 on the centre line 2 and mode 2's lines at 2 -+ sqrt 3
    sweep = _script("sweep_dump")
    lap = {"0": 2, "1": 2, "2": 2, "3": 2}
    rows = [
        _sweep_row("drift2d_eps+0.005.json", 0, lap),
        _sweep_row("drift2d_eps-0.005.json", 3, stderr=(
            "numerical guard: eigenvalues at Im lambda = -1.5 belong to modes above "
            "degree 4; raise --degree to >= 5")),
        _sweep_row("inverse_square2d_l0_d+0.json", 0, lap),
        _sweep_row("inverse_square2d_l1_d-1e-09.json", 0, {"0.267949192431123": 2, "2": 6}),
        # the centre line without mode 0's pair: wrong at exit 0
        _sweep_row("inverse_square2d_l1_d-1e-09.json", 0, {"0.267949192431123": 2, "2": 4}),
        _sweep_row("inverse_square3d_l1_d+0.json", 3, stderr=(
            "numerical guard: strip boundary 2.5 lies on the critical line Im lambda = 2.5"))]
    path = tmp_path / "sweep.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert sweep.tally(path) == 1
    assert capsys.readouterr().out.splitlines() == [
        "drift cases: 2", "answered: 1", "  with the closed-form answer: 1",
        "  wrong at exit 0: 0", "refused: 1",
        "      1  exit 3: numerical guard: eigenvalues at Im lambda = # belong to modes "
        "above degree #; raise --degree to >= #",
        "inverse_square cases: 4", "answered: 3", "  with the closed-form answer: 2",
        "  wrong at exit 0: 1",
        "    res inverse_square2d_l1_d-1e-09.json --strip -0.5 3.5 --degree 4: lines "
        "{'0.267949192431123': 2, '2': 4}",
        "refused: 1",
        "      1  exit 3: numerical guard: strip boundary # lies on the critical line "
        "Im lambda = #"]
    del rows[4]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert sweep.tally(path) == 0


def test_sweep_dump_cc_tally(tmp_path, capsys):
    # a cc answer is right when it is the jump of the index formula across
    # its unit strip: -Delta on R^3 has the lines 2 - l and 3 + l of
    # multiplicity 2l + 1, so the strips around -1, 0, 2 and 10 jump by 7,
    # 5, 1 and 15.  -Delta + 0.25 r^-2 has mode 0's line 5/2 - sqrt(1/2)
    # in (1.5, 2.5), and the dipole operator must keep -Delta's total 1 there
    sweep = _script("sweep_dump")
    assert [sweep.cc_jump(3, [2], [0], k - 0.5, k + 0.5) for k in (-1, 0, 2, 10)] == \
        [7, 5, 1, 15]
    stderr = ("numerical guard: eigenvalues at Im lambda = 1 belong to modes above "
              "degree 2; raise --degree to >= 3")
    rows = [{"argv": ["res", f"{name}.json", "--strip", b1, b2, "--degree", "2"],
             "exit": code, "stdout_sha256": "", "stderr": "" if code == 0 else stderr,
             "answer": {"res_lines": lines} if code == 0 else None}
            for name, b1, b2, code, lines in (
                ("laplacian3d", "-0.5", "0.5", 0, {"0": 5}),
                ("laplacian3d", "9.5", "10.5", 0, {}),
                ("laplacian3d", "0.5", "1.5", 3, None),
                ("schrodinger_inverse_square3d", "1.5", "2.5", 0, {"1.792893218813452": 1}),
                ("dipole_laplacian3d", "1.5", "2.5", 0, {"1.9": 1, "2.1": 2}))]
    path = tmp_path / "sweep.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert sweep.tally(path) == 1
    assert capsys.readouterr().out.splitlines() == [
        "cc cases: 5", "answered: 4", "  with the closed-form answer: 2",
        "  wrong at exit 0: 2",
        "    res laplacian3d.json --strip 9.5 10.5 --degree 2: lines {}, formula jump 15",
        "    res dipole_laplacian3d.json --strip 1.5 2.5 --degree 2: total 3",
        "refused: 1",
        "      1  exit 3: numerical guard: eigenvalues at Im lambda = # belong to modes "
        "above degree #; raise --degree to >= #"]


def test_readme_examples_parse():
    from oppencil.cli import build_parser
    argvs = readme_commands()
    assert {argv[0] for argv in argvs} == set(FLAG_TABLE)
    for argv in argvs:
        build_parser().parse_args(argv)


class _Parsed(Exception):
    """Carries the Namespace that main would act on."""


def _parse_outcome(parse, capsys):
    """(the Namespace parsed, or the exit code), stdout, stderr of parse()."""
    try:
        parse()
        outcome = None
    except _Parsed as exc:
        outcome = exc.args[0]
    except SystemExit as exc:
        outcome = exc.code
    out, err = capsys.readouterr()
    return outcome, out, err


def test_main_parses_argv_once_as_parse_args_does(monkeypatch, capsys):
    # main hands argv that starts with a subcommand to that subcommand's
    # parser alone; every outcome matches the full parser's parse_args
    from oppencil import cli

    def stop(args):
        raise _Parsed(args)

    monkeypatch.setattr(cli, "_check_args", stop)
    res = ["res", "op.json", "--strip"]
    valid = readme_commands() + [res + ["-1e-3", "2.5"], res + ["-5.", "2.5"]]
    assert {argv[0] for argv in valid} == set(FLAG_TABLE)
    refused = [res + ["0", "1", "--bogus"], ["res", "op.json"], res + ["0", "1", "--", "x"],
               ["bogus"], []]
    helps = [["-h"], ["--version"], ["res", "-h"]]
    for argvs, kind in ((valid, argparse.Namespace), (refused, 2), (helps, 0)):
        for argv in argvs:
            want = _parse_outcome(lambda: stop(cli.build_parser().parse_args(argv)), capsys)
            assert _parse_outcome(lambda: cli.main(argv), capsys) == want, argv
            assert (type(want[0]) if kind is argparse.Namespace else want[0]) == kind, argv


def test_unread_settings_rejected_at_parse(capsys):
    from oppencil.cli import build_parser
    kept = rejected = 0
    for argv in {argv[0]: argv for argv in readme_commands()}.values():
        for flag, value in SETTINGS:
            if flag in FLAG_TABLE[argv[0]]:
                build_parser().parse_args(argv + [flag, value])
                kept += 1
                continue
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv + [flag, value])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            rejected += 1
    assert (kept, rejected) == (5, 28)


@pytest.mark.parametrize("argv", [
    ["verify-cc", "--window", "-0.5", "3.5", "--format", "csv"],
    ["spectrum", "--strip", "-0.5", "3.5", "--format", "csv"],
    ["res", "--strip", "-0.5", "3.5", "--seed", "1"],
    ["parse", "--threads", "2"],
])
def test_unread_setting_exit2(lap3_file, argv):
    r = run_cli([argv[0], lap3_file, *argv[1:]])
    assert r.returncode == 2
    assert "unrecognized arguments" in r.stderr
    assert r.stdout == ""


def test_answer_sha256_ignores_chains_and_residuals(lap3_file, capsys):
    from oppencil.cli import main
    dump = _script("answer_dump")
    assert main(["spectrum", lap3_file, "--strip", "0.5", "3.5", "--degree", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "convergence" not in report
    base = dump.answer_sha256(json.dumps(report))
    ep = report["eigenpoints"][0]
    ep["chains"] = [[[[-re, -im] for re, im in vec] for vec in chain]
                    for chain in ep["chains"]]
    ep["residuals"] = [2 * r for r in ep["residuals"]]
    assert dump.answer_sha256(json.dumps(report)) == base
    ep["algebraic"] += 1
    assert dump.answer_sha256(json.dumps(report)) != base


def _dump_rows(line, root, algebraic, guard_count, guard_root):
    answer = {"res_lines": {line: algebraic},
              "eigenpoints": [{"algebraic": algebraic, "lambda0": [root, 1.0]}]}
    spectrum = {"argv": ["spectrum", "op.json", "--strip", "-0.5", "3.5"], "exit": 0,
                "stdout_sha256": json.dumps(answer), "stderr": "", "answer": answer}
    guard = {"argv": ["index", "op.json", "--anchor", "cc"], "exit": 3, "answer": None,
             "stdout_sha256": "",
             "stderr": f"guard: chain count {guard_count} at ({guard_root}+1.9999999j)"}
    return [spectrum, guard]


def test_answer_dump_compare(tmp_path, capsys):
    dump = _script("answer_dump")
    paths = []
    for name, rows in [
            ("a", _dump_rows("1.00000000000", 0.0, 2, 2, "-0.009883002765371504")),
            # round-off in a keyed line, a value near zero and a stderr number
            ("b", _dump_rows("0.999999999999", 3e-16, 2, 2, "-0.00988300276477794")),
            # a multiplicity and an integer in stderr move
            ("c", _dump_rows("1.00000000000", 0.0, 1, 3, "-0.009883002765371504"))]:
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(row) + "\n" for row in rows))
    counts = "differ in stdout hash, exit code or first stderr line\n"
    assert dump.compare(paths[0], paths[0]) == 0
    assert capsys.readouterr().out == "2 cases, 0 moved; 0 " + counts
    # round-off moves no answer, but both cases' bytes differ
    assert dump.compare(paths[0], paths[1]) == 0
    assert capsys.readouterr().out == "2 cases, 0 moved; 2 " + counts
    assert dump.compare(paths[0], paths[2]) == 1
    assert capsys.readouterr().out == (
        "spectrum op.json --strip -0.5 3.5\n"
        "    answer.res_lines.1.00000000000: 2 -> 1\n"
        "    answer.eigenpoints[0].algebraic: 2 -> 1\n"
        "index op.json --anchor cc\n"
        "    stderr[1]: 2 -> 3\n"
        "2 cases, 2 moved; 2 " + counts)


def test_index_selfadjoint_builds_the_formal_adjoint_once(monkeypatch, capsys):
    from oppencil import operator_ast
    calls = []
    adjoint = operator_ast.formal_adjoint
    monkeypatch.setattr(operator_ast, "formal_adjoint",
                        lambda op: calls.append(op) or adjoint(op))
    code, _, err = _main(["index", str(REPO / "operators" / "laplacian2d.json"),
                          "--anchor", "selfadjoint", "--window", "0.4", "2.3",
                          "--degree", "6"], capsys)
    assert code == 0, err
    assert len(calls) == 1


def test_remembered_eigenpoints_are_refused_by_their_tail_mass(capsys):
    # the first strip remembers its 2 eigenpoints before the tail-mass
    # refusal; each later strip reads them back and is refused the same way
    from oppencil import pencil
    path = str(REPO / "operators" / "laplacian3d.json")
    for strip in (["0.5", "2.5"], ["0.5", "2.5"], ["0.5", "1.5"]):
        code, out, err = _main(["res", path, "--strip", *strip, "--degree", "0"], capsys)
        assert (code, out) == (3, "")
        assert err == ("numerical guard: eigenvalues at Im lambda = 1 belong to modes "
                       "above degree 0; raise --degree to >= 1\n")
        assert [len(P.points) for P in pencil._pencils.values()] == [2]


def _potential_file(tmp_path, n, radial_exponent, monomial, coeff):
    """-Delta on R^n plus the zeroth-order term coeff x^monomial r^radial_exponent."""
    doc = laplacian_doc(n)
    doc["entries"][0]["terms"].append(
        {"alpha": [0] * n, "radial_exponent": radial_exponent,
         "poly": {" ".join(map(str, monomial)): [coeff, 0.0]}})
    path = tmp_path / "potential.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("n, c, strip, degree, line, mult", [
    (3, -2.25 - 1e-9, ("0.6", "3.9"), "2", "2.5", 8),
    (2, -1 - 1e-9, ("0.5", "4.5"), "4", "2", 6)])
def test_res_line_printed_at_the_lines_value(tmp_path, capsys, n, c, strip, degree,
                                             line, mult):
    # -Delta + c r^-2 with c 1e-9 below -(1 + (n-2)/2)^2: mode 1 has a pair
    # split in Re lambda on the line (n + 2)/2, with Im parts the eigensolve
    # puts 2e-11 to 4e-11 off it, and mode 0 a pair on the same line; the
    # line prints at the run's weighted mean, not at its first eigenpoint
    path = _potential_file(tmp_path, n, -2.0, [0] * n, c)
    code, out, err = _main(["res", path, "--strip", *strip, "--degree", degree], capsys)
    assert code == 0, err
    assert json.loads(out)["res_lines"][line] == mult


def test_res_chains_near_double_drift_lines_under_their_own_det_orders(tmp_path, capsys):
    # -Delta + 0.005 (x1/r) r^-2 on R^2 splits the lines 1 and 3 by about
    # 5e-6: each of the near-double lines answers, its eigenpoint chained on
    # the blocks that own it under its own det order
    path = _potential_file(tmp_path, 2, -3.0, [1, 0], 0.005)
    code, out, err = _main(["res", path, "--strip", "-0.5", "3.5", "--degree", "6"],
                           capsys)
    assert code == 0, err
    lines = sorted((float(l), m) for l, m in json.loads(out)["res_lines"].items())
    assert [(round(l), m) for l, m in lines] == [(0, 2), (1, 1), (1, 1), (2, 2),
                                                 (3, 1), (3, 1)]


@pytest.mark.parametrize("n, eps, strip, total", [
    # the 7 eigenvalues at -1i lie within 1e-7 of each other, spread over
    # the blocks: each owner is read at its own members' mean
    (3, 0.005, ("-1.5", "2.5"), 16),
    # a near-double pair certifies on its own block
    (2, 0.166695, ("-0.5", "3.5"), 8),
    (2, -0.166695, ("-0.5", "3.5"), 8)])
def test_res_drift_strips_answer_their_closed_form(tmp_path, capsys, n, eps, strip, total):
    # -Delta + eps (x1/r) r^-2 keeps -Delta's strip total at half-integer
    # edges: lines 2 - l and n + l, each of the degree-l harmonics' dimension
    path = _potential_file(tmp_path, n, -3.0, [1] + [0] * (n - 1), eps)
    code, out, err = _main(["res", path, "--strip", *strip, "--degree", "4"], capsys)
    assert code == 0, err
    assert sum(json.loads(out)["res_lines"].values()) == total


def test_index_csv_matches_the_json_ledger(capsys):
    argv = ["index", LAP3, "--anchor", "cc", "--window", "0.5", "4.5", "--degree", "4"]
    code, out, err = _main(argv, capsys)
    assert code == 0, err
    comps = json.loads(out)["components"]
    code, out, err = _main(argv + ["--format", "csv"], capsys)
    assert code == 0, err
    assert out == "beta_left,beta_right,index\n" + "".join(
        f"{c['left']:.12g},{c['right']:.12g},{c['index']}\n" for c in comps)


@pytest.mark.parametrize("kind, flags, norm", [
    ("cl", ["--l", "1"], lambda u: weighted_cl_norm(u, 1, 0.5)),
    ("holder", ["--sigma", "0.5", "--samples", "256", "--seed", "3"],
     lambda u: weighted_holder_seminorm(u, 0.5, 0.5, samples=256, seed=3))])
def test_norm_kinds_match_the_library(tmp_path, capsys, kind, flags, norm):
    terms = [{"b": "-2", "c": 0, "poly": {"1 0 0": [1.0, 0.0]}}]
    expr = tmp_path / "u.json"
    expr.write_text(json.dumps(terms))
    code, out, err = _main(["norm", str(expr), "--kind", kind, "--n", "3",
                            "--beta", "0.5", *flags], capsys)
    assert code == 0, err
    doc = json.loads(out)
    doc.pop("tool_version")
    assert doc == {"kind": kind, "beta": 0.5, **norm(Expr.from_json(terms, 3)).to_json()}


def _unreadable(tmp_path, kind):
    """A path that names a directory or a file that is not UTF-8."""
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"n": 2, \xff}')
    return str(path)


@pytest.mark.parametrize("kind", ["non-UTF-8", "directory"])
@pytest.mark.parametrize("argv", [
    ["res", "FILE", "--strip", "0.5", "1.5"],
    ["norm", "FILE", "--kind", "cl", "--n", "2"],
    MODEL_SOLVE + ["--f-expr", "FILE"],
], ids=["operator", "expr", "f-expr"])
def test_unreadable_input_file_exit2(tmp_path, argv, kind, capsys):
    path = _unreadable(tmp_path, kind)
    code, out, err = _main([path if a == "FILE" else a for a in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("schema error: ") and path in err and err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_report_exit2(lap3_file, tmp_path, where, capsys):
    target = str(tmp_path / "no" / "x.json") if where == "missing" else str(tmp_path)
    code, out, err = _main(["parse", lap3_file, "-o", target], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: cannot write report to {target}: ")
    assert err.count("\n") == 1


def _counted_parses(monkeypatch):
    """The documents cli hands to parse_operator from now on."""
    from oppencil import cli
    calls = []
    parse = cli.parse_operator
    monkeypatch.setattr(cli, "parse_operator", lambda doc: calls.append(doc) or parse(doc))
    return calls


def test_a_repeated_document_is_parsed_once(monkeypatch, lap3_file, capsys):
    from oppencil import cli
    calls = _counted_parses(monkeypatch)
    for _ in range(2):
        code, _, err = _main(["res", lap3_file, "--strip", "0.5", "2.5",
                              "--degree", "2"], capsys)
        assert code == 0, err
    assert len(calls) == 1
    assert cli._load_operator(lap3_file) is cli._load_operator(lap3_file)
    assert len(calls) == 1


def test_a_rewritten_document_is_parsed_again(monkeypatch, tmp_path):
    from oppencil import cli
    calls = _counted_parses(monkeypatch)
    path = tmp_path / "op.json"
    path.write_text(json.dumps(inverse_square_doc(0.25)))
    before = cli._load_operator(str(path))
    path.write_text(json.dumps(inverse_square_doc(0.5)))
    after = cli._load_operator(str(path))
    assert len(calls) == 2 and before != after
    assert before.fingerprint() != after.fingerprint()


def test_a_failed_document_is_not_kept(monkeypatch, tmp_path, capsys):
    calls = _counted_parses(monkeypatch)
    doc = laplacian_doc(3)
    doc["nu"] = [1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    errs = []
    for _ in range(2):
        code, out, err = _main(["parse", str(path)], capsys)
        assert (code, out) == (2, "")
        errs.append(err)
    assert len(calls) == 2 and errs[0] == errs[1] and "nu" in errs[0]


def test_the_kept_documents_are_bounded(monkeypatch, tmp_path):
    from oppencil import cli
    from oppencil.pencil import _PENCIL_CAP
    calls = _counted_parses(monkeypatch)
    paths = []
    for c in range(_PENCIL_CAP + 1):
        paths.append(tmp_path / f"op{c}.json")
        paths[-1].write_text(json.dumps(inverse_square_doc(0.25 + c)))
    for path in paths:
        cli._load_operator(str(path))
    assert len(calls) == _PENCIL_CAP + 1
    cli._load_operator(str(paths[-1]))
    assert len(calls) == _PENCIL_CAP + 1
    cli._load_operator(str(paths[0]))
    assert len(calls) == _PENCIL_CAP + 2


def test_kept_documents_never_change_an_answer(tmp_path):
    dump = _script("answer_dump")
    csv_path = str(tmp_path / "f.csv")
    dump.write_f_csv(csv_path)
    argvs = [argv for name in ("laplacian3d", "cr_system2d")
             for argv in dump.cases(str(REPO / "operators" / f"{name}.json"))]
    first, second = ([dump.run_case(argv, csv_path) for argv in argvs] for _ in range(2))
    assert len(argvs) == 200 and first == second
