"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import laplacian_doc, dbar_doc, inverse_square_doc

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


def test_parse_malformed_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "k": 1, "mu": [2], "nu": [1], "entries": []}')
    r = run_cli(["parse", str(bad)])
    assert r.returncode == 2
    assert "nu" in r.stderr  # pointer to the offending field


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
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "line,multiplicity"
    assert len(lines) == 5


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


def test_run_config_programmatic(lap3_file, tmp_path):
    from oppencil.cli import RunConfig, run
    out = tmp_path / "report.json"
    cfg = RunConfig(command="res", operator_path=lap3_file, beta1=-0.5,
                    beta2=3.5, degree=6, output=str(out))
    assert run(cfg) == 0
    doc = json.loads(out.read_text())
    assert doc["res_lines"] == {"0": 5, "1": 3, "2": 1, "3": 1}


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


def test_negative_degree_exit2(lap3_file):
    r = run_cli(["res", lap3_file, "--strip", "-0.5", "3.5", "--degree", "-3"])
    assert r.returncode == 2
    assert "--degree" in r.stderr


def test_inverted_strip_exit2(lap3_file):
    r = run_cli(["res", lap3_file, "--strip", "3.5", "-0.5"])
    assert r.returncode == 2
    assert "BETA1 < BETA2" in r.stderr


def test_non_finite_strip_exit2(lap3_file):
    r = run_cli(["res", lap3_file, "--strip", "-0.5", "inf"])
    assert r.returncode == 2
    assert "finite" in r.stderr
