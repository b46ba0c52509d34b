"""Static hygiene of the package: no unused imports, no orphaned definitions,
no dead local assignments, no unread parameters.

No linter ships with the toolchain, so five rules are checked on the ast:
every name a module of src/oppencil (__init__.py included), tests/ or
scripts/ imports is used in that module; every module-level function or
class of src/oppencil, and every method of such a class (dunders exempt),
is referenced somewhere in src/ or scripts/ outside its own definition
(what only the tests call belongs in tests/oracles.py); every name a
plain module-level `name = ...` assignment of src/oppencil binds is read
somewhere in src/; every name a plain `name = ...` assignment binds
inside a src/oppencil function is read by that function (names starting
with `_` are exempt); and every parameter of a src/oppencil function is
read by that function (self, cls and `_`-names are exempt).  A bare name
cannot tell apart the methods of two classes that share it, so each such
method must instead be called by one run of each CLI subcommand, as a
profiler sees it.

The program runs on numpy alone: a CLI run in a fresh interpreter loads no
scipy module (the tests use scipy only as an independent oracle), no
numpy.ma, neither the index ledger nor the model solver unless its
command runs one, and neither numpy.random nor OpenSSL.

The modules form layers (LAYERS): each imports only modules before it, so
the document codec and the exact rings sit below the operators, and the
weighted norms are a leaf that the solvers never load and the CLI loads
only in its norm command.
"""

import ast
import importlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "oppencil"
MODULES = sorted(PACKAGE.glob("*.py"))
LAYERS = ("errors", "radial_algebra", "operator_ast", "weighted_norms", "pencil",
          "spectrum", "index_ledger", "model_solver", "cli")


def _identifiers(node):
    """Every identifier a subtree refers to: names, attributes, and the
    names pulled in by from-imports."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize(
    "path", MODULES + sorted((REPO / "tests").glob("*.py"))
    + sorted((REPO / "scripts").glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else str(p.relative_to(REPO)))
def test_imports_are_used(path):
    tree = _parse(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def _methods():
    """(module, class, method) of every method of a src/oppencil class,
    dunders exempt, in file order."""
    return [(path.stem, node.name, f.name) for path in MODULES
            for node in _parse(path).body if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.FunctionDef)
            and not (f.name.startswith("__") and f.name.endswith("__"))]


def _shared_method_names():
    """The method names two or more src/oppencil classes define: a bare
    name cannot tell their references apart."""
    count = Counter(name for _, _, name in _methods())
    return {name for name, c in count.items() if c > 1}


def test_definitions_are_referenced():
    # a method whose name another class's method shares is checked by
    # test_shared_name_methods_are_called instead
    files = [p for d in ("src", "scripts") for p in (REPO / d).rglob("*.py")]
    total = Counter()
    for p in files:
        total.update(_identifiers(_parse(p)))
    shared = _shared_method_names()
    orphans = []
    for path in MODULES:
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{f.name}", f) for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name not in shared
                         and not (f.name.startswith("__") and f.name.endswith("__"))]
            orphans += [f"{path.name}:{label}" for label, d in defs
                        if total[d.name] - _identifiers(d)[d.name] <= 0]
    assert orphans == []


def _code(attr):
    """The code object a class attribute runs: a function's, or a property's
    or cached_property's getter's."""
    fn = getattr(attr, "fget", None) or getattr(attr, "func", None) or attr
    return fn.__code__


def test_shared_name_methods_are_called(tmp_path, capsys):
    # one run of each subcommand of cli.main, under a profiler that records
    # every Python function called: each method whose name another class's
    # method shares must be among them
    from oppencil import cli
    lap = json.loads((REPO / "operators" / "laplacian3d.json").read_text())
    lap["entries"][0]["terms"][0]["perturbation"] = [
        {"b": "-3", "c": 1, "poly": {"1 0 0": [0.5, 0.25]}}]
    # x1^2 is not harmonic, so its Gauss split scales a part (HomogPoly.scale)
    lap["entries"][0]["terms"].append(
        {"alpha": [0, 0, 0], "radial_exponent": -4.0, "poly": {"2 0 0": [0.5, 0.0]}})
    op = tmp_path / "op.json"
    op.write_text(json.dumps(lap))
    expr = tmp_path / "u.json"
    expr.write_text(json.dumps([{"b": "-2", "c": 0, "poly": {"1 0 0": [1.0, 0.0]}}]))
    plain, strip = REPO / "operators" / "laplacian3d.json", ["--degree", "2"]
    runs = [["parse", op], ["adjoint", op],
            ["ellipticity", plain, "--xi-samples", "20", "--x-samples", "10"],
            ["pencil", plain, "--degree", "2"],
            ["spectrum", plain, "--strip", "-0.5", "2.5", *strip],
            ["res", plain, "--strip", "-0.5", "2.5", *strip],
            ["index", plain, "--anchor", "cc", "--window", "-0.5", "2.5", *strip],
            ["index", plain, "--anchor", "selfadjoint", "--window", "-0.5", "2.5", *strip],
            ["adjoint-check", plain, "--window", "-0.5", "2.5", *strip],
            ["model-solve", plain, "--mode", "1", "--beta1", "-0.5", "--beta2", "1.5"],
            ["verify-cc", plain, "--window", "-0.5", "2.5", *strip]]
    runs += [["norm", expr, "--kind", kind, "--n", "3", *flags] for kind, flags in (
        ("sobolev", []), ("cl", ["--l", "1"]),
        ("holder", ["--samples", "256", "--seed", "3"]), ("decay", ["--beta", "1"]))]
    called, codes = set(), []

    def profile(frame, event, _):
        if event == "call":
            called.add(frame.f_code)

    for argv in runs:
        sys.setprofile(profile)
        try:
            code = cli.main([str(a) for a in argv])
        finally:
            sys.setprofile(None)
        codes.append((argv[0], code, capsys.readouterr().err))
    assert codes == [(argv[0], 0, "") for argv in runs]
    shared = _shared_method_names()
    uncalled = [f"{module}.{cls}.{name}" for module, cls, name in _methods()
                if name in shared and _code(vars(getattr(
                    importlib.import_module(f"oppencil.{module}"), cls))[name]) not in called]
    assert shared and uncalled == []


def test_module_constants_are_read():
    read = set()
    for path in MODULES:
        for n in ast.walk(_parse(path)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    unread = [f"{path.name}:{t.id}"
              for path in MODULES
              for node in _parse(path).body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name) and t.id not in read]
    assert unread == []


def _unread_locals(func):
    """Names a plain `name = ...` assignment binds in func's own scope that
    nothing in func (nested functions included) reads; `_`-names exempt."""
    bound, declared, stack = set(), set(), list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    read = {n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(name for name in bound - read - declared if not name.startswith("_"))


def test_assigned_locals_are_read():
    dead = [f"{path.name}:{node.name}:{name}"
            for path in MODULES for node in ast.walk(_parse(path))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for name in _unread_locals(node)]
    assert dead == []


def _unread_params(func):
    """Parameters of func that nothing in func (nested functions included)
    reads; self, cls and `_`-names exempt."""
    a = func.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    read = {n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [p for p in params
            if p not in read and p not in ("self", "cls") and not p.startswith("_")]


def test_parameters_are_read():
    unread = [f"{path.name}:{node.name}:{name}"
              for path in MODULES for node in ast.walk(_parse(path))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for name in _unread_params(node)]
    assert unread == []


_WINDOW = "-0.5 3.5 --degree 4"
_SOLVER, _LEDGER = "oppencil.model_solver", "oppencil.index_ledger"
# (argv, the modules it must not load besides numpy.random and OpenSSL
# (_hashlib), which no run loads): the second word of argv names
# operators/<name>.json, or for norm an expression document.  The ledger
# and the model solver load only with the commands that run them.  The
# fingerprint hashes with the interpreter's own SHA-256 module, and the
# coupled compressions (cr_system2d's complex one, anisotropic2d's real
# one) and norm --kind holder draw from a counter stream, not numpy.random,
# whose secrets -> hmac would map OpenSSL
_RUNS = [(f"spectrum laplacian3d --strip {_WINDOW}", {_SOLVER}),
         (f"res laplacian3d --strip {_WINDOW}", {_SOLVER}),
         (f"res anisotropic2d --strip {_WINDOW}", {_SOLVER}),
         (f"index laplacian3d --anchor selfadjoint --window {_WINDOW}", {_SOLVER}),
         (f"index cr_system2d --anchor cc --window {_WINDOW}", {_SOLVER}),
         (f"verify-cc laplacian3d --window {_WINDOW}", {_SOLVER}),
         (f"adjoint-check laplacian3d --window {_WINDOW}", {_SOLVER}),
         ("model-solve laplacian3d --mode 1 --beta1 -0.5 --beta2 1.5", {_LEDGER}),
         ("norm u --kind holder --n 3 --samples 1024", {_SOLVER, _LEDGER})]


@pytest.mark.parametrize("argv, absent", _RUNS,
                         ids=["-".join(argv.split()[:2]) for argv, _ in _RUNS])
def test_cli_run_loads_no_scipy(tmp_path, argv, absent):
    # nor numpy.ma, which a flag-less np.unique imports
    command, name, *flags = argv.split()
    out, here = tmp_path / "report.json", tmp_path / "here.json"
    doc = REPO / "operators" / f"{name}.json"
    if command == "norm":
        doc = tmp_path / f"{name}.json"
        doc.write_text(json.dumps([{"b": "-2", "c": 0, "poly": {"1 0 0": [1.0, 0.0]}}]))
    argv = [command, str(doc), *flags, "-o"]
    absent = ("numpy.ma", "numpy.random", "_hashlib", *sorted(absent))
    code = ("import json, sys\n"
            "from oppencil.cli import main\n"
            f"code = main({[*argv, str(out)]!r})\n"
            "print(json.dumps([code, sorted(m for m in sys.modules\n"
            "                                if m.partition('.')[0] == 'scipy'\n"
            f"                                or m in {absent!r})]))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd=REPO, timeout=120)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [0, []]
    # the fresh interpreter writes the report this one writes
    from oppencil.cli import main
    assert main([*argv, str(here)]) == 0
    assert out.read_text() == here.read_text()
    assert command != "res" or json.loads(out.read_text())["res_lines"]


def test_modules_import_only_lower_layers():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES if p.stem != "__init__")
    upward = []
    for path in (p for p in MODULES if p.stem in LAYERS):
        below = LAYERS[:LAYERS.index(path.stem)]
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                upward += [f"{path.stem} -> {m}" for m in names
                           if m in LAYERS and m not in below]
    assert upward == []


def test_solvers_load_no_weighted_norms():
    code = ("import sys\n"
            "import oppencil.spectrum, oppencil.index_ledger, oppencil.model_solver\n"
            "import oppencil.cli\n"
            "print('oppencil.weighted_norms' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd=REPO, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"
