#!/usr/bin/env python3
"""Time `oppencil` commands, one-shot processes and calls inside one
process, and write the matrix as JSON.

Usage: python scripts/bench_matrix.py [--src DIR] [--base BASE] [--runs K] [-o FILE]

DIR (default: this checkout's src/) holds the oppencil package to time.
BASE, when given, holds a second one (a parent commit's src/ on a clone):
the two trees are then timed row by row in alternation, the first tree
switching from row to row, so that a drift of the host's speed falls on
both sides of each row alike, not on one tree's whole run.
Each row is one command on one operators/*.json document of this
checkout: `res`, `index --anchor cc`, `index --anchor selfadjoint`,
`verify-cc` and `adjoint-check` on (-0.5, 3.5) at degree 4, and
`model-solve --mode 0 --beta1 1.5 --beta2 2.5`.  A one-shot row runs
`python -m oppencil.cli` once untimed, then K times timed (default 5),
one process at a time, and records each timed run's exit code, wall
time and peak RSS (MB, read off os.wait4's rusage), the times' minimum
and median, the RSS median, and the first line of the last run's
stderr.

Rows run in two start modes, each on its own temporary copy of DIR
without __pycache__, so nothing is written into DIR or this checkout:
"bytecode", where the untimed run writes __pycache__ and the timed runs
read it (a user's installed package), and "fresh", with
PYTHONDONTWRITEBYTECODE=1 and no __pycache__, so every process compiles
the package's modules it loads (as perfbench's worker runs).  Every
process gets one BLAS thread, as perfbench's do.

In-process rows (`in_process_row`) time the same commands through
`oppencil.cli.main` in one worker process per tree (`serve_rows`), K
timed calls a row, and record the same fields; their minimum is the
row's time.  A worker that gives no answer within an hour is killed and
the matrix exits.  A "cold" row
clears the kept pencils (`pencil._pencils`) and documents
(`cli._parse_document`) before each call, so each call reads, parses,
assembles and solves (the ladder tables stay memoized); a "kept" row
makes one untimed call first and then repeats it, clearing nothing, as a
repeated request in a long-lived process runs.

Each row names its tree ("src" for DIR, "base" for BASE).  The file
also records each timed tree under `trees` (its git commit, whether it
differs from that commit, a sha256 of its .py files and their line
count), the Python and numpy versions, per tree the median row time and
RSS of each mode and command over the documents (`median_s` and
`median_rss_mb`, and `in_process_min_s` of the in-process rows'
minima), and perfbench/hostspeed.sample() before and after the matrix:
the calibration task's time tells a slow host from a slow tree.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_WINDOW = ["-0.5", "3.5", "--degree", "4"]
COMMANDS = {
    "res": ["res", "--strip", *_WINDOW],
    "index cc": ["index", "--anchor", "cc", "--window", *_WINDOW],
    "index selfadjoint": ["index", "--anchor", "selfadjoint", "--window", *_WINDOW],
    "verify-cc": ["verify-cc", "--window", *_WINDOW],
    "adjoint-check": ["adjoint-check", "--window", *_WINDOW],
    "model-solve": ["model-solve", "--mode", "0", "--beta1", "1.5", "--beta2", "2.5"],
}
MODES = ("bytecode", "fresh")
KINDS = ("cold", "kept")


def load_hostspeed():
    """perfbench/hostspeed.py, run from its source, so that no bytecode is
    written under perfbench/."""
    path = ROOT / "perfbench" / "hostspeed.py"
    module = types.ModuleType("hostspeed")
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def start_env(src_copy, mode):
    """The environment of every process timed on `src_copy` in `mode`."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(src_copy)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if mode == "fresh":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def copy_tree(src, dest):
    """A copy of the package tree `src` at `dest`, without __pycache__."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_once(env, cwd, argv, timeout=600):
    """One `python -m oppencil.cli` process: (wall time, exit code, peak
    RSS in MB read off os.wait4's rusage, stderr).  A run past `timeout`
    seconds is killed and raises subprocess.TimeoutExpired."""
    killed = []

    def kill(pid):
        killed.append(pid)
        os.kill(pid, signal.SIGKILL)

    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "oppencil.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as proc:
        timer = threading.Timer(timeout, kill, (proc.pid,))
        timer.start()
        try:
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)   # reaped: Popen must not wait
    if killed:
        raise subprocess.TimeoutExpired(proc.args, timeout, stderr=err)
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    return wall, proc.returncode, usage.ru_maxrss / (2 ** 20 if sys.platform == "darwin"
                                                     else 2 ** 10), err


def time_row(env, cwd, command, operator, runs):
    """One untimed run of `command` on `operator`, then `runs` timed ones."""
    argv = [COMMANDS[command][0], str(operator), *COMMANDS[command][1:]]
    timed = [run_once(env, cwd, argv) for _ in range(runs + 1)][1:]
    times, rss = [t for t, _, _, _ in timed], [r for _, _, r, _ in timed]
    return {"command": command, "operator": operator.stem,
            "exits": [code for _, code, _, _ in timed],
            "stderr": timed[-1][3].partition("\n")[0], "min_s": min(times),
            "median_s": statistics.median(times), "times_s": times,
            "median_rss_mb": statistics.median(rss), "rss_mb": rss}


def in_process_row(kind, command, operator, runs):
    """`runs` timed oppencil.cli.main calls of `command` on `operator` in
    this process: a "cold" row clears the kept pencils and documents
    before each call, a "kept" row makes one untimed call first."""
    from oppencil import cli, pencil
    argv = [COMMANDS[command][0], str(operator), *COMMANDS[command][1:]]

    def call():
        if kind == "cold":
            pencil._pencils.clear()
            cli._parse_document.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return time.perf_counter() - start, code, err.getvalue()

    if kind == "kept":
        call()
    calls = [call() for _ in range(runs)]
    times = [t for t, _, _ in calls]
    return {"kind": kind, "command": command, "operator": operator.stem,
            "exits": [code for _, code, _ in calls],
            "stderr": calls[-1][2].partition("\n")[0], "min_s": min(times),
            "median_s": statistics.median(times), "times_s": times}


def serve_rows(runs):
    """Answer each JSON line [kind, command, operator path] on stdin with
    its in_process_row as one JSON line (the worker's body)."""
    for line in sys.stdin:
        kind, command, operator = json.loads(line)
        print(json.dumps(in_process_row(kind, command, Path(operator), runs)), flush=True)


def start_worker(env, cwd, runs):
    """A serve_rows worker process with `env` (its PYTHONPATH names the
    timed package first)."""
    env = dict(env, PYTHONPATH=os.pathsep.join([env["PYTHONPATH"], str(ROOT / "scripts")]))
    return subprocess.Popen([sys.executable, "-c", "import bench_matrix; "
                             f"bench_matrix.serve_rows({int(runs)})"], cwd=cwd, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def ask(worker, kind, command, operator, timeout=3600):
    """One in-process row from a serve_rows worker.  A worker that has not
    answered after `timeout` seconds is killed, and the matrix exits."""
    worker.stdin.write(json.dumps([kind, command, str(operator)]) + "\n")
    worker.stdin.flush()
    # the worker writes one line per request, so nothing waits in the buffer
    ready = select.select([worker.stdout], [], [], timeout)[0]
    line = worker.stdout.readline() if ready else ""
    if not line:
        worker.kill()
        sys.exit(f"the in-process worker {'failed' if ready else f'hung past {timeout} s'} "
                 f"on {kind} {command} {operator.stem}")
    return json.loads(line)


def alternate(labels, r):
    """The order the trees run row r in: the first tree switches row by row."""
    return labels if r % 2 == 0 else labels[::-1]


def tree_record(src):
    """The timed tree: its commit, whether it differs from it, a hash and
    the line count of its .py files."""
    def git(*args):
        try:
            out = subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    files = sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for p in files:
        digest.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes() + b"\0")
    status = git("status", "--porcelain", "--", ".")
    return {"commit": git("rev-parse", "HEAD"),
            "differs_from_commit": None if status is None else bool(status),
            "src_sha256": digest.hexdigest(),
            "src_lines": sum(len(p.read_text().splitlines()) for p in files)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory holding the oppencil package (default: src/)")
    p.add_argument("--base", type=Path,
                   help="a second package tree, timed row by row in alternation with DIR")
    p.add_argument("--runs", type=int, default=5, help="timed runs per row")
    p.add_argument("-o", "--output", help="write the JSON here (default: stdout)")
    args = p.parse_args(argv)
    trees = {"src": args.src.resolve()}
    if args.base is not None:
        trees["base"] = args.base.resolve()
    if args.runs < 1 or not all((t / "oppencil" / "cli.py").is_file() for t in trees.values()):
        p.error("need --runs >= 1 and " + " and ".join(f"{t}/oppencil/cli.py"
                                                      for t in trees.values()))
    labels = list(trees)[::-1]   # with two trees, the first row runs the base first
    operators = sorted((ROOT / "operators").glob("*.json"))
    hostspeed = load_hostspeed()
    out = {"trees": {label: tree_record(t) for label, t in trees.items()},
           "python": platform.python_version(),
           "numpy": importlib.metadata.version("numpy"), "runs": args.runs,
           "blas_threads": 1, "hostspeed_before_s": hostspeed.sample(), "rows": [],
           "in_process_rows": []}
    with tempfile.TemporaryDirectory() as tmp:
        # copies under names of one length, so no tree's paths are longer
        home = {label: Path(tmp) / f"tree{k}" for k, label in enumerate(trees)}
        for mode in MODES:
            envs = {label: start_env(copy_tree(t, home[label] / mode), mode)
                    for label, t in trees.items()}
            grid = [(operator, command) for operator in operators for command in COMMANDS]
            for r, (operator, command) in enumerate(grid):
                for label in alternate(labels, r):
                    row = time_row(envs[label], tmp, command, operator, args.runs)
                    out["rows"].append({"tree": label, "mode": mode, **row})
                    print(f"{label} {mode} {command} {operator.stem}: exits {row['exits']}, "
                          f"median {row['median_s'] * 1e3:.1f} ms, "
                          f"{row['median_rss_mb']:.2f} MB", file=sys.stderr)
            if mode == "fresh" and any(any((home[label] / mode).rglob("__pycache__"))
                                       for label in trees):
                sys.exit("a fresh run wrote __pycache__")
        # each worker imports its tree's fresh copy, which it leaves without bytecode
        workers = {label: start_worker(start_env(home[label] / "fresh", "fresh"), tmp,
                                       args.runs) for label in trees}
        grid = [(kind, operator, command) for kind in KINDS for operator in operators
                for command in COMMANDS]
        try:
            for r, (kind, operator, command) in enumerate(grid):
                for label in alternate(labels, r):
                    row = {"tree": label, **ask(workers[label], kind, command, operator)}
                    out["in_process_rows"].append(row)
                    print(f"{label} in-process {kind} {command} {operator.stem}: exits "
                          f"{row['exits']}, min {row['min_s'] * 1e3:.2f} ms", file=sys.stderr)
            for worker in workers.values():
                worker.stdin.close()
                worker.wait(timeout=60)
        finally:   # no worker outlives the matrix
            for worker in workers.values():
                worker.kill()
    out["hostspeed_after_s"] = hostspeed.sample()

    def medians(rows, field, group, groups):
        return {label: {g: {command: statistics.median(
            r[field] for r in rows if (r["tree"], r[group], r["command"]) == (label, g, command))
            for command in COMMANDS} for g in groups} for label in trees}

    out["median_s"] = medians(out["rows"], "median_s", "mode", MODES)
    out["median_rss_mb"] = medians(out["rows"], "median_rss_mb", "mode", MODES)
    out["in_process_min_s"] = medians(out["in_process_rows"], "min_s", "kind", KINDS)
    text = json.dumps(out, indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
