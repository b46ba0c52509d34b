"""oppencil benchmark: seeded CLI workloads, answer checks, per-layer spans.

    python3 perfbench/run.py --workload scalar_sweep --seed 1 --seconds 29 --trace 0

Run from the root of a source checkout.  Each workload is a closed loop
with one client: the next request goes out when the previous one returns.
``--trace 0`` starts three fresh processes (two that only set up, one that
sets up and runs the timed requests) and prints the end-to-end metrics;
``--trace 1`` starts one process that runs every request untraced and
traced and prints the per-layer metrics.  Every report is checked against
a closed-form reference.  The end-to-end times are scaled to a reference
host speed by a calibration task timed around each request
(``hostspeed.py``); the raw wall-time figures are printed next to them.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed as hs  # noqa: E402
import workloads as wl  # noqa: E402

SETUPS_PER_RUN = 3      # set-up is measured in this many fresh processes
BLAS_THREADS = 1        # one client, one core's worth of BLAS
DEADLINE_S = 170        # every run ends within this many seconds

END_TO_END = [
    ("throughput_rps", "req/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("fail_ratio", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# per-layer metric -> (unit, gate, value); a request contributes to the
# metric's median only when its `gate` count is non-zero
PER_LAYER = [
    ("pencil.assemble_s", "s", "pencil.assemble_calls", "pencil.assemble_s"),
    ("pencil.assemble_calls", "count", "pencil.assemble_calls",
     "pencil.assemble_calls"),
    ("radial_algebra.harmonic_decompose_calls", "count",
     "pencil.assemble_calls", "radial_algebra.harmonic_decompose_calls"),
    ("radial_algebra.differentiate_calls", "count", "pencil.assemble_calls",
     "radial_algebra.differentiate_calls"),
    ("radial_algebra.multiply_power_poly_calls", "count",
     "pencil.assemble_calls", "radial_algebra.multiply_power_poly_calls"),
    ("radial_algebra.harmonic_basis_misses", "count", None, None),
    ("pencil.work_dim", "count", "pencil.assemble_calls", "pencil.work_dim"),
    ("pencil.bandwidth", "count", "pencil.assemble_calls", "pencil.bandwidth"),
    ("spectrum.eigensolve_s", "s", "spectrum.eigensolve_calls",
     "spectrum.eigensolve_s"),
    ("spectrum.eigensolve_calls", "count", "spectrum.eigensolve_calls",
     "spectrum.eigensolve_calls"),
    ("spectrum.candidates", "count", "spectrum.eigensolve_calls",
     "spectrum.candidates"),
    ("pencil.evaluate_calls", "count", "spectrum.eigensolve_calls",
     "pencil.evaluate_calls"),
    ("spectrum.chains_s", "s", "spectrum.chains_calls", "spectrum.chains_s"),
    ("spectrum.chains_calls", "count", "spectrum.strip_calls",
     "spectrum.chains_calls"),
    ("spectrum.det_order_s", "s", "spectrum.det_order_calls",
     "spectrum.det_order_s"),
    ("spectrum.kept_ratio", "1", "spectrum.chains_calls", "kept_ratio"),
    ("spectrum.strip_s", "s", "spectrum.strip_calls", "spectrum.strip_s"),
    ("index_ledger.ledger_s", "s", "index_ledger.ledger_calls",
     "index_ledger.ledger_s"),
    ("model_solver.line_solve_s", "s", "model_solver.line_solve_calls",
     "model_solver.line_solve_s"),
    ("model_solver.line_solve_calls", "count", "model_solver.expansion_calls",
     "model_solver.line_solve_calls"),
    ("model_solver.grid_points", "count", "model_solver.expansion_calls",
     "model_solver.grid_points"),
    ("model_solver.expansion_s", "s", "model_solver.expansion_calls",
     "model_solver.expansion_s"),
    ("model_solver.mode_pencil_s", "s", "model_solver.mode_pencil_calls",
     "model_solver.mode_pencil_s"),
    ("operator_ast.parse_s", "s", "operator_ast.parse_calls",
     "operator_ast.parse_s"),
    ("cli.main_s", "s", None, "cli.main_s"),
    ("cli.self_s", "s", None, "cli.self_s"),
    ("trace.overhead_ratio", "1", None, None),
]

def run_record(nproc):
    """Machine and code facts printed with every run (not gated)."""
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": nproc, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_commit": commit or "unknown (not a git checkout)",
            "src_lines": src_lines, "machine": platform.machine()}


def start_worker(args, role, out_dir, env, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--role", role, "--out", str(out_dir)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"{role} worker ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values):
    """Highest order statistic with at least 10 samples above it: returns
    (value, percentile, sample count)."""
    vals = sorted(values)
    n = len(vals)
    k = max(n - 11, 0)
    pct = 100.0 * k / (n - 1) if n > 1 else 0.0
    return vals[k], pct, n


def failure_summary(requests):
    """(failed count, unexplained failures, per-class counts)."""
    classes = Counter()
    unexplained = []
    for r in requests:
        if r["outcome"] == "ok":
            continue
        known = r["known"]
        classes[(r["outcome"], "known" if known else "other")] += 1
        if r["outcome"] in ("schema", "not_applicable", "crash") or \
                (r["outcome"] == "wrong" and not known):
            unexplained.append(r)
    return sum(classes.values()), unexplained, classes


def end_to_end(setups, timed):
    """End-to-end metrics in host-scaled seconds (see hostspeed.py); the
    same figures in raw wall time are printed alongside."""
    reqs = timed["requests"]
    failed, _, _ = failure_summary(reqs)
    figures = {}
    for kind, lat, cycle, setup in (
            ("scaled", "scaled_s", "scaled_cycle_s", "setup_s"),
            ("raw", "seconds", "cycle_s", "setup_raw_s")):
        tail, pct, n = tail_percentile([r[lat] for r in reqs])
        figures[kind] = {
            "throughput_rps": len(reqs) / sum(r[cycle] for r in reqs),
            "latency_p50_s": statistics.median(r[lat] for r in reqs),
            "latency_tail_s": tail,
            "setup_s": statistics.median(s[setup] for s in setups),
        }
    print(f"latency_tail_s is the p{pct:.1f} latency of {n} requests "
          f"(the {min(11, n)}th largest)")
    cal = timed["calibration_s"]
    print(f"host speed: calibration task median {statistics.median(cal) * 1e3:.3f} ms "
          f"(min {min(cal) * 1e3:.3f}, max {max(cal) * 1e3:.3f}) against the "
          f"reference {hs.REFERENCE_S * 1e3:.3f} ms")
    print("raw wall time: " + ", ".join(f"{k} = {v:.6g}"
                                        for k, v in figures["raw"].items()))
    metrics = {**figures["scaled"], "fail_ratio": failed / len(reqs),
               "peak_rss_mb": timed["peak_rss_mb"]}
    return {name: metrics[name] for name, _ in END_TO_END}


def per_layer(traced):
    layers = traced["layers"]
    for counts in layers:
        chains = counts.get("spectrum.chains_calls", 0)
        if chains:
            counts["kept_ratio"] = counts.get("spectrum.kept", 0) / chains
    out = {}
    for name, _unit, gate, key in PER_LAYER:
        if key is None:
            continue
        vals = [c.get(key, 0) for c in layers if gate is None or c.get(gate)]
        out[name] = float(statistics.median(vals)) if vals else 0.0
    total = sum(c.get("cli.main_s", 0.0) for c in layers)
    for name, unit, _, key in PER_LAYER:
        if unit == "s" and key != "cli.main_s":
            share = sum(c.get(key, 0.0) for c in layers) / total
            print(f"share of traced request time: {name} {100 * share:.1f}%")
    misses = traced["harmonic_basis_misses"]
    if misses is None:
        print("absent: oppencil.radial_algebra.harmonic_basis.cache_info")
    out["radial_algebra.harmonic_basis_misses"] = float(misses or 0)
    plain = sum(p for p, _ in traced["pairs"])
    out["trace.overhead_ratio"] = sum(t for _, t in traced["pairs"]) / plain
    if traced["absent_hooks"]:
        print("absent hooks: " + ", ".join(traced["absent_hooks"]))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "oppencil" / "cli.py").is_file():
        sys.exit(f"no oppencil sources under {ROOT / 'src'}; run from a checkout")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, nproc))
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    record = run_record(nproc)
    print("run record: " + json.dumps(record, sort_keys=True))

    if args.trace:
        traced = start_worker(args, "traced", out_dir, env, deadline)
        requests = traced["requests"]
        metrics = per_layer(traced)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        setups = [start_worker(args, "setup", out_dir, env, deadline)
                  for _ in range(SETUPS_PER_RUN - 1)]
        timed = start_worker(args, "timed", out_dir, env, deadline)
        setups.append(timed)
        requests = timed["requests"]
        metrics = end_to_end(setups, timed)
        units = dict(END_TO_END)

    failed, unexplained, classes = failure_summary(requests)
    for (outcome, known), count in sorted(classes.items()):
        print(f"failed: {count} x {outcome} ({known})")
    for r in unexplained[:10]:
        print(f"unexplained failure: {r['slot']} {' '.join(r['argv'])}: "
              f"{r['outcome']}: {r['reason']}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")

    with open(out_dir / "requests.json", "w") as fh:
        json.dump({"record": record, "requests": requests}, fh, indent=1)
    print(json.dumps({
        "correct": not unexplained,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
