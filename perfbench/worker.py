"""One fresh benchmark process: set up, then (optionally) run timed requests.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --role setup|timed|traced --out DIR

Prints one JSON object on its last stdout line.  ``setup`` imports the
program and runs the warm-up pass, with a host-speed calibration sample
(``hostspeed.py``) before and after it; ``timed`` then sends the run's blocks of
requests through ``oppencil.cli.main``, as many as ``--seconds`` asks for
(see ``workloads.block_count``), with a calibration sample after each;
``traced`` sends half of them, each
twice, untraced and traced, in alternating order.
"""

from __future__ import annotations

import time

import hostspeed

# the host's speed as set-up starts, then set-up's clock
_CAL0 = hostspeed.sample()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

EXIT_CLASSES = {2: "schema", 3: "guard", 4: "not_applicable"}


def check_report(req, report):
    """None when the report matches the reference, else the reason."""
    chk = req.check
    kind = chk["kind"]
    if kind == "res":
        return ref.check_res(report, chk["lines"])
    if kind == "ledger":
        return ref.check_ledger(report, chk["lines"], chk["indices"])
    if kind == "total":
        return ref.check_total(sum(report["res_lines"].values()), chk["total"])
    if kind == "model":
        return ref.check_model(report, chk["poles"])
    raise ValueError(f"unknown check {kind!r}")


class Client:
    """Sends one request at a time through the CLI and checks the answer."""

    def __init__(self, cli, out_dir: Path):
        self.cli = cli
        self.op_path = out_dir / "operator.json"
        self.report_path = out_dir / "report.json"

    def send(self, req):
        """Returns (seconds, outcome, reason); outcome is ok, wrong, guard,
        schema, not_applicable or crash."""
        with open(self.op_path, "w") as fh:
            json.dump(req.doc, fh)
        if self.report_path.exists():
            self.report_path.unlink()
        argv = [req.argv[0], str(self.op_path), *req.argv[1:],
                "-o", str(self.report_path)]
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a stop
            return time.perf_counter() - start, "crash", repr(exc)[:200]
        seconds = time.perf_counter() - start
        if rc != 0:
            return seconds, EXIT_CLASSES.get(rc, "crash"), \
                f"exit {rc}: {err.getvalue().strip()[:200]}"
        try:
            with open(self.report_path) as fh:
                report = json.load(fh)
            reason = check_report(req, report)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return seconds, "wrong", f"unreadable report: {exc!r}"[:200]
        return seconds, ("ok" if reason is None else "wrong"), reason


def set_up(workload, seed, out_dir):
    import oppencil.cli as cli
    client = Client(cli, out_dir)
    for req in wl.warmup_requests(workload, seed):
        client.send(req)
    return client, time.perf_counter() - _T0


def harmonic_basis_misses():
    """Misses of the harmonic-basis cache so far, or None if it is gone."""
    try:
        import oppencil.radial_algebra as ra
    except ImportError:
        return None
    info = getattr(getattr(ra, "harmonic_basis", None), "cache_info", None)
    return info().misses if info else None


def record(req, seconds, outcome, reason):
    return {"slot": req.slot, "argv": req.argv, "seconds": seconds,
            "outcome": outcome, "reason": reason,
            "known": wl.is_known(req, outcome, reason)}


def run_blocks(workload, seed, count, step):
    """Send the first `count` blocks."""
    for block, _ in zip(wl.blocks(workload, seed, "timed"), range(count)):
        for req in block:
            step(req)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--role", required=True, choices=("setup", "timed", "traced"))
    p.add_argument("--out", required=True)
    args = p.parse_args()
    out_dir = Path(args.out)

    client, setup_s = set_up(args.workload, args.seed, out_dir)
    cal = [hostspeed.sample()]
    result = {"setup_raw_s": setup_s,
              "setup_s": hostspeed.scale(setup_s, _CAL0, cal[0])}
    count = wl.block_count(args.workload, args.seconds)

    if args.role == "timed":
        requests = []

        def step(req):
            # a request's cycle adds the client's own file writes and
            # answer check to the program's time; calibration samples
            # bracket each request
            start = time.perf_counter()
            rec = record(req, *client.send(req))
            rec["cycle_s"] = time.perf_counter() - start
            cal.append(hostspeed.sample())
            rec["scaled_s"] = hostspeed.scale(rec["seconds"], cal[-2], cal[-1])
            rec["scaled_cycle_s"] = hostspeed.scale(rec["cycle_s"], cal[-2],
                                                    cal[-1])
            requests.append(rec)
        run_blocks(args.workload, args.seed, count, step)
        result["requests"] = requests
        result["calibration_s"] = cal

    elif args.role == "traced":
        tracer = tr.Tracer()
        requests, layers, pairs = [], [], []

        def step(req):
            rid = len(layers)
            traced_first = rid % 2 == 1
            for traced in ((True, False) if traced_first else (False, True)):
                if traced:
                    tracer.install()
                    tracer.begin(rid)
                    try:
                        out = client.send(req)
                    finally:
                        counts = tracer.end()
                        tracer.uninstall()
                    t_traced = out[0]
                else:
                    out = client.send(req)
                    t_plain = out[0]
                requests.append(record(req, *out))
            counts.update(tr.request_layers(tracer.spans, rid))
            layers.append(counts)
            pairs.append((t_plain, t_traced))
        # every request runs twice here, so half the blocks fill the time
        run_blocks(args.workload, args.seed, -(-count // 2), step)
        result["requests"] = requests
        result["layers"] = layers
        result["pairs"] = pairs
        result["absent_hooks"] = tracer.absent
        tracer.write(out_dir / "spans.jsonl")

    result["harmonic_basis_misses"] = harmonic_basis_misses()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
