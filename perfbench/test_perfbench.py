"""Self-checks of the benchmark: seeded generators and closed-form references.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _flat(blocks, count):
    out = []
    for _ in range(count):
        out.extend((r.slot, r.doc, r.argv, r.check, r.known) for r in next(blocks))
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic(workload):
    a = _flat(wl.blocks(workload, 7), 2)
    b = _flat(wl.blocks(workload, 7), 2)
    assert a == b
    assert _flat(wl.blocks(workload, 8), 2) != a


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_warmup_stream_never_repeats_timed_inputs(workload):
    it = wl.blocks(workload, 3)
    timed = {(str(r.doc), tuple(r.argv)) for _ in range(3) for r in next(it)}
    warm = wl.warmup_requests(workload, 3)
    assert warm == wl.warmup_requests(workload, 3)
    assert not timed & {(str(r.doc), tuple(r.argv)) for r in warm}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_blocks_keep_their_slot_mix(workload):
    cycle = wl.CYCLE[workload]
    slots = [[r.slot for r in b]
             for b, _ in zip(wl.blocks(workload, 11), range(3 * cycle))]
    assert slots[cycle:] == slots[:-cycle]


def _run_inputs(workload, seed, seconds):
    count = wl.block_count(workload, seconds)
    return [r for b, _ in zip(wl.blocks(workload, seed), range(count)) for r in b]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_run_size_follows_seconds_only(workload):
    count = wl.block_count(workload, 29)
    assert count % wl.CYCLE[workload] == 0
    assert wl.block_count(workload, 0.1) == wl.CYCLE[workload]
    sizes = {len(_run_inputs(workload, seed, 29)) for seed in (1, 2, 3)}
    assert len(sizes) == 1


def _decisive(req):
    """What decides the program's answer, rounded past the seeded jitter."""
    if req.check["kind"] == "total":
        return (req.slot,)
    term = req.doc["entries"][0]["terms"][-1]["poly"]
    c = round(next(iter(term.values()))[0], 6)
    if req.slot.startswith("model/"):
        # the lines sit at fixed offsets from the poles of c
        return (req.slot, c, req.argv[4], req.argv[6])
    if req.known == "multiplicity_inflation":
        return (req.slot, c, tuple(req.argv))
    return (req.slot, c)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_runs_of_any_seed_share_the_decisive_inputs(workload):
    # the known wrong answers flip with these inputs, so every seed must
    # send the same multiset of them for the failure count to match
    a = sorted(map(_decisive, _run_inputs(workload, 1, 29)), key=repr)
    b = sorted(map(_decisive, _run_inputs(workload, 2, 29)), key=repr)
    assert a == b


def test_short_windows_miss_the_anchor():
    for b, _ in zip(wl.blocks("scalar_sweep", 5), range(6)):
        for r in b:
            if r.slot.endswith("/short") or r.argv[0] == "index":
                n = int(r.slot.split("/")[1][1:])
                b1, b2 = float(r.argv[4]), float(r.argv[5])
                anchor = ref.selfadjoint_anchor(r.check["lines"], n, 2, b1, b2)
                assert (b2 < anchor) == r.slot.endswith("/short")


def test_selfadjoint_anchor_reference():
    # lap3 + c r^-2 with c = -1.2: the centre line 2.5 is occupied and the
    # nearest other lines sit at 2.5 -+ sqrt(1.05)
    lines = ref.scalar_lines(3, -1.2, 4, 0.5, 4.0)
    assert ref.selfadjoint_anchor(lines, 3, 2, 0.5, 4.0) == \
        pytest.approx(2.5 + 1.05 ** 0.5 / 2)
    assert ref.selfadjoint_anchor(ref.scalar_lines(3, 1.5, 4, 0.5, 4.0),
                                  3, 2, 0.5, 4.0) == 2.5


def test_laplacian3d_reference():
    lines = ref.scalar_lines(3, 0.0, 20, -0.5, 3.5)
    assert {round(b, 6): m for b, m in lines.items()} == {0: 5, 1: 3, 2: 1, 3: 1}


def test_inverse_square_minus3_reference():
    lines = ref.scalar_lines(3, -3.0, 20, 0.5, 4.5)
    assert {round(b, 3): m for b, m in lines.items()} == \
        {0.697: 5, 2.5: 8, 4.303: 5}


def test_inverse_square_2d_complex_pair_multiplicity():
    # c = -5: modes 0, 1, 2 complex -> 2 * (1 + 2 + 2) on the line 2
    lines = ref.scalar_lines(2, -5.0, 6, -0.5, 4.5)
    assert {round(b, 6): m for b, m in lines.items()} == {0: 2, 2: 10, 4: 2}


def test_selfadjoint_ledger_reference():
    lines = ref.scalar_lines(3, -3.0, 20, 0.5, 4.5)
    # centre line 2.5 of multiplicity 8: index +4 just left of it
    assert ref.selfadjoint_ledger(lines, 3, 2) == [9, 4, -4, -9]


def test_drift_reference_total():
    # 5 of these 10 are the lines degree 2 is known to drop
    assert ref.drift_total(3, -0.5, 3.5) == 10


def test_model_poles():
    # lap3 mode 1 has lines 1 and 4; the pair 0.5 / 2.5 crosses only 1
    assert ref.model_poles(3, 0.0, 1, 0.5, 2.5) == [1.0]
    # a complex pair shares the centre line
    assert ref.model_poles(2, -0.5, 0, 1.5, 2.5) == [2.0, 2.0]


def test_compare_lines_reports_inflation():
    want = {0.697: 5, 2.5: 8}
    assert ref.compare_lines({0.697: 5, 2.5: 8}, want) is None
    assert ref.compare_lines({0.697: 5, 2.5: 14}, want) == \
        "line 2.5: multiplicity 14 != 8"


def test_known_defect_signatures():
    req = next(r for r in next(wl.blocks("scalar_sweep", 1))
               if r.known == "multiplicity_inflation")
    n = int(req.slot.split("/")[1][1:])
    reason = f"line {n / 2 + 1:.9g}: multiplicity 14 != 8"
    assert wl.is_known(req, "wrong", reason)
    assert not wl.is_known(req, "wrong", "missing line 0.5 (x1)")
    real = next(r for r in next(wl.blocks("scalar_sweep", 1))
                if r.slot.endswith("real"))
    assert not wl.is_known(real, "wrong", reason)
    short = next(r for r in next(wl.blocks("scalar_sweep", 1))
                 if r.slot.endswith("/short"))
    assert wl.is_known(short, "guard", "exit 3: numerical guard: anchor beta0 "
                       "= 2.4 outside the report window")
    assert not wl.is_known(short, "wrong", "missing line 0.5 (x1)")
    drift = next(wl.blocks("coupled_sweep", 1))[0]
    assert wl.is_known(drift, "wrong", "strip total 5 != 10")
    assert not wl.is_known(drift, "wrong", "strip total 12 != 10")


def test_tail_percentile_leaves_ten_samples_above():
    value, pct, n = run.tail_percentile(list(range(100)))
    assert (value, n) == (89, 100)
    assert pct == pytest.approx(100 * 89 / 99)
    assert run.tail_percentile([3.0, 1.0])[0] == 1.0


def test_self_time_subtracts_children():
    root = [0, "cli.main", None, 0, 0.0, 10.0]
    kids = [[1, "a", 0, 0, 1.0, 3.0], [2, "b", 0, 0, 2.0, 5.0],
            [3, "c", 0, 0, 7.0, 8.0]]
    # children cover [1, 5] and [7, 8]
    assert tracer.self_time(root, kids) == pytest.approx(5.0)


def test_benchmark_json_lists_the_printed_metrics():
    import json
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_missing_hook_target_is_reported_absent(monkeypatch):
    import json
    monkeypatch.setattr(tracer, "SPAN_HOOKS", [("json", "no_such_function", "x.y")])
    monkeypatch.setattr(tracer, "COUNT_HOOKS", [("no_such_module_xyz", "f", "x.z"),
                                                ("json", "dumps", "json.dumps")])
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["json.no_such_function", "no_such_module_xyz.f"]
        t.begin(0)
        json.dumps({})
        assert t.end()["json.dumps_calls"] == 1
    finally:
        t.uninstall()
    assert not hasattr(json.dumps, "__wrapped__")
