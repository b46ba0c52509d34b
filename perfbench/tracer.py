"""Tracing from outside the program: wrap public functions, record spans.

Stage functions get span wrappers: each call records a span with a name, a
start, an end, the enclosing span and the request id.  Inner-loop functions
(called tens of thousands of times per request) get counting wrappers only,
so the trace stays small and cheap.  Every function is wrapped under the
module where it is looked up: ``pencil`` calls ``differentiate`` through
its own namespace, so both ``oppencil.pencil.differentiate`` and
``oppencil.radial_algebra.differentiate`` are wrapped and both feed the
same counter.  A hook whose target is missing is reported as absent.

Spans stay in memory and are written as JSON lines at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module, attribute, layer name).  The layer name is what the metrics use.
SPAN_HOOKS = [
    ("oppencil.cli", "main", "cli.main"),
    ("oppencil.cli", "parse_operator", "operator_ast.parse"),
    ("oppencil.cli", "assemble_pencil", "pencil.assemble"),
    ("oppencil.spectrum", "assemble_pencil", "pencil.assemble"),
    ("oppencil.cli", "strip_spectrum", "spectrum.strip"),
    ("oppencil.spectrum", "solve_pencil_eigenvalues", "spectrum.eigensolve"),
    ("oppencil.spectrum", "jordan_chains", "spectrum.chains"),
    ("oppencil.spectrum", "det_vanishing_order", "spectrum.det_order"),
    ("oppencil.cli", "build_ledger", "index_ledger.ledger"),
    ("oppencil.cli", "mode_pencil", "model_solver.mode_pencil"),
    ("oppencil.cli", "line_difference_expansion", "model_solver.expansion"),
    ("oppencil.model_solver", "solve_on_line", "model_solver.line_solve"),
]

COUNT_HOOKS = [
    ("oppencil.radial_algebra", "harmonic_decompose",
     "radial_algebra.harmonic_decompose"),
    ("oppencil.radial_algebra", "differentiate", "radial_algebra.differentiate"),
    ("oppencil.pencil", "differentiate", "radial_algebra.differentiate"),
    ("oppencil.radial_algebra", "multiply_power_poly",
     "radial_algebra.multiply_power_poly"),
    ("oppencil.pencil", "multiply_power_poly",
     "radial_algebra.multiply_power_poly"),
    ("oppencil.pencil", "evaluate_pencil", "pencil.evaluate"),
    ("oppencil.spectrum", "evaluate_pencil", "pencil.evaluate"),
]


def _observe(name, out, counts):
    """Sizes read off a stage's return value."""
    if name == "pencil.assemble":
        counts["pencil.work_dim"] = max(counts["pencil.work_dim"],
                                        getattr(out, "size", 0))
        counts["pencil.bandwidth"] = max(counts["pencil.bandwidth"],
                                         getattr(out, "bandwidth", 0))
    elif name == "spectrum.eigensolve":
        counts["spectrum.candidates"] += len(out)
    elif name == "spectrum.strip":
        counts["spectrum.kept"] += len(getattr(out, "eigenpoints", ()))
    elif name == "model_solver.expansion":
        counts["model_solver.grid_points"] += len(getattr(out, "t", ()))


class Tracer:
    """Installs wrappers on demand; one request is traced at a time."""

    def __init__(self):
        self.spans = []       # [id, name, parent, request, start, end]
        self._stack = []
        self.request = None
        self.counts = Counter()
        self.absent = []
        self._originals = []

    # -- hooks ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        def wrapped(*args, **kwargs):
            rec = [len(self.spans), name, self._stack[-1] if self._stack else None,
                   self.request, time.perf_counter(), None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                self._stack.pop()
            self.counts[name + "_calls"] += 1
            _observe(name, out, self.counts)
            return out
        wrapped.__wrapped__ = fn
        return wrapped

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + "_calls"

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self):
        """Wrap every hook target that exists; remember the absent ones."""
        self.absent = []
        for hooks, make in ((SPAN_HOOKS, self._span_wrapper),
                            (COUNT_HOOKS, self._count_wrapper)):
            for module_name, attr, name in hooks:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, make(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals = []

    # -- requests -------------------------------------------------------

    def begin(self, request_id):
        self.request = request_id
        self.counts.clear()

    def end(self):
        """Counts of the request just traced."""
        self.request = None
        return dict(self.counts)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, parent, req, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "request": req, "start": start,
                                     "end": end}) + "\n")


def request_layers(spans, request_id):
    """Per-layer seconds of one request.

    ``<name>_s`` is the inclusive time of the outermost spans of that name
    (a span nested inside a span of the same name is not counted twice);
    ``cli.self_s`` is the self time of the request's root span: its length
    minus the time its child spans cover.
    """
    mine = [s for s in spans if s[3] == request_id]
    by_id = {s[0]: s for s in mine}
    out = Counter()
    for sid, name, parent, _, start, end in mine:
        p = parent
        nested = False
        while p is not None and p in by_id:
            if by_id[p][1] == name:
                nested = True
                break
            p = by_id[p][2]
        if not nested:
            out[name + "_s"] += end - start
    for root in (s for s in mine if s[2] is None):
        out["cli.self_s"] += self_time(root, [s for s in mine if s[2] == root[0]])
    return out


def self_time(span, children):
    """Span length minus the union of its children's intervals."""
    start, end = span[4], span[5]
    covered = 0.0
    cursor = start
    for c in sorted(children, key=lambda s: s[4]):
        lo, hi = max(c[4], cursor), min(c[5], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered
