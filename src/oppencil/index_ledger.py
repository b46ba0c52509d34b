"""Fredholm index bookkeeping: combinatorial formulas, anchors and ledgers.

The index of the operator between weighted spaces is constant between
critical weight lines and drops by the total algebraic multiplicity of
the line when the weight crosses it upward.  For operators whose
principal part has homogeneous constant coefficients the index equals an
explicit combinatorial step function built from

    poly_dim(n, beta) = dim of polynomials of degree <= beta in n vars
                      = (l + n)! / (n! l!)   for beta in [l, l+1), 0 if < 0,

summed over the order vectors.  All combinatorics use exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import AnchorOnBreakpoint, NoAnchor, NotApplicable, OnBreakpoint
from .operator_ast import (
    SystemOperator,
    is_formally_self_adjoint,
    is_homogeneous_cc,
)
from .pencil import _CLUSTER_RADIUS

_BREAK_TOL = 1e-9
_REFLECT_TOL = 1e-7   # how far a line of A* may sit from n + m minus A's


def pn(n: int, beta: float) -> int:
    """Dimension of the space of polynomials of degree <= beta in n variables.

    Floor semantics: the value on [l, l+1) is (l+n)!/(n! l!); zero for
    beta < 0.  Exact integer arithmetic.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if beta < 0:
        return 0
    l = math.floor(beta)
    return math.factorial(l + n) // (math.factorial(n) * math.factorial(l))


def pn_mu_nu(n: int, mu, nu, beta: float) -> int:
    """Index step function: sum_i pn(n,-beta+mu_i) - pn(n,-beta+nu_i)
    - pn(n,beta-nu_i-n) + pn(n,beta-mu_i-n)."""
    total = 0
    for mi, ni in zip(mu, nu):
        total += (pn(n, -beta + mi) - pn(n, -beta + ni)
                  - pn(n, beta - ni - n) + pn(n, beta - mi - n))
    return total


def cc_index(op: SystemOperator, beta: float) -> int:
    """Index of op between weight-beta spaces via the combinatorial formula.

    Applies whenever the principal part is a homogeneous constant
    coefficient operator (the full operator may carry admissible
    perturbations).
    """
    if not is_homogeneous_cc(op):
        raise NotApplicable("principal part is not homogeneous constant-coefficient")
    if abs(beta - round(beta)) < _BREAK_TOL:
        raise OnBreakpoint(f"beta = {beta} is within tolerance of an integer")
    return pn_mu_nu(op.n, op.mu, op.nu, beta)


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

@dataclass
class Anchor:
    kind: str                   # 'cc' | 'selfadjoint' | 'user'
    beta0: float | None = None
    index0: int | None = None


@dataclass
class IndexLedger:
    beta_min: float
    beta_max: float
    breakpoints: list           # sorted [(beta, multiplicity)]
    anchor: tuple               # (beta0, index0, provenance)
    values: list                # [(left, right, index)] per component

    def to_json(self):
        return {
            "window": [self.beta_min, self.beta_max],
            "breakpoints": [[b, m] for b, m in self.breakpoints],
            "anchor": {"beta0": self.anchor[0], "index0": self.anchor[1],
                       "provenance": self.anchor[2]},
            "components": [{"left": l, "right": r, "index": i}
                           for l, r, i in self.values],
        }

    def to_csv(self):
        rows = ["beta_left,beta_right,index"]
        for l, r, i in self.values:
            rows.append(f"{l:.12g},{r:.12g},{i}")
        return "\n".join(rows) + "\n"


def check_anchor(op: SystemOperator, anchor: Anchor):
    """NotApplicable unless the operator admits the anchor: 'cc' needs a
    homogeneous constant-coefficient principal part, 'selfadjoint' a
    formally self-adjoint operator.  It reads no spectrum, so it can run
    before one is computed."""
    if anchor.kind == "cc" and not is_homogeneous_cc(op):
        raise NotApplicable("cc anchor requires a homogeneous cc principal part")
    if anchor.kind == "selfadjoint" and not is_formally_self_adjoint(op):
        raise NotApplicable("operator is not formally self-adjoint")


def build_ledger(report, anchor: Anchor) -> IndexLedger:
    """Propagate the index from an anchor across the report's critical lines.

    The index drops by the line's total algebraic multiplicity when beta
    crosses it upward.  Anchors: 'cc' uses the combinatorial formula,
    'selfadjoint' uses the symmetry of the index about (n+m)/2, 'user'
    supplies (beta0, index0) directly.  The ledger never extends past the
    report window.  The caller checks first that the operator admits the
    anchor (check_anchor); one that cannot be placed in the window raises
    NoAnchor, and a user anchor within the cluster radius of a line
    AnchorOnBreakpoint.
    """
    op = report.op
    beta_min, beta_max = report.beta1, report.beta2
    breaks = sorted((line, mult) for line, mult in report.res_lines.items())
    provenance = anchor.kind
    if anchor.kind == "cc":
        beta0 = anchor.beta0
        if beta0 is None:
            beta0 = _widest_component_midpoint(beta_min, beta_max, breaks)
        index0 = cc_index(op, beta0)
    elif anchor.kind == "selfadjoint":
        center = (op.n + op.m) / 2.0
        if not (beta_min <= center <= beta_max):
            raise NoAnchor(f"center {(op.n + op.m) / 2} outside report window")
        near = _CLUSTER_RADIUS / 2  # nearer, a line prints as one with its reflection
        on_center = [m for line, m in breaks if abs(line - center) <= near]
        if not on_center:
            beta0, index0 = center, 0
        else:
            # occupied center line of multiplicity 2d: index is +-d nearby
            mult = on_center[0]
            if mult % 2:
                raise NoAnchor("center-line multiplicity is odd; not self-adjoint data")
            # any point of the component just above the centre will do, so
            # stay inside the window when the next line lies past its edge
            gaps = [abs(line - center) for line, _ in breaks
                    if abs(line - center) > near]
            eps = min(gaps) if gaps else center - beta_min
            beta0, index0 = center + min(eps, beta_max - center) / 2, -mult // 2
    elif anchor.kind == "user":
        if anchor.beta0 is None or anchor.index0 is None:
            raise NoAnchor("user anchor needs beta0 and index0")
        beta0, index0 = anchor.beta0, anchor.index0
    else:
        raise NoAnchor(f"unknown anchor kind {anchor.kind!r}")

    if not (beta_min <= beta0 <= beta_max):
        raise NoAnchor(f"anchor beta0 = {beta0} outside the report window")
    # a printed line is only known to the cluster radius, so a user's anchor
    # nearer than that cannot tell its side; the program places the cc and
    # selfadjoint anchors away from every line
    tol = _CLUSTER_RADIUS if anchor.kind == "user" else _BREAK_TOL
    if any(abs(beta0 - line) <= tol for line, _ in breaks):
        raise AnchorOnBreakpoint(f"anchor beta0 = {beta0} sits on a critical line")

    # component i lies above lines 0..i-1, and walking right across a line
    # of multiplicity m decreases the index by m
    comps = _components(beta_min, beta_max, breaks)
    drop = list(accumulate((m for _, m in breaks), initial=0))
    anchor_comp = next(i for i, (a, b) in enumerate(comps) if a <= beta0 <= b)
    return IndexLedger(beta_min, beta_max, breaks, (beta0, index0, provenance),
                       [(a, b, index0 + drop[anchor_comp] - d)
                        for (a, b), d in zip(comps, drop)])


def _components(beta_min, beta_max, breaks):
    """The intervals between consecutive lines of the window.  None is empty:
    strip_spectrum refuses a line within the cluster radius of an edge and
    reports lines at least that far apart."""
    edges = [beta_min] + [b for b, _ in breaks] + [beta_max]
    return list(zip(edges[:-1], edges[1:]))


def _widest_component_midpoint(beta_min, beta_max, breaks):
    """Midpoint of the widest component; of components within _BREAK_TOL
    of the widest, the lowest, so round-off in the lines cannot pick it."""
    comps = _components(beta_min, beta_max, breaks)
    widest = max(b - a for a, b in comps)
    a, b = next(c for c in comps if c[1] - c[0] >= widest - _BREAK_TOL)
    mid = (a + b) / 2.0
    if abs(mid - round(mid)) < 1e-6:  # keep clear of integers for cc_index
        mid += min(0.25, (b - a) / 4.0)
    return mid


# ---------------------------------------------------------------------------
# adjoint reflection check
# ---------------------------------------------------------------------------

@dataclass
class AdjointResReport:
    passed: bool
    n_plus_m: int
    matched: list               # [(line_A, line_Astar, mult)]
    failures: list              # human-readable strings

    def to_json(self):
        return {"passed": self.passed, "n_plus_m": self.n_plus_m,
                "matched": self.matched, "failures": self.failures}


def adjoint_res_check(res_a: dict, res_astar: dict, n: int, m: int) -> AdjointResReport:
    """Check Res(A*) == (n+m) - Res(A) with equal multiplicities, each line
    to _REFLECT_TOL."""
    failures = []
    matched = []
    remaining = dict(res_astar)
    for line, mult in sorted(res_a.items()):
        target = (n + m) - line
        hit = next((l for l in remaining if abs(l - target) < _REFLECT_TOL), None)
        if hit is None:
            failures.append(f"no reflected line for {line:.9g} -> {target:.9g}")
            continue
        if remaining[hit] != mult:
            failures.append(
                f"multiplicity mismatch at {line:.9g}: {mult} vs {remaining[hit]}")
        matched.append((line, hit, mult))
        remaining.pop(hit)
    for l, m_ in remaining.items():
        failures.append(f"unmatched adjoint line {l:.9g} (mult {m_})")
    return AdjointResReport(not failures, n + m, matched, failures)
