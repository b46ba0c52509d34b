"""Independent closed-form references for the benchmark's requests.

For -Delta + c r^-2 on R^n the mode-l solutions r^(i lam + 2) Y_l give the
indicial equation whose roots sit on the lines

    beta = n/2 + 1 -+ sqrt((l + (n-2)/2)^2 + c),

each with multiplicity dim H_l; when the radicand is <= 0 the pair lies on
beta = n/2 + 1 with multiplicity 2 dim H_l (Kozlov, Maz'ya and Rossmann,
*Spectral Problems Associated with Corner Singularities*, AMS 2001).  The
2-D first-order systems have integer lines (multiplicity 2 for the
Cauchy-Riemann system, 1 for d-bar), and the drift -Delta + eps (x1/r) r^-2
keeps the strip total of the unperturbed Laplacian when the strip edges are
half-integers.
"""

from __future__ import annotations

import math

LINE_TOL = 1e-6


def harmonic_dim(n: int, l: int) -> int:
    if n == 2:
        return 1 if l == 0 else 2
    if n == 3:
        return 2 * l + 1
    raise ValueError(f"unsupported dimension {n}")


def mode_lines(n: int, c: float, l: int) -> dict:
    """Critical lines of mode l as {beta: multiplicity}."""
    d = harmonic_dim(n, l)
    center = n / 2 + 1
    q = (l + (n - 2) / 2) ** 2 + c
    if q <= 0:
        return {center: 2 * d}
    s = math.sqrt(q)
    return {center - s: d, center + s: d}


def merge_lines(pairs) -> dict:
    """Sum multiplicities of lines closer than LINE_TOL."""
    out = {}
    for beta, mult in sorted(pairs):
        key = next((b for b in out if abs(b - beta) < LINE_TOL), beta)
        out[key] = out.get(key, 0) + mult
    return out


def scalar_lines(n: int, c: float, degree: int, beta1: float, beta2: float) -> dict:
    """Lines of modes l <= degree strictly inside (beta1, beta2)."""
    pairs = []
    for l in range(degree + 1):
        pairs.extend((b, m) for b, m in mode_lines(n, c, l).items()
                     if beta1 < b < beta2)
    return merge_lines(pairs)


def scalar_edges_ok(n: int, c: float, degree: int, beta1: float, beta2: float,
                    margin: float = 0.05, l_extra: int = 40) -> bool:
    """Edges keep `margin` from every line, and no mode above `degree` has a
    line inside the strip (so the truncated answer is the whole answer)."""
    for l in range(degree + l_extra + 1):
        for b in mode_lines(n, c, l):
            if abs(b - beta1) < margin or abs(b - beta2) < margin:
                return False
            if l > degree and beta1 < b < beta2:
                return False
    return True


def integer_lines(mult: int, beta1: float, beta2: float) -> dict:
    return {float(k): mult for k in range(math.ceil(beta1), math.floor(beta2) + 1)
            if beta1 < k < beta2}


def drift_total(n: int, beta1: float, beta2: float) -> int:
    """Strip total of the unperturbed Laplacian on R^n, which the drift
    keeps when the edges are half-integers."""
    return sum(scalar_lines(n, 0.0, 60, beta1, beta2).values())


def selfadjoint_ledger(lines: dict, n: int, m: int):
    """Index on each component of the window, anchored by the symmetry
    index(center + 0) = -index(center - 0) about center = (n + m)/2."""
    center = (n + m) / 2
    below = sum(mu for b, mu in lines.items() if b < center - LINE_TOL)
    on = sum(mu for b, mu in lines.items() if abs(b - center) <= LINE_TOL)
    # index just left of the centre is on/2; each line crossed upward drops it
    idx = on // 2 + below
    out = []
    for b in sorted(lines):
        out.append(idx)
        idx -= lines[b]
    out.append(idx)
    return out


def model_poles(n: int, c: float, l: int, beta1: float, beta2: float) -> list:
    """Imaginary parts of the mode-l eigenvalues crossed between the lines,
    one entry per distinct eigenvalue (a complex pair gives two)."""
    center = n / 2 + 1
    q = (l + (n - 2) / 2) ** 2 + c
    if q < 0:
        ims = [center, center] if beta1 < center < beta2 else []
    elif q == 0:
        ims = [center] if beta1 < center < beta2 else []
    else:
        s = math.sqrt(q)
        ims = [b for b in (center - s, center + s) if beta1 < b < beta2]
    return sorted(ims)


# ---------------------------------------------------------------------------
# report checks: each returns None when the report matches, else a reason
# ---------------------------------------------------------------------------

def _parse_lines(res_lines: dict) -> dict:
    return {float(k): int(v) for k, v in res_lines.items()}


def compare_lines(got: dict, want: dict):
    """None when every line matches in position and multiplicity."""
    unmatched = dict(got)
    for beta, mult in want.items():
        key = next((b for b in unmatched if abs(b - beta) < LINE_TOL), None)
        if key is None:
            return f"missing line {beta:.9g} (x{mult})"
        if unmatched[key] != mult:
            return f"line {beta:.9g}: multiplicity {unmatched[key]} != {mult}"
        del unmatched[key]
    if unmatched:
        b = min(unmatched)
        return f"extra line {b:.9g} (x{unmatched[b]})"
    return None


def check_res(report: dict, want: dict):
    return compare_lines(_parse_lines(report["res_lines"]), want)


def check_ledger(report: dict, want_lines: dict, want_indices):
    got = merge_lines((b, m) for b, m in report["breakpoints"])
    why = compare_lines(got, want_lines)
    if why:
        return why
    got_idx = [comp["index"] for comp in report["components"]]
    if want_indices is not None and got_idx != want_indices:
        return f"component indices {got_idx} != {want_indices}"
    drops = [a - b for a, b in zip(got_idx, got_idx[1:])]
    if drops != [want_lines[b] for b in sorted(want_lines)]:
        return f"index drops {drops} do not match the line multiplicities"
    return None


def check_total(total: int, want: int):
    return None if total == want else f"strip total {total} != {want}"


def check_model(report: dict, want_ims: list):
    got = sorted(p[1] for p in report["expansion"]["poles"])
    if len(got) != len(want_ims) or any(abs(a - b) > LINE_TOL
                                        for a, b in zip(got, want_ims)):
        return f"crossed poles {got} != {want_ims}"
    if not report["coefficient_check"]["passed"]:
        dev = report["coefficient_check"]["deviations"]["solve_vs_coeff"]
        return f"coefficient_check.passed is false (solve_vs_coeff {dev:.3g})"
    return None


def selfadjoint_anchor(lines: dict, n: int, m: int, beta1: float,
                       beta2: float) -> float:
    """Where ``index --anchor selfadjoint`` anchors, given the true lines
    inside the window.

    This mirrors the program's rule rather than checking it: on a free
    centre line the anchor is the centre; on an occupied one it is the
    centre plus half the distance to the nearest other line in the window
    (or to the nearer window edge when there is none).  The program exits
    3 when that point lies outside the window, so the benchmark uses this
    to place each index window on the side of the guard its slot wants.
    """
    center = (n + m) / 2
    if all(abs(b - center) > LINE_TOL for b in lines):
        return center
    gaps = [abs(b - center) for b in lines if abs(b - center) > LINE_TOL]
    eps = min(gaps) if gaps else min(center - beta1, beta2 - center)
    return center + eps / 2
