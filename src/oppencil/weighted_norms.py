"""Weighted norms and the symbol-class decay test over the Expr ring.

The ring (radial_algebra.Expr) consists of finite sums of terms

    (1 + r^2)^b * r^c * x^mono,    b, c rational,

which is closed under D_i = -i d/dx_i and under products and conjugation.
The explicit norm formulas evaluated here are

  * p-Sobolev:   sum_(|a|<=k) integral  L^(p(beta+|a|)-n) |D^a u|^p dx,
  * C^l sup:     sum_(|a|<=l) sup       L^(beta+|a|)      |D^a u|,
  * Hoelder:     sup over pairs 0 < |x-y| < L(x) of
                 L(x)^sigma |w(x)-w(y)| / |x-y|^sigma  (w = L^beta u),

with L(x) = (1 + |x|^2)^(1/2).  Sup norms are reported as certified grid
lower bounds; the Sobolev integral carries a quadrature error estimate and
an analytic tail bound; check_symbol_class tests a remainder's decay.
Only cli imports this module, for its norm command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DivergentNorm, UnboundedNorm
from .radial_algebra import Expr, _as_fraction, _sphere_points, sphere_monomial_moment

_TAIL_RADII = (2.0, 8.0, 32.0, 128.0)   # radii of the symbol-class decay test
_TAIL_TOL = 0.1                         # its bound on the last weighted sup
_TAIL_SPHERE_POINTS = 64


@dataclass
class NormResult:
    value: float
    quadrature_error: float
    tail_bound: float

    def to_json(self):
        return {"value": self.value, "quadrature_error": self.quadrature_error,
                "tail_bound": self.tail_bound}


@dataclass
class DecayReport:
    passed: bool
    beta: float
    radii: list
    sequences: dict  # alpha -> list of sup values
    tolerance: float

    def to_json(self):
        return {"passed": self.passed, "beta": self.beta, "radii": self.radii,
                "tolerance": self.tolerance,
                "sequences": {" ".join(map(str, a)): s for a, s in self.sequences.items()}}


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------

def _sphere_grid(n, n_theta=48, n_phi=96):
    """Quadrature nodes and weights on S^(n-1) (exact surface measure)."""
    if n == 2:
        return _sphere_points(2, n_phi), np.full(n_phi, 2 * math.pi / n_phi)
    nodes, gw = np.polynomial.legendre.leggauss(n_theta)
    phi = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
    ct = nodes[:, None]
    st = np.sqrt(1 - nodes * nodes)[:, None]
    x = st * np.cos(phi)[None, :]
    y = st * np.sin(phi)[None, :]
    z = np.broadcast_to(ct, x.shape)
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    w = (gw[:, None] * np.full(n_phi, 2 * math.pi / n_phi)[None, :]).ravel()
    return pts, w


def _radial_panels(R):
    """Geometric panels [0,1], [1,2], [2,4], ... covering (0, R]."""
    edges = [0.0, 1.0]
    while edges[-1] < R:
        edges.append(min(edges[-1] * 2.0, R))
    return list(zip(edges[:-1], edges[1:]))


def _gauss_panel_integral(fn, a, b, order):
    nodes, w = np.polynomial.legendre.leggauss(order)
    r = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.sum(w * fn(r)))


def _radial_integral(fn, R, order=32):
    """integral_0^R fn(r) dr with a refinement-based error estimate."""
    total, coarse = 0.0, 0.0
    for a, b in _radial_panels(R):
        total += _gauss_panel_integral(fn, a, b, order)
        coarse += _gauss_panel_integral(fn, a, b, order // 2)
    return total, abs(total - coarse)


def _tail_bound_term(B, S, R):
    """Bound on integral_R^inf (1+r^2)^B r^S dr for R >= 1, exponent < -1."""
    expo = 2.0 * B + S
    if expo >= -1.0:
        return math.inf
    cst = 2.0 ** max(B, 0.0)
    return cst * R ** (expo + 1.0) / (-(expo + 1.0))


# ---------------------------------------------------------------------------
# the three norms
# ---------------------------------------------------------------------------

def weighted_sobolev_norm(u: Expr, p: float, k: int, beta) -> NormResult:
    """sum_(|a|<=k) integral Lambda^(p(beta+|a|)-n) |D^a u|^p dx.

    Returns the sum itself (the p-th power of the norm).  Exact ring
    derivatives; sphere integration by exact monomial moments when |.|^p is
    polynomial-compatible (p an even integer), tensor quadrature otherwise.
    Raises DivergentNorm when the exponent audit fails at 0 or infinity.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    n = u.n
    beta = _as_fraction(beta)
    p_frac = _as_fraction(p)
    p = float(p)
    if u.is_zero():
        return NormResult(0.0, 0.0, 0.0)

    derivs = {}
    for alpha in _multi_indices(n, k):
        derivs[alpha] = u.derivative(alpha)

    # exponent audit
    for alpha, du in derivs.items():
        if du.is_zero():
            continue
        h_inf = du.homogeneity_at_infinity()
        if p * (h_inf + float(beta) + sum(alpha)) >= 0.0:
            raise DivergentNorm(
                f"divergent at infinity for alpha={alpha}: growth {h_inf}")
        h0 = du.min_exponent_at_zero()
        if p * h0 + n <= 0.0:
            raise DivergentNorm(f"divergent at origin for alpha={alpha}")

    value = 0.0
    quad_err = 0.0
    tail = 0.0
    even_p = p_frac.denominator == 1 and p_frac.numerator % 2 == 0

    for alpha, du in derivs.items():
        if du.is_zero():
            continue
        w_expo = p_frac * (beta + sum(alpha)) - n  # Lambda exponent, exact
        decay = p * (du.homogeneity_at_infinity() + float(beta) + sum(alpha))
        R = max(8.0, (1e-12) ** (1.0 / decay)) if decay < 0 else 8.0
        R = min(R, 1e6)
        if even_p:
            q = p_frac.numerator // 2
            sq = du * du.conjugate()
            prod = sq
            for _ in range(q - 1):
                prod = prod * sq
            for key in sorted(prod.terms):
                b, c, mono = key
                coeff = prod.terms[key]
                mom = sphere_monomial_moment(mono)
                if mom == 0.0:
                    continue
                B = float(b + w_expo / 2)
                S = float(c) + sum(mono) + n - 1

                def fn(r, B=B, S=S):
                    return (1.0 + r * r) ** B * r ** S

                val, err = _radial_integral(fn, R)
                value += (coeff.real * mom) * val
                quad_err += abs(coeff) * abs(mom) * err
                tail += abs(coeff) * abs(mom) * _tail_bound_term(B, S, R)
        else:
            pts, wts = _sphere_grid(n)

            def fn(r):
                out = np.zeros_like(r)
                for ridx, rv in enumerate(r):
                    vals = np.abs(du.evaluate(pts * rv)) ** p
                    out[ridx] = float(np.sum(wts * vals))
                return out * (1.0 + r * r) ** (float(w_expo) / 2.0) * r ** (n - 1)

            val, err = _radial_integral(fn, R, order=24)
            value += val
            quad_err += err
            h_inf = du.homogeneity_at_infinity()
            amp = sum(abs(v) for v in du.terms.values())
            tail += amp ** p * _tail_bound_term(
                (p * h_inf + float(w_expo)) / 2.0, n - 1 - 0.0, R)
    return NormResult(value, quad_err, tail)


def weighted_cl_norm(u: Expr, l: int, beta) -> NormResult:
    """sum_(|a|<=l) sup Lambda^(beta+|a|) |D^a u| via an adaptive shell grid.

    The value is a certified grid lower bound; quadrature_error carries a
    Lipschitz-based estimate of the gap to the true sup.
    """
    n = u.n
    beta = _as_fraction(beta)
    if u.is_zero():
        return NormResult(0.0, 0.0, 0.0)
    total = 0.0
    gap = 0.0
    for alpha in _multi_indices(n, l):
        du = u.derivative(alpha)
        if du.is_zero():
            continue
        h = du.homogeneity_at_infinity() + float(beta) + sum(alpha)
        if h > 1e-12:
            raise UnboundedNorm(
                f"Lambda^(beta+|alpha|) D^alpha u grows like r^{h} for alpha={alpha}")
        if du.min_exponent_at_zero() < 0:
            raise UnboundedNorm(f"D^alpha u singular at the origin for alpha={alpha}")
        w = float(beta) + sum(alpha)
        sup, sup_gap = _sup_on_shells(du, w, h)
        total += sup
        gap += sup_gap
    return NormResult(total, gap, 0.0)


def _sup_on_shells(du, w_expo, decay):
    n = du.n
    pts, _ = _sphere_grid(n, n_theta=24, n_phi=48)
    radii = np.concatenate([
        np.array([0.0]),
        np.geomspace(1e-3, 1.0, 24),
        np.geomspace(1.0, 1e4 if decay > -0.05 else 1e3, 96)[1:],
    ])
    grads = [du.differentiate(i) for i in range(n)]

    def weighted_vals(r):
        if r == 0.0:
            return np.abs(du.evaluate(np.zeros((1, n))))
        return np.abs(du.evaluate(pts * r)) * (1.0 + r * r) ** (w_expo / 2.0)

    best = 0.0
    profile = []
    for r in radii:
        m = float(np.max(weighted_vals(r)))
        profile.append(m)
        best = max(best, m)
    # refine around the peak radius
    peak = int(np.argmax(profile))
    lo = radii[max(peak - 1, 0)]
    hi = radii[min(peak + 1, len(radii) - 1)]
    for r in np.linspace(lo, hi, 32):
        best = max(best, float(np.max(weighted_vals(float(r)))))

    # Lipschitz gap estimate near the peak: |grad(Lambda^w g)| <=
    # |w| Lambda^(w-1) |g| + Lambda^w |grad g| evaluated on the peak shell.
    r_pk = float(radii[peak]) if radii[peak] > 0 else 1e-3
    x = pts * r_pk
    g = np.abs(du.evaluate(x))
    gv = np.sqrt(sum(np.abs(gi.evaluate(x)) ** 2 for gi in grads))
    lam = (1.0 + r_pk * r_pk) ** 0.5
    grad_bound = float(np.max(abs(w_expo) * lam ** (w_expo - 1.0) * g
                              + lam ** w_expo * gv))
    spacing = r_pk * (2 * math.pi / 48) + (hi - lo) / 32.0
    return best, grad_bound * spacing


def weighted_holder_seminorm(u: Expr, sigma: float, beta, samples: int = 4096,
                             seed: int = 0) -> NormResult:
    """Randomized-plus-grid lower bound for the localized Hoelder seminorm.

    Evaluates sup over pairs 0 < |x-y| < Lambda(x) of
    Lambda(x)^sigma |w(x) - w(y)| / |x-y|^sigma with w = Lambda^beta u,
    plus the sup term sup Lambda^beta |u|.  The sample stream is seeded, so
    doubling `samples` never decreases the estimate.
    """
    if not 0 < sigma < 1:
        raise ValueError("sigma must be in (0, 1)")
    n = u.n
    beta_f = float(_as_fraction(beta))
    if u.is_zero():
        return NormResult(0.0, 0.0, 0.0)

    def w_eval(x):
        lam = np.sqrt(1.0 + np.sum(x * x, axis=-1))
        return lam ** beta_f * u.evaluate(x)

    sup_term, sup_gap = _sup_on_shells(u, beta_f, 0.0)

    rng = np.random.default_rng(seed)
    best = 0.0
    chunk = 512
    n_chunks = -(-samples // chunk)
    for _ in range(n_chunks):
        m = chunk
        # x from a heavy-tailed radial law, y inside the Lambda(x) ball
        x = rng.standard_normal((m, n)) * np.exp(rng.uniform(-2, 4, (m, 1)))
        lam_x = np.sqrt(1.0 + np.sum(x * x, axis=-1))
        d = rng.standard_normal((m, n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        rad = lam_x * rng.uniform(1e-4, 1.0, m) ** 2
        y = x + d * rad[:, None]
        wx = w_eval(x)
        wy = w_eval(y)
        sep = np.linalg.norm(x - y, axis=1)
        ok = sep > 0
        score = lam_x[ok] ** sigma * np.abs(wx[ok] - wy[ok]) / sep[ok] ** sigma
        if score.size:
            best = max(best, float(np.max(score)))
    return NormResult(best + sup_term, sup_gap, 0.0)


# ---------------------------------------------------------------------------
# symbol-class decay check
# ---------------------------------------------------------------------------

def check_symbol_class(f: Expr, beta: float, max_order: int = 2) -> DecayReport:
    """Numerical test that D^alpha f = o(|x|^(-beta-|alpha|)) for |alpha| <= max_order.

    For each derivative the sup of |x|^(beta+|alpha|) |D^alpha f| over a
    sphere grid is evaluated at each of _TAIL_RADII; the report passes iff
    every sequence is non-increasing and ends below _TAIL_TOL.
    """
    n = f.n
    pts = _sphere_points(n, _TAIL_SPHERE_POINTS)
    sequences = {}
    passed = True
    for alpha in _multi_indices(n, max_order):
        df = f.derivative(alpha)
        seq = []
        for r in _TAIL_RADII:
            if df.is_zero():
                seq.append(0.0)
                continue
            vals = np.abs(df.evaluate(pts * r))
            seq.append(float(r ** (beta + sum(alpha)) * np.max(vals)))
        sequences[alpha] = seq
        non_increasing = all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(seq, seq[1:]))
        if not (non_increasing and seq[-1] < _TAIL_TOL):
            passed = False
    return DecayReport(passed, beta, list(_TAIL_RADII), sequences, _TAIL_TOL)


def _multi_indices(n, k):
    """All multi-indices of length n with |alpha| <= k, by |alpha|, then
    lexicographically."""
    return sorted((a for a in product(range(k + 1), repeat=n) if sum(a) <= k),
                  key=lambda a: (sum(a), a))
