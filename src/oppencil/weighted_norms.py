"""Weighted norms over an exact expression ring.

The ring consists of finite sums of terms

    (1 + r^2)^b * r^c * x^mono,    b, c rational,

which is closed under D_i = -i d/dx_i and under products and conjugation.
The explicit norm formulas evaluated here are

  * p-Sobolev:   sum_(|a|<=k) integral  L^(p(beta+|a|)-n) |D^a u|^p dx,
  * C^l sup:     sum_(|a|<=l) sup       L^(beta+|a|)      |D^a u|,
  * Hoelder:     sup over pairs 0 < |x-y| < L(x) of
                 L(x)^sigma |w(x)-w(y)| / |x-y|^sigma  (w = L^beta u),

with L(x) = (1 + |x|^2)^(1/2).  Sup norms are reported as certified grid
lower bounds; the Sobolev integral carries a quadrature error estimate and
an analytic tail bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import DivergentNorm, SchemaError, UnboundedNorm
from .radial_algebra import sphere_monomial_moment


def _as_fraction(v, what="value"):
    if isinstance(v, float) and not math.isfinite(v):
        raise SchemaError(f"non-finite {what} {v!r}")
    try:
        if not isinstance(v, bool):
            return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise SchemaError(f"{what} is not a rational: {v!r}")


def _read_number(value, what, kind=int):
    """kind(value) (int or float) of a JSON number or numeric string.  A
    bool, a non-integral number read as int or anything kind() refuses is
    a SchemaError naming `what`; non-finite floats pass."""
    try:
        out = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or kind is int and not isinstance(value, str) and out != value:
        noun = "an integer" if kind is int else "a number"
        raise SchemaError(f"{what} must be {noun}, got {value!r}")
    return out


def _read_monomials(doc, n, what):
    """{exponents: complex} of a monomial map {"e1 ... en": [re, im]}.
    Every key has n exponents (n None: as many as the first key); `what`
    names the map's owner in each refusal."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} poly must be a monomial map, got {doc!r}")
    out = {}
    for key, val in doc.items():
        expo = tuple(_read_number(e, f"{what} monomial key {key!r}") for e in key.split())
        n = len(expo) if n is None else n
        if len(expo) != n or any(e < 0 for e in expo):
            raise SchemaError(f"bad {what} monomial key {key!r}")
        if not (isinstance(val, (list, tuple)) and len(val) == 2):
            raise SchemaError(f"{what} monomial value must be [re, im], got {val!r}")
        c = complex(*(_read_number(v, f"{what} coefficient at monomial {key!r}", float)
                      for v in val))
        if not cmath.isfinite(c):
            raise SchemaError(f"non-finite {what} coefficient {val!r} at monomial {key!r}")
        out[expo] = c
    return out


@dataclass
class Expr:
    """Element of the (1+r^2)^b r^c P(x) ring."""

    n: int
    terms: dict = field(default_factory=dict)  # (b, c, mono) -> complex

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero(n):
        return Expr(n, {})

    @staticmethod
    def term(n, b, c, mono, coeff=1.0):
        key = (_as_fraction(b), _as_fraction(c), tuple(int(e) for e in mono))
        return Expr(n, {key: complex(coeff)})

    @staticmethod
    def from_json(doc, n=None):
        if not isinstance(doc, list):
            raise SchemaError("Expr JSON must be a list of terms")
        out = None
        for item in doc:
            if not isinstance(item, dict):
                raise SchemaError(f"Expr term must be an object, got {item!r}")
            if set(item) - {"b", "c", "poly"}:
                raise SchemaError(f"unknown Expr keys: {sorted(set(item) - {'b', 'c', 'poly'})}")
            b = _as_fraction(item.get("b", 0), "Expr b")
            c = _as_fraction(item.get("c", 0), "Expr c")
            for expo, coeff in _read_monomials(item.get("poly", {}), n, "Expr").items():
                n = len(expo)
                t = Expr.term(n, b, c, expo, coeff)
                out = t if out is None else out + t
        if out is None:
            if n is None:
                raise SchemaError("empty Expr with unknown dimension")
            out = Expr.zero(n)
        return out

    def to_json(self):
        items = []
        for (b, c, mono), coeff in sorted(self.terms.items()):
            items.append({
                "b": str(b), "c": str(c),
                "poly": {" ".join(str(e) for e in mono): [coeff.real, coeff.imag]},
            })
        return items

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            acc = out.get(k, 0j) + v
            if acc == 0:
                out.pop(k, None)
            else:
                out[k] = acc
        return Expr(self.n, out)

    def scale(self, s):
        if s == 0:
            return Expr.zero(self.n)
        return Expr(self.n, {k: v * s for k, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for (b1, c1, m1), v1 in self.terms.items():
            for (b2, c2, m2), v2 in other.terms.items():
                k = (b1 + b2, c1 + c2, tuple(a + b for a, b in zip(m1, m2)))
                acc = out.get(k, 0j) + v1 * v2
                if acc == 0:
                    out.pop(k, None)
                else:
                    out[k] = acc
        return Expr(self.n, out)

    def conjugate(self):
        return Expr(self.n, {k: v.conjugate() for k, v in self.terms.items()})

    def differentiate(self, i):
        """D_i = -i d/dx_i, exact in the ring."""
        out = Expr.zero(self.n)
        for (b, c, mono), v in self.terms.items():
            e_i = tuple(1 if a == i else 0 for a in range(self.n))
            if b != 0:
                out += Expr.term(self.n, b - 1, c, tuple(a + b_ for a, b_ in zip(mono, e_i)),
                                 -1j * 2 * b * v)
            if c != 0:
                out += Expr.term(self.n, b, c - 2, tuple(a + b_ for a, b_ in zip(mono, e_i)),
                                 -1j * c * v)
            if mono[i]:
                out += Expr.term(self.n, b, c, tuple(a - b_ for a, b_ in zip(mono, e_i)),
                                 -1j * mono[i] * v)
        return out

    def derivative(self, alpha):
        out = self
        for i, a in enumerate(alpha):
            for _ in range(a):
                out = out.differentiate(i)
        return out

    def is_zero(self):
        return not self.terms

    # -- analysis helpers ----------------------------------------------------

    def homogeneity_at_infinity(self):
        """Largest 2b + c + |mono| over terms (dominant growth exponent)."""
        if not self.terms:
            return None
        return max(float(2 * b + c) + sum(m) for (b, c, m), _ in self.terms.items())

    def min_exponent_at_zero(self):
        """Smallest c + |mono| (controls integrability at the origin)."""
        if not self.terms:
            return None
        return min(float(c) + sum(m) for (b, c, m), _ in self.terms.items())

    def evaluate(self, pts):
        """Vectorized evaluation at an (N, n) array of points."""
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum(pts * pts, axis=-1)
        r = np.sqrt(r2)
        out = np.zeros(pts.shape[0], dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            for (b, c, mono), v in self.terms.items():
                term = np.full(pts.shape[0], v, dtype=complex)
                if b != 0:
                    term = term * (1.0 + r2) ** float(b)
                if c != 0:
                    term = term * r ** float(c)
                for i, e in enumerate(mono):
                    if e:
                        term = term * pts[:, i] ** e
                out += term
        return out


@dataclass
class NormResult:
    value: float
    quadrature_error: float
    tail_bound: float

    def to_json(self):
        return {"value": self.value, "quadrature_error": self.quadrature_error,
                "tail_bound": self.tail_bound}


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------

def _sphere_grid(n, n_theta=48, n_phi=96):
    """Quadrature nodes and weights on S^(n-1) (exact surface measure)."""
    if n == 2:
        theta = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        w = np.full(n_phi, 2 * math.pi / n_phi)
        return pts, w
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


def _multi_indices(n, k):
    """All multi-indices of length n with |alpha| <= k, by |alpha|, then
    lexicographically."""
    return sorted((a for a in product(range(k + 1), repeat=n) if sum(a) <= k),
                  key=lambda a: (sum(a), a))
