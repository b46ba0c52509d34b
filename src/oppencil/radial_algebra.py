"""Exact harmonic algebra of coefficients r^c H(x), H harmonic homogeneous.

An operator's principal coefficients are sums of terms r^c H(x), where c
is a (possibly complex) exponent and H a harmonic homogeneous polynomial.
A homogeneous P of degree d decomposes uniquely as P = sum_j |x|^(2j)
H_(d-2j) with each H_(d-2j) harmonic (the Gauss decomposition,
harmonic_decompose), so harmonic_terms takes raw (c, P) parts to those
terms.  Restriction to the unit sphere is then trivial (drop r) and
integration over S^(n-1) is exact through closed-form monomial moments.

Only n in {2, 3} is supported; coefficients may be floats/complex or
fractions.Fraction.  Below the operators this module also holds the ring
Expr of sums of (1 + r^2)^b r^c x^mono (b, c rational), the program's one
coefficient calculus: its derivatives D_i = -i d/dx_i are exact monomial
by monomial, and the formal adjoint and the weighted norms take them
there.  And the sphere samples and the document codec: the number readers
and the one reader and one writer of monomial maps {"e1 ... en": [re, im]}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import SchemaError


Monomial = tuple  # tuple[int, ...] of length n

_MERGE_TOL = 1e-9
_HARMONIC_TOL = 1e-12   # |Delta P|_inf / |P|_inf below which P is harmonic


# ---------------------------------------------------------------------------
# homogeneous polynomials
# ---------------------------------------------------------------------------

@dataclass
class HomogPoly:
    """Homogeneous polynomial as a monomial -> coefficient map."""

    n: int
    degree: int
    coeffs: dict = field(default_factory=dict)

    def is_zero(self):
        return not self.coeffs

    def copy(self):
        return HomogPoly(self.n, self.degree, dict(self.coeffs))

    def map_coeffs(self, fn):
        return HomogPoly(self.n, self.degree,
                         {m: fn(c) for m, c in self.coeffs.items()})

    def scale(self, s):
        if s == 0:
            return HomogPoly(self.n, self.degree, {})
        return self.map_coeffs(lambda c: c * s)

    def add(self, other):
        if self.degree != other.degree and self.coeffs and other.coeffs:
            raise ValueError("degree mismatch in HomogPoly.add")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            acc = out.get(m)
            acc = c if acc is None else acc + c
            if acc == 0:
                out.pop(m, None)
            else:
                out[m] = acc
        return HomogPoly(self.n, max(self.degree, other.degree), out)

    def partial(self, i):
        """Plain d/dx_i (no -i factor)."""
        out = {}
        for m, c in self.coeffs.items():
            if m[i] == 0:
                continue
            mm = list(m)
            mm[i] -= 1
            out[tuple(mm)] = c * m[i]
        return HomogPoly(self.n, max(self.degree - 1, 0), out)

    def laplacian(self):
        out = HomogPoly(self.n, max(self.degree - 2, 0), {})
        for i in range(self.n):
            out = out.add(self.partial(i).partial(i))
        return out

    def times_r2(self):
        out = {}
        for m, c in self.coeffs.items():
            for i in range(self.n):
                mm = list(m)
                mm[i] += 2
                key = tuple(mm)
                acc = out.get(key)
                out[key] = c if acc is None else acc + c
        return HomogPoly(self.n, self.degree + 2, out)

    def norm_inf(self):
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    def to_float(self):
        return self.map_coeffs(lambda c: complex(c))


# ---------------------------------------------------------------------------
# Gauss (harmonic) decomposition
# ---------------------------------------------------------------------------

def harmonic_decompose(P: HomogPoly):
    """Decompose P = sum_j |x|^(2j) H_(d-2j) into harmonic parts.

    Returns a list of (j, H) pairs with Delta H = 0, omitting zero parts.
    Exact over Fraction coefficients; uses the recursion obtained by
    applying the Laplacian:  Delta(|x|^(2j) H_e) = 2j(2j + 2e + n - 2)
    |x|^(2j-2) H_e.  P is harmonic once |Delta P|_inf <= _HARMONIC_TOL
    |P|_inf, so a float part this returns decomposes to itself.
    """
    d = P.degree
    n = P.n
    if P.is_zero():
        return []
    if d <= 1:
        return [(0, P)]
    Q = P.laplacian()
    if Q.norm_inf() <= _HARMONIC_TOL * P.norm_inf():
        return [(0, P)]
    sub = dict(harmonic_decompose(Q))  # j' -> G_(d-2-2j')
    parts = []
    acc = HomogPoly(n, d, {})
    for jp, G in sub.items():
        j = jp + 1
        e = d - 2 * j
        c = 2 * j * (2 * j + 2 * e + n - 2)
        if isinstance(next(iter(G.coeffs.values())), Fraction):
            H = G.scale(Fraction(1, c))
        else:
            H = G.scale(1.0 / c)
        parts.append((j, H))
        r2H = H
        for _ in range(j):
            r2H = r2H.times_r2()
        acc = acc.add(r2H)
    H_top = P.add(acc.scale(-1))
    out = []
    if not H_top.is_zero():
        out.append((0, H_top))
    out.extend(sorted(parts))
    return out


# ---------------------------------------------------------------------------
# harmonic terms
# ---------------------------------------------------------------------------

def harmonic_terms(parts):
    """The terms r^c H, H harmonic, of a sum of raw (c, P) parts with P
    homogeneous: the Gauss components of each P as float polys, merged to
    one term per (degree, c) and sorted by (degree, Re c, Im c).  A term's
    total homogeneity is c + degree."""
    raw = [(complex(c) + 2 * j, H.to_float())
           for c, P in parts for j, H in harmonic_decompose(P)]
    return _merge(raw)


def _merge(raw):
    raw = [(complex(c), H) for c, H in raw if not H.is_zero()]
    raw.sort(key=lambda t: (t[1].degree, t[0].real, t[0].imag))
    merged = []
    for c, H in raw:
        if merged:
            c0, H0 = merged[-1]
            if H0.degree == H.degree and abs(c - c0) <= _MERGE_TOL:
                merged[-1] = (c0, H0.add(H))
                continue
        merged.append((c, H.copy()))
    return [(c, H) for c, H in merged if not H.is_zero() and H.norm_inf() > 0.0]


# ---------------------------------------------------------------------------
# exact sphere moments and inner products
# ---------------------------------------------------------------------------

def _double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2))


@lru_cache(maxsize=None)
def _moment_fraction(alpha: Monomial) -> Fraction:
    """Moment divided by the full surface measure factor (4*pi or 2*pi)."""
    if any(a % 2 for a in alpha):
        return Fraction(0)
    n = len(alpha)
    num = 1
    for a in alpha:
        num *= _double_factorial(a - 1)
    den = _double_factorial(sum(alpha) + n - 2)
    return Fraction(num, den)


def surface_measure(n: int) -> float:
    return 4.0 * math.pi if n == 3 else 2.0 * math.pi


def sphere_monomial_moment(alpha) -> float:
    """Exact integral of x^alpha over the unit sphere S^(n-1), n = len(alpha).

    Zero whenever some entry of alpha is odd; otherwise a rational multiple
    of the sphere surface area (2*pi for n=2, 4*pi for n=3).
    """
    alpha = tuple(int(a) for a in alpha)
    n = len(alpha)
    if n not in (2, 3):
        raise ValueError("only n in {2, 3} supported")
    return surface_measure(n) * float(_moment_fraction(alpha))


def _sphere_points(n, count):
    """count points of S^(n-1): equispaced on the circle, a Fibonacci
    lattice on S^2."""
    if n == 2:
        t = np.linspace(0, 2 * math.pi, count, endpoint=False)
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    idx = np.arange(count)
    z = 1 - (2 * idx + 1) / count
    theta = 2 * math.pi * idx / ((1 + 5 ** 0.5) / 2)
    s = np.sqrt(1 - z * z)
    return np.stack([s * np.cos(theta), s * np.sin(theta), z], axis=1)


def harmonic_dim(n: int, l: int) -> int:
    if n == 2:
        return 1 if l == 0 else 2
    return 2 * l + 1


# ---------------------------------------------------------------------------
# document codec and the Expr ring
# ---------------------------------------------------------------------------

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
    Every key has n exponents; `what` names the map's owner in each
    refusal."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} poly must be a monomial map, got {doc!r}")
    out = {}
    for key, val in doc.items():
        expo = tuple(_read_number(e, f"{what} monomial key {key!r}") for e in key.split())
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


def _write_monomials(coeffs):
    """The monomial map {"e1 ... en": [re, im]} of {exponents: complex}."""
    return {" ".join(map(str, m)): [c.real, c.imag] for m, c in coeffs.items()}


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
    def from_json(doc, n):
        if not isinstance(doc, list):
            raise SchemaError("Expr JSON must be a list of terms")
        terms = {}
        for item in doc:
            if not isinstance(item, dict):
                raise SchemaError(f"Expr term must be an object, got {item!r}")
            if set(item) - {"b", "c", "poly"}:
                raise SchemaError(f"unknown Expr keys: {sorted(set(item) - {'b', 'c', 'poly'})}")
            b = _as_fraction(item.get("b", 0), "Expr b")
            c = _as_fraction(item.get("c", 0), "Expr c")
            for expo, coeff in _read_monomials(item.get("poly", {}), n, "Expr").items():
                if coeff:   # a zero term is no term, as in every ring operation
                    # -0j + v is v bit for bit: a term is kept as read, signed
                    # zeros too, wherever it stands, and a repeated key sums
                    key = (b, c, expo)
                    terms[key] = terms.get(key, -0j) + coeff
                    if not terms[key]:
                        del terms[key]
        return Expr(n, terms)

    def to_json(self):
        return [{"b": str(b), "c": str(c), "poly": _write_monomials({mono: coeff})}
                for (b, c, mono), coeff in sorted(self.terms.items())]

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
            up, down = (mono[:i] + (mono[i] + s,) + mono[i + 1:] for s in (1, -1))
            if b != 0:
                out += Expr.term(self.n, b - 1, c, up, -1j * 2 * b * v)
            if c != 0:
                out += Expr.term(self.n, b, c - 2, up, -1j * c * v)
            if mono[i]:
                out += Expr.term(self.n, b, c, down, -1j * mono[i] * v)
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


