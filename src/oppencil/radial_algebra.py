"""Exact harmonic algebra of coefficients r^c H(x), H harmonic homogeneous.

The module's one polynomial type is the ring Expr of sums of (1 + r^2)^b
r^c x^mono (b, c rational, coefficients complex), the program's one
coefficient calculus: its derivatives D_i = -i d/dx_i are exact monomial
by monomial, and the formal adjoint and the weighted norms take them
there.  A homogeneous polynomial P is an Expr whose terms all have
b = c = 0.

An operator's principal coefficients are sums of terms r^c H(x), where c
is a (possibly complex) exponent and H a harmonic homogeneous polynomial.
A homogeneous P of degree d decomposes uniquely as P = sum_j |x|^(2j)
H_(d-2j) with each H_(d-2j) harmonic (the Gauss decomposition,
harmonic_decompose, which takes its Laplacian with Expr.differentiate),
so harmonic_terms takes raw (c, P) parts to those terms.  Restriction to
the unit sphere is then trivial (drop r) and integration over S^(n-1) is
exact through closed-form monomial moments.  Only n in {2, 3} is
supported.  And the sphere samples and the document codec: the number
readers and the one reader and one writer of monomial maps
{"e1 ... en": [re, im]}.
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


def uniforms(seed, start, count):
    """count numbers in (0, 1], 53 bits each: the SplitMix64 outputs of the
    counters start + 1 .. start + count of the stream `seed` (Steele, Lea
    and Flood, Fast splittable pseudorandom number generators, OOPSLA
    2014).  A counter's number depends on nothing else drawn, so a longer
    draw extends a shorter one.  Plain uint64 arithmetic (wrapping), so no
    numpy.random loads, and with it no OpenSSL (its secrets -> hmac)."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = z * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed % 2 ** 64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (((z ^ (z >> np.uint64(31))) >> np.uint64(11)).astype(float) + 1) * 2.0 ** -53


def normals(seed, start, count):
    """count standard normal numbers, the k-th by Box-Muller from the
    uniforms of counters 2 (start + k) + 1 and + 2 of the stream `seed`:
    sqrt(-2 ln u) cos(2 pi v)."""
    u = uniforms(seed, 2 * start, 2 * count)
    return np.sqrt(-2 * np.log(u[::2])) * np.cos(2 * math.pi * u[1::2])


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
                    # kept as read, signed zeros too, wherever it stands; a
                    # repeated key sums
                    _accumulate(terms, (b, c, expo), coeff)
        return Expr(n, terms)

    def to_json(self):
        return [{"b": str(b), "c": str(c), "poly": _write_monomials({mono: coeff})}
                for (b, c, mono), coeff in sorted(self.terms.items())]

    # -- ring operations -----------------------------------------------------
    # A new key starts at -0j + v, which is v bit for bit: a term is kept as
    # it comes, signed zeros too, and a sum that cancels leaves no term.

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(out, k, v)
        return Expr(self.n, out)

    def scale(self, s):
        if s == 0:
            return Expr.zero(self.n)
        return Expr(self.n, {k: v * s for k, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for (b1, c1, m1), v1 in self.terms.items():
            for (b2, c2, m2), v2 in other.terms.items():
                _accumulate(out, (b1 + b2, c1 + c2, tuple(a + b for a, b in zip(m1, m2))),
                            v1 * v2)
        return Expr(self.n, out)

    def conjugate(self):
        return Expr(self.n, {k: v.conjugate() for k, v in self.terms.items()})

    def differentiate(self, i, plain=False):
        """D_i = -i d/dx_i, exact in the ring, or d/dx_i itself when plain.
        A D_i coefficient's zero parts are +0 (each new key starts at 0j);
        the plain derivative keeps signed zeros as they come."""
        factor, start = (1, -0j) if plain else (-1j, 0j)
        out = {}
        for (b, c, mono), v in self.terms.items():
            e = mono[i]
            if b != 0 or c != 0:
                up = mono[:i] + (e + 1,) + mono[i + 1:]
                if b != 0:
                    _accumulate(out, (b - 1, c, up), factor * 2 * b * v, start)
                if c != 0:
                    _accumulate(out, (b, c - 2, up), factor * c * v, start)
            if e:
                _accumulate(out, (b, c, mono[:i] + (e - 1,) + mono[i + 1:]), factor * e * v,
                            start)
        return Expr(self.n, out)

    def derivative(self, alpha):
        out = self
        for i, a in enumerate(alpha):
            for _ in range(a):
                out = out.differentiate(i)
        return out

    def is_zero(self):
        return not self.terms

    # -- a polynomial (b = c = 0) --------------------------------------------

    @property
    def degree(self):
        """The degree of a homogeneous polynomial, read off one term (0 for
        the zero Expr)."""
        return sum(next(iter(self.terms))[2]) if self.terms else 0

    @property
    def coeffs(self):
        """{mono: coefficient}, the monomial map of a polynomial."""
        return {m: v for (_, _, m), v in self.terms.items()}

    def norm_inf(self):
        return max((abs(v) for v in self.terms.values()), default=0.0)

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
        """Vectorized evaluation at an (..., n) array of points."""
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum(pts * pts, axis=-1)
        r = np.sqrt(r2)
        out = np.zeros(pts.shape[:-1], dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            for (b, c, mono), v in self.terms.items():
                term = np.full(pts.shape[:-1], v, dtype=complex)
                if b != 0:
                    term = term * (1.0 + r2) ** float(b)
                if c != 0:
                    term = term * r ** float(c)
                for i, e in enumerate(mono):
                    if e:
                        term = term * pts[..., i] ** e
                out += term
        return out


def _accumulate(out, key, v, start=-0j):
    """out[key] += v, a new key starting at start + v (v as it is by
    default); a zero sum is no term."""
    acc = out.get(key, start) + v
    if acc == 0:
        out.pop(key, None)
    else:
        out[key] = acc


# ---------------------------------------------------------------------------
# Gauss (harmonic) decomposition
# ---------------------------------------------------------------------------

def harmonic_decompose(P: Expr):
    """Decompose a homogeneous polynomial P (an Expr with b = c = 0) as
    P = sum_j |x|^(2j) H_(d-2j) into harmonic parts.

    Returns a list of (j, H) pairs with Delta H = 0, omitting zero parts,
    j ascending.  Uses the recursion obtained by applying the Laplacian:
    Delta(|x|^(2j) H_e) = 2j(2j + 2e + n - 2) |x|^(2j-2) H_e.  P is
    harmonic once |Delta P|_inf <= _HARMONIC_TOL |P|_inf, so a part this
    returns decomposes to itself.
    """
    d, n = P.degree, P.n
    if P.is_zero():
        return []
    if d <= 1:
        return [(0, P)]
    Q = Expr.zero(n)
    for i in range(n):
        Q = Q + P.differentiate(i, plain=True).differentiate(i, plain=True)
    if Q.norm_inf() <= _HARMONIC_TOL * P.norm_inf():
        return [(0, P)]
    parts, acc = [], Expr.zero(n)
    for jp, G in harmonic_decompose(Q):  # G = G_(d-2-2jp)
        j = jp + 1
        e = d - 2 * j
        H = G.scale(1.0 / (2 * j * (2 * j + 2 * e + n - 2)))
        parts.append((j, H))
        for _ in range(j):
            H = _times_r2(H)
        acc = acc + H
    top = P + acc.scale(-1)
    return ([(0, top)] if top.terms else []) + parts


def _times_r2(P):
    """|x|^2 P with each coefficient copied, not multiplied by 1 (a complex
    product by 1 can flip a signed zero), and a sum that cancels kept as a
    zero term for the split's next sum to add in, so that the canonical
    form's signed zeros do not hang on how |x|^2 is applied."""
    out = {}
    for (b, c, m), v in P.terms.items():
        for i in range(P.n):
            key = (b, c, m[:i] + (m[i] + 2,) + m[i + 1:])
            out[key] = out[key] + v if key in out else v
    return Expr(P.n, out)


def harmonic_terms(parts):
    """The terms r^c H, H harmonic, of a sum of raw (c, P) parts with P
    homogeneous: the Gauss components of each P, merged to one term per
    (degree, c) and sorted by (degree, Re c, Im c).  A term's total
    homogeneity is c + degree."""
    raw = sorted(((complex(c) + 2 * j, H) for c, P in parts
                  for j, H in harmonic_decompose(P)),
                 key=lambda t: (t[1].degree, t[0].real, t[0].imag))
    merged = []
    for c, H in raw:
        if merged:
            c0, H0 = merged[-1]
            if H0.degree == H.degree and abs(c - c0) <= _MERGE_TOL:
                merged[-1] = (c0, H0 + H)
                continue
        merged.append((c, H))
    return [(c, H) for c, H in merged if H.norm_inf() > 0.0]
