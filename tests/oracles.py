"""Closed forms the tests check the program against.  Exact harmonic bases
over Q, for the assembled pencil and the harmonic algebra: sector-structured
solid harmonics, exactly orthogonal on S^(n-1), ordered as the pencil's
basis (m ascending, cosine part before sine part).  And the index of the
operators with nu = 0 and mu = (m, ..., m), m in {1, 2} (special_index), for
the combinatorial formula and the ledger.  And the adjoint pencil identity
pencil_adj(lam) = pencil(conj(lam) + i(n + m))^H at one probe point
(adjoint_identity_residual), which biorthogonalize checks before it takes
the adjoint chains.  And the small constructors and lookups only the tests
call: a ledger's index at one beta (index_at), the squares with a root
in a circle (owners), the eigenpoint of the cluster at a point
(chains_at), the weight Lambda^gamma (lambda_power), a constant
polynomial (constant_poly) and the zero, scaled and summed
RadialFunctions the pencil oracle builds (radial_zero, radial_scale,
radial_add).

And the r^c H product-rule ring, a second derivative engine that the
program does not run: RadialFunction, finite sums of terms r^c H with H
harmonic, closed under D_i = -i d/dx_i by the product rule

    D_i(r^c H) = -i (c r^(c-2) x_i H + r^c dH/dx_i),

whose raw part x_i H, for H of degree l, the Gauss split takes to harmonic
degrees l + 1 and l - 1 (differentiate, with the monomial x^e and the
product of polynomials, monomial and poly_mul).  The pencil oracle applies
operators through it, and product_rule_adjoint takes the formal adjoint's
Leibniz derivatives through it, where the program takes them in Expr."""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from oppencil.errors import NotApplicable, OnBreakpoint
from oppencil.index_ledger import _BREAK_TOL, IndexLedger
from oppencil.operator_ast import SystemOperator, _add_perturbation, _entry_terms
from oppencil.pencil import _CLUSTER_RADIUS, PencilMatrices, horner
from oppencil.radial_algebra import Expr, HomogPoly, _as_fraction, _merge, harmonic_terms
from oppencil.spectrum import AdjointChains, Eigenpoint, adjoint_chains, jordan_chains

_ADJOINT_PROBE = 0.37 + 0.21j   # lam at which the adjoint identity is checked


def _xy_power(n: int, m: int):
    """Real and imaginary parts of (x + iy)^m in R^n, exact over Q."""
    parts = ({}, {})
    for j in range(m + 1):
        sign = -1 if j % 4 >= 2 else 1
        parts[j % 2][(m - j, j) + (0,) * (n - 2)] = sign * Fraction(math.comb(m, j))
    return HomogPoly(n, m, parts[0]), HomogPoly(n, m, parts[1])


def _solid_harmonic_pair(l: int, m: int):
    """Real/imaginary parts of (x+iy)^m W(z, r^2) for n=3, exact over Q.

    W = sum_j c_j z^(l-m-2j) r^(2j) with the two-term recursion
    c_(j+1) = -c_j a(a-1) / (2(j+1)(2l-2j-1)),  a = l - m - 2j,
    which makes (x+iy)^m W harmonic of degree l.
    """
    n = 3
    re_p, im_p = _xy_power(n, m)
    W = HomogPoly(n, l - m, {})
    c = Fraction(1)
    j = 0
    while True:
        a = l - m - 2 * j
        term = monomial(n, (0, 0, a), c)
        for _ in range(j):
            term = term.times_r2()
        W = W.add(term)
        if a <= 1:
            break
        c = -c * a * (a - 1) / (2 * (j + 1) * (2 * l - 2 * j - 1))
        j += 1
    return poly_mul(re_p, W), poly_mul(im_p, W)


def exact_harmonics(n: int, l: int):
    """Orthogonal (unnormalized) degree-l solid harmonics, exact over Q.

    Sector-structured, so exactly orthogonal by angular parity.  Ordering
    is deterministic: m ascending, cosine part before sine part.
    """
    if n == 2:
        polys = list(_xy_power(2, l))
    elif n == 3:
        polys = []
        for m in range(l + 1):
            re_p, im_p = _solid_harmonic_pair(l, m)
            polys.append(re_p)
            if m > 0:
                polys.append(im_p)
    else:
        raise ValueError("only n in {2, 3} supported")
    return [P for P in polys if not P.is_zero()]


def special_index(n: int, k: int, m: int, beta: float) -> int:
    """Closed form for nu = 0, mu = (m,...,m) with m in {1, 2}:

        -k/(n-1)! * (l - 1)            * prod_(j=2..n-1) |l - j|   (m = 1)
        -k/(n-1)! * (2l - n - 1)       * prod_(j=2..n-1) |l - j|   (m = 2)

    with l = floor(beta); empty products are 1 (n = 2).
    """
    if m not in (1, 2):
        raise ValueError("closed form requires m in {1, 2}")
    if n < 2:
        raise ValueError("n must be >= 2")
    if abs(beta - round(beta)) < _BREAK_TOL:
        raise OnBreakpoint(f"beta = {beta} is within tolerance of an integer")
    l = math.floor(beta)
    prod = 1
    for j in range(2, n):
        prod *= abs(l - j)
    lead = (l - 1) if m == 1 else (2 * l - n - 1)
    val = Fraction(-k * lead * prod, math.factorial(n - 1))
    assert val.denominator == 1
    return int(val)


def adjoint_identity_residual(P: PencilMatrices, P_adj: PencilMatrices) -> float:
    """Relative residual of pencil_adj(lam) == pencil(conj(lam)+i(n+m))^H
    at lam = _ADJOINT_PROBE.

    Both pencils are compared on the common basis range.
    """
    n_common = min(len(P.degrees), len(P_adj.degrees))

    def restrict(mat, nb):
        idx = np.concatenate([c * nb + np.arange(n_common) for c in range(P.k)])
        return mat[np.ix_(idx, idx)]

    lam = _ADJOINT_PROBE
    lhs = restrict(horner(P_adj.B, lam), len(P_adj.degrees))
    rhs = restrict(horner(P.B, np.conj(lam) + 1j * (P.n + P.m)),
                   len(P.degrees)).conj().T
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)


def biorthogonalize(P: PencilMatrices, P_adj: PencilMatrices,
                    e: Eigenpoint) -> AdjointChains:
    """adjoint_chains(P, e), once P_adj (the pencil of the formally adjoint
    operator) is validated against the cylinder-level adjoint pencil
    through the shift identity pencil_adj(lam) = pencil(conj(lam) + i(n+m))^H.
    """
    if P_adj.k != P.k or P_adj.n != P.n or P_adj.m != P.m:
        raise ValueError("P_adj is not compatible with P")
    if adjoint_identity_residual(P, P_adj) > 1e-6:
        raise ValueError("P_adj does not satisfy the adjoint pencil identity")
    return adjoint_chains(P, e)


def index_at(ledger: IndexLedger, beta: float) -> int:
    """The index the ledger gives at beta: NotApplicable outside its window
    or its components, OnBreakpoint on a critical line."""
    if not (ledger.beta_min <= beta <= ledger.beta_max):
        raise NotApplicable(
            f"beta = {beta} outside the computed window "
            f"[{ledger.beta_min}, {ledger.beta_max}]")
    for b, _ in ledger.breakpoints:
        if abs(beta - b) < _BREAK_TOL:
            raise OnBreakpoint(f"beta = {beta} sits on a critical line")
    for left, right, idx in ledger.values:
        if left <= beta <= right:
            return idx
    raise NotApplicable(f"no component contains beta = {beta}")


def owners(P: PencilMatrices, lam0, radius):
    """Which of P.squares own a root (P.roots) strictly inside the circle
    |lam - lam0| < radius: a mask of shape np.shape(lam0) + (len(P.squares),),
    lam0 and radius being one circle or arrays of them.  Square i is block
    i (P.blocks), so det pencil has no zero in the circle outside the
    owners."""
    lam0 = np.asarray(lam0)
    roots, square = P.roots
    inside = np.abs(roots - lam0[..., None]) < np.asarray(radius)[..., None]
    return inside @ (square[:, None] == np.arange(len(P.squares)))


def chains_at(P: PencilMatrices, lam0) -> Eigenpoint:
    """jordan_chains of the one cluster of P whose centre lies within the
    cluster radius of lam0."""
    (cluster,) = np.flatnonzero(np.abs(P.clusters[1] - lam0) < _CLUSTER_RADIUS)
    return jordan_chains(P, [cluster])[0]


def lambda_power(n, gamma):
    """(1 + r^2)^(gamma/2), i.e. the weight Lambda^gamma."""
    return Expr.term(n, Fraction(_as_fraction(gamma), 2), 0, (0,) * n)


def constant_poly(n, value=1.0):
    """The constant `value` as a HomogPoly of degree 0 on R^n."""
    return HomogPoly(n, 0, {(0,) * n: value})


# ---------------------------------------------------------------------------
# the r^c H product-rule ring
# ---------------------------------------------------------------------------

def monomial(n, expo, value=1.0):
    """value * x^expo as a HomogPoly on R^n."""
    expo = tuple(int(e) for e in expo)
    return HomogPoly(n, sum(expo), {expo: value})


def poly_mul(P, Q):
    """The product of two homogeneous polynomials."""
    out = {}
    for m1, c1 in P.coeffs.items():
        for m2, c2 in Q.coeffs.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            acc = out.get(m, 0) + c1 * c2
            if acc == 0:
                out.pop(m, None)
            else:
                out[m] = acc
    return HomogPoly(P.n, P.degree + Q.degree, out)


@dataclass
class RadialFunction:
    """Finite sum of terms r^c H(x), H harmonic homogeneous, at most one
    per (c, degree) and sorted by (degree, Re c, Im c)."""

    n: int
    terms: list = field(default_factory=list)  # list[(complex c, HomogPoly H)]

    @staticmethod
    def from_parts(n, parts):
        """Build from raw (c, poly) pairs; polys need not be harmonic."""
        return RadialFunction(n, harmonic_terms(parts))

    def prune_abs(self, eps):
        return RadialFunction(self.n, [(c, H) for c, H in self.terms
                                       if H.norm_inf() > eps])


def radial_zero(n):
    return RadialFunction(n, [])


def radial_scale(f: RadialFunction, s):
    if s == 0:
        return RadialFunction(f.n, [])
    return RadialFunction(f.n, [(c, H.scale(s)) for c, H in f.terms])


def radial_add(f: RadialFunction, g: RadialFunction):
    return RadialFunction(f.n, _merge(list(f.terms) + list(g.terms)))


def differentiate(f: RadialFunction, i: int) -> RadialFunction:
    """Apply D_i = -i d/dx_i term-wise by the product rule
    D_i(r^c H) = -i (c r^(c-2) x_i H + r^c dH/dx_i); from_parts splits x_i H."""
    parts = []
    for c, H in f.terms:
        if c != 0:
            xi = monomial(f.n, [int(a == i) for a in range(f.n)], 1)
            parts.append((c - 2, poly_mul(xi, H).scale(-1j * c)))
        if H.degree > 0:
            parts.append((c, H.partial(i).scale(-1j)))
    return RadialFunction.from_parts(f.n, parts)


def product_rule_adjoint(op: SystemOperator) -> SystemOperator:
    """The formal adjoint with orders mu*_i = m - nu_i, nu*_i = m - mu_i,
    whose Leibniz derivatives (c D^alpha)* = sum_(g<=a) binom(a,g)
    D^(a-g)(conj c) D^g of each principal coefficient go through the
    product-rule ring, term by harmonic term; perturbations are
    differentiated in Expr.  The entries are built as the program builds
    them (_entry_terms), so the two adjoints compare key by key."""
    m, n = op.m, op.n
    entries = {}
    for (j, i), src in op.entries.items():
        parts, perts = {}, {}
        for alpha, t in src:
            conj = t.poly.map_coeffs(lambda c: complex(c).conjugate())
            conj_rf = RadialFunction.from_parts(n, [(complex(t.radial_exponent), conj)])
            conj_pert = None if t.perturbation is None else t.perturbation.conjugate()
            for gamma in product(*(range(a + 1) for a in alpha)):
                rem = tuple(a - g for a, g in zip(alpha, gamma))
                binom = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
                rf = conj_rf
                for ax, count in enumerate(rem):
                    for _ in range(count):
                        rf = differentiate(rf, ax)
                parts.setdefault(gamma, []).extend((c, H.scale(binom)) for c, H in rf.terms)
                pert = None if conj_pert is None else conj_pert.derivative(rem).scale(binom)
                _add_perturbation(perts, gamma, pert)
        terms = _entry_terms(n, op.order(j, i), parts, perts)
        if terms:
            entries[(i, j)] = terms
    return SystemOperator(n, op.k, tuple(m - v for v in op.nu), tuple(m - v for v in op.mu),
                          entries)
