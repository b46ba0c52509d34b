"""Operator specifications: parsing, validation and symbolic manipulation.

A system operator is a k x k Douglis-Nirenberg system with orders
(mu, nu), stored as a map from (i, j) to the terms of that entry; entry
(i, j) has order mu_j - nu_i and is zero whenever that is negative.  An
entry is a sum of terms

    coeff(x) * D^alpha,      D_i = -i d/dx_i,

where each principal coefficient is r^e * P(x) with P a homogeneous
polynomial subject to e + deg P = |alpha| - order (so that the coefficient
restricted to the unit sphere is a genuine sphere polynomial), plus an
optional declared perturbation in radial_algebra's Expr ring.
parse_operator takes a decoded document and reads it through
radial_algebra's codec.  formal_adjoint takes every Leibniz derivative in
the Expr ring, principal coefficient and perturbation alike, and hands the
raw parts over as canonicalize (which parse_operator ends with) hands a
document's: one builder splits principal coefficients into harmonic
components, cuts each monomial against its multi-index's raw parts and
stores each poly's monomials sorted.  The canonical form is a fixed point
of canonicalize, so round-tripping is exact, the adjoint needs no second
pass and one key (SystemOperator.key, read by equality, the
self-adjointness test and the kept pencils) compares operators as they
stand.  The adjoint involution holds to round-off: Leibniz derivatives of
variable coefficients are float.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

import numpy as np

from .errors import AdjointOrderViolation, BadDNOrders, OrderMismatch, SchemaError
from .radial_algebra import (Expr, HomogPoly, _read_monomials, _read_number, _sphere_points,
                             _write_monomials, harmonic_terms)

_COEFF_TOL = 1e-12


def _read_ints(values, what) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise SchemaError(f"{what} must be a list of integers, got {values!r}")
    return tuple(_read_number(v, what) for v in values)


def validate_multi_index(alpha, n) -> tuple:
    alpha = _read_ints(alpha, "alpha")
    if len(alpha) != n:
        raise SchemaError(f"multi-index length {len(alpha)} != dimension {n}")
    if any(a < 0 for a in alpha):
        raise SchemaError(f"negative multi-index entry in {alpha}")
    return alpha


@dataclass
class CoeffTerm:
    """One coefficient r^radial_exponent * poly (+ optional perturbation)."""

    radial_exponent: float
    poly: HomogPoly
    perturbation: Expr | None = None


@dataclass(frozen=True, eq=False)
class SystemOperator:
    """k x k system with DN orders (mu, nu).  entries maps (i, j) to the
    entry's terms [(alpha, CoeffTerm), ...], sum coeff * D^alpha of order
    mu_j - nu_i; it holds only the entries that have terms."""

    n: int
    k: int
    mu: tuple
    nu: tuple
    entries: dict

    @property
    def m(self) -> int:
        return max(self.mu)

    def order(self, i, j) -> int:
        return self.mu[j] - self.nu[i]

    def max_poly_degree(self):
        return max((t.poly.degree for terms in self.entries.values() for _, t in terms),
                   default=0)

    @cached_property
    def key(self):
        """(structure, coefficients, perturbation coefficients), one walk in
        serialize_operator's order, built once (the operator is frozen): n,
        k, mu, nu and each term's (i, j), alpha, radial exponent, monomials
        and perturbation terms, then the bytes of two complex arrays.  Equal
        keys are equal serialize_operator bytes, signed zeros included."""
        structure, coeffs, perts = [self.n, self.k, self.mu, self.nu], [], []
        for (i, j), terms in sorted(self.entries.items()):
            for alpha, t in terms:
                pert = sorted(t.perturbation.terms.items()) if t.perturbation else ()
                structure.append((i, j, alpha, t.radial_exponent, tuple(t.poly.coeffs),
                                  tuple(term for term, _ in pert)))
                coeffs += t.poly.coeffs.values()
                perts += (v for _, v in pert)
        return tuple(structure), *(np.array(a, complex).tobytes() for a in (coeffs, perts))

    @cached_property
    def _fingerprint(self):
        doc = json.dumps(serialize_operator(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:16]

    def fingerprint(self) -> str:
        """The first 16 hex digits of the sha256 of the canonical document,
        computed once (the operator is frozen)."""
        return self._fingerprint

    def __eq__(self, other):
        if not isinstance(other, SystemOperator):
            return NotImplemented
        return self.key == other.key


@dataclass
class EllipticityReport:
    elliptic: bool
    min_ratio: float
    witness: tuple  # (x, xi)
    threshold: float

    def to_json(self):
        return {"elliptic": self.elliptic, "min_ratio": self.min_ratio,
                "witness_x": list(self.witness[0]), "witness_xi": list(self.witness[1]),
                "threshold": self.threshold}


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def _parse_poly(doc, n):
    coeffs = _read_monomials(doc, n, "term")
    if not coeffs:
        raise SchemaError("term poly must be a non-empty monomial map")
    degrees = {sum(expo) for expo in coeffs}
    if len(degrees) != 1:
        raise SchemaError("term poly is not homogeneous of a single degree")
    # an all-zero poly is legal only as the carrier of a perturbation
    return HomogPoly(n, degrees.pop(), {m: c for m, c in coeffs.items() if c != 0})


def parse_operator(doc) -> SystemOperator:
    """Parse and validate a decoded operator-spec document."""
    if not isinstance(doc, dict):
        raise SchemaError("operator document must be a JSON object")
    allowed = {"n", "k", "mu", "nu", "entries"}
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"unknown operator keys: {sorted(unknown)}")
    n, k = _read_number(doc.get("n"), "n"), _read_number(doc.get("k"), "k")
    mu, nu = _read_ints(doc.get("mu"), "mu"), _read_ints(doc.get("nu"), "nu")
    if n not in (2, 3):
        raise SchemaError(f"ambient dimension n={n} not supported (only 2 and 3)")
    if k < 1 or len(mu) != k or len(nu) != k:
        raise SchemaError("mu/nu must have length k >= 1")
    if any(v < 0 for v in mu) or any(v < 0 for v in nu):
        raise BadDNOrders("mu and nu must be non-negative")
    if min(nu) != 0:
        raise BadDNOrders(f"min(nu) must be 0, got {min(nu)}")

    entries, seen = {}, set()
    if not isinstance(doc.get("entries", []), list):
        raise SchemaError("entries must be a list of objects")
    for ent in doc.get("entries", []):
        if not isinstance(ent, dict):
            raise SchemaError(f"entry must be an object, got {ent!r}")
        if set(ent) - {"i", "j", "terms"}:
            raise SchemaError(f"unknown entry keys: {sorted(set(ent) - {'i', 'j', 'terms'})}")
        i, j = _read_number(ent.get("i"), "entry i"), _read_number(ent.get("j"), "entry j")
        if not (0 <= i < k and 0 <= j < k):
            raise SchemaError(f"entry index ({i},{j}) out of range")
        if (i, j) in seen:
            raise SchemaError(f"duplicate entry ({i},{j})")
        seen.add((i, j))
        if not isinstance(ent.get("terms"), list):
            raise SchemaError(f"terms of entry ({i},{j}) must be a list of objects")
        order = mu[j] - nu[i]
        if order < 0 and ent["terms"]:
            raise BadDNOrders(
                f"nonzero entry ({i},{j}) where mu_j - nu_i = {order} < 0")
        terms = []
        for t in ent["terms"]:
            if not isinstance(t, dict):
                raise SchemaError(f"term of entry ({i},{j}) must be an object, got {t!r}")
            if set(t) - {"alpha", "radial_exponent", "poly", "perturbation"}:
                raise SchemaError(
                    f"unknown term keys: {sorted(set(t) - {'alpha', 'radial_exponent', 'poly', 'perturbation'})}")
            alpha = validate_multi_index(t.get("alpha"), n)
            if sum(alpha) > order:
                raise OrderMismatch(
                    f"|alpha|={sum(alpha)} exceeds entry order {order} at ({i},{j})")
            poly = _parse_poly(t.get("poly"), n)
            e = _read_number(t.get("radial_exponent", 0), "radial_exponent", float)
            if not math.isfinite(e):
                raise SchemaError(f"non-finite radial_exponent {e!r} at ({i},{j})")
            if abs(e + poly.degree - (sum(alpha) - order)) > 1e-12:
                raise OrderMismatch(
                    f"radial_exponent + deg poly = {e + poly.degree} != |alpha| - order "
                    f"= {sum(alpha) - order} at ({i},{j}), alpha={alpha}")
            pert = t.get("perturbation")
            pert = None if pert is None else Expr.from_json(pert, n)
            terms.append((alpha, CoeffTerm(e, poly, pert)))
        if terms:
            entries[(i, j)] = terms
    return canonicalize(SystemOperator(n, k, mu, nu, entries))


def serialize_operator(op: SystemOperator) -> dict:
    ents = []
    for (i, j), terms in sorted(op.entries.items()):
        items = []
        for alpha, t in terms:
            # a zero principal carrying a perturbation is written as 0 x^0
            poly_doc = _write_monomials(t.poly.coeffs or {(0,) * op.n: 0j})
            item = {"alpha": list(alpha), "radial_exponent": t.radial_exponent,
                    "poly": poly_doc}
            if t.perturbation is not None and not t.perturbation.is_zero():
                item["perturbation"] = t.perturbation.to_json()
            items.append(item)
        ents.append({"i": i, "j": j, "terms": items})
    return {"n": op.n, "k": op.k, "mu": list(op.mu), "nu": list(op.nu),
            "entries": ents}


def _add_perturbation(perts, alpha, pert):
    """Add pert (or None) to the perturbation accumulated at alpha; perts
    holds only nonzero sums, since two perturbations can cancel."""
    if pert is not None:
        acc = perts.pop(alpha, None)
        total = pert if acc is None else acc + pert
        if not total.is_zero():
            perts[alpha] = total


def _entry_terms(n, order, parts, perts):
    """CoeffTerms of one entry, by multi-index: the harmonic terms of each
    alpha's raw (radial exponent, poly) parts, with every monomial at or
    below _COEFF_TOL of the largest of those parts cut (the round-off of
    the harmonic split and of Leibniz sums is theirs) and a term the cut
    empties dropped, the perturbation riding on the first.  A zero
    principal is kept as a structural zero only to carry a perturbation."""
    out = []
    for alpha in sorted(set(parts) | set(perts)):
        pert = perts.get(alpha)
        raw = parts.get(alpha, ())
        tol = _COEFF_TOL * max((P.norm_inf() for _, P in raw), default=0.0)
        harm = []
        for c, H in harmonic_terms(raw):
            kept = {m: v for m, v in sorted(H.coeffs.items()) if abs(v) > tol}
            if kept:
                harm.append((c.real, HomogPoly(n, H.degree, kept)))
        if not harm and pert is not None:
            zero = HomogPoly(n, 0, {})
            out.append((alpha, CoeffTerm(float(sum(alpha) - order), zero, pert)))
        for idx, (c, H) in enumerate(harm):
            out.append((alpha, CoeffTerm(c, H, pert if idx == 0 else None)))
    return out


def canonicalize(op: SystemOperator) -> SystemOperator:
    """Split coefficients into harmonic components, merge and sort terms."""
    entries = {}
    for (i, j), src in op.entries.items():
        parts, perts = {}, {}
        for alpha, t in src:
            parts.setdefault(alpha, []).append(
                (complex(t.radial_exponent), t.poly.to_float()))
            _add_perturbation(perts, alpha, t.perturbation)
        terms = _entry_terms(op.n, op.order(i, j), parts, perts)
        if terms:
            entries[(i, j)] = terms
    return SystemOperator(op.n, op.k, op.mu, op.nu, entries)


# ---------------------------------------------------------------------------
# ellipticity
# ---------------------------------------------------------------------------

def _sphere_samples(n, count):
    axes = np.concatenate([np.eye(n), -np.eye(n)], axis=0)
    return np.concatenate([axes, _sphere_points(n, count)], axis=0)


def _poly_eval_array(P: HomogPoly, pts):
    out = np.zeros(pts.shape[:-1], dtype=complex)
    for m, c in P.coeffs.items():
        term = np.full(pts.shape[:-1], complex(c))
        for i, e in enumerate(m):
            if e:
                term = term * pts[..., i] ** e
        out += term
    return out


def principal_symbol_matrix(op: SystemOperator, x, xi):
    """k x k matrices of top-order symbols at points x and covectors xi
    (arrays of shape (..., n), broadcast against each other)."""
    x = np.asarray(x, float)
    xi = np.asarray(xi, float)
    r = np.linalg.norm(x, axis=-1)
    shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
    mat = np.zeros(shape + (op.k, op.k), dtype=complex)
    for (i, j), terms in op.entries.items():
        for alpha, t in terms:
            if sum(alpha) != op.order(i, j) or t.poly.is_zero():
                continue
            coeff = _poly_eval_array(t.poly, x) * r ** t.radial_exponent
            mono = np.ones(xi.shape[:-1])
            for ax, a in enumerate(alpha):
                if a:
                    mono = mono * xi[..., ax] ** a
            mat[..., i, j] += coeff * mono
    return mat


def check_ellipticity(op: SystemOperator, xi_samples: int = 2000,
                      x_samples: int = 500, threshold: float = 1e-9,
                      threads: int = 1) -> EllipticityReport:
    """Sample |det of the principal symbol| over unit-sphere grids.

    Principal coefficients are positively homogeneous of degree zero in x,
    so sampling x on the unit sphere covers all of R^n minus the origin;
    declared perturbations never enter.  min_ratio is |det|/|xi|^Sigma with
    |xi| = 1 on the grid.  Work is chunked over x with a fixed chunk size,
    mapped over a pool of `threads` workers and reduced in chunk order, so
    the result is independent of `threads`.
    """
    xs = _sphere_samples(op.n, x_samples)
    xis = _sphere_samples(op.n, xi_samples)
    chunk = 64

    def chunk_min(lo):
        mats = principal_symbol_matrix(op, xs[lo:lo + chunk, None], xis[None])
        dets = np.abs(np.linalg.det(mats))
        flat = int(np.argmin(dets))
        x_off, xi_idx = divmod(flat, xis.shape[0])
        return float(dets.reshape(-1)[flat]), (tuple(xs[lo + x_off]), tuple(xis[xi_idx]))

    from concurrent.futures import ThreadPoolExecutor   # not loaded by other commands
    with ThreadPoolExecutor(max_workers=threads) as ex:
        results = list(ex.map(chunk_min, range(0, xs.shape[0], chunk)))
    best, witness = math.inf, (tuple(xs[0]), tuple(xis[0]))
    for val, wit in results:
        if val < best:
            best, witness = val, wit
    return EllipticityReport(bool(best > threshold), best, witness, threshold)


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def principal_part(op: SystemOperator) -> SystemOperator:
    """Drop every declared perturbation: the model operator (op if none)."""
    if all(t.perturbation is None for terms in op.entries.values() for _, t in terms):
        return op
    entries = {}
    for key, src in op.entries.items():
        terms = [(alpha, CoeffTerm(t.radial_exponent, t.poly, None))
                 for alpha, t in src if t.poly.norm_inf() > 0]
        if terms:
            entries[key] = terms
    return SystemOperator(op.n, op.k, op.mu, op.nu, entries)


def is_homogeneous_cc(op: SystemOperator) -> bool:
    """True iff every principal term is constant-coefficient of exact order;
    perturbations are not read, so this answers for the model operator."""
    for (i, j), terms in op.entries.items():
        for alpha, t in terms:
            if t.poly.norm_inf() == 0:
                continue
            if t.poly.degree != 0 or sum(alpha) != op.order(i, j):
                return False
    return True


def _leibniz_adjoint_scalar(terms, n: int):
    """Formal adjoint of one entry's terms via (c D^alpha)* = sum_(g<=a)
    binom(a,g) D^(a-g)(conj c) D^g, each derivative taken in Expr; returns
    the raw (radial exponent, poly) parts (the derivative's monomials by
    exponent, which fixes their degree) and the perturbation of each
    gamma, as _entry_terms takes them."""
    parts, perts = {}, {}
    for alpha, t in terms:
        e = Fraction(t.radial_exponent)
        coeff = Expr(n, {(0, e, m): v.conjugate() for m, v in t.poly.coeffs.items()})
        conj_pert = None if t.perturbation is None else t.perturbation.conjugate()
        for gamma in product(*(range(a + 1) for a in alpha)):
            rem = tuple(a - g for a, g in zip(alpha, gamma))
            binom = math.prod(math.comb(a, g) for a, g in zip(alpha, gamma))
            by_exponent = {}
            for (_, c, m), v in coeff.derivative(rem).scale(binom).terms.items():
                by_exponent.setdefault(c, {})[m] = v
            parts.setdefault(gamma, []).extend(
                (c, HomogPoly(n, sum(next(iter(P))), P)) for c, P in by_exponent.items())
            pert = None if conj_pert is None else conj_pert.derivative(rem).scale(binom)
            _add_perturbation(perts, gamma, pert)
    return parts, perts


def formal_adjoint(op: SystemOperator) -> SystemOperator:
    """Formal adjoint with orders mu*_i = m - nu_i, nu*_i = m - mu_i."""
    m = op.m
    mu_star = tuple(m - v for v in op.nu)
    nu_star = tuple(m - v for v in op.mu)
    if min(mu_star) < 0:
        raise AdjointOrderViolation("max(nu) > m; some adjoint row would vanish")
    entries = {}
    for (j, i), src in op.entries.items():
        parts, perts = _leibniz_adjoint_scalar(src, op.n)
        # op.order(j, i) == mu*_j - nu*_i; the entries come out canonical
        terms = _entry_terms(op.n, op.order(j, i), parts, perts)
        if terms:
            entries[(i, j)] = terms
    return SystemOperator(op.n, op.k, mu_star, nu_star, entries)


def is_formally_self_adjoint(op: SystemOperator) -> bool:
    """op and its formal adjoint have keys of equal structure and equal
    perturbation coefficients, and principal coefficients equal to
    _COEFF_TOL of op's largest at the same (i, j, alpha): Leibniz
    derivatives of variable coefficients are float."""
    try:
        (a, ca, pa), (b, cb, pb) = op.key, formal_adjoint(op).key
    except AdjointOrderViolation:
        return False
    ca, cb, pa, pb = (np.frombuffer(x, complex) for x in (ca, cb, pa, pb))
    scale = [max(u.poly.norm_inf() for other, u in terms if other == alpha)   # key order
             for _, terms in sorted(op.entries.items()) for alpha, t in terms
             for _ in t.poly.coeffs]
    return a == b and np.array_equal(pa, pb) and bool(
        np.all(np.abs(ca - cb) <= _COEFF_TOL * np.array(scale)))
