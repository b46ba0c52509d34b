"""Tests for the Gauss decomposition and sphere moments, and for the
oracle's r^c * harmonic product-rule ring (tests/oracles.py) that the
pencil and adjoint tests check the program against."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oppencil.radial_algebra import (
    HomogPoly,
    _moment_fraction,
    harmonic_decompose,
    harmonic_dim,
    sphere_monomial_moment,
    surface_measure,
)
from oppencil.errors import HomogeneityError
from oracles import (
    RadialFunction,
    constant_poly,
    differentiate,
    exact_harmonics,
    monomial,
    poly_mul,
    radial_add,
    radial_scale,
    radial_zero,
)


def max_abs_coeff(f):
    """Largest coefficient modulus over the terms of a RadialFunction."""
    return max((H.norm_inf() for _, H in f.terms), default=0.0)


def poly_sphere_inner(P, Q):
    """Integral over S^(n-1) of P * conj(Q), exact via monomial moments."""
    total = 0.0
    for m1, c1 in P.coeffs.items():
        for m2, c2 in Q.coeffs.items():
            mom = sphere_monomial_moment(tuple(a + b for a, b in zip(m1, m2)))
            if mom != 0.0:
                total = total + complex(c1) * complex(c2).conjugate() * mom
    return complex(total)


def sphere_inner_product(f, g):
    """L^2(S^(n-1)) pairing of two degree-zero-homogeneous RadialFunctions."""
    for c, H in list(f.terms) + list(g.terms):
        if abs(c + H.degree) > 1e-10:
            raise HomogeneityError(
                f"sphere_inner_product needs total homogeneity 0, got {c + H.degree}")
    total = 0.0 + 0.0j
    for _, H1 in f.terms:
        for _, H2 in g.terms:
            total += poly_sphere_inner(H1, H2)
    return total


def gamma_moment_oracle(alpha):
    """Gaussian-integral identity: 2 prod Gamma((a_i+1)/2) / Gamma((|a|+n)/2)."""
    if any(a % 2 for a in alpha):
        return 0.0
    num = 2.0
    for a in alpha:
        num *= math.gamma((a + 1) / 2.0)
    return num / math.gamma((sum(alpha) + len(alpha)) / 2.0)


# ---------------------------------------------------------------------------
# harmonic decomposition
# ---------------------------------------------------------------------------

def test_decompose_x1_squared_n3():
    P = monomial(3, (2, 0, 0), Fraction(1))
    parts = dict(harmonic_decompose(P))
    assert set(parts) == {0, 1}
    # H_2 = x1^2 - |x|^2/3, H_0 = 1/3
    assert parts[0].coeffs == {(2, 0, 0): Fraction(2, 3),
                               (0, 2, 0): Fraction(-1, 3),
                               (0, 0, 2): Fraction(-1, 3)}
    assert parts[1].coeffs == {(0, 0, 0): Fraction(1, 3)}
    assert parts[0].laplacian().is_zero()


def test_decompose_x1x2_already_harmonic():
    P = monomial(3, (1, 1, 0), Fraction(1))
    parts = harmonic_decompose(P)
    assert parts == [(0, P)]


def test_decompose_r2_n2_pure_radial():
    P = HomogPoly(2, 2, {(2, 0): Fraction(1), (0, 2): Fraction(1)})
    parts = dict(harmonic_decompose(P))
    assert list(parts) == [1]
    assert parts[1].coeffs == {(0, 0): Fraction(1)}


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(0, 6), st.data())
def test_decompose_reconstructs_and_parts_harmonic(n, d, data):
    monos = []
    remaining = d

    def all_monos(n, d):
        if n == 1:
            return [(d,)]
        out = []
        for a in range(d + 1):
            out.extend([(a,) + rest for rest in all_monos(n - 1, d - a)])
        return out

    monos = all_monos(n, d)
    coeffs = {}
    for m in monos:
        c = data.draw(st.integers(-3, 3))
        if c:
            coeffs[m] = Fraction(c)
    P = HomogPoly(n, d, coeffs)
    parts = harmonic_decompose(P)
    acc = HomogPoly(n, d, {})
    for j, H in parts:
        assert H.laplacian().is_zero()
        term = H
        for _ in range(j):
            term = term.times_r2()
        acc = acc.add(term)
    assert acc.add(P.scale(-1)).is_zero()


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_differentiate_r2():
    # f = r^2: D_1 f = -2i x_1
    f = RadialFunction(3, [(2.0 + 0j, constant_poly(3, 1.0))])
    g = differentiate(f, 0)
    assert len(g.terms) == 1
    c, H = g.terms[0]
    assert abs(c) < 1e-12 and H.degree == 1
    assert H.coeffs == {(1, 0, 0): -2j}


def test_differentiate_x1():
    f = RadialFunction(3, [(0j, monomial(3, (1, 0, 0), 1.0))])
    g = differentiate(f, 0)
    assert len(g.terms) == 1
    c, H = g.terms[0]
    assert H.degree == 0 and abs(H.coeffs[(0, 0, 0)] + 1j) < 1e-14


@pytest.mark.parametrize("s", [1.5, -2.0, 0.5 + 1.25j, 3j])
def test_euler_identity(s):
    # i * sum x_i D_i f = s f for f = r^(s-1) * x_1 (homogeneity s)
    n = 3
    f = RadialFunction(n, [(s - 1, monomial(n, (1, 0, 0), 1.0))])
    acc = radial_zero(n)
    for i in range(n):
        xi = monomial(n, tuple(1 if a == i else 0 for a in range(n)), 1.0)
        acc = radial_add(acc, _times(differentiate(f, i), 0.0, xi))
    acc = radial_scale(acc, 1j)
    diff = radial_add(acc, radial_scale(f, -s))
    assert max_abs_coeff(diff) < 1e-12 * max(1.0, abs(s))


def test_laplacian_annihilates_harmonics():
    # two differentiate passes realise -Delta on the ring; harmonic r^(-l) H_l
    # of homogeneity 0 must map to 0.
    for n in (2, 3):
        for l in range(0, 5):
            for H in exact_harmonics(n, l):
                f = RadialFunction(n, [(-l + 0j, H)])
                lap = radial_zero(n)
                for i in range(n):
                    lap = radial_add(lap, differentiate(differentiate(f, i), i))
                # sum D_i^2 = -Delta and Delta(r^a H_l) = a(a+n-2+2l) r^(a-2) H_l,
                # so with a = -l the result is l(l+n-2) r^(-l-2) H_l.
                expected = l * (l + n - 2)
                target = RadialFunction(n, [(-l - 2 + 0j, H.scale(expected))])
                diff = radial_add(lap, radial_scale(target, -1))
                assert max_abs_coeff(diff) < 1e-12 * max(1.0, expected) * H.norm_inf()


# ---------------------------------------------------------------------------
# coefficient multiplication
# ---------------------------------------------------------------------------

def _times(f, radial_exponent, poly):
    """r^radial_exponent * poly * f, re-canonicalized through from_parts as
    operator coefficients are."""
    return RadialFunction.from_parts(
        f.n, [(c + radial_exponent, poly_mul(poly, H)) for c, H in f.terms])


def test_multiply_constant_power():
    f = RadialFunction(3, [(0j, constant_poly(3, 1.0))])
    g = _times(f, -2.0, constant_poly(3, 1.0))
    assert len(g.terms) == 1 and abs(g.terms[0][0] + 2) < 1e-14


def test_multiply_x1_on_x1():
    # x1 * (r^-1 x1) = r^-1 x1^2 = r^-1 (x1^2 - r^2/3) + (1/3) r
    f = RadialFunction(3, [(0j, monomial(3, (1, 0, 0), 1.0))])
    g = _times(f, -1.0, monomial(3, (1, 0, 0), 1.0))
    terms = {H.degree: (c, H) for c, H in g.terms}
    assert set(terms) == {0, 2}
    c0, H0 = terms[0]
    assert abs(c0 - 1) < 1e-12 and abs(H0.coeffs[(0, 0, 0)] - 1 / 3) < 1e-12
    c2, H2 = terms[2]
    assert abs(c2 + 1) < 1e-12


def test_multiply_identity_keeps_complex_exponent():
    lam = 0.7 + 0.3j
    f = RadialFunction(2, [(1j * lam, constant_poly(2, 1.0))])
    g = _times(f, 0.0, constant_poly(2, 1.0))
    assert len(g.terms) == 1 and abs(g.terms[0][0] - 1j * lam) < 1e-14


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_surface_area_n3():
    assert abs(sphere_monomial_moment((0, 0, 0)) - 4 * math.pi) < 1e-12


def test_moment_cos2_n2():
    assert abs(sphere_monomial_moment((2, 0)) - math.pi) < 1e-14


def test_moment_odd_zero():
    assert sphere_monomial_moment((1, 2, 0)) == 0.0
    assert sphere_monomial_moment((3, 1)) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.data())
def test_moment_gamma_oracle(n, data):
    alpha = tuple(data.draw(st.integers(0, 8)) for _ in range(n))
    got = sphere_monomial_moment(alpha)
    want = gamma_moment_oracle(alpha)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.data())
def test_moment_consistency_sum_rule(n, data):
    # sum_i moment(alpha + 2 e_i) = moment(alpha) since sum x_i^2 = 1
    alpha = tuple(data.draw(st.integers(0, 6)) for _ in range(n))
    if sum(alpha) > 8:
        alpha = alpha[:1] + (0,) * (n - 1)
    total = 0.0
    for i in range(n):
        a2 = list(alpha)
        a2[i] += 2
        total += sphere_monomial_moment(tuple(a2))
    assert total == pytest.approx(sphere_monomial_moment(alpha), rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# inner products and the orthonormal basis
# ---------------------------------------------------------------------------

def test_inner_product_constants_n3():
    one = RadialFunction(3, [(0j, constant_poly(3, 1.0))])
    assert sphere_inner_product(one, one) == pytest.approx(4 * math.pi, rel=1e-12)


def test_inner_product_x1_x2_orthogonal():
    f = RadialFunction(3, [(-1 + 0j, monomial(3, (1, 0, 0), 1.0))])
    g = RadialFunction(3, [(-1 + 0j, monomial(3, (0, 1, 0), 1.0))])
    assert abs(sphere_inner_product(f, g)) < 1e-14
    assert sphere_inner_product(f, f) == pytest.approx(4 * math.pi / 3, rel=1e-12)


def test_inner_product_requires_homogeneity_zero():
    f = RadialFunction(3, [(0j, monomial(3, (1, 0, 0), 1.0))])
    with pytest.raises(HomogeneityError):
        sphere_inner_product(f, f)


def _exact_inner(P, Q):
    """Integral of P Q over S^(n-1) per unit surface measure, over Q."""
    return sum((c1 * c2 * _moment_fraction(tuple(a + b for a, b in zip(m1, m2)))
                for m1, c1 in P.coeffs.items() for m2, c2 in Q.coeffs.items()),
               Fraction(0))


@pytest.mark.parametrize("n,lmax", [(2, 8), (3, 7)])
def test_basis_gram_identity(n, lmax):
    # exact_harmonics are exactly orthogonal, within and across degrees, and
    # normalized through the exact moments they are orthonormal in floats
    funcs = []
    for l in range(lmax + 1):
        basis = exact_harmonics(n, l)
        assert len(basis) == harmonic_dim(n, l)
        funcs.extend(basis)
    for i, Hi in enumerate(funcs):
        for j, Hj in enumerate(funcs[:i]):
            assert _exact_inner(Hi, Hj) == 0
        norm2 = _exact_inner(Hi, Hi)
        assert norm2 > 0
        unit = Hi.to_float().scale(1 / math.sqrt(float(norm2) * surface_measure(n)))
        assert abs(poly_sphere_inner(unit, unit) - 1) < 1e-12


def test_basis_polys_harmonic():
    for n in (2, 3):
        for l in range(6):
            for H in exact_harmonics(n, l):
                assert H.degree == l and H.laplacian().is_zero()
