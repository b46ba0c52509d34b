"""Tests for the expression ring and the explicit weighted norms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from oppencil import weighted_norms
from oppencil.errors import DivergentNorm, UnboundedNorm
from oppencil.radial_algebra import Expr, surface_measure
from oppencil.weighted_norms import (
    check_symbol_class,
    weighted_cl_norm,
    weighted_holder_seminorm,
    weighted_sobolev_norm,
)
from oracles import expr_term, lambda_power


def lam_pow(n, g):
    return lambda_power(n, g)


def radial_beta_integral(s, w):
    """integral_0^inf r^(s-1) (1+r^2)^(-w) dr = B(s/2, w - s/2) / 2."""
    return 0.5 * beta_fn(s / 2.0, w - s / 2.0)


# ---------------------------------------------------------------------------
# ring basics
# ---------------------------------------------------------------------------

def test_ring_derivative_vs_finite_differences():
    n = 3
    u = lam_pow(n, -3) + expr_term(n, "-1/2", 0, (1, 1, 0), 0.75 - 0.25j)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, (100, n))
    h = 1e-5
    for i in range(n):
        du = u.differentiate(i)
        e = np.zeros(n)
        e[i] = h
        fd = (u.evaluate(pts + e) - u.evaluate(pts - e)) / (2 * h)
        got = du.evaluate(pts)
        # D_i = -i d/dx_i
        assert np.max(np.abs(got - (-1j) * fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_ring_json_roundtrip():
    n = 2
    u = expr_term(n, "3/2", "-1/2", (2, 1), 1.5 + 0.5j) + lam_pow(n, -2)
    v = Expr.from_json(u.to_json(), n)
    assert set(u.terms) == set(v.terms)
    for k in u.terms:
        assert u.terms[k] == pytest.approx(v.terms[k])


def test_ring_product_closed():
    n = 2
    u = lam_pow(n, -1)
    v = expr_term(n, 0, "-1", (1, 0))
    w = u * v
    assert list(w.terms) == [(-0.5, -1, (1, 0))]


# ---------------------------------------------------------------------------
# Sobolev norm
# ---------------------------------------------------------------------------

def test_sobolev_zero():
    assert weighted_sobolev_norm(Expr(3), 2, 1, 0.0).value == 0.0


def test_sobolev_beta_oracle_k0():
    # u = (1+r^2)^(-2), n=3, p=2, beta=0:
    # integral (1+r^2)^(-3/2) (1+r^2)^(-4) dx = 4 pi * int r^2 (1+r^2)^(-11/2)
    u = lam_pow(3, -4)
    res = weighted_sobolev_norm(u, 2, 0, 0.0)
    want = 4 * math.pi * radial_beta_integral(3, 5.5)
    assert res.value == pytest.approx(want, rel=1e-9)
    assert res.tail_bound < 1e-6 * res.value


def test_sobolev_beta_oracle_k1():
    # |grad| part: sum_i |D_i u|^2 = 16 r^2 (1+r^2)^(-6), weight Lambda^(2-3)
    u = lam_pow(3, -4)
    res = weighted_sobolev_norm(u, 2, 1, 0.0)
    want = (4 * math.pi * radial_beta_integral(3, 5.5)
            + 16 * 4 * math.pi * radial_beta_integral(5, 6.5))
    assert res.value == pytest.approx(want, rel=1e-9)


def test_sobolev_shift_identity_bitwise():
    # norm of Lambda^g u at weight beta == norm of u at weight beta + g
    n = 3
    u = lam_pow(n, -4) + expr_term(n, "-2", 0, (1, 0, 0), 0.5)
    g = 1.5
    a = weighted_sobolev_norm(lam_pow(n, g) * u, 2, 0, 0.5)
    b = weighted_sobolev_norm(u, 2, 0, 0.5 + g)
    assert a.value == b.value  # bit for bit


def test_sobolev_divergent():
    # integrand ~ Lambda^(2*1.5-3) |Lambda^-1|^2 r^2 dr ~ 1/r at infinity
    with pytest.raises(DivergentNorm):
        weighted_sobolev_norm(lam_pow(3, -1), 2, 0, 1.5)


def test_sobolev_k_monotone():
    u = lam_pow(3, -4)
    vals = [weighted_sobolev_norm(u, 2, k, 0.0).value for k in range(3)]
    assert vals == sorted(vals)


def test_sobolev_scaling():
    u = lam_pow(3, -4)
    c = 2.5 - 1.0j
    a = weighted_sobolev_norm(u.scale(c), 2, 1, 0.0)
    b = weighted_sobolev_norm(u, 2, 1, 0.0)
    assert a.value == pytest.approx(abs(c) ** 2 * b.value, rel=1e-10)


def test_sobolev_odd_p_against_closed_form():
    # p = 1, u = (1+r^2)^(-3), n = 2, k = 0, beta = 0:
    # integral (1+r^2)^(-1) (1+r^2)^(-3) dx = 2 pi int r (1+r^2)^(-4) dr
    u = lam_pow(2, -6)
    res = weighted_sobolev_norm(u, 1, 0, 0.0)
    want = 2 * math.pi * radial_beta_integral(2, 4)
    assert res.value == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1.5, 2, 3])
def test_sobolev_tail_bound_bounds_the_tail(monkeypatch, n, p):
    # u = Lambda^-3, k = 0, beta = 0: beyond the radius R the norm integrates
    # to, the integral is |S^(n-1)| int_R^inf (1+r^2)^(-(n+3p)/2) r^(n-1) dr.
    # For p not an even integer the bound left out |S^(n-1)| and bounded
    # (1+r^2)^(-3p/2) from below: 6-13 times below the tail
    radii = []
    integral = weighted_norms._radial_integral
    monkeypatch.setattr(weighted_norms, "_radial_integral",
                        lambda fn, R, **kw: radii.append(R) or integral(fn, R, **kw))
    res = weighted_sobolev_norm(lam_pow(n, -3), p, 0, 0.0)
    (R,) = set(radii)
    tail = surface_measure(n) * quad(lambda r: (1 + r * r) ** (-(n + 3 * p) / 2) * r ** (n - 1),
                                     R, np.inf, epsabs=0.0, epsrel=1e-10)[0]
    assert 0 < tail <= res.tail_bound < 1e-9 * res.value


# ---------------------------------------------------------------------------
# C^l norm
# ---------------------------------------------------------------------------

def test_cl_constant():
    u = expr_term(3, 0, 0, (0, 0, 0), 1.0)
    res = weighted_cl_norm(u, 0, 0.0)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_cl_identity_weight():
    # Lambda^1 * Lambda^(-1) == 1 everywhere
    u = lam_pow(3, -1)
    res = weighted_cl_norm(u, 0, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_cl_unbounded():
    with pytest.raises(UnboundedNorm):
        weighted_cl_norm(lam_pow(3, -1), 0, 2.0)


def test_cl_scaling():
    u = lam_pow(2, -3)
    a = weighted_cl_norm(u.scale(3.0), 1, 1.0)
    b = weighted_cl_norm(u, 1, 1.0)
    assert a.value == pytest.approx(3.0 * b.value, rel=1e-10)


# ---------------------------------------------------------------------------
# Hoelder seminorm estimator
# ---------------------------------------------------------------------------

def test_holder_constant_function():
    u = expr_term(2, 0, 0, (0, 0), 2.0)
    res = weighted_holder_seminorm(u, 0.5, 0.0, samples=1024)
    # seminorm part vanishes; only the sup term remains
    assert res.value == pytest.approx(2.0, rel=1e-9)


def test_holder_lambda_sigma_bound():
    # For u = Lambda^(-sigma) the pair bound |L^s(x)-L^s(y)| <= |x-y|^s gives
    # seminorm <= 1, hence the estimate is <= 1 + sup term = 2.
    sigma = 0.5
    u = lam_pow(3, -sigma)
    res = weighted_holder_seminorm(u, sigma, 0.0, samples=4096)
    assert res.value <= 2.0 + 1e-9
    assert res.value > 1.0  # sup term alone is 1


def test_holder_monotone_in_samples():
    sigma = 0.4
    u = lam_pow(3, -1) + expr_term(3, "-3/2", 0, (1, 0, 0), 1.0)
    vals = [weighted_holder_seminorm(u, sigma, 0.0, samples=s).value
            for s in (512, 1024, 2048, 4096)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-15


def test_holder_reads_exactly_samples_pairs():
    # a chunk of 512 pairs is drawn whole but only its first pairs count, so
    # any `samples` reads a prefix of the pairs of every larger one
    u = expr_term(3, "-3/2", 0, (1, 0, 0), 1.0)
    vals = [weighted_holder_seminorm(u, 0.4, 0.0, samples=s).value
            for s in (1, 2, 100, 511, 512, 700)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] < vals[2] < vals[4]


def test_decay_criterion_consistent_with_cl_norm():
    # the order-2 remainder test and the weighted C^0 norm frame the same
    # decay: (1+r^2)^(-1) is O(r^-2) (finite norm at beta = 2, infinite just
    # above) but not o(r^-2), while (1+r^2)^(-3/2) has a full power to spare.
    good = lam_pow(3, -3)
    slow = lam_pow(3, -2)
    assert check_symbol_class(good, beta=2.0).passed
    assert not check_symbol_class(slow, beta=2.0).passed
    assert weighted_cl_norm(slow, 0, 2.0).value == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(UnboundedNorm):
        weighted_cl_norm(slow, 0, 2.1)
    assert weighted_cl_norm(good, 0, 2.0).value < 1.0 + 1e-9
