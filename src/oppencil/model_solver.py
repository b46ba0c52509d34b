"""Per-spherical-mode solves of the model problem along weight lines.

After separating a spherical mode, the model equation on the cylinder
reduces to a constant-coefficient ODE system b(D_t) u = f (b = the mode
block of the pencil, D_t = -i d/dt).  Off the mode eigenvalue lines the
inverse is a Fourier multiplier along Im lambda = beta:

    u = e^(-beta t) F^(-1)[ b(sigma + i beta)^(-1) F[e^(beta t) f] ].

Moving the line across eigenvalues changes the solution by a sum of
power-exponential solutions u_(j,m) on the Jordan chains of the crossed
poles (spectrum.power_solutions).  This module computes that difference
three ways and reports their mutual deviations:

  1. two line solves, subtracted;
  2. residue calculus on b(lambda)^(-1) fhat(lambda) e^(i lambda t)
     (Laurent coefficients of b^(-1) by FFT on each pole's det circle,
     times the Taylor moments of fhat there), matched to coefficients of
     the u_(j,m) and summed;
  3. the coefficient pairing  c_(j,m) = <f, i v_(j,m)>  against the
     power-exponential solutions v_(j,m) of the biorthogonal adjoint
     chains, through route 2's Taylor moments (its grid sum reordered, no
     v_(j,m) on the grid), summed as c_(j,m) u_(j, M_j-1-m).  Route 1
     checks the quadrature that routes 2 and 3 share.

One rule sizes the grid [-T, T) of n points on both axes (choose_grid):
every e^(beta t) f falls below 1e-12 of its peak at both ends in t (T)
and at the highest frequencies of its DFT (n); the line solves take the
DFTs the accepted grid was tested with.  A line solve weighs a given grid
once and refuses it when either test fails (GridTooShort).

The deviations are weighted by the two lines, in which each solve is exact
to round-off: a difference r reads max |r| / (e^(-beta1 t) + e^(-beta2 t)),
relative to the larger of max |e^(beta1 t) u1| and max |e^(beta2 t) u2|.

The mode block b is a PencilMatrices cut from the pencil (mode_pencil, one
index on the coefficient stack, or the 1 x 1 scalar of P's block view when
that view holds the block as c(lam) I, under the view's one tolerance): its
poles are the block view's cached eigenvalues and clusters (one
eigensolve however many callers ask), and the crossed poles are
spectrum.strip_eigenpoints between the two lines, the clusters there
chained and guarded as a strip's are (det order, leading coefficient);
adjoint chains come from adjoint_chains.  A pole on a line is refused by the line solve
(LineTooClose).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import GridTooShort, LineTooClose, NotApplicable
from . import spectrum
from .pencil import _CLUSTER_RADIUS, PencilMatrices, horner
from .spectrum import (
    adjoint_chains,
    power_solutions,
    strip_eigenpoints,
)

_LINE_TOL = _CLUSTER_RADIUS  # a line this far from every pole keeps clusters whole
_DECAY_TOL = 1e-12
_COEFFICIENT_TOL = 1e-6   # direct vs residue coefficients, relative to the largest
_GRID_SIZES = [2 ** k for k in range(8, 17)]   # 256 .. 2^16 points
_LAURENT_NODES = 128


# ---------------------------------------------------------------------------
# mode pencils
# ---------------------------------------------------------------------------

def mode_pencil(P: PencilMatrices, l: int) -> PencilMatrices:
    """The degree-l block of a pencil, cut as a pencil on the degree-l
    harmonics, or, when P's block view holds it as one c(lam) I square
    (constant-coefficient scalar operators), that 1 x 1 square of P.squares:
    the cut builds no view of its own.  The block must be decoupled: every
    block of P.blocks whose rows or columns touch degree l holds only
    degree l in both.
    """
    degs = [P.row_degrees[np.concatenate(block)] for block in P.blocks]
    touch = [i for i, d in enumerate(degs) if (d == l).any()]
    if any((degs[i] != l).any() for i in touch):
        raise NotApplicable(f"degree {l} block is coupled; no mode reduction")
    idx = np.flatnonzero(P.row_degrees == l)
    B, k, mu, nu = P.B[:, idx[:, None], idx], P.k, P.mu, P.nu
    if len(touch) == 1 and P.powers[touch[0]] > 1:
        B, k, mu, nu = P.squares[touch[0]], 1, P.mu[:1], P.nu[:1]
    return replace(P, B=B, degrees=np.full(B.shape[1] // k, l), k=k, mu=mu, nu=nu,
                   l_max=l, analysis_degree=l, bandwidth=0)


# ---------------------------------------------------------------------------
# grids and transforms
# ---------------------------------------------------------------------------

def choose_grid(f, betas, min_T: float = 0.0):
    """(t, vals, hats): the uniform grid [-T, T) of n points on which every
    e^(beta t) f falls below 1e-12 of its peak at both ends in t and at the
    highest frequencies of its DFT (_decays_in_spectrum), the samples of f
    there and the DFT of each e^(beta t) f, beta by beta (the line solves
    take them, solve_on_line): one rule sizes the length and
    the spacing, since the trapezoid sums and the DFT err by the spectral
    mass beyond Nyquist.  T = max(6, min_T) grows by 1.4 up to 160 (`min_T`
    lets the weighted solutions die out too); n is the smallest power of
    two from 256 to 2^16 that passes on [-T, T).  All-zero samples refine n
    first (a narrow bump can fall between nodes), then lengthen T (f may
    lie beyond the grid); a spectrum not decayed at 2^16 points is refused.
    """
    T = max(6.0, min_T)
    while T <= 160.0:
        for n in _GRID_SIZES:
            t = np.linspace(-T, T, n, endpoint=False)
            vals = np.asarray(f(t))
            if not vals.any():
                continue
            weighted = [(np.exp(beta * t) * vals.T).T for beta in betas]
            if not all(_decays(w) for w in weighted):
                break
            hats = []
            for w in weighted:   # a DFT only while the grid can still pass
                hats.append(np.fft.fft(w, axis=0))
                if not _decays_in_spectrum(hats[-1]):
                    break
            else:
                return t, vals, hats
            if n == _GRID_SIZES[-1]:
                raise GridTooShort(f"weighted data does not decay below 1e-12 in its "
                                   f"spectrum's highest frequencies at {n} points")
        T *= 1.4
    raise GridTooShort("could not find a grid with weighted decay below 1e-12")


def _decays(w):
    """True iff |w| is below 1e-12 of its peak in its first and last 8
    entries along axis 0."""
    a = np.abs(w)
    return max(a[:8].max(), a[-8:].max()) <= _DECAY_TOL * max(a.max(), 1e-300)


def _decays_in_spectrum(what):
    """_decays(np.fft.fftshift(what, axes=0)) for a DFT `what`, without the
    shift: the shifted first and last 8 entries along axis 0 are what[h:h + 8]
    and what[h - 8:h], h = (N + 1) // 2 (all of what when N <= 16), its
    highest frequencies."""
    a = np.abs(what)
    h = (len(a) + 1) // 2
    return a[max(h - 8, 0):h + 8].max() <= _DECAY_TOL * max(a.max(), 1e-300)


def solve_on_line(mp: PencilMatrices, fvals, beta: float, t, ghat=None) -> np.ndarray:
    """Invert b(D_t) u = f along the weight line Im lambda = beta.

    `fvals` holds the samples of f, shape (N, q), on the uniform grid `t`
    of length N; e^(beta t) f and its DFT must decay below 1e-12 at both
    ends (see choose_grid).  `ghat` is that DFT, shape (N, q), when
    choose_grid has tested it; otherwise f is weighed here and both tests
    run (GridTooShort).  Returns the samples of u, shape (N, q).
    """
    gap = min((abs(p.imag - beta) for p in mp.eigenvalues),
              default=math.inf)
    if gap < _LINE_TOL:
        raise LineTooClose(f"line beta={beta} within {gap:.2e} of a mode eigenvalue")
    if ghat is None:
        g = np.exp(beta * t)[:, None] * fvals
        ghat = np.fft.fft(g, axis=0)
        for ok, where in ((_decays(g), "at the ends"),
                          (_decays_in_spectrum(ghat),
                           "in its spectrum's highest frequencies")):
            if not ok:
                raise GridTooShort(f"weighted data does not decay below 1e-12 {where} "
                                   f"(beta={beta})")

    sigma = 2 * math.pi * np.fft.fftfreq(len(t), d=t[1] - t[0])
    mats = horner(mp.B, sigma + 1j * beta)
    if mp.size == 1:   # a division is 10x faster than a stacked 1 x 1 solve
        what = ghat / mats[:, 0]
    else:
        what = np.linalg.solve(mats, ghat[..., None])[..., 0]
    return np.exp(-beta * t)[:, None] * np.fft.ifft(what, axis=0)


# ---------------------------------------------------------------------------
# line-difference expansion
# ---------------------------------------------------------------------------

@dataclass
class ExpansionCoefficient:
    lambda0: complex
    j: int
    m: int
    value: complex

    def to_json(self):
        return {"lambda0": [self.lambda0.real, self.lambda0.imag],
                "j": self.j, "m": self.m,
                "value": [self.value.real, self.value.imag]}


@dataclass(frozen=True)
class ExpansionResult:
    t: np.ndarray
    beta1: float
    beta2: float
    diff_solve: np.ndarray
    diff_residue: np.ndarray
    diff_coeff: np.ndarray
    coeffs_direct: list       # ExpansionCoefficient, from the pairing formula
    coeffs_residue: list      # ExpansionCoefficient, from Laurent data
    eigenpoints: list         # spectrum.Eigenpoint per crossed pole
    solve_norm: float         # max of |e^(beta1 t) u1| and |e^(beta2 t) u2|

    @cached_property
    def deviations(self):
        """Mutual deviations of the three differences in the weights of the
        two lines (see the module docstring), relative to solve_norm."""
        weight = np.exp(-np.logaddexp(-self.beta1 * self.t, -self.beta2 * self.t))

        def dev(a, b):
            return float(np.max(np.abs(a - b) * weight[:, None])) / self.solve_norm

        return {
            "solve_vs_residue": dev(self.diff_solve, self.diff_residue),
            "solve_vs_coeff": dev(self.diff_solve, self.diff_coeff),
            "residue_vs_coeff": dev(self.diff_residue, self.diff_coeff),
        }

    def to_json(self):
        return {
            "beta1": self.beta1, "beta2": self.beta2,
            "grid": {"half_width": len(self.t) * float(self.t[1] - self.t[0]) / 2,
                     "points": len(self.t)},
            "deviations": self.deviations,
            "coeffs_direct": [c.to_json() for c in self.coeffs_direct],
            "coeffs_residue": [c.to_json() for c in self.coeffs_residue],
            "poles": [[d.lambda0.real, d.lambda0.imag] for d in self.eigenpoints],
        }


def _taylor_moments(t, fvals, lam0, order):
    """Taylor coefficients F_k, k < order, of fhat at lam0, shape (order, q):
    the moments dt sum_t f(t) (-it)^k/k! e^(-i lam0 t).  Also returns the
    grid factors they share with the power-exponential solutions at lam0:
    e^(i lam0 t) and the powers (it)^l/l!, l < order (l = 0 as the scalar 1)."""
    powers = [1.0]
    for l in range(1, order):
        powers.append(powers[-1] * (1j / l) * t)
    expo = np.exp(1j * lam0 * t)
    w = (t[1] - t[0]) / expo
    return np.array([(w * np.conj(p)) @ fvals for p in powers]), expo, powers


def _laurent_coefficients(mp, F, lam0, radius, max_order):
    """Laurent coefficients a_(-1-s), s = 0..max_order-1, of
    b(lam)^(-1) fhat(lam) at lam0 (a pole of order max_order):
    a_(-1-s) = sum_k L_(-1-s-k) F_k, with L the Laurent coefficients of
    b^(-1) by FFT on a circle and F the Taylor moments of fhat there."""
    thetas = 2 * math.pi * np.arange(_LAURENT_NODES) / _LAURENT_NODES
    lams = lam0 + radius * np.exp(1j * thetas)
    coeffs = np.fft.fft(np.linalg.inv(horner(mp.B, lams)), axis=0) / _LAURENT_NODES
    # coefficient of (lam-lam0)^(-1-s) is the e^(+i(1+s)theta) Fourier mode
    L = [coeffs[-(1 + s)] * radius ** (1 + s) for s in range(max_order)]
    return [sum(L[s + k] @ F[k] for k in range(max_order - s))
            for s in range(max_order)]


def line_difference_expansion(mp: PencilMatrices, f, beta1: float, beta2: float,
                              t=None) -> ExpansionResult:
    """Compare the two line solves against the residue/coefficient expansions.

    Returns the solve difference, the residue-calculus reconstruction, the
    coefficient-formula reconstruction (c_(j,m) = <f, i v_(j,m)> against
    biorthogonal adjoint chains), both coefficient sets, and their mutual
    deviations, weighted by the two lines (see the module docstring).
    """
    if beta1 >= beta2:
        raise ValueError("need beta1 < beta2")
    if t is None:
        if not callable(f):
            raise ValueError("provide t when passing raw samples")
        # weighted solutions decay at rate gap = dist(line, nearest pole);
        # the grid must be long enough for that tail to die out too
        gap = min((abs(p.imag - b) for p in spectrum.solve_pencil_eigenvalues(mp)
                   for b in (beta1, beta2)), default=1.0)
        t, fvals, hats = choose_grid(f, [beta1, beta2], min_T=30.0 / max(gap, 0.25))
    else:
        fvals = np.asarray(f(t)) if callable(f) else np.asarray(f)
        hats = None   # a given grid is weighed and tested by each line solve
    q = mp.size
    fvals = fvals[:, None] if fvals.ndim == 1 and q == 1 else fvals
    if fvals.shape != (len(t), q):
        raise ValueError(f"f samples must have shape ({len(t)}, {q})")
    hats = [None, None] if hats is None else [what.reshape(fvals.shape) for what in hats]
    u1 = solve_on_line(mp, fvals, beta1, t, hats[0])
    u2 = solve_on_line(mp, fvals, beta2, t, hats[1])
    diff_solve = u1 - u2

    diff_residue = np.zeros_like(diff_solve)
    diff_coeff = np.zeros_like(diff_solve)
    coeffs_direct = []
    coeffs_residue = []
    # both lines lie >= _LINE_TOL = the cluster radius from every pole, so
    # the strip's eigenpoints are the crossed poles, each cluster whole
    eigenpoints = strip_eigenpoints(mp, beta1, beta2)
    for ep in eigenpoints:
        # v_(j,m) pairs with u_(j, M_j-1-m): the Kronecker biorthogonality
        duals = power_solutions(adjoint_chains(mp, ep))
        partner = {(u.j, len(ep.chains[u.j]) - 1 - u.m): u
                   for u in power_solutions(ep)}
        targets = [partner[v.j, v.m] for v in duals]
        order = max(ep.partial_multiplicities)
        F, expo, powers = _taylor_moments(t, fvals, ep.lambda0, order)

        # coefficient formula route: c_(j,m) = i <f, v_(j,m)> with the
        # sesquilinear cylinder pairing (the i sits outside the pairing;
        # cross-validated against the solve difference and the residues),
        # whose grid sum dt sum_t f conj(v) reorders to sum_l conj(psi_l) . F_l
        direct = [1j * sum(np.vdot(psi, F[l]) for l, psi in enumerate(v.coeffs))
                  for v in duals]

        # residue route: the two line integrals differ by the counterclockwise
        # strip contour, so diff = i * sum of residues of b^(-1) fhat e^(i lam t);
        # its (it)^s/s! data are matched by sum_(j,m) c_(j,m) phi_(j, M_j-1-m-s)
        laurent = _laurent_coefficients(mp, F, ep.lambda0, ep.radius, order)
        A = np.zeros((order * q, len(targets)), dtype=complex)
        for col, u in enumerate(targets):
            A[:len(u.coeffs) * q, col] = np.concatenate(u.coeffs)
        residue, *_ = np.linalg.lstsq(A, 1j * np.concatenate(laurent), rcond=None)

        # sum_(j,m) c_(j,m) u_(j,m)(t) = e^(i lam0 t) sum_l (it)^l/l! (A c)_l
        for diff, c in ((diff_coeff, direct), (diff_residue, residue)):
            diff += expo[:, None] * sum(np.multiply.outer(p, x) for p, x
                                        in zip(powers, (A @ c).reshape(order, q)))
        for v, c, r in zip(duals, direct, residue):
            coeffs_direct.append(ExpansionCoefficient(ep.lambda0, v.j, v.m, complex(c)))
            coeffs_residue.append(ExpansionCoefficient(ep.lambda0, v.j, v.m,
                                                       complex(r)))

    solve_norm = max(float(np.max(np.abs(np.exp(beta1 * t)[:, None] * u1))),
                     float(np.max(np.abs(np.exp(beta2 * t)[:, None] * u2)))) or 1.0
    return ExpansionResult(t, beta1, beta2, diff_solve, diff_residue, diff_coeff,
                           coeffs_direct, coeffs_residue, eigenpoints, solve_norm)


def verify_coefficient_formula(result: ExpansionResult) -> dict:
    """Check the directly integrated coefficients against the residue route,
    which line_difference_expansion lists in the same (lambda0, j, m) order."""
    scale = max((abs(c.value) for c in result.coeffs_direct), default=1.0) or 1.0
    mismatches = [f"({c.j},{c.m}) at {c.lambda0}: {c.value} vs {r.value}"
                  for c, r in zip(result.coeffs_direct, result.coeffs_residue)
                  if abs(c.value - r.value) > _COEFFICIENT_TOL * scale]
    return {
        "passed": not mismatches and result.deviations["solve_vs_coeff"] < _COEFFICIENT_TOL,
        "mismatches": mismatches,
        "deviations": result.deviations,
        "tolerance": _COEFFICIENT_TOL,
    }
