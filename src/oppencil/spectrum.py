"""Polynomial eigenvalue problem for the pencil: spectrum, Jordan chains,
biorthogonal adjoint chains, power-exponential solutions, critical lines.

Eigenvalues are found once per pencil (P.eigenvalues) from the square
pieces P.squares into which the pencil's block view splits det pencil,
one per block (P.blocks): the decoupled (component, degree) blocks when
the bandwidth is 0 (a c(lam) I block as its 1 x 1 scalar, its roots
counted P.powers times), and otherwise a fixed random compression of
each block of the exact rectangular restriction to the fully-resolved
columns P.kept (the square truncation is then structurally singular),
whose candidates a small singular value of the block's rectangular
pencil certifies.  The compression draws from a counter stream, not
numpy.random, and a real pencil's (P.real) is real and solved in real
arithmetic in tau = -i lam, so its candidates pair exactly as lam,
-conj(lam).  The kept columns are those of every wider pencil with
zero rows appended, so a certified value is an eigenvalue of every wider
pencil, and no wider pencil is solved.  strip_eigenpoints chains the
clusters of P (P.clusters) that hold a value of a strip of any pencil (a
strip's, or a model-solve mode block's), certified only in the strip.  A
strip is refused when a candidate in it fails certification (a line the
degree does not resolve; but not a candidate that no root of its block's
second compression lies within _WITNESS_RADIUS of, a spurious root of
the first compression, which the strip does not count) or an
eigenvector carries more than half its mass above the analysis degree
(a higher mode's line); a coupled eigenvector's small tail is kept.
That tail-mass verdict belongs to the eigenpoint, not the strip:
jordan_chains reads the degree masses of the leading vectors of every
point it builds in one pass and stores each point's largest tail and
peak degree on it.

Jordan chains at an eigenvalue lam0 solve the coupled system

    sum_(j=0..M') (1/j!) d^j pencil(lam0) phi_(M'-j) = 0,   M' = 0..M-1,

in the pencil's Taylor coefficients there.  A full owner's chains come
from the local reduction (chains_from_matrices): one SVD of pencil(lam0),
then level by level the null space of the next equation projected off its
range holds the stacks that extend; chains are extracted longest first,
their residuals read off their own equations.  The adjoint chain
equations (of the transposed coefficients) and the biorthogonality rows
are one lower block-Toeplitz least-squares system (_toeplitz), its
residuals read off its solution.  A chain must satisfy its equations to
_CHAIN_TOL.  Every rank decision (a candidate's certification, each null
space, a 1 x 1 owner's zero order) makes one cut: a singular value or
Taylor coefficient below _RANK_TOL times the larger of the largest one
and the pencil's scale there is zero.

The cluster is the unit of every per-strip step.  The eigenvalues are
clustered once per pencil (P.clusters, single linkage within
_CLUSTER_RADIUS), since the lines and their multiplicities depend on the
pencil alone and a strip only picks which a report shows.  One rule
chains a cluster at its centre: each owner, the square of a member, is
chained under its own det order, the vanishing order of its factor of det
pencil (Taylor coefficients by FFT on a circle with four nodes per
eigenvalue inside), read at the centre or, when it shares the cluster,
at the mean of its own members; its chain vectors must number it, and
over a strip the orders must sum to the number of eigenvalues in it.  The
centre's circle isolates it from every centre and eigenvalue of the
pencil, a shared owner's from its own roots (the det it reads vanishes
at each).  A 1 x 1 owner (a c(lam) I block's scalar) with a zero of
order o has one chain [1, 0, ..., 0] of length o per harmonic of its
block.  A full owner whose null vectors do not extend is semisimple: the
reduction stops at its first level, after three SVDs none larger than
the owner's block.

A kept pencil remembers each cluster's eigenpoint (P.points, by cluster
number), the one memo: a strip certifies only the candidates of clusters
not remembered, and chains those clusters in one jordan_chains call that
reads every det order, chains every 1 x 1 owner in one pass and the full
owners cluster by cluster.  A cluster is remembered only once its strip
has passed its certification and total checks; an error is never
remembered.  Every check of the strip itself (the uncertified-candidate
refusal, the total multiplicity, the tail-mass and boundary refusals)
runs on every strip, the tail-mass refusal from each point's stored
verdict.  The remembered chains count toward the kept
pencils' one byte budget (pencil._STACK_CAP).  Sweeps of strips or
windows over one operator in one process gain; a one-shot command
certifies and chains once either way.  Adjoint chains at conj(lam0) of
the cylinder-level adjoint pencil are normalized to the Kronecker
biorthogonality pattern by one least-squares solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import (
    DegenerateNormalization,
    MultiplicityMismatch,
    NotAnEigenvalue,
    RefuseBoundary,
    UnstableSpectrum,
)
from .operator_ast import SystemOperator
from .pencil import (
    _CLUSTER_RADIUS,
    PencilMatrices,
    _square_roots,
    assemble_pencil,
    default_l_max,
    horner,
    remember,
    taylor,
)

_RANK_TOL = 1e-8        # relative SVD rank cut
_CHAIN_TOL = 1e-8       # relative chain residual that refuses an eigenpoint
_ZERO_LINE_TOL = 1e-10  # critical lines this close to 0 are reported as 0
_TAIL_MASS_MAX = 0.5    # eigenvector mass above the degree that refuses a strip
_DET_ORDER_TOL = 1e-6   # relative size of a non-negligible Taylor coefficient
_DET_RADIUS_SHARE = 0.45  # det-order circle radius, as a share of the isolation
_DET_RADIUS_MAX = 0.1     # ... and at most this
_WITNESS_RADIUS = 1e-2    # no second-compression root this near: a failing candidate is spurious
_DET_ROUNDOFF = 64        # a scalar's det round-off, in N eps max_z sum_j |C_j| |z|^j


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigenpoint:
    """The chains at one point, and the two facts of its leading vectors'
    degree masses that the tail-mass refusal reads (strip_spectrum), so
    no strip reads the masses again.  Frozen, its chain vectors read-only
    (_pad), since a kept pencil shares it between strips (P.points)."""

    lambda0: complex
    geometric: int
    partial_multiplicities: list
    algebraic: int
    chains: list            # J lists of chain vectors (full basis coords)
    residuals: list         # per-chain max residual (relative)
    det_order: int
    radius: float           # det-order circle, isolating lambda0 (not serialized)
    tail: float             # largest mass share of a leading vector above
                            # P.analysis_degree (not serialized)
    peak: int               # largest degree where one's mass peaks (not serialized)

    @property
    def nbytes(self):
        """The bytes of the chain vectors."""
        return sum(v.nbytes for chain in self.chains for v in chain)

    def to_json(self):
        return {
            "lambda0": [self.lambda0.real, self.lambda0.imag],
            "geometric": self.geometric,
            "partial_multiplicities": list(self.partial_multiplicities),
            "algebraic": self.algebraic,
            "residuals": self.residuals,
            "det_order": self.det_order,
            "chains": [[[ [v.real, v.imag] for v in vec] for vec in chain]
                       for chain in self.chains],
        }


@dataclass
class AdjointChains:
    lambda0: complex        # conj of the primal eigenvalue
    chains: list            # same shape as the primal chains
    biorth_residual: float
    chain_residual: float


@dataclass
class PowerExpSolution:
    """u(t, omega) = e^(i lam0 t) sum_l (it)^l / l! * coeff[l](omega)."""

    lambda0: complex
    j: int
    m: int
    coeffs: list            # coeff[l] = chain vector phi_(j, m-l), basis coords


@dataclass
class SpectrumReport:
    op: SystemOperator
    beta1: float
    beta2: float
    degree: int
    eigenpoints: list
    res_lines: dict          # Im lambda -> total algebraic multiplicity
    pencil: PencilMatrices

    def total_multiplicity(self):
        return sum(e.algebraic for e in self.eigenpoints)

    def to_json(self):
        return {
            "operator_fingerprint": self.op.fingerprint(),
            "strip": [self.beta1, self.beta2],
            "degree": self.degree,
            "eigenpoints": [e.to_json() for e in self.eigenpoints],
            "res_lines": self.res_lines_json(),
            # the jump space spans one power solution per chain vector
            "x_sigma_dim": self.total_multiplicity(),
        }

    def res_lines_json(self):
        return {f"{line:.12g}": mult for line, mult in sorted(self.res_lines.items())}

    def res_lines_csv(self):
        rows = ["line,multiplicity"]
        for line, mult in sorted(self.res_lines.items()):
            rows.append(f"{line:.12g},{mult}")
        return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# eigenvalue solvers
# ---------------------------------------------------------------------------

def _stacked(fn, B, points, size):
    """[fn(horner(B, part))] for consecutive parts of `points` (first axis)
    of at most `size` matrix entries each, or of one point; an empty
    `points` is one empty part."""
    step = max(1, size // (B[0].size * math.prod(np.shape(points)[1:])))
    return [fn(horner(B, points[k:k + step])) for k in range(0, max(len(points), 1), step)]


def solve_pencil_eigenvalues(P: PencilMatrices, band=None, spurious=None) -> np.ndarray:
    """All finite certified eigenvalues of the truncated pencil, or with
    band = (lo, hi) only those with lo < Im lam < hi, the only ones
    certified.  The companion eigensolves run once per pencil
    (P.eigenvalues); a candidate of a remembered cluster (P.points) was
    certified when its cluster was chained, and is not certified again.  A
    candidate that fails with no root of its block's second compression
    (P.compression(i, 1)) within _WITNESS_RADIUS is a root of the first
    alone: it is marked in `spurious` (over P.eigenvalues) when given."""
    vals = P.eigenvalues
    keep = (np.ones(len(vals), dtype=bool) if band is None
            else (band[0] < vals.imag) & (vals.imag < band[1]))
    # decoupled blocks are the pencil itself; a compressed square is not,
    # so each block's candidates are certified against its own rectangular
    # pencil, by stacked SVDs no larger than P.B
    if P.bandwidth:
        (label, centres), square = P.clusters, P.roots[1]
        remembered = np.zeros(len(centres), dtype=bool)
        remembered[list(P.points)] = True
        todo = keep & ~remembered[label]
        for i in np.flatnonzero(np.bincount(square[todo])).tolist():
            sel = np.flatnonzero(todo & (square == i))
            sv = np.concatenate(_stacked(lambda M: np.linalg.svd(M, compute_uv=False),
                                         P.restriction(i), vals[sel], P.B.size))
            keep[sel] = sv[:, -1] < _RANK_TOL * np.maximum(sv[:, 0], P.scale)
            fail = sel[~keep[sel]]
            if len(fail) and spurious is not None:
                witnesses = _square_roots(P.compression(i, 1), P.real)
                near = np.abs(vals[fail, None] - witnesses).min(axis=1, initial=np.inf)
                spurious[fail] = near > _WITNESS_RADIUS
    return vals[keep]


# ---------------------------------------------------------------------------
# determinant order cross-check
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _unit_circle(nodes):
    """The nodes-th roots of unity, read-only (node counts are powers of 2)."""
    w = np.exp(2j * math.pi * np.arange(nodes) / nodes)
    w.setflags(write=False)
    return w


def det_vanishing_order(P: PencilMatrices, lam0, radius, square):
    """Order of the zero at lam0 of det(P.squares[i]) ** P.powers[i] for
    i = square, the factor of det pencil that square gives, from scaled
    Taylor coefficients: an array of the shape of lam0, lam0, radius and
    square being one (circle, square) pair or arrays of them, read in one
    pass.  The order of det pencil at a point is the sum over the squares
    with a root in the circle.

    Each square is read alone and counts P.powers[i] = d times.  The c of
    its own roots (P.roots) strictly inside bound the order of its det: the
    FFT of that det at N = max(16, 2^ceil(log2(4 c))) circle nodes gives
    the scaled derivatives a_j rho^j modulo N, and the order is d times the
    first of the lower N/2 above _DET_ORDER_TOL of the largest and, for a
    1 x 1 square (a full one's det is rescaled), above its values' round-off
    _DET_ROUNDOFF N eps max_z sum_j |C_j| |z|^j.  None, or one in the top
    quarter of the N/2, may be aliased: MultiplicityMismatch.  Per N, each
    full square's circles take stacked Horner passes and slogdets no larger
    than P.B (dets over their geometric mean), the scalars' one Horner pass;
    each group one FFT.  The read is the Taylor order of the det at lam0,
    not a count of the roots in the disc: a circle floored at radius 1e-5
    (_det_radius) can hold two roots of its square and read 1.
    """
    lam, rad = np.asarray(lam0, dtype=complex).ravel(), np.asarray(radius).ravel()
    square = np.asarray(square).ravel()
    roots, of = P.roots
    count = ((np.abs(roots - lam[:, None]) < rad[:, None]) & (of == square[:, None])).sum(axis=1)
    nodes = np.array([max(16, 1 << (4 * c - 1).bit_length()) for c in count.tolist()], dtype=int)
    d = np.array(P.powers)[square]
    row = P.scalars[0][square]
    group = np.where(row < 0, square, -1)    # a full square, or every scalar
    first = np.empty(len(lam), dtype=int)
    for N, s in sorted(set(zip(nodes.tolist(), group.tolist()))):
        sel = (nodes == N) & (group == s)
        z = lam[sel, None] + rad[sel, None] * _unit_circle(N)
        if s >= 0:
            sign, logabs = (np.concatenate(x) for x in zip(*_stacked(
                np.linalg.slogdet, P.squares[s], z, P.B.size)))
            det = sign * np.exp(logabs - logabs.mean(axis=1, keepdims=True))
            floor = 0.0
        else:   # a scalar's det is its value, unscaled
            coeffs = P.scalars[1][row[sel]].T[:, :, None, None]
            det = horner(coeffs[..., None], z)[..., 0, 0]
            floor = _DET_ROUNDOFF * N * np.finfo(float).eps * horner(
                np.abs(coeffs), np.abs(z).max(axis=1))[:, 0, 0]
        t = np.abs(np.fft.fft(det))
        cut = np.maximum(_DET_ORDER_TOL * t.max(axis=1), floor)
        big = t[:, :N // 2] > cut[:, None]
        first[sel] = np.where(big.any(axis=1), big.argmax(axis=1), N // 2)
    bad = np.flatnonzero(first >= 3 * nodes // 8)
    if bad.size:
        p = bad[0]
        N = int(nodes[p])
        read = "none" if first[p] == N // 2 else int(first[p])
        raise MultiplicityMismatch(
            f"det root order at {complex(lam[p])} unresolved on {N} circle nodes "
            f"(first non-negligible coefficient: {read} of {N // 2})")
    return (d * first).reshape(np.shape(lam0))


# ---------------------------------------------------------------------------
# Jordan chains
# ---------------------------------------------------------------------------

def _toeplitz(T, s):
    """Lower block-Toeplitz matrix [T_(i-j)] (i >= j, zero beyond len(T)) of
    s block rows: the adjoint chain equations and pairing rows that
    normalize_biorthogonal solves."""
    n_r, n_c = T[0].shape
    out = np.zeros((s * n_r, s * n_c), dtype=complex)
    for i in range(s):
        for q in range(max(0, i - len(T) + 1), i + 1):
            out[i * n_r:(i + 1) * n_r, q * n_c:(q + 1) * n_c] = T[i - q]
    return out


def chains_from_matrices(T, scale):
    """Canonical Jordan chains for a matrix polynomial given its scaled
    derivatives T[s] = (1/s!) d^s pencil(lam0), s = 0..degree >= 1, by the
    local reduction (Gohberg, Lancaster and Rodman, Matrix Polynomials).

    One SVD of T[0] gives its null basis V, range basis U_r and
    pseudo-inverse T[0]^+, under the rank cut _RANK_TOL * max(sigma_max,
    scale).  The orthonormal N_s spans the stacks (x_0, ..., x_(s-1)) of
    the chains of length s, N_1 = V.  A stack N_s c extends when T[0] x_s
    = -R c, R = sum_(q<s) T[s-q] x_q: c in C = null((I - U_r U_r^H) R)
    (the same cut), x_s = -T[0]^+ R c plus a null vector.  So N_(s+1) is
    the QR of [[N_s C, 0], [-T[0]^+ R C, V]], and d_(s+1) = rank(N_s[:n_c]
    C) leading vectors extend (an absolute cut: N_s C is orthonormal).  The
    first d = 0 ends the loop, at s = 1 on a semisimple point; a 40th level
    refuses.  Chains are taken longest first, leading vectors orthogonal to
    those taken, each residual the largest norm of its equations over
    scale.  Returns (J, partial_multiplicities, chains, residuals);
    NotAnEigenvalue when T[0] has full column rank.
    """
    n_c = T[0].shape[1]
    U, sv, Vh = np.linalg.svd(T[0], full_matrices=T[0].shape[0] < n_c)
    cut = _RANK_TOL * max(sv[0], scale)
    rank = int(np.count_nonzero(sv >= cut))
    if rank == n_c:
        raise NotAnEigenvalue(f"sigma_min = {sv[-1]:.3e}")
    J, V, U_r = n_c - rank, Vh[rank:].conj().T, U[:, :rank]
    N, d, levels = V, [J], [V]
    for s in range(1, 40):
        R = sum(T[s - q] @ N[q * n_c:(q + 1) * n_c] for q in range(max(0, s - len(T) + 1), s))
        X = R - U_r @ (U_r.conj().T @ R)
        k = int(np.count_nonzero(np.linalg.svd(X, compute_uv=False) >= cut))
        if k == X.shape[1]:
            break   # no stack extends
        C = np.linalg.svd(X)[2][k:].conj().T
        d_s = int(np.count_nonzero(np.linalg.svd(N[:n_c] @ C, compute_uv=False) > _RANK_TOL))
        if d_s == 0:
            break
        d.append(d_s)
        tail = Vh[:rank].conj().T @ ((U_r.conj().T @ (R @ C)) / sv[:rank, None])
        N = np.linalg.qr(np.block([[N @ C, np.zeros((len(N), J))], [-tail, V]]))[0]
        levels.append(N)
    else:
        raise MultiplicityMismatch("chain length exploding; unstable point")

    partial = [sum(1 for ds in d if ds >= j + 1) for j in range(J)]
    chains, residuals = [], []
    for length in sorted(set(partial), reverse=True):
        N = levels[length - 1]
        lead = free = N[:n_c]
        if chains:   # directions independent of the leading vectors taken
            Q = np.linalg.qr(np.column_stack([chain[0] for chain in chains]))[0]
            free = lead - Q @ (Q.conj().T @ lead)
        phi0 = np.linalg.svd(free, full_matrices=False)[0][:, :partial.count(length)]
        # x[q]: the q-th vectors of every chain of this length, x[0] exact
        x = phi0[None]
        if length > 1:
            tail = N[n_c:] @ np.linalg.lstsq(lead, phi0, rcond=None)[0]
            x = np.concatenate([x, tail.reshape(length - 1, n_c, -1)])
        eqs = T[0] @ x      # eqs[i] = sum_(q<=i) T[i-q] x[q]
        for j in range(1, min(len(T), length)):
            eqs[j:] += T[j] @ x[:-j]
        chains += [list(chain) for chain in x.transpose(2, 0, 1)]
        residuals += (np.linalg.norm(eqs, axis=1).max(axis=0) / scale).tolist()
    return J, partial, chains, residuals


def _chain_scale(P: PencilMatrices, lambda0):
    """Size of the Taylor coefficients of the pencil at lambda0 (or at each
    of an array of points), against which chain and adjoint residuals and
    rank cuts are measured."""
    lam = np.asarray(lambda0)
    return P.scale * np.maximum(1.0, np.hypot(lam.real, lam.imag)) ** P.m


def _isolation(centers, points):
    """Distance from each centre to the nearest of `points` farther than the
    cluster radius from it, 1.0 when there is none.  np.hypot rounds as
    abs() of one complex does; numpy's vectorised abs may not."""
    diff = np.asarray(points) - np.asarray(centers)[..., None]
    dist = np.hypot(diff.real, diff.imag)
    dist[dist <= _CLUSTER_RADIUS] = np.inf
    isolation = dist.min(axis=-1, initial=np.inf)
    return np.where(np.isinf(isolation), 1.0, isolation)


def _det_radius(isolation):
    """The det circle's radius: _DET_RADIUS_SHARE of the isolation, clipped
    to [1e-5, _DET_RADIUS_MAX]."""
    return np.maximum(np.minimum(_DET_RADIUS_SHARE * np.asarray(isolation),
                                 _DET_RADIUS_MAX), 1e-5)


def jordan_chains(P: PencilMatrices, clusters):
    """The canonical system of Jordan chains of each of `clusters` (numbers
    into P.clusters) at its centre: a list of Eigenpoints.

    One rule: a cluster's owners, the squares of its members, are each
    chained under their own det order, both read on the owner's circle
    (_owner_circles).  The centre's own circle, of radius 0.45 * its
    isolation from every centre and eigenvalue of P, clipped to [1e-5,
    0.1], is Eigenpoint.radius and a sole owner's.  The orders are read
    first, one per (cluster, owner), all in one call.  A 1 x 1 owner has
    closed-form chains (_scalar_chains), all (cluster, owner) pairs in one
    pass; a full owner is chained by chains_from_matrices on its block's
    exact pencil (_owner_chains).  Each owner's chain count must be its
    det order (MultiplicityMismatch, also when a chain's relative residual
    exceeds _CHAIN_TOL).  The chains, padded back to the full basis, run
    longest first, then by owner.  NotAnEigenvalue when an owner's pencil
    has full rank where it is read.  Each Eigenpoint also holds the
    tail-mass verdict of its leading vectors (tail, peak), all points'
    read in one _mass_verdicts call, so a remembered point carries it.
    """
    centres = P.clusters[1]
    lams = centres[clusters]
    radii = _det_radius(_isolation(lams, np.concatenate([centres, P.eigenvalues])))
    at, square, centre, rad = _owner_circles(P, clusters, lams, radii)
    orders = np.zeros((len(lams), len(P.squares)), dtype=int)
    orders[at, square] = det_vanishing_order(P, centre, rad, square)
    closed = _scalar_chains(P, centre, at, square, len(lams))
    full = [[] for _ in lams]   # each cluster's full owners, (centre, square)
    for p in np.flatnonzero(P.scalars[0][square] < 0).tolist():
        full[at[p]].append((complex(centre[p]), int(square[p])))
    points = []   # each cluster's Eigenpoint fields up to its radius
    for k, (lam0, want) in enumerate(zip(lams.tolist(), orders.tolist())):
        found = closed[k] + [f for c, i in full[k] for f in _owner_chains(P, c, i)]
        count = [0] * len(want)
        for i, chain, _ in found:
            count[i] += len(chain)
        if count != want:
            i = next(i for i, (c, o) in enumerate(zip(count, want)) if c != o)
            raise MultiplicityMismatch(
                f"chain count {count[i]} != det root order {want[i]} at {lam0}")
        found.sort(key=lambda f: (-len(f[1]), f[0]))   # longest first, owner by owner
        chains, residuals = [f[1] for f in found], [f[2] for f in found]
        if max(residuals) > _CHAIN_TOL:
            raise MultiplicityMismatch(
                f"chain residual {max(residuals):.3e} > {_CHAIN_TOL:g} at {lam0}")
        partial = [len(chain) for chain in chains]
        points.append((lam0, len(partial), partial, sum(partial), chains, residuals,
                       sum(want), float(radii[k])))
    verdicts = _mass_verdicts(P, [point[4] for point in points])   # by their chains
    return [Eigenpoint(*point, *verdict) for point, verdict in zip(points, verdicts)]


def _owner_circles(P: PencilMatrices, clusters, lam, radius):
    """The owners of each of `clusters` and the det circle each is read
    on: (at, square, centre, radius), one entry per (cluster, owner) pair,
    by cluster, then square.

    A cluster's members are the roots (P.roots) whose copies carry its
    label, and its owners their squares.  A sole owner holds all of them
    and is read on the cluster's own circle (lam[k], radius[k]).  An owner
    that shares the cluster is read at the mean of its own members, since
    members of one cluster in different blocks sit up to half its spread
    off the centre, too far for a det read there; its circle isolates that
    mean from the owner's own roots only, since a square's det vanishes at
    its own roots alone (_det_radius of that isolation)."""
    label = P.clusters[0]
    roots, of = P.roots
    copies = np.array(P.powers)[of]
    member = label[np.cumsum(copies) - copies] == np.asarray(clusters)[:, None]
    owned = member @ (of[:, None] == np.arange(len(P.squares)))
    at, square = np.nonzero(owned)
    centre, rad = lam[at], radius[at]
    shared = np.flatnonzero(owned.sum(axis=1)[at] > 1)
    if shared.size:
        own = of == square[shared, None]
        mine = member[at[shared]] & own
        centre[shared] = np.where(mine, roots, 0).sum(axis=1) / mine.sum(axis=1)
        rad[shared] = _det_radius(_isolation(centre[shared], np.where(own, roots, np.inf)))
    return at, square, centre, rad


def _scalar_chains(P: PencilMatrices, centre, at, square, count):
    """closed[k] for k < count: the (owner, chain, residual) of each chain
    of the 1 x 1 owners (P.scalars) of cluster k, from the (cluster, owner)
    pairs (at, square), each read at its centre.

    The local reduction (chains_from_matrices) of a 1 x 1, batched: a
    scalar c has a zero of order o at its centre when its Taylor
    coefficients c_s there are below _RANK_TOL * max(|c_0|, scale) for s <
    o and c_o is above it; its one chain is then [1, 0, ..., 0] of length
    o, so an owner c(lam) I_d adds d such chains on the unit vectors of its
    block, each of residual max_(s<o) |c_s| / scale.  All pairs are
    evaluated in one Horner pass.  NotAnEigenvalue when c_0 is above the cut.
    """
    row, C = P.scalars
    pair = np.flatnonzero(row[square] >= 0)
    lam, at, square = centre[pair], at[pair], square[pair]
    c = np.abs(taylor(C[row[square]].T, lam))
    scale = _chain_scale(P, lam)
    # the leading coefficients under the cut: c_0 .. c_(o-1)
    lead = np.cumprod(c <= _RANK_TOL * np.maximum(c[0], scale), axis=0, dtype=bool)
    order = lead.sum(axis=0)
    lost = np.flatnonzero(order == 0)
    if lost.size:
        p = lost[0]
        raise NotAnEigenvalue(f"sigma_min = {c[0, p]:.3e} at lambda0 = {complex(lam[p])}")
    res = (c * lead).max(axis=0) / scale
    closed = [[] for _ in range(count)]
    for k, s, o, r in zip(at.tolist(), square.tolist(), order.tolist(), res.tolist()):
        closed[k] += [(s, [_pad(float(q == 0), j, P.size) for q in range(o)], r)
                      for j in P.blocks[s][1].tolist()]
    return closed


def _owner_chains(P: PencilMatrices, lambda0: complex, i):
    """The (owner, chain, residual) of each chain at lambda0 of the full
    square P.squares[i]: chains_from_matrices on its block's exact pencil
    (P.restriction(i)), padded to the full basis."""
    try:
        _, _, chains, residuals = chains_from_matrices(
            taylor(P.restriction(i), lambda0), _chain_scale(P, lambda0))
    except NotAnEigenvalue as exc:
        raise NotAnEigenvalue(f"{exc} at lambda0 = {lambda0}") from None
    keep = P.blocks[i][1]
    return [(i, [_pad(v, keep, P.size) for v in chain], res)
            for chain, res in zip(chains, residuals)]


def _pad(vec, keep, size):
    """`vec` on the coordinates `keep` of a zero vector of `size`, read-only."""
    out = np.zeros(size, dtype=complex)
    out[keep] = vec
    out.setflags(write=False)
    return out


def _degree_masses(P: PencilMatrices, vecs) -> np.ndarray:
    """Share of the squared mass of each of `vecs` at each harmonic degree
    0..top, one row per vector, from one bincount."""
    weights = np.abs(np.asarray(vecs)) ** 2
    bins = P.degrees[-1] + 1
    mass = np.bincount((bins * np.arange(len(weights))[:, None] + P.row_degrees).ravel(),
                       weights.ravel(), bins * len(weights)).reshape(len(weights), bins)
    total = mass.sum(axis=1, keepdims=True)
    return mass / np.where(total == 0, 1.0, total)


def _mass_verdicts(P: PencilMatrices, points):
    """(tail, peak) of each of `points` (its lists of chains): the largest
    share of a leading vector's squared mass above P.analysis_degree and
    the largest degree where one's mass peaks, from one _degree_masses call
    over every leading vector."""
    if not points:
        return []
    top = P.analysis_degree
    masses = _degree_masses(P, [chain[0] for chains in points for chain in chains])
    first = np.cumsum([0] + [len(chains) for chains in points[:-1]])
    tail = np.maximum.reduceat(masses[:, top + 1:].sum(axis=1), first)
    peak = np.maximum.reduceat(masses.argmax(axis=1), first)
    return list(zip(tail.tolist(), peak.tolist()))


# ---------------------------------------------------------------------------
# biorthogonal adjoint chains
# ---------------------------------------------------------------------------

def adjoint_chains(P: PencilMatrices, e: Eigenpoint) -> AdjointChains:
    """Adjoint Jordan chains at conj(lambda0), biorthogonally normalized.

    The adjoint chains belong to the cylinder-level adjoint pencil
    sum B_j^H lam^j, evaluated at conj(lambda0).  Chain equations and the
    Kronecker-pattern normalization are solved jointly by least squares,
    with the unknowns on the kept columns: the adjoint upward bandwidth is
    the primal downward one, which the primal bandwidth bounds.
    """
    lam0 = e.lambda0
    psis, biorth_res, chain_res = normalize_biorthogonal(
        taylor(P.B, lam0), e.chains, P.kept, _chain_scale(P, lam0))
    return AdjointChains(np.conj(lam0), psis, biorth_res, chain_res)


def normalize_biorthogonal(T, chains, keep, scale):
    """Solve for adjoint chains satisfying the Kronecker biorthogonality.

    `T[s]` is (1/s!) d^s pencil(lam0) as a full square matrix; the adjoint
    chain unknowns w = conj(psi) are restricted to the `keep` coordinates
    (their action is exact there).  One least-squares system holds the
    adjoint chain equations, sum_s T_s^T w_(j, M'-s) = 0, and the
    biorthogonality rows

        sum_(l, l') w_(j', m'-l') . T_(l+l'+1) phi_(j, m-l)
            = delta_(j j') delta_(M_j-1-m, m');

    both residuals are read off its solution.  Returns
    (psis, biorth_residual, chain_residual).
    """
    size, n_ca = T[0].shape[0], len(keep)
    lengths = [len(chain) for chain in chains]
    off = list(accumulate(lengths, initial=0))  # first unknown of each chain
    M = off[-1]
    sc = max(scale, 1e-300)
    A = np.zeros((M * size + M * M, M * n_ca), dtype=complex)
    b = np.zeros(len(A), dtype=complex)

    # chain equations for the adjoint pencil at conj(lam0)
    adj = [Ts.T[:, keep] for Ts in T]
    for j, L in enumerate(lengths):
        A[off[j] * size:off[j + 1] * size,
          off[j] * n_ca:off[j + 1] * n_ca] = _toeplitz(adj, L) / sc

    # biorthogonality rows, by (j, m, j', m'): for fixed (j, m, j') the rows
    # over m' are the Toeplitz matrix of h_l' = sum_l (T_(l+l'+1) phi_(j,m-l))[keep]
    row = M * size
    for j, chain in enumerate(chains):
        for mm in range(len(chain)):
            h = []
            for lp in range(max(lengths)):
                acc = np.zeros(n_ca, dtype=complex)
                for l in range(min(mm + 1, len(T) - lp - 1)):
                    acc += (T[l + lp + 1] @ chain[mm - l])[keep]
                h.append(acc[None, :] / sc)
            for jp, L in enumerate(lengths):
                A[row:row + L, off[jp] * n_ca:off[jp + 1] * n_ca] = _toeplitz(h, L)
                if jp == j:
                    b[row + L - 1 - mm] = 1.0 / sc
                row += L

    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    r = A @ w - b
    resid = float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))
    if resid > 1e-6:
        raise DegenerateNormalization(
            f"biorthogonal normalization residual {resid:.3e}")

    psis = [[_pad(np.conj(vec), keep, size)
             for vec in w[off[j] * n_ca:off[j + 1] * n_ca].reshape(L, n_ca)]
            for j, L in enumerate(lengths)]
    # r holds the chain equations / scale and (pairing - delta) / scale
    chain_res = float(np.linalg.norm(r[:M * size].reshape(M, size)[:, keep],
                                     axis=1).max())
    biorth_res = float(np.abs(r[M * size:]).max()) * sc
    return psis, biorth_res, chain_res


# ---------------------------------------------------------------------------
# power-exponential solutions
# ---------------------------------------------------------------------------

def power_solutions(e) -> list:
    """Materialize u_(j,m) = e^(i lam0 t) sum_l (it)^l/l! phi_(j, m-l) for
    the chains phi of an Eigenpoint, or of AdjointChains (at conj(lam0))."""
    out = []
    for j, chain in enumerate(e.chains):
        for mm in range(len(chain)):
            coeffs = [chain[mm - l] for l in range(mm + 1)]
            out.append(PowerExpSolution(e.lambda0, j, mm, coeffs))
    return out


# ---------------------------------------------------------------------------
# strip spectrum
# ---------------------------------------------------------------------------

def strip_eigenpoints(P: PencilMatrices, beta1, beta2) -> list:
    """Eigenpoints of P in beta1 < Im lam < beta2, by (Im, Re): one per
    cluster of P (P.clusters) that holds a value of the strip.  Values are
    certified only in the strip, each on its own block, except those of a
    remembered cluster (P.points).  The clusters P does not remember are
    chained in one jordan_chains call.  Values within the cluster radius
    outside an edge are kept, so a line on an edge reaches RefuseBoundary
    whatever side round-off puts it on.  A candidate there that fails
    certification is a line the degree does not resolve (UnstableSpectrum),
    unless solve_pencil_eigenvalues marks it spurious, and then it is not counted.
    The algebraic multiplicities must sum to the number of values in the
    strip (MultiplicityMismatch otherwise), so a cluster that straddles the
    widened strip, with members on both sides of an edge, is refused too.
    Only then does a kept P remember the new eigenpoints (pencil.remember),
    so a remembered cluster lies whole in a strip that certified it."""
    lo, hi = beta1 - _CLUSTER_RADIUS, beta2 + _CLUSTER_RADIUS
    spurious = np.zeros(len(P.eigenvalues), dtype=bool)
    in_strip = solve_pencil_eigenvalues(P, (lo, hi), spurious)
    band = (lo < P.eigenvalues.imag) & (P.eigenvalues.imag < hi) & ~spurious
    found = np.count_nonzero(band)
    if found > len(in_strip):
        raise UnstableSpectrum(
            f"{found - len(in_strip)} of {found} eigenvalues in ({beta1}, {beta2}) "
            "fail certification at this degree; raise --degree")
    picked = np.flatnonzero(np.bincount(P.clusters[0][band])).tolist()
    known = P.points
    miss = [c for c in picked if c not in known]
    new = dict(zip(miss, jordan_chains(P, miss))) if miss else {}
    eigenpoints = [new[c] if c in new else known[c] for c in picked]
    total = sum(ep.algebraic for ep in eigenpoints)
    if total != len(in_strip):
        raise MultiplicityMismatch(
            f"eigenpoints hold {total} eigenvalues in ({beta1}, {beta2}), "
            f"the eigensolve found {len(in_strip)}")
    if new:
        remember(P, new)
    return eigenpoints


def strip_spectrum(op: SystemOperator, beta1: float, beta2: float,
                   degree: int) -> SpectrumReport:
    """Spectrum of the associated pencil in the strip beta1 <= Im lam <= beta2.

    Assembles the pencil at `degree` and takes its strip_eigenpoints.  One
    with an eigenvector carrying more than half its mass above `degree` is
    a higher mode's, unresolved at `degree`: the strip is refused
    (UnstableSpectrum), naming the highest degree where such a mass peaks.
    The refusal runs on every strip, from the verdict each eigenpoint
    stores (Eigenpoint.tail and .peak), remembered or new.
    One pencil is assembled and solved at every bandwidth: its kept columns
    are those of the degree + 2 pencil with zero rows appended, so each
    eigenpoint is one of that pencil too.  A line is a run of eigenpoints
    (sorted by Im), each within _CLUSTER_RADIUS of the next; it is keyed by
    their multiplicity-weighted mean Im, so round-off in one eigenpoint
    moves the line by its share only, and a key within 1e-10 of zero is
    reported as exactly 0.
    """
    if beta1 > beta2:
        raise ValueError("beta1 must be <= beta2")
    P = assemble_pencil(op, default_l_max(op, degree), analysis_degree=degree)
    eigenpoints = strip_eigenpoints(P, beta1, beta2)

    # a coupled mode-d eigenvector carries about 1e-3 of its mass at
    # degree d + 1, so only one with most of its mass above the degree
    # belongs to a higher mode; a small tail is kept.  Each eigenpoint
    # holds its largest tail and peak degree (jordan_chains)
    above = [ep for ep in eigenpoints if ep.tail > _TAIL_MASS_MAX]
    if above:
        lines = ", ".join(dict.fromkeys(f"{ep.lambda0.imag:.9g}" for ep in above))
        raise UnstableSpectrum(
            f"eigenvalues at Im lambda = {lines} belong to modes above degree "
            f"{degree}; raise --degree to >= {max(ep.peak for ep in above)}")

    for ep in eigenpoints:
        for b in (beta1, beta2):
            if abs(ep.lambda0.imag - b) < _CLUSTER_RADIUS:
                raise RefuseBoundary(
                    f"strip boundary {b} lies on the critical line "
                    f"Im lambda = {ep.lambda0.imag:.9g}")

    ims = np.array([ep.lambda0.imag for ep in eigenpoints])
    mults = np.array([ep.algebraic for ep in eigenpoints], dtype=int)
    runs = np.flatnonzero(np.diff(ims, prepend=-np.inf) >= _CLUSTER_RADIUS)
    res_lines = {}
    for mult, moment in zip(np.add.reduceat(mults, runs).tolist(),
                            np.add.reduceat(mults * ims, runs).tolist()):
        line = moment / mult
        res_lines[line if abs(line) > _ZERO_LINE_TOL else 0.0] = mult

    return SpectrumReport(op, beta1, beta2, degree, eigenpoints, res_lines, P)
