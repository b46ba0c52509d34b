"""Assembly of the operator pencil as an exact matrix polynomial.

For a model operator the substitution u = r^(i*lam) r^mu phi(omega) turns
the action on R^n minus the origin into a polynomial family of operators
on the sphere,

    pencil(lam) phi = r^(-i*lam) r^(-nu) A0 (r^(i*lam) r^mu phi),

whose matrix in an orthonormal harmonic basis is a polynomial
sum_j B_j lam^j of degree m.  The B_j are assembled directly with ladder
operators: for H harmonic of degree l, x_i H = H_plus + |x|^2 dH/dx_i /
(2l+n-2) with H_plus harmonic of degree l+1, so x_i and D_i act on r^s H_l
through two small cached matrices per (n, l, i), the up-map H -> H_plus
(closed-form recurrences, exact to a few ulps) and the down-map
H -> dH/dx_i, which is (2l+n-2) up(l-1)^T as x_i is symmetric on the
sphere.  Each D_i multiplies a column by a polynomial of degree one in
lam, so a column's coefficients come out as polynomials in lam; each
(i, j) entry of B_0..B_m is one weighted sum of a ladder table, x^expo
D^alpha (r^(i lam + mu) Y_l) for each of the entry's monomials on every
basis column, built once per process (_build_table).  Leakage above the
truncation degree is seen per column, and the work basis is enlarged by
twice the observed bandwidth so that every column needed downstream is
exact.  Columns do not depend on the basis size, so a smaller basis reads
a prefix of a table, and the kept columns of a pencil are those of every
wider one, with zero rows appended: a value certified on them is an
eigenvalue of every wider pencil, and no wider pencil is assembled.

A pencil is two arrays: the coefficient stack B, shape (m + 1, k nb, k nb),
that assembly fills, and the harmonic degree of each of the nb basis
harmonics; m, the per-row degrees and the scale are derived from them once.
Every cut (a decoupled block, the kept columns, a mode) is one index on the
stack.

A pencil's block view (kept, blocks, scalars, powers, squares, roots,
clusters) splits det pencil once into prod_i det(squares[i]) **
powers[i], one square per block, solves each piece once and clusters
the roots once; the strip eigensolve, the certification, the strip's
points, the det-order circles, the Jordan chains and the mode cut all
read it.  At bandwidth 0 the blocks are the decoupled (component,
degree) blocks, and the square of one that is c(lam) I_d (radial
coefficients; Kozlov, Maz'ya and Rossmann, Spectral Problems Associated
with Corner Singularities) is its 1 x 1 scalar c with power d.  One test
over the entries of every block finds them, and their scalars are the rows
of one array (scalars), so their roots, det reads and chains are
batched.  At bandwidth > 0 the blocks are the connected components of the
bipartite (row, kept column) graph of B's nonzero pattern on the kept
columns, labelled in one pass over its nonzeros: 2 to 4 rectangular
blocks, one per parity class of the harmonics under the operator's
symmetries, on every coupled operator in operators/.  Each block's square
is a fixed random compression of its exact rectangular pencil
(restriction), whose candidates the rectangular pencil certifies.  The
owners of a cluster are the squares of its members, so chains and det
orders are computed on the blocks that own it.  A mode cut
(model_solver.mode_pencil) is a PencilMatrices too, cut with the help of
P's view, so it carries its own view and is solved at most once.

assemble_pencil keeps the last _PENCIL_CAP pencils it returned, keyed by
the principal part's SystemOperator.key (its coefficients bit for bit),
l_max and the analysis degree: equal keys assemble the same stack.
Another strip, window or mode of the same operator and degree, or an
operator that differs only in its perturbations, gets the same pencil with
its block view already solved.  A kept pencil also remembers the
eigenpoint of each cluster (P.clusters) a strip chained and certified
(P.points, by cluster number, filled by remember), so a cluster shared by
two strips is certified and chained once.  An eigenpoint holds one chain
vector of P.size entries per eigenvalue of its cluster, so one per
cluster takes at most m size vectors, m/(m + 1) of the stack.  Each
request's own checks (the uncertified-candidate refusal, the total
multiplicity, refusals) still run.  B and the remembered chain vectors
are read-only, so a shared pencil cannot change, and the kept stacks and
memos, with the next stack's bound, stay within _STACK_CAP bytes.  A process that answers many
strips, windows or modes of one operator (cli.main called in a loop, the
scripts' sweeps) gains; a one-shot command assembles and chains once
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    CouplingOverflow,
    HomogeneityError,
    NotApplicable,
    SchemaError,
    SingularLeadingCoeff,
)
from .operator_ast import SystemOperator, principal_part
from .radial_algebra import harmonic_dim

_HOMOG_TOL = 1e-10
_CLUSTER_RADIUS = 1e-6  # eigenvalue cluster radius
_SCALAR_TOL = 1e-10    # deviation from c(lam) I, relative to the block's row sums
_STACK_CAP = 2 ** 28   # bytes a stack B may take, and the kept stacks and memos together
_SHIFTS = (0.3137 + 0.4271j, -0.5821 + 0.2394j, 0.1772 - 0.6813j)


# ---------------------------------------------------------------------------
# matrix assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PencilMatrices:
    """Matrix polynomial sum_j B[j] lam^j on the work basis.

    B is the (m + 1, k nb, k nb) coefficient stack; degrees holds the
    harmonic degree l of each of the nb orthonormal harmonics
    Y = r^(-l) H_l of the work basis, in basis order (degree blocks in
    increasing l), and component c's rows and columns are c nb .. c nb + nb.
    The columns P.kept are the exact restriction of the infinite pencil
    (the work basis extends the requested l_max by twice the observed
    upward coupling bandwidth).  Frozen, so the derived values (m,
    row_degrees, scale) and the block view, built on first use, cannot go
    stale.
    """

    B: np.ndarray
    degrees: np.ndarray
    k: int
    n: int
    mu: tuple
    nu: tuple
    l_max: int
    analysis_degree: int
    bandwidth: int

    @property
    def size(self):
        return self.B.shape[1]

    @cached_property
    def m(self):
        return len(self.B) - 1

    @cached_property
    def row_degrees(self):
        """The harmonic degree of each row (and column) of the B[j]."""
        return np.tile(self.degrees, self.k)

    @cached_property
    def scale(self):
        """max_j ||B_j||_inf, the largest absolute row sum (as np.linalg.norm
        computes it, without its per-call overhead)."""
        return float(np.abs(self.B).sum(axis=2).max())

    @cached_property
    def kept(self):
        """The fully resolved columns: harmonic degree <= the work basis
        degree minus the bandwidth (all of them when the bandwidth is 0)."""
        return np.flatnonzero(self.row_degrees <= self.degrees[-1] - self.bandwidth)

    @cached_property
    def blocks(self):
        """(rows, cols) of each of P.squares, as index arrays into the work
        basis, the pencil's one partition.  At bandwidth 0, rows = cols, the
        connected components of the coupling graph over (component, degree)
        by B's exact nonzero pattern (the assembly's round-off cut decides
        every structural zero), in basis order.  Otherwise the connected
        components of the bipartite graph (rows x kept columns) of the exact
        nonzero pattern of B[:, :, P.kept] (its coarse Dulmage-Mendelsohn
        decomposition; Dulmage and Mendelsohn, Canad. J. Math. 10, 1958), by
        first column.  A row no kept column reaches is in no block; no
        nonzero of B[:, :, P.kept] lies outside one."""
        if self.bandwidth == 0:
            width = self.degrees[-1] + 1
            node = np.repeat(np.arange(self.k) * width, len(self.degrees))
            node += self.row_degrees
            rows, cols = np.nonzero(self.B.any(axis=0))
            label = component_labels(self.k * width, node[rows], node[cols])[node]
            return [(idx, idx) for idx in
                    (np.flatnonzero(label == c) for c in np.unique(label))]
        n_r, kept = self.size, self.kept
        rows, cols = np.nonzero(self.B[:, :, kept].any(axis=0))
        label = component_labels(n_r + len(kept), rows, n_r + cols)
        tops, first, block = np.unique(label[n_r:], return_index=True, return_inverse=True)
        return [(np.flatnonzero(label[:n_r] == tops[b]), kept[block == b])
                for b in np.argsort(first).tolist()]

    def restriction(self, i):
        """The exact pencil on block i (P.blocks): B[:, rows][:, :, cols]."""
        rows, cols = self.blocks[i]
        return self.B[:, rows[:, None], cols]

    @cached_property
    def scalars(self):
        """(row, C): the squares held as 1 x 1 scalars, as rows of one
        coefficient array, C[row[i], j] = squares[i][j, 0, 0], and row[i] = -1
        for a full square (every square when the bandwidth is nonzero, as
        each block is then a compressed rectangle).

        At bandwidth 0, block i (P.blocks) is c(lam) I_d when no entry of it
        deviates from c I_d by _SCALAR_TOL of its largest absolute row sum:
        one test reads the entries of every block at once.  The batched
        roots, det reads and chains read C."""
        if self.bandwidth:
            return (np.full(len(self.blocks), -1),
                    np.zeros((0, self.m + 1), dtype=complex))
        sizes = np.array([len(rows) for rows, _ in self.blocks])
        order = np.concatenate([rows for rows, _ in self.blocks])   # block by block
        first = np.cumsum(sizes) - sizes     # each block's first position in order
        head = np.repeat(first, sizes)       # ... and that of each position's block
        width = np.repeat(sizes, sizes)
        start = np.cumsum(width) - width     # each row's first entry below
        # the entries of every block, row by row, block by block
        pos = np.repeat(np.arange(self.size), width)
        col = head[pos] + np.arange(len(pos)) - start[pos]
        entries = self.B[:, order[pos], order[col]]
        mag = np.abs(entries)
        sums = np.add.reduceat(mag, start, axis=1).max(axis=0)
        diag = start + np.arange(self.size) - head
        mag[:, diag] = np.abs(entries[:, diag] - self.B[:, order[head], order[head]])
        dev = np.maximum.reduceat(mag, start, axis=1).max(axis=0)
        scale = np.maximum.reduceat(sums, first)
        scale[scale == 0] = 1.0
        scalar = np.maximum.reduceat(dev, first) < _SCALAR_TOL * scale
        lead = order[first][scalar]
        return (np.where(scalar, np.cumsum(scalar) - 1, -1),
                np.ascontiguousarray(self.B[:, lead, lead].T))

    @cached_property
    def powers(self):
        """The power of each of P.squares in det pencil: d for a block that is
        c(lam) I_d (P.scalars marks none at bandwidth > 0), else 1."""
        return np.where(self.scalars[0] >= 0, [len(rows) for rows, _ in self.blocks],
                        1).tolist()

    @cached_property
    def squares(self):
        """Square pencils (coefficient stacks), one per block (P.blocks), det
        pencil = prod_i det(P.squares[i]) ** P.powers[i]: the decoupled blocks
        (a c(lam) I one as its 1 x 1 c, a view of P.scalars) when the
        bandwidth is 0, otherwise a fixed random compression Q_i R_i of each
        block's exact rectangular pencil R_i (P.restriction(i)), Q_i drawn
        from a seed of R_i's shape."""
        if self.bandwidth == 0:
            row, C = self.scalars
            return [self.restriction(i) if r < 0 else C[r, :, None, None]
                    for i, r in enumerate(row.tolist())]
        squares = []
        for i in range(len(self.blocks)):
            R = self.restriction(i)
            n_r, n_c = R.shape[1:]
            rng = np.random.default_rng(20240900 + 7 * n_r + n_c)
            Q = rng.standard_normal((n_c, n_r)) + 1j * rng.standard_normal((n_c, n_r))
            Q /= math.sqrt(2 * n_r)
            squares.append(Q @ R)
        return squares

    @cached_property
    def roots(self):
        """The finite eigenvalues of P.squares, concatenated square by square,
        and the square of each: the 1 x 1 squares' with a nonzero leading
        coefficient from one batch (_scalar_roots), the others' by
        _companion_eigenvalues.

        On decoupled blocks of a pencil with one mu and one nu, a leading
        coefficient with condition above 1e12 raises SingularLeadingCoeff.
        A compressed square is not the pencil itself, so its values are
        candidates that spectrum.solve_pencil_eigenvalues certifies."""
        check_lead = (self.bandwidth == 0
                      and len(set(self.mu)) == len(set(self.nu)) == 1)
        row, C = self.scalars
        which, batch = np.flatnonzero(row >= 0), C[:, -1] != 0
        vals, square = _scalar_roots(C[batch])
        square = which[batch][square]
        rest = np.flatnonzero(row < 0).tolist() + which[~batch].tolist()
        vals, square = [vals], [square]
        for i in sorted(rest):
            Bs = self.squares[i]
            if check_lead:
                cond = np.linalg.cond(Bs[-1])
                if not np.isfinite(cond) or cond > 1e12:
                    raise SingularLeadingCoeff(
                        f"leading coefficient condition {cond:.2e} on a block")
            vals.append(_companion_eigenvalues(Bs))
            square.append(np.full(len(vals[-1]), i))
        order = np.argsort(np.concatenate(square), kind="stable")
        return np.concatenate(vals)[order], np.concatenate(square)[order]

    @cached_property
    def eigenvalues(self):
        """P.roots, each repeated its square's P.powers times."""
        roots, square = self.roots
        return np.repeat(roots, np.array(self.powers)[square])

    @cached_property
    def clusters(self):
        """(label, centres): the cluster number label[i] of each of
        P.eigenvalues, and each cluster's centre, numbered by centre in
        (Im, Re) order.  Single linkage within _CLUSTER_RADIUS over P.roots,
        every pair compared (copies of one value that a sort would interleave
        with a neighbour's still link), a root's P.powers copies sharing its
        label.  A centre is the mean of its members among P.eigenvalues, in
        their order, one np.mean per distinct cluster size (each row of a
        same-size stack sums as its cluster alone would)."""
        roots, square = self.roots
        vals = self.eigenvalues
        near = np.nonzero(np.abs(roots[:, None] - roots) <= _CLUSTER_RADIUS)
        label = np.unique(component_labels(len(roots), *near), return_inverse=True)[1]
        label = np.repeat(label, np.array(self.powers)[square])
        counts = np.bincount(label)
        members = np.argsort(label, kind="stable")   # cluster by cluster, in order
        start = np.cumsum(counts) - counts
        centres = np.empty(len(counts), dtype=complex)
        for size in set(counts.tolist()):
            same = np.flatnonzero(counts == size)
            centres[same] = vals[members[start[same, None] + np.arange(size)]].mean(axis=1)
        order = np.lexsort((centres.real, centres.imag))
        return np.argsort(order)[label], centres[order]

    @cached_property
    def points(self):
        """The eigenpoints remembered on a kept pencil (remember), keyed by
        cluster number (P.clusters), the pencil's one memo: a remembered
        cluster was certified and chained by a strip that passed."""
        return {}

    @property
    def nbytes(self):
        """The bytes of B and of the remembered chain vectors."""
        return self.B.nbytes + sum(e.nbytes for e in self.points.values())

    def to_json(self):
        return {
            "m": self.m, "k": self.k, "n": self.n,
            "mu": list(self.mu), "nu": list(self.nu),
            "l_max": self.l_max, "analysis_degree": self.analysis_degree,
            "bandwidth": self.bandwidth,
            "basis": {"n": self.n, "l_max": int(self.degrees[-1]),
                      "degrees": self.degrees.tolist()},
            "B": np.stack([self.B.real, self.B.imag], axis=-1).tolist(),
        }


# ---------------------------------------------------------------------------
# ladder-operator assembly
# ---------------------------------------------------------------------------

def _modes(n, l):
    """(m, cos 0 / sin 1) of the degree-l harmonics, in their basis order: m
    ascending, cos before sin."""
    return [(m, s) for m in (range(l + 1) if n == 3 else (l,))
            for s in (0, 1) if m or not s]


def _up_map(n, l, i):
    """H -> H_plus for x_i on the orthonormal degree-l harmonics: the cos/sin
    recurrences (R^2, where m = l) and those of the real spherical harmonics
    (R^3; Varshalovich, Moskalev and Khersonskii, Quantum Theory of Angular
    Momentum, ch. 5).  x and y move m by one, z keeps it; the maps out of
    m = 0 and from m = 1 into m = 0 gain sqrt 2, the norm ratio of cos 0."""
    dst = {mode: row for row, mode in enumerate(_modes(n, l + 1))}
    up = np.zeros((len(dst), harmonic_dim(n, l)))
    k = (2 * l + 1) * (2 * l + 3)
    for col, (m, s) in enumerate(_modes(n, l)):
        a, b = (0.5, 0.0) if n == 2 else (0.5 * math.sqrt((l + m + 1) * (l + m + 2) / k),
                                          0.5 * math.sqrt((l - m + 1) * (l - m + 2) / k))
        a, b = a * math.sqrt(2 if m == 0 else 1), b * math.sqrt(2 if m == 1 else 1)
        sign = 1 - 2 * s
        moves = (((m + 1, s, a), (m - 1, s, -b)),                        # x
                 ((m + 1, 1 - s, sign * a), (m - 1, 1 - s, sign * b)),   # y
                 ((m, s, math.sqrt(((l + 1) ** 2 - m * m) / k)),))[i]    # z
        for mm, ss, c in moves:
            if (mm, ss) in dst:
                up[dst[mm, ss], col] = c
    return up


@lru_cache(maxsize=None)
def _ladder_maps(n, l, i):
    """Up-map H -> H_plus and down-map H -> dH/dx_i on degree-l harmonics,
    as dense matrices between the orthonormal degree-l and degree-l+-1 bases."""
    return _up_map(n, l, i), ((2 * l + n - 2) * _up_map(n, l - 1, i).T if l else None)


def _times_linear(V, a, b):
    """(a + b lam) V for V a polynomial in lam along axis 0 (degree < len)."""
    out = a * V
    out[1:] += b * V[:-1]
    return out


def _ladder_step(state, step, h, n):
    """x_a (step n + a) or D_a (step a) on sum_l r^(i lam + h - l) H_l, the
    H_l in orthonormal coordinates, per degree, s = i lam + h - l:

        x_a (r^s H) = r^s H_plus + r^(s+2) dH/dx_a / (2l+n-2),
        D_a (r^s H) = -i (s r^(s-2) H_plus + (1 + s/(2l+n-2)) r^s dH/dx_a),

    the latter of homogeneity i lam + h - 1.
    """
    out, a, is_x = {}, step % n, step >= n
    for l, V in state.items():
        up, down = _ladder_maps(n, l, a)
        q, k = h - l, 2 * l + n - 2
        out[l + 1] = out.get(l + 1, 0) + up @ (V if is_x else _times_linear(V, -1j * q, 1.0))
        if l > 0:
            out[l - 1] = out.get(l - 1, 0) + (
                down @ V / k if is_x else down @ _times_linear(V, -1j * (1 + q / k), 1 / k))
    return out


_TABLE_CAP = 64    # ladder tables kept per process; the oldest goes first
_tables = {}       # (n, m, mu, words) -> the table of the largest top asked


def _build_table(n, m, mu, words, top, table=None):
    """x^expo D^alpha (r^(i lam + mu) Y_l) for each monomial of an entry, its
    ladder word in `words` (the factors in order, a for D_a and n + a for
    x_a), on every basis harmonic Y_l of degree l <= top; a given `table` of
    fewer degrees is extended.  Kept on the monomials' joint nonzero
    support, column by column in blocks (one degree's rows in one column),
    as read-only arrays: rows and cols (basis indices), vals (monomial,
    power of lam, position), bstart (each block's first position) and
    cstart (each column's first block), both closed by their count, up (each
    block's row degree less its column degree) and ends[l] (the positions,
    blocks and columns of degree <= l: a smaller top reads a prefix)."""
    reach = max(map(len, words))
    dims = [harmonic_dim(n, l) for l in range(top + reach + 1)]
    start = np.cumsum([0] + dims)
    row_deg = np.repeat(np.arange(len(dims)), dims)
    parts = {key: [] for key in ("rows", "cols", "vals", "bstart", "up", "cstart", "ends")}
    size = blocks = columns = first = 0
    if table is not None:   # resume after its degrees, its closing counts dropped
        for key, a in table.items():
            parts[key].append(a[:-1] if key in ("bstart", "cstart") else a)
        size, blocks, columns = table["ends"][-1]
        first = len(table["ends"])
    for l in range(first, top + 1):
        low = start[max(l - reach, 0)]   # the rows the words reach from degree l
        stack = np.zeros((len(words), m + 1, start[l + reach + 1] - low, dims[l]),
                         dtype=complex)
        for w, word in enumerate(words):
            st = {l: np.zeros((m + 1, dims[l], dims[l]), dtype=complex)}
            st[l][0] = np.eye(dims[l])
            for s, step in enumerate(word):
                st = _ladder_step(st, step, mu - s, n)
            for lo, V in st.items():
                stack[w, :, start[lo] - low:start[lo + 1] - low] = V
        c, r = np.nonzero(stack.any(axis=(0, 1)).T)
        vals, r = stack[:, :, r, c], r + low
        new_col = np.diff(c, prepend=-1) != 0
        head = np.flatnonzero(new_col | (np.diff(row_deg[r], prepend=-1) != 0))
        for key, a in (("rows", r), ("cols", start[l] + c), ("vals", vals),
                       ("bstart", size + head), ("up", row_deg[r[head]] - l),
                       ("cstart", blocks + np.flatnonzero(new_col[head]))):
            parts[key].append(a)
        size, blocks, columns = size + len(r), blocks + len(head), columns + new_col.sum()
        parts["ends"].append([[size, blocks, columns]])
    parts["bstart"].append([size])
    parts["cstart"].append([blocks])
    table = {key: np.concatenate(p, axis=-1 if key == "vals" else 0)
             for key, p in parts.items()}
    for a in table.values():
        a.setflags(write=False)
    return table


def _entry_block(a0: SystemOperator, i, j, top):
    """Entry (i, j) on the columns of degree <= top, on its ladder table's
    support: (rows, cols, W, bandwidth), W of shape (m + 1, positions).

    W sums the terms' monomials times their tables, each term's monomials
    first.  A block at round-off, at most 1e-13 of its column's largest
    entry (or of 1), is cut to zero; the upward bandwidth is read from the
    surviving blocks, rows above top included.  The table is memoized per
    process (at most _TABLE_CAP), extended when a larger top is asked.
    """
    terms = [[(complex(a), tuple(ax for ax, c in enumerate(alpha + expo) for _ in range(c)))
              for expo, a in t.poly.coeffs.items()] for alpha, t in a0.entries[i, j]]
    key = (a0.n, a0.m, a0.mu[j], tuple(word for term in terms for _, word in term))
    tab = _tables.get(key)
    if tab is None or len(tab["ends"]) <= top:
        tab = _tables[key] = _build_table(*key, top, tab)
        while len(_tables) > _TABLE_CAP:
            del _tables[next(iter(_tables))]
    e, b, c = tab["ends"][top]
    vals, W, w = tab["vals"][:, :, :e], 0, 0
    for term in terms:
        part = 0
        for a, _ in term:
            part, w = part + a * vals[w], w + 1
        W = W + part
    bstart, cstart = tab["bstart"][:b + 1], tab["cstart"][:c + 1]
    bmax = np.maximum.reduceat(np.abs(W).max(axis=0), bstart[:-1])
    thresh = 1e-13 * np.maximum(np.maximum.reduceat(bmax, cstart[:-1]), 1.0)
    alive = bmax > thresh.repeat(cstart[1:] - cstart[:-1])
    W[:, ~alive.repeat(bstart[1:] - bstart[:-1])] = 0.0
    return tab["rows"][:e], tab["cols"][:e], W, int(tab["up"][:b][alive].max(initial=0))


_PENCIL_CAP = 4    # pencils kept per process; the least recently used goes first
_pencils = {}      # (principal part's key, l_max, analysis degree) -> its pencil


def assemble_pencil(op: SystemOperator, l_max: int,
                    analysis_degree: int | None = None) -> PencilMatrices:
    """Assemble the pencil coefficient matrices B_j directly.

    Each basis column r^(i lam + mu) Y_l is pushed through the principal
    part with the ladder maps; its coefficients are polynomials in lam of
    degree <= m and are written straight into B_0..B_m, one weighted sum of
    a memoized ladder table per (i, j) entry.  The work basis is extended
    by twice the upward coupling bandwidth so every column of harmonic
    degree <= l_max + bandwidth is exact.  CouplingOverflow is raised when
    a basis element within `analysis_degree` couples above l_max, i.e. when
    the declared margin understates the true bandwidth.  `analysis_degree`
    defaults to l_max less default_l_max's margin (>= 0).  NotApplicable
    for an operator of order 0 or a principal part with no term.  SchemaError,
    before any ladder table is built, when B could exceed _STACK_CAP bytes:
    (m + 1) (k nb)^2 16 on the widest work basis the margin allows, degree
    l_max + 2 (l_max - analysis_degree).

    A repeated principal part key, l_max and analysis degree return the
    kept PencilMatrices (module docstring); before a new one is assembled,
    the least recently used are dropped until at most _PENCIL_CAP - 1 are
    kept and their stacks, memos and the new bound fit in _STACK_CAP bytes.
    """
    a0 = principal_part(op)
    if a0.m < 1:
        raise NotApplicable("the operator has order 0; a pencil needs positive order")
    if not a0.entries:
        raise NotApplicable("the principal part has no nonzero term; its pencil is zero")
    if analysis_degree is None:
        analysis_degree = max(l_max - default_l_max(op, 0), 0)
    widest = l_max + 2 * (l_max - analysis_degree)
    nb = 2 * widest + 1 if a0.n == 2 else (widest + 1) ** 2
    need = (a0.m + 1) * (a0.k * nb) ** 2 * 16
    if need > _STACK_CAP:
        raise SchemaError(
            f"the basis of harmonic degree {l_max} needs up to {need / 2**30:.3g} GiB "
            f"of pencil coefficients, above the {_STACK_CAP / 2**30:g} GiB bound; "
            "lower the degree")
    key = a0.key, l_max, analysis_degree
    P = _pencils.pop(key, None)
    if P is None:
        while len(_pencils) >= _PENCIL_CAP:
            del _pencils[next(iter(_pencils))]
        _fit(need)
        P = _assemble(a0, l_max, analysis_degree)
    _pencils[key] = P
    return P


def _fit(need, spare=None):
    """Drop the least recently used kept pencils, never `spare`, until
    `need` more bytes fit in _STACK_CAP with the kept stacks and memos
    (PencilMatrices.nbytes); whether they fit."""
    drop = [key for key, Q in _pencils.items() if Q is not spare]
    while need + sum(Q.nbytes for Q in _pencils.values()) > _STACK_CAP:
        if not drop:
            return False
        del _pencils[drop.pop(0)]
    return True


def remember(P: PencilMatrices, points):
    """Add `points` (cluster -> spectrum.Eigenpoint) to P.points when P is kept
    and they fit: the least recently used other kept pencils are dropped
    until their chain vectors fit in _STACK_CAP with the kept stacks and
    memos.  A pencil no longer kept remembers nothing more."""
    extra = sum(e.nbytes for e in points.values())
    if any(Q is P for Q in _pencils.values()) and _fit(extra, P):
        P.points.update(points)


def _assemble(a0: SystemOperator, l_max, analysis_degree):
    """The pencil of the principal part a0 (assemble_pencil, uncached)."""
    for (i, j), terms in a0.entries.items():
        for alpha, t in terms:
            h = a0.mu[j] - sum(alpha) + t.radial_exponent + t.poly.degree
            if abs(h - a0.nu[i]) > _HOMOG_TOL:
                raise HomogeneityError(
                    f"pencil output has homogeneity {h - a0.nu[i]}; invalid operator spec")
    # columns do not depend on the basis size: extend until the work basis
    # covers l_max plus twice the bandwidth seen on all of its columns
    top = l_max
    while True:
        blocks = {(i, j): _entry_block(a0, i, j, top) for i, j in a0.entries}
        bandwidth = max(block[3] for block in blocks.values())
        if bandwidth > l_max - analysis_degree:
            raise CouplingOverflow(
                f"coupling bandwidth {bandwidth} exceeds margin "
                f"{l_max - analysis_degree}; raise l_max")
        if top >= l_max + 2 * bandwidth:
            break
        top = l_max + 2 * bandwidth

    dims = [harmonic_dim(a0.n, l) for l in range(top + 1)]
    nb, k = sum(dims), a0.k
    B = np.zeros((a0.m + 1, k * nb, k * nb), dtype=complex)
    for (i, j), (rows, cols, W, _) in blocks.items():
        keep = rows < nb
        B[:, i * nb + rows[keep], j * nb + cols[keep]] = W[:, keep]
    degrees = np.repeat(np.arange(top + 1), dims)
    B.setflags(write=False)
    degrees.setflags(write=False)
    return PencilMatrices(
        B=B, degrees=degrees, k=k, n=a0.n,
        mu=tuple(a0.mu), nu=tuple(a0.nu), l_max=l_max,
        analysis_degree=analysis_degree, bandwidth=bandwidth)


def default_l_max(op: SystemOperator, degree: int) -> int:
    """The basis degree that analysing harmonic degree `degree` assembles:
    the degree plus the coupling margin max_poly_degree * m + 2."""
    return degree + op.max_poly_degree() * op.m + 2


def _scalar_roots(C):
    """Roots (|lam| < 1e8) of the polynomials sum_j C[s, j] lam^j, leading
    coefficients nonzero, from one batched eigensolve of monic companions,
    and the row s of each, row by row."""
    m = C.shape[1] - 1
    A = np.zeros((len(C), m, m), dtype=complex)
    A[:, :-1, 1:] = np.eye(m - 1)
    A[:, -1] = -C[:, :m] / C[:, m:]
    vals = np.linalg.eigvals(A)
    finite = np.abs(vals) < 1e8
    return vals[finite], np.nonzero(finite)[0]


def _companion_eigenvalues(Bs):
    """Finite eigenvalues of P(lam) = sum_j B_j lam^j by the shifted companion
    (the reversal/shift linearization; Gohberg, Lancaster and Rodman, Matrix
    Polynomials): lam = sigma + 1/mu turns mu^m P into sum_j C_j mu^(m-j),
    C_j = P^(j)(sigma)/j!, monic after C_0^(-1).  mu = 0 (a singular B_m) is
    an infinite lam and drops out with |lam| >= 1e8.  The solve loses about
    eps cond P(sigma): sigma is the first of _SHIFTS with cond < 1e4, else the
    best of them, and cond >= 1e8 at all raises SingularLeadingCoeff."""
    m = len(Bs) - 1
    N = Bs[0].shape[0]
    best = None
    for sigma in _SHIFTS:
        C = taylor(Bs, sigma)
        sv = np.linalg.svd(C[0], compute_uv=False)
        ratio = sv[-1] / sv[0] if sv[0] else 0.0   # 1 / cond P(sigma)
        if best is None or ratio > best[0]:
            best = ratio, sigma, C
        if ratio > 1e-4:
            break
    ratio, sigma, C = best
    if not ratio > 1e-8:
        raise SingularLeadingCoeff("the pencil is singular at every shift")
    A = np.eye(N * m, k=N, dtype=complex)
    A[N * (m - 1):] = -np.linalg.solve(C[0], np.hstack(C[:0:-1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = sigma + 1 / np.linalg.eigvals(A)
    vals = vals[np.isfinite(vals)]
    return vals[np.abs(vals) < 1e8]


def component_labels(n, a, b):
    """Smallest member of the connected component of each of the nodes
    0..n-1 under the edges (a[e], b[e]): min-label propagation over the
    edge list with pointer jumping, O(edges) a round.  Each node's label
    stays a member of its component and never grows, so the rounds end,
    and at their end every edge joins equal labels, each component's its
    smallest member.  Plain numpy, since the program imports no scipy
    (tests/test_hygiene.py::test_cli_run_loads_no_scipy)."""
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, a, label[b])
        np.minimum.at(new, b, label[a])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def horner(coeffs, lam):
    """sum_j coeffs[j] lam^j; an array of points gives a stack of matrices."""
    lam = np.asarray(lam, dtype=complex)[..., None, None]
    out = coeffs[-1] + 0 * lam
    for coeff in coeffs[-2::-1]:
        out *= lam  # in place: a stack of points allocates no step arrays
        out += coeff
    return out


def taylor(coeffs, lam0):
    """The list of (1/s!) d^s/d lam^s of sum_j coeffs[j] lam^j at lam0 for
    s = 0..len(coeffs) - 1, by Horner passes (synthetic division)."""
    T = list(coeffs)
    for k in range(len(T) - 1):
        for j in range(len(T) - 2, k - 1, -1):
            T[j] = T[j] + lam0 * T[j + 1]
    return T

