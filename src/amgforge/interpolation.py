"""Prolongation builders: every coarse space is the range of some P here.

Classical builders (ideal, direct, standard, multipass) assemble
P = [W; I] in the natural ordering from a C/F splitting; aggregation
builders produce per-aggregate block columns; the energy-minimizing builder
solves the constrained trace-minimization problem over prescribed supports.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import sparse
from .sparse import SparseMatrix, from_scipy, bfs_distance
from .smoothers import estimate_rho_dinv_a


class InterpolationError(ValueError):
    pass


class CGConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class Prolongation:
    """An n x n_c prolongation with builder provenance."""

    matrix: SparseMatrix
    builder: str
    preserved: np.ndarray = None
    cf: object = None
    aggregates: object = None
    supports: object = None

    @property
    def n(self):
        return self.matrix.n_rows

    @property
    def n_coarse(self):
        return self.matrix.n_cols

    def toarray(self):
        return self.matrix.toarray()


def verify_full_rank(p, tol=1e-10):
    """Desk-scale rank check via the smallest singular value."""
    s = np.linalg.svd(p.toarray(), compute_uv=False)
    return bool(s.size and s[-1] > tol)


def _assemble_cf(w_rows, w_cols, w_vals, split, builder, preserved=None, cf_order_cols=None):
    """P with identity C rows and W on F rows, all in natural row order.

    ``w_rows`` hold positions into the fine-index list; columns index the
    coarse points in ascending natural order.
    """
    fine = split.fine_indices
    coarse = split.coarse_indices
    n, n_c = split.n, coarse.size
    rows = np.concatenate([coarse, fine[w_rows]])
    cols = np.concatenate([np.arange(n_c), w_cols])
    vals = np.concatenate([np.ones(n_c), w_vals])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n_c))
    return Prolongation(from_scipy(mat), builder, preserved=preserved, cf=split)


def ideal_interpolation(a, split, dense_cap=4000):
    """Exact harmonic extension P = [-A_FF^{-1} A_FC; I].

    A desk-scale oracle: the F-block is solved densely and inputs with more
    than ``dense_cap`` fine points are rejected.
    """
    fine, coarse = split.fine_indices, split.coarse_indices
    if fine.size > dense_cap:
        raise ValueError(f"ideal interpolation capped at {dense_cap} fine points")
    a_ff = a.mat[fine][:, fine].toarray()
    a_fc = a.mat[fine][:, coarse].toarray()
    try:
        w = -scipy.linalg.solve(a_ff, a_fc, assume_a="sym")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise InterpolationError("A_FF is singular") from exc
    if not np.all(np.isfinite(w)):
        raise InterpolationError("A_FF is singular")
    rr, cc = np.nonzero(w)
    return _assemble_cf(rr, cc, w[rr, cc], split, "ideal")


def _strong_coarse_map(split):
    """Per-vertex coarse column index; -1 on F points."""
    coarse_col = np.full(split.n, -1, dtype=np.int64)
    coarse_col[split.coarse_indices] = np.arange(split.n_coarse)
    return coarse_col


def direct_interpolation(a, split, s):
    """Strong C-neighbor averaging with unit row sums on F rows."""
    coarse_col = _strong_coarse_map(split)
    rows, cols, vals = [], [], []
    for pos, i in enumerate(split.fine_indices):
        strong_c = [j for j in s.neighbors(i) if coarse_col[j] >= 0]
        if not strong_c:
            raise InterpolationError(
                f"fine row {i} has no strong coarse neighbor; re-coarsen")
        weights = np.array([a.mat[i, j] for j in strong_c])
        total = weights.sum()
        if total == 0.0:
            raise InterpolationError(f"zero row sum at fine row {i}")
        for j, wgt in zip(strong_c, weights / total):
            rows.append(pos)
            cols.append(coarse_col[j])
            vals.append(wgt)
    return _assemble_cf(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                        np.array(vals), split, "direct")


def _distance2_pattern(split, s):
    """Allowed coarse columns per F row: strong C neighbors within distance 2."""
    coarse_col = _strong_coarse_map(split)
    pattern = []
    for i in split.fine_indices:
        allowed = set()
        for j in s.neighbors(i):
            if coarse_col[j] >= 0:
                allowed.add(int(coarse_col[j]))
            else:
                for k in s.neighbors(j):
                    if coarse_col[k] >= 0:
                        allowed.add(int(coarse_col[k]))
        pattern.append(sorted(allowed))
    return pattern


def standard_interpolation(a, split, s):
    """One Jacobi substitution step on top of direct interpolation.

    Starting from W1 = -D_FF^{-1} A_FC, strong F-F couplings are collapsed by
    a Jacobi iteration on A_FF W = -A_FC, the result is truncated to coarse
    points within strong distance two, and F rows are rescaled to unit sum.
    """
    fine, coarse = split.fine_indices, split.coarse_indices
    a_ff = a.mat[fine][:, fine].tocsr()
    a_fc = a.mat[fine][:, coarse].tocsr()
    dinv = 1.0 / a_ff.diagonal()
    w1 = -sp.diags(dinv) @ a_fc
    w = w1 + sp.diags(dinv) @ (-a_fc - a_ff @ w1)
    pattern = _distance2_pattern(split, s)
    rows, cols, vals = [], [], []
    w = w.tolil()
    for pos in range(fine.size):
        allowed = pattern[pos]
        if not allowed:
            raise InterpolationError(
                f"fine row {fine[pos]} has no strong coarse neighbor within distance 2")
        row = np.array([w[pos, c] for c in allowed])
        total = row.sum()
        if total == 0.0:
            raise InterpolationError(f"zero row sum at fine row {fine[pos]}")
        for c, wgt in zip(allowed, row / total):
            if wgt != 0.0:
                rows.append(pos)
                cols.append(c)
                vals.append(wgt)
    return _assemble_cf(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                        np.array(vals), split, "standard")


def multipass_interpolation(a, split, s):
    """Interpolation for aggressive coarsening, one distance level at a time.

    F points adjacent to C interpolate directly; each farther level-set
    substitutes the already-built rows of its nearer strong neighbors and
    rescales, so every F row keeps unit row sum.
    """
    coarse_col = _strong_coarse_map(split)
    dist = bfs_distance(s.graph, split.coarse_indices)
    if (dist < 0).any():
        bad = int(np.flatnonzero(dist < 0)[0])
        raise InterpolationError(f"vertex {bad} is unreachable from C in the strength graph")
    n_c = split.n_coarse
    fine = split.fine_indices
    fine_pos = {int(v): k for k, v in enumerate(fine)}
    w_rows = [None] * fine.size  # dict col -> weight per F row
    max_d = int(dist.max()) if fine.size else 0
    for level in range(1, max_d + 1):
        for i in fine[dist[fine] == level]:
            acc = {}
            for j in s.neighbors(i):
                aij = a.mat[i, j]
                if dist[j] == 0 and coarse_col[j] >= 0:
                    acc[int(coarse_col[j])] = acc.get(int(coarse_col[j]), 0.0) + aij
                elif dist[j] == level - 1:
                    for c, wgt in w_rows[fine_pos[int(j)]].items():
                        acc[c] = acc.get(c, 0.0) + aij * wgt
            total = sum(acc.values())
            if not acc or total == 0.0:
                raise InterpolationError(f"zero substituted row at fine vertex {i}")
            w_rows[fine_pos[int(i)]] = {c: wgt / total for c, wgt in acc.items()}
    rows, cols, vals = [], [], []
    for pos, row in enumerate(w_rows):
        for c, wgt in sorted(row.items()):
            rows.append(pos)
            cols.append(c)
            vals.append(wgt)
    return _assemble_cf(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                        np.array(vals), split, "multipass")


def ua_prolongation(partition, vectors=None):
    """Piecewise-constant (or per-aggregate multi-vector) prolongation.

    With k preserved vectors the coarse dofs are aggregate-major blocks of
    width k, and P (1 (x) e_j) reproduces vector j exactly.
    """
    n = partition.n
    if vectors is None:
        mat = sp.coo_matrix((np.ones(n), (np.arange(n), partition.labels)),
                            shape=(n, partition.n_aggregates))
        return Prolongation(from_scipy(mat), "ua", aggregates=partition)
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float).T).T
    k = vectors.shape[1]
    rows, cols, vals = [], [], []
    for agg in range(partition.n_aggregates):
        members = partition.members(agg)
        block = vectors[members]
        if np.linalg.matrix_rank(block) < k:
            raise InterpolationError(
                f"aggregate {agg} is too small to carry {k} independent vectors")
        for local, vertex in enumerate(members):
            for j in range(k):
                if block[local, j] != 0.0:
                    rows.append(vertex)
                    cols.append(agg * k + j)
                    vals.append(block[local, j])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, partition.n_aggregates * k))
    return Prolongation(from_scipy(mat), "ua", preserved=vectors, aggregates=partition)


def sa_prolongation(p_tent, a, nu=1, omega=None, dense_cap=2000):
    """Prolongation smoothing P_S = (I - omega D^{-1} A)^nu P.

    Kernel vectors of A carried by the tentative prolongation survive
    smoothing exactly.  Default omega is 4/(3 rho(D^{-1}A)).
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if nu == 0:
        return p_tent
    if omega is None:
        omega = 4.0 / (3.0 * estimate_rho_dinv_a(a, steps=20))
    dinv = sp.diags(omega / a.diagonal())
    mat = p_tent.matrix.mat
    for _ in range(nu):
        mat = mat - dinv @ (a.mat @ mat)
    out = Prolongation(from_scipy(mat), "sa", preserved=p_tent.preserved,
                       aggregates=p_tent.aggregates, cf=p_tent.cf)
    if out.n <= dense_cap:
        if not verify_full_rank(out):
            raise InterpolationError("smoothing lost column rank; reduce omega")
    return out


@dataclass(frozen=True)
class SupportSet:
    """Per coarse dof, the fine indices allowed in its column."""

    supports: tuple

    @property
    def n_supports(self):
        return len(self.supports)

    def validate(self, n):
        counts = np.zeros(n, dtype=np.int64)
        for s in self.supports:
            counts[np.asarray(s, dtype=np.int64)] += 1
        if (counts == 0).any():
            missing = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"supports do not cover vertex {missing}")
        for k, s in enumerate(self.supports):
            if not (counts[np.asarray(s, dtype=np.int64)] == 1).any():
                raise ValueError(
                    f"support {k} is contained in the union of the others")


def supports_from_aggregates(partition, s):
    """Each aggregate extended by its strong neighbors; roots stay private."""
    adj = s.to_scipy()
    sets = []
    for agg in range(partition.n_aggregates):
        members = partition.members(agg)
        halo = adj[members].tocoo().col
        sets.append(np.unique(np.concatenate([members, halo])))
    return SupportSet(tuple(sets))


def energy_min_prolongation(a, supports, constraint=None, cg_tol=1e-10):
    """Trace-minimizing basis over prescribed supports.

    Minimizes sum_i phi_i' A phi_i subject to sum_i phi_i = constraint and
    supp(phi_i) inside support i.  Columns are phi_i = A_i^{-1} Q_i lambda
    where lambda solves B lambda = constraint with the additive operator
    B = sum_i I_i A_i^{-1} I_i', solved matrix-free by conjugate gradients.
    """
    n = a.n_rows
    supports.validate(n)
    constraint = np.ones(n) if constraint is None else np.asarray(constraint, dtype=float)
    factors = []
    for k, idx in enumerate(supports.supports):
        idx = np.asarray(idx, dtype=np.int64)
        local = a.mat[idx][:, idx].toarray()
        try:
            factors.append((idx, scipy.linalg.cho_factor(local)))
        except scipy.linalg.LinAlgError as exc:
            raise InterpolationError(f"local block for support {k} is singular") from exc

    def b_action(v):
        out = np.zeros(n)
        for idx, fac in factors:
            out[idx] += scipy.linalg.cho_solve(fac, v[idx])
        return out

    from .hierarchy import pcg_solve

    op = spla.LinearOperator((n, n), matvec=b_action, dtype=float)
    lam, report = pcg_solve(op, constraint, tol=cg_tol, max_it=10 * n)
    if not report.converged:
        raise CGConvergenceError("conjugate gradients stagnated on the additive operator")
    cols = []
    for idx, fac in factors:
        phi = np.zeros(n)
        phi[idx] = scipy.linalg.cho_solve(fac, lam[idx])
        cols.append(phi)
    basis = np.column_stack(cols)
    defect = np.abs(basis.sum(axis=1) - constraint).max()
    if defect > 1e-8 * max(1.0, np.abs(constraint).max()):
        raise CGConvergenceError(f"partition-of-unity defect {defect:.2e}")
    return Prolongation(from_scipy(sp.csr_matrix(basis)), "energymin",
                        preserved=constraint[:, None], supports=supports)


def coarse_elements(supports, n):
    """Signature classes: vertices grouped by exact support membership."""
    signature = [[] for _ in range(n)]
    for k, idx in enumerate(supports.supports):
        for v in np.asarray(idx, dtype=np.int64):
            signature[v].append(k)
    classes = {}
    for v in range(n):
        classes.setdefault(tuple(signature[v]), []).append(v)
    return classes, [tuple(sig) for sig in signature]


def harmonic_test_vertices(supports, graph, n):
    """Vertices interior to their coarse element: neighbor signatures nest.

    At such a vertex p every basis function not supported at p vanishes on
    the whole neighborhood, so the minimizer must have zero A-residual there.
    """
    _, signature = coarse_elements(supports, n)
    sig_sets = [set(s) for s in signature]
    out = []
    for p in range(n):
        if all(sig_sets[q] <= sig_sets[p] for q in graph.neighbors(p)):
            out.append(p)
    return out


def vector_preserving_interpolation(a, split, s, v):
    """Classical-style W that reproduces a prototype vector exactly.

    The initial guess W0 = D_v^{-1} A_FC interpolates v by construction; one
    Jacobi step on A_FF W = -A_FC improves energy, then the row pattern is
    truncated to strong distance-two coarse neighbors, small entries are
    dropped, and rows are rescaled so W v_C = v_F holds again exactly.
    """
    fine, coarse = split.fine_indices, split.coarse_indices
    v = np.asarray(v, dtype=float)
    v_f, v_c = v[fine], v[coarse]
    if np.any(v_f == 0.0):
        bad = int(fine[np.flatnonzero(v_f == 0.0)[0]])
        raise InterpolationError(f"prototype vanishes at fine row {bad}; re-relax it")
    a_ff = a.mat[fine][:, fine].tocsr()
    a_fc = a.mat[fine][:, coarse].tocsr()
    d_v = (a_fc @ v_c) / v_f
    if np.any(d_v == 0.0):
        bad = int(fine[np.flatnonzero(d_v == 0.0)[0]])
        raise InterpolationError(f"fine row {bad} has no usable coarse coupling")
    w0 = sp.diags(1.0 / d_v) @ a_fc
    dinv = sp.diags(1.0 / a_ff.diagonal())
    w = w0 + dinv @ (-a_fc - a_ff @ w0)
    pattern = _distance2_pattern(split, s)
    w = w.tolil()
    rows, cols, vals = [], [], []
    for pos in range(fine.size):
        allowed = pattern[pos]
        row = np.array([w[pos, c] for c in allowed])
        if row.size:
            row[np.abs(row) < 1e-3 * np.abs(row).max()] = 0.0
        target = float(np.array([v_c[c] for c in allowed]) @ row) if row.size else 0.0
        if target == 0.0:
            raise InterpolationError(f"truncated row at fine row {fine[pos]} cannot preserve v")
        scale = v_f[pos] / target
        for c, wgt in zip(allowed, row * scale):
            if wgt != 0.0:
                rows.append(pos)
                cols.append(c)
                vals.append(wgt)
    return _assemble_cf(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                        np.array(vals), split, "vector_preserving", preserved=v[:, None])


def spectral_amge_coarse_space(assembly, element_labels, m_per):
    """Local low-eigenvector coarse space from element agglomerates.

    ``element_labels`` assigns each element of the assembly to one
    agglomerate; agglomerate vertex sets are the unions of their elements'
    vertices and overlap at interfaces.  Per agglomerate: assemble the local
    operator from the owned element blocks, take the ``m_per`` lowest
    generalized eigenvectors against its own diagonal (so local eigenvalues
    are invariant under coefficient scaling), and extend by the diagonal
    partition-of-unity weights [A_j]_ii / [A]_ii (which sum to one over the
    agglomerates by construction).
    """
    if m_per < 1:
        raise ValueError("m_per must be >= 1")
    labels = np.asarray(getattr(element_labels, "labels", element_labels), dtype=np.int64)
    if labels.size != len(assembly.elements):
        raise ValueError("element_labels must assign every element to an agglomerate")
    n_agg = int(labels.max()) + 1
    a = assembly.assemble()
    n = a.n_rows
    global_diag = a.diagonal()
    members = []
    for j in range(n_agg):
        verts = sorted({int(v) for e in np.flatnonzero(labels == j)
                        for v in assembly.elements[e][0]})
        if not verts:
            raise ValueError(f"agglomerate {j} owns no elements")
        members.append(np.array(verts, dtype=np.int64))
    pos = [dict((int(v), k) for k, v in enumerate(m)) for m in members]
    local_mats = [np.zeros((m.size, m.size)) for m in members]
    for e, (verts, block) in enumerate(assembly.elements):
        owner = labels[e]
        loc = [pos[owner][int(v)] for v in verts]
        local_mats[owner][np.ix_(loc, loc)] += np.asarray(block, dtype=float)
    pou_sum = np.zeros(n)
    cols = []
    for j in range(n_agg):
        size = members[j].size
        if m_per > size:
            raise ValueError(f"m_per={m_per} exceeds agglomerate {j} size {size}")
        a_j = local_mats[j]
        if np.any(np.diag(a_j) <= 0.0):
            raise ValueError(f"agglomerate {j} has a vertex with no stiffness")
        _, vecs = scipy.linalg.eigh(a_j, np.diag(np.diag(a_j)))
        pou = np.diag(a_j) / global_diag[members[j]]
        pou_sum[members[j]] += pou
        for k in range(m_per):
            phi = np.zeros(n)
            phi[members[j]] = pou * vecs[:, k]
            cols.append(phi)
    if np.abs(pou_sum - 1.0).max() > 1e-12:
        raise ValueError("partition-of-unity weights do not sum to one; "
                         "assembly and agglomerates are inconsistent")
    basis = np.column_stack(cols)
    return Prolongation(from_scipy(sp.csr_matrix(basis)), "spectral_amge")
