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

from .linalg import (DENSE_CAP, _columns, _index_lists, _index_sets, _refuse_beyond_cap,
                     _stack_by_size)
from .sparse import SparseMatrix, from_scipy, bfs_distance
from .smoothers import SingularSmootherError, SubspaceCorrection, estimate_rho_dinv_a


class InterpolationError(ValueError):
    pass


class CGConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class Prolongation:
    """An n x n_c prolongation with builder provenance."""

    matrix: SparseMatrix
    builder: str

    @property
    def n(self):
        return self.matrix.n_rows

    @property
    def n_coarse(self):
        return self.matrix.n_cols

    def toarray(self):
        return self.matrix.toarray()


def verify_full_rank(p):
    """Desk-scale rank check: the smallest singular value exceeds 1e-10."""
    s = np.linalg.svd(p.toarray(), compute_uv=False)
    return bool(s.size and s[-1] > 1e-10)


def _assemble_cf(w, split, builder):
    """P with identity C rows and the n_F x n_C block ``w`` on F rows.

    Rows of ``w`` follow the fine-index list; columns index the coarse
    points in ascending natural order.
    """
    fine = split.fine_indices
    coarse = split.coarse_indices
    n, n_c = split.n, coarse.size
    w = sp.coo_matrix(w)
    rows = np.concatenate([coarse, fine[w.row]])
    cols = np.concatenate([np.arange(n_c), w.col])
    vals = np.concatenate([np.ones(n_c), w.data])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n_c))
    return Prolongation(from_scipy(mat), builder)


def ideal_interpolation(a, split):
    """Exact harmonic extension P = [-A_FF^{-1} A_FC; I].

    A desk-scale oracle: the F-block is solved densely, so inputs with more
    than ``DENSE_CAP`` fine points are rejected before any dense work.
    """
    _refuse_beyond_cap(split.fine_indices.size, "ideal interpolation's A_FF")
    a_ff, a_fc = (block.toarray() for block in _fine_blocks(a.mat, split))
    try:
        w = -scipy.linalg.solve(a_ff, a_fc, assume_a="sym")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise InterpolationError("A_FF is singular") from exc
    if not np.all(np.isfinite(w)):
        raise InterpolationError("A_FF is singular")
    return _assemble_cf(sp.csr_matrix(w), split, "ideal")


def _fine_blocks(m, split):
    """The F-row blocks (M_FF, M_FC) of a square CSR matrix."""
    m_f = m[split.fine_indices]
    return m_f[:, split.fine_indices], m_f[:, split.coarse_indices]


def _strong_reach(split, s, hops):
    """F x C pattern of the coarse points within ``hops`` (1 or 2) strong steps."""
    s_ff, s_fc = _fine_blocks(s.to_scipy(), split)
    return s_fc if hops == 1 else (s_fc + s_ff @ s_fc) != 0


def _jacobi_step(a_ff, a_fc, w0):
    """One Jacobi sweep on A_FF W = -A_FC from W0."""
    dinv = sp.diags(1.0 / a_ff.diagonal())
    return w0 + dinv @ (-a_fc - a_ff @ w0)


def _scale_rows(w, fine, allowed=None, v=None, drop=0.0):
    """Truncate the F rows of W to ``allowed`` and rescale them so W v_C = v_F.

    ``w`` and ``allowed`` are n_F x n_C; ``fine`` names each row's vertex in
    errors.  ``v`` is the prototype pair (v_F, v_C); without it every row
    gets unit sum.  Entries below ``drop`` times their row's largest
    magnitude are removed before scaling.  The first row left empty, or
    with W v_C = 0, raises InterpolationError.
    """
    w = sp.csr_matrix(w if allowed is None else w.multiply(allowed), copy=True)
    w.sum_duplicates()
    if drop:
        big = abs(w).max(axis=1).toarray().ravel()
        w.data[np.abs(w.data) < drop * np.repeat(big, np.diff(w.indptr))] = 0.0
    w.eliminate_zeros()
    v_f, v_c = (np.ones(w.shape[0]), np.ones(w.shape[1])) if v is None else v
    counts = np.diff(w.indptr)
    target = w @ v_c
    bad = np.flatnonzero((counts == 0) | (target == 0.0))
    if bad.size:
        i = fine[bad[0]]
        if counts[bad[0]] == 0:
            raise InterpolationError(f"fine row {i} has no strong coarse neighbor; re-coarsen")
        raise InterpolationError(f"fine row {i} cannot be rescaled: its truncated row "
                                 "gives W v_C = 0")
    w.data /= np.repeat(target / v_f, counts)
    return w


def direct_interpolation(a, split, s):
    """Strong C-neighbor averaging with unit row sums on F rows."""
    _, a_fc = _fine_blocks(a.mat, split)
    w = _scale_rows(a_fc, split.fine_indices, _strong_reach(split, s, 1))
    return _assemble_cf(w, split, "direct")


def standard_interpolation(a, split, s):
    """One Jacobi substitution step on top of direct interpolation.

    Starting from W1 = -D_FF^{-1} A_FC, strong F-F couplings are collapsed by
    a Jacobi iteration on A_FF W = -A_FC, the result is truncated to coarse
    points within strong distance two, and F rows are rescaled to unit sum.
    """
    a_ff, a_fc = _fine_blocks(a.mat, split)
    w = _jacobi_step(a_ff, a_fc, -sp.diags(1.0 / a_ff.diagonal()) @ a_fc)
    w = _scale_rows(w, split.fine_indices, _strong_reach(split, s, 2))
    return _assemble_cf(w, split, "standard")


def multipass_interpolation(a, split, s):
    """Interpolation for aggressive coarsening, one distance level at a time.

    F points adjacent to C interpolate directly; each farther level-set
    substitutes the already-built rows of its nearer strong neighbors,
    W_L = (A o S)[L, L-1] W_{L-1} with W_0 the identity on C, and rescales,
    so every F row keeps unit row sum.
    """
    dist = bfs_distance(s.graph, split.coarse_indices)
    if (dist < 0).any():
        bad = int(np.flatnonzero(dist < 0)[0])
        raise InterpolationError(f"vertex {bad} is unreachable from C in the strength graph")
    strong_a = a.mat.multiply(s.to_scipy())
    coarse, n_c = split.coarse_indices, split.n_coarse
    p = sp.csr_matrix((np.ones(n_c), (coarse, np.arange(n_c))), shape=(split.n, n_c))
    for level in range(1, int(dist.max(initial=0)) + 1):
        rows, prev = np.flatnonzero(dist == level), np.flatnonzero(dist == level - 1)
        w = _scale_rows(strong_a[rows][:, prev] @ p[prev], rows).tocoo()
        p = p + sp.csr_matrix((w.data, (rows[w.row], w.col)), shape=p.shape)
    return Prolongation(from_scipy(p), "multipass")


def _membership(labels, n_groups):
    """The n_groups x labels.size 0/1 matrix with row k the ascending indices i
    of ``labels == k``: the one statement of aggregate membership.  scipy's
    COO-to-CSR conversion is a counting sort that keeps input order within a
    row, so this is O(labels.size + n_groups)."""
    return sp.csr_matrix((np.ones(labels.size), (labels, np.arange(labels.size))),
                         shape=(n_groups, labels.size))


def ua_prolongation(partition, vectors=None):
    """Piecewise-constant (or per-aggregate multi-vector) prolongation.

    With k preserved vectors the coarse dofs are aggregate-major blocks of
    width k, and P (1 (x) e_j) reproduces vector j exactly.  Without vectors
    P is the transpose of the aggregate membership matrix.  Every aggregate
    block must have rank k; the ranks come from stacked SVDs of one aggregate
    size each, so the cost is linear in n for bounded aggregate sizes.
    """
    n = partition.n
    member = _membership(partition.labels, partition.n_aggregates)
    if vectors is None:
        return Prolongation(from_scipy(member.T), "ua")
    vectors = _columns(vectors)
    if vectors.shape[0] != n or not np.isfinite(vectors).all():
        raise ValueError(f"vectors must be {n} finite rows, one per vertex")
    k = vectors.shape[1]
    bad = []
    for pos, size in _stack_by_size(np.diff(member.indptr)):
        idx = member.indices[member.indptr[pos, None] + np.arange(size)]
        bad.extend(pos[np.linalg.matrix_rank(vectors[idx]) < k].tolist())
    if bad:
        raise InterpolationError(
            f"aggregate {min(bad)} is too small to carry {k} independent vectors")
    rows, cols = np.nonzero(vectors)
    mat = sp.coo_matrix((vectors[rows, cols], (rows, partition.labels[rows] * k + cols)),
                        shape=(n, partition.n_aggregates * k))
    return Prolongation(from_scipy(mat), "ua")


def sa_prolongation(p_tent, a, nu=1, omega=None):
    """Prolongation smoothing P_S = (I - omega D^{-1} A)^nu P.

    Kernel vectors of A carried by the tentative prolongation survive
    smoothing exactly.  Default omega is 4/(3 rho(D^{-1}A)).  A damping
    omega / a_ii that is not finite is refused by an InterpolationError that
    names it.  Within ``DENSE_CAP`` rows the column rank is checked.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if nu == 0:
        return p_tent
    if omega is None:
        omega = 4.0 / (3.0 * estimate_rho_dinv_a(a, steps=20))
    diag = a.diagonal()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        damping = omega / diag  # refused by name below when not finite
    if not np.isfinite(damping).all():
        i = int(np.flatnonzero(~np.isfinite(damping))[0])
        raise InterpolationError(f"SA damping omega / a_ii is not finite at row {i}: "
                                 f"omega = {omega:.3g}, a_ii = {diag[i]:.3g}")
    dinv = sp.diags(damping)
    mat = p_tent.matrix.mat
    for _ in range(nu):
        mat = mat - dinv @ (a.mat @ mat)
    out = Prolongation(from_scipy(mat), "sa")
    if out.n <= DENSE_CAP and not verify_full_rank(out):
        raise InterpolationError("smoothing lost column rank; reduce omega")
    return out


@dataclass(frozen=True)
class SupportSet:
    """Per coarse dof, the fine indices allowed in its column."""

    supports: tuple

    def validate(self, n):
        """Refuse supports that leave a vertex uncovered or have no private
        vertex, naming the lowest, with an InterpolationError: no coarse space.

        One pass over the concatenated supports: O(n + total support size).
        """
        indptr, flat = _index_lists(self.supports, n, "support")
        # a vertex repeated within one support counts once, as for a set
        incidence = sp.csr_matrix((np.ones(flat.size), flat, indptr), shape=(indptr.size - 1, n))
        incidence.sum_duplicates()
        counts = np.bincount(incidence.indices, minlength=n)
        if (counts == 0).any():
            missing = int(np.flatnonzero(counts == 0)[0])
            raise InterpolationError(f"supports do not cover vertex {missing}")
        # private vertices per support by prefix sums: reduceat misreads empty segments
        private = np.concatenate([[0], np.cumsum(counts[incidence.indices] == 1)])
        shared = np.flatnonzero(private[incidence.indptr[1:]] == private[incidence.indptr[:-1]])
        if shared.size:
            raise InterpolationError(
                f"support {int(shared[0])} is contained in the union of the others")


def supports_from_aggregates(partition, s):
    """Each aggregate extended by its strong neighbors; roots stay private.

    Support k is row k of ``member @ (S + I)`` (patterns only), with
    ``member`` the aggregate membership matrix: one sparse product, linear
    in n + nnz(S).
    """
    adj = s.to_scipy()
    pattern = sp.csr_matrix((np.ones(adj.indices.size), adj.indices, adj.indptr),
                            shape=adj.shape)
    closed = pattern + sp.identity(partition.n, format="csr")
    reach = _membership(partition.labels, partition.n_aggregates) @ closed
    reach.sort_indices()
    return SupportSet(tuple(_index_sets(reach.indptr, reach.indices.astype(np.int64))))


def energy_min_prolongation(a, supports, constraint=None, cg_tol=1e-10):
    """Trace-minimizing basis over prescribed supports.

    Minimizes sum_i phi_i' A phi_i subject to sum_i phi_i = constraint and
    supp(phi_i) inside support i.  Columns are phi_i = A_i^{-1} Q_i lambda
    where lambda solves B lambda = constraint with the additive operator
    B = sum_i I_i A_i^{-1} I_i' (a ``SubspaceCorrection`` over the supports),
    solved matrix-free by conjugate gradients.  P is assembled sparse from
    the local solves.
    """
    n = a.n_rows
    supports.validate(n)
    constraint = np.ones(n) if constraint is None else np.asarray(constraint, dtype=float)
    try:
        b = SubspaceCorrection(a, supports.supports)
    except SingularSmootherError as exc:  # subspace k is support k
        raise InterpolationError(str(exc).replace("subspace", "support")) from exc

    from .hierarchy import pcg_solve

    op = spla.LinearOperator((n, n), matvec=b.action, dtype=float)
    lam, report = pcg_solve(op, constraint, tol=cg_tol, max_it=10 * n)
    if not report.converged:
        raise CGConvergenceError("conjugate gradients stagnated on the additive operator")
    # column i holds support i's local solve: the subspaces' CSR layout is P's CSC
    vals = np.concatenate([y for _, y in b.local_solves(lam)])
    mat = sp.csc_matrix((vals, b.flat, b.ptr), shape=(n, b.ptr.size - 1))
    defect = np.abs(np.asarray(mat.sum(axis=1)).ravel() - constraint).max()
    if defect > 1e-8 * max(1.0, np.abs(constraint).max()):
        raise CGConvergenceError(f"partition-of-unity defect {defect:.2e}")
    return Prolongation(from_scipy(mat), "energymin")


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
    a_ff, a_fc = _fine_blocks(a.mat, split)
    d_v = (a_fc @ v_c) / v_f
    if np.any(d_v == 0.0):
        bad = int(fine[np.flatnonzero(d_v == 0.0)[0]])
        raise InterpolationError(f"fine row {bad} has no usable coarse coupling")
    w = _jacobi_step(a_ff, a_fc, sp.diags(1.0 / d_v) @ a_fc)
    w = _scale_rows(w, fine, _strong_reach(split, s, 2), (v_f, v_c), drop=1e-3)
    return _assemble_cf(w, split, "vector_preserving")


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
    if labels.size != assembly.verts.shape[0]:
        raise ValueError("element_labels must assign every element to an agglomerate")
    n_agg, n = int(labels.max()) + 1, assembly.n_vertices
    global_diag = assembly.assemble().diagonal()  # range-checks the vertices first
    empty = np.flatnonzero(np.bincount(labels, minlength=n_agg) == 0)
    if empty.size:
        raise ValueError(f"agglomerate {empty[0]} owns no elements")
    # agglomerate j's vertices, ascending: row j of (agglomerate x element) @
    # (element x vertex) incidence, one sparse product in O(n + elements)
    k = assembly.verts.shape[1]
    incidence = sp.csr_matrix((np.ones(assembly.verts.size), assembly.verts.ravel(),
                               np.arange(labels.size + 1) * k), shape=(labels.size, n))
    reach = _membership(labels, n_agg) @ incidence
    reach.sort_indices()
    members = _index_sets(reach.indptr, reach.indices.astype(np.int64))
    pos = [dict((int(v), k) for k, v in enumerate(m)) for m in members]
    local_mats = [np.zeros((m.size, m.size)) for m in members]
    for owner, verts, block in zip(labels, assembly.verts, assembly.blocks):
        loc = [pos[owner][int(v)] for v in verts]
        local_mats[owner][np.ix_(loc, loc)] += block
    pou_sum = np.zeros(n)
    cols = []  # per agglomerate, its m_per columns restricted to its vertices
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
        cols.append(pou[:, None] * vecs[:, :m_per])
    if np.abs(pou_sum - 1.0).max() > 1e-12:
        raise ValueError("partition-of-unity weights do not sum to one; "
                         "assembly and agglomerates are inconsistent")
    blocks = sp.block_diag(cols).tocoo()  # rows follow the concatenated members
    mat = sp.coo_matrix((blocks.data, (reach.indices[blocks.row], blocks.col)),
                        shape=(n, n_agg * m_per))
    return Prolongation(from_scipy(mat), "spectral_amge")
