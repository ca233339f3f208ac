"""Bootstrap and adaptive setup: discovering the near-null space on the fly.

The entry point is ``bootstrap_setup``: relax random test vectors, coarsen,
fit a prolongation to the relaxed vectors by least-squares row fitting (a
vectorized QR per pattern width, an SVD only near rank deficiency),
recurse, then self-assess the resulting V-cycle and enrich the test vectors
with multigrid eigensolver output until the measured contraction passes the
target.  Rounds that fail to improve are flagged and never replace the
accepted state, so the measured contraction is monotone.

Adaptive smoothed aggregation (aSA) is the second entry: ``asa_initial_state``
builds levels over fixed aggregates whose prolongation columns are the test
vectors restricted to each aggregate, and ``asa_add_vector`` widens a
one-partition state by one more test vector.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import coarsening, hierarchy as hmod, interpolation, sparse, strength
# perfbench/tracer.py patches SymPseudoInverse in this module by name, so it stays bound.
from .linalg import (SymPseudoInverse, _columns, _index_lists,  # noqa: F401
                     _refuse_beyond_cap, _stack_by_size)
from .smoothers import _check_smoother, make_smoother

_COND_HANDOFF = 1e8  # a QR fit whose ||R||_F ||R^-1||_F reaches this is refitted by SVD


@dataclass
class AdaptiveState:
    hierarchy: object
    test_vectors: list  # n x m block of test vectors per level, finest first
    delta: float
    delta_history: list = field(default_factory=list)
    rounds: int = 0
    flags: list = field(default_factory=list)
    smoother: str = hmod.SetupConfig.smoother
    q: int = 4


def _fit_sequences(pattern, candidate_order, n, n_c, s_max):
    """Each row's allowed sequence, its pattern then its candidates not in the
    pattern, as an (n, width) array padded with 0; and each row's start and
    final widths, len(pattern[i]) and max(that, min(s_max, len(sequence)))."""
    order = [()] * n if candidate_order is None else candidate_order
    csr = []
    for rows, what in ((pattern, "pattern"), (order, "candidate_order")):
        if len(rows) != n:
            raise ValueError(f"{what} has {len(rows)} rows, not one per fine row ({n}): row "
                             f"{min(len(rows), n)} is {'extra' if len(rows) > n else 'missing'}")
        csr.append(_index_lists(rows, n_c, what + " row"))
    (p_ptr, p_flat), (o_ptr, o_flat) = csr
    p_len, o_len = np.diff(p_ptr), np.diff(o_ptr)
    p_row, o_row = np.repeat(np.arange(n), p_len), np.repeat(np.arange(n), o_len)
    # (row, index) keys of the pattern, sorted, ending in a key above them all
    taken, key = np.append(np.sort(p_row * n_c + p_flat), n * n_c), o_row * n_c + o_flat
    new = taken[np.searchsorted(taken, key)] != key
    c_row, c_flat = o_row[new], o_flat[new]
    c_len = np.bincount(c_row, minlength=n)
    width = np.maximum(p_len, np.minimum(s_max, p_len + c_len))
    seq = np.zeros((n, width.max(initial=0)), dtype=np.int64)
    seq[p_row, _within_row(p_len)] = p_flat
    c_pos = p_len[c_row] + _within_row(c_len)
    keep = c_pos < width[c_row]
    seq[c_row[keep], c_pos[keep]] = c_flat[keep]
    return seq, p_len, width


def _within_row(lens):
    """Each flat entry's position within its row, for rows of ``lens`` entries."""
    return np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)


def _svd_fit(cols, rhs):
    """Minimal-norm fits over a (g, k, m) stack of basis columns by one stacked
    SVD with lstsq's rank cutoff; returns the (g, k) coefficients and the
    rank-deficient count."""
    basis = cols.transpose(0, 2, 1)  # g x m x k
    u, s, vt = np.linalg.svd(basis, full_matrices=False)
    keep = s > np.finfo(float).eps * max(basis.shape[1:]) * s[:, :1]
    coef = np.where(keep, np.einsum("gmr,gm->gr", u, rhs) / np.where(keep, s, 1.0), 0.0)
    return np.einsum("grk,gr->gk", vt, coef), int((keep.sum(axis=1) < basis.shape[2]).sum())


def _qr_fit(cols, rhs):
    """Least-squares fits over a (g, k, m) stack of basis columns, k <= m, by
    CGS2 QR and back substitution; returns the (g, k) coefficients and a mask
    of the rows whose R has a zero diagonal or ||R||_F ||R^-1||_F >= _COND_HANDOFF."""
    g, k, _ = cols.shape
    q, r = np.empty_like(cols), np.zeros((g, k, k))
    for j in range(k):
        v = cols[:, j].copy()
        for _ in range(2):  # classical Gram-Schmidt, twice
            c = np.einsum("gim,gm->gi", q[:, :j], v)
            v -= np.einsum("gim,gi->gm", q[:, :j], c)
            r[:, :j, j] += c
        r[:, j, j] = np.sqrt(np.einsum("gm,gm->g", v, v))
        q[:, j] = v / np.where(r[:, j, j] > 0.0, r[:, j, j], 1.0)[:, None]
    diag = np.diagonal(r, axis1=1, axis2=2)
    pivot = np.where(diag > 0.0, diag, 1.0)
    # solve R [p | X] = [Q^T psi | I]: X = R^-1 gives the condition bound
    sol = np.zeros((g, k, k + 1))
    sol[:, :, 0] = np.einsum("gkm,gm->gk", q, rhs)
    sol[:, range(k), range(1, k + 1)] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(k - 1, -1, -1):
            sol[:, j] -= np.einsum("gl,glc->gc", r[:, j, j + 1:], sol[:, j + 1:])
            sol[:, j] /= pivot[:, j, None]
        inv = sol[:, :, 1:]
        bound = np.sqrt(np.einsum("gij,gij->g", r, r) * np.einsum("gij,gij->g", inv, inv))
    return sol[:, :, 0], (diag == 0.0).any(axis=1) | ~(bound < _COND_HANDOFF)


def _fit(cols, rhs):
    """Row fits over a (g, k, m) stack of basis columns: the QR fit, and the
    stacked SVD where k = 0, k > m or R is near rank deficiency; returns the
    (g, k) coefficients and the rank-deficient count."""
    _, k, m = cols.shape
    if k == 0 or k > m:
        return _svd_fit(cols, rhs)
    p, hard = _qr_fit(cols, rhs)
    if not hard.any():
        return p, 0
    p[hard], deficient = _svd_fit(cols[hard], rhs[hard])
    return p, deficient


def ls_fit_prolongation(psi_fine, psi_coarse, pattern, s_max=8, eps_fit=1e-3,
                        candidate_order=None):
    """Row-by-row least-squares fit of P to the test vectors.

    ``pattern[i]`` lists the coarse indices fine row i starts from.  Each
    fine row solves min ||Psi_c^T p - psi_row|| over its allowed coarse
    indices; while the residual exceeds ``eps_fit`` and the row holds fewer
    than ``s_max`` entries, the pattern grows along ``candidate_order``
    (nearest coarse dofs first).  Exact zeros are dropped at the end.

    The rows of one pattern width are fitted by one vectorized CGS2 QR per
    stack of ``linalg._stack_by_size``.  A row goes to a stacked SVD with
    ``lstsq``'s default rank cutoff instead when its width is 0 or exceeds
    the number of test vectors, or its R has a zero diagonal entry or
    ||R||_F ||R^-1||_F >= 1e8.  Below that bound sigma_min / sigma_max >
    1e-8, far above the cutoff, so no QR row is one ``lstsq`` would call
    rank deficient.  Rank-deficient fits fall back to the minimal-norm
    solution and are flagged with a warning.  A ``pattern`` or
    ``candidate_order`` without one row per fine row, or with an index
    outside [0, n_c) (``linalg._index_lists``), is refused by a
    ``ValueError`` that names the first bad row.
    """
    psi_fine, psi_coarse = _columns(psi_fine), _columns(psi_coarse)
    if psi_fine.shape[1] != psi_coarse.shape[1]:
        raise ValueError("fine and coarse test-vector counts differ")
    n, n_c = psi_fine.shape[0], psi_coarse.shape[0]
    seq, width, cap = _fit_sequences(pattern, candidate_order, n, n_c, s_max)
    deficient, active, done = 0, np.arange(n), []
    while active.size:
        grow = []
        for pos, k in _stack_by_size(width[active]):
            fit_rows = active[pos]
            idx, rhs = seq[fit_rows, :k], psi_fine[fit_rows]
            basis = psi_coarse[idx]  # g x k x m: each row's basis vectors
            p, rank_short = _fit(basis, rhs)
            deficient += rank_short
            resid = np.linalg.norm(np.einsum("gkm,gk->gm", basis, p) - rhs, axis=1)
            more = ~(resid <= eps_fit) & (k < cap[fit_rows])
            grow.append(fit_rows[more])
            done.append((np.repeat(fit_rows[~more], k), idx[~more], p[~more]))
        active = np.concatenate(grow)
        width[active] += 1
    if deficient:
        warnings.warn(f"{deficient} rank-deficient row fits solved in the "
                      "minimal-norm sense", stacklevel=2)
    rows, cols, vals = (np.concatenate(part, axis=None) for part in zip(*done or [((),) * 3]))
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n_c))
    return interpolation.Prolongation(sparse.from_scipy(mat), "bootstrap_ls")


def _block_delta(a, before, after):
    """max_i ||after_i||_A / ||before_i||_A (the q-sweep contraction)."""
    num = np.einsum("ij,ij->j", after, (a.mat @ after))
    den = np.einsum("ij,ij->j", before, (a.mat @ before))
    den = np.maximum(den, 1e-300)
    return float(np.sqrt(np.max(np.maximum(num, 0.0) / den)))


def _restrict_bamg(part, psi):
    """Coarse dof evaluations: aggregate averages of each test vector."""
    return (interpolation._membership(part.labels, part.n_aggregates) @ psi) / part.sizes()[:, None]


def _restrict_asa(part, psi):
    """Block coordinates: vector j maps to (1 (x) e_j) over aggregate blocks."""
    return np.tile(np.eye(psi.shape[1]), (part.n_aggregates, 1))


def _first_per_row(ptr, vals, n_vals):
    """Each CSR row's values (in [0, n_vals)) in first-occurrence order, as (ptr, vals)."""
    rows = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
    first = np.unique(rows * n_vals + vals, return_index=True)[1]
    first.sort()
    return np.searchsorted(first, ptr), vals[first]


def _aggregate_candidates(part, s):
    """Per vertex, the aggregate ids within graph distance 2, nearest first:
    its own, its neighbors', then its neighbors' neighbors', first occurrences."""
    n, ptr, nbr = part.n, s.graph.indptr, s.graph.indices
    # closed neighborhoods, each vertex first, and their first labels
    cptr = ptr + np.arange(n + 1)
    closed = np.insert(nbr, ptr[:-1], np.arange(n, dtype=nbr.dtype))
    near_ptr, near = _first_per_row(cptr, part.labels[closed], part.n_aggregates)
    # vertex v walks the first labels of each u in its closed neighborhood
    lens = np.diff(near_ptr)[closed]
    at = np.cumsum(lens) - lens  # where each closed entry's labels start in the walk
    walk = near[np.repeat(near_ptr[closed] - at, lens) + np.arange(lens.sum())]
    cut, flat = _first_per_row(np.append(at, lens.sum())[cptr], walk, part.n_aggregates)
    flat, cut = flat.tolist(), cut.tolist()
    return [flat[i:j] for i, j in zip(cut, cut[1:])]


def _descend(a, psi, smoother_kind, q, n0, delta0, theta):
    """Steps 1-2 of the adaptive loop: build at most ``SetupConfig.max_levels``
    levels and their test vectors."""
    vectors = [psi]

    def step(level, a):
        if a.n_rows <= n0:
            return None
        hmod._refuse_coarse_line_gs(smoother_kind, level)
        smoother = make_smoother(a, smoother_kind)
        psi = vectors[-1] = smoother.apply(np.zeros_like(vectors[-1]), vectors[-1], q)
        # stop test on the post-transient factor: one extra sweep on the
        # already-relaxed block, so random-start transients cannot end the
        # descent prematurely
        probe = smoother.apply(np.zeros_like(psi), psi, 1)
        if _block_delta(a, psi, probe) <= delta0:
            return None
        s = strength.strength_matrix(a, strength.StrengthConfig(theta=theta))
        part = coarsening.greedy_aggregate(s)
        if part.n_aggregates >= hmod._STAGNATION * a.n_rows:
            return None
        vectors.append(_restrict_bamg(part, psi))
        p = ls_fit_prolongation(psi, vectors[-1], part.labels[:, None], s_max=4, eps_fit=1e-8,
                                candidate_order=_aggregate_candidates(part, s))
        return p, smoother, s, part

    return hmod._build(a, step, hmod.SetupConfig.max_levels), vectors


def _cycle_delta(a, h, psi, q):
    """Contraction of q V-cycle error propagations over the test block."""
    after = psi
    for _ in range(q):
        after = after - hmod.vcycle_apply(h, a.mat @ after)
    return _block_delta(a, psi, after), after


def bootstrap_setup(a, smoother=hmod.SetupConfig.smoother, m0=8, q=AdaptiveState.q,
                    n0=hmod.SetupConfig.n0, delta0=0.7, max_rounds=3, restrict="bamg",
                    seed=hmod.SetupConfig.seed, theta=hmod.SetupConfig.theta):
    """Adaptive setup loop; returns (accepted hierarchy, AdaptiveState).

    Rounds beyond the first enrich the test vectors with the lowest
    multigrid-eigensolver mode and rebuild; a rebuild is accepted only when
    it does not worsen the measured contraction.  Prolongations are always
    least-squares fits (``restrict="bamg"``, the only accepted value); for
    per-aggregate block prolongations use ``asa_initial_state``.
    """
    if restrict != "bamg":
        raise ValueError(f"unknown restrict mode {restrict!r}: bootstrap_setup "
                         "only fits by least squares ('bamg'); use "
                         "asa_initial_state for per-aggregate blocks")
    _check_smoother(smoother)
    rng = np.random.default_rng(seed)
    psi = rng.uniform(-1.0, 1.0, size=(a.n_rows, m0))
    h, vectors = _descend(a, psi, smoother, q, n0, delta0, theta)
    if h.n_levels == 1:
        return h, AdaptiveState(h, vectors, 0.0, [0.0], smoother=smoother, q=q)
    delta, relaxed = _cycle_delta(a, h, vectors[0], q)
    state = AdaptiveState(h, vectors, delta, [delta], smoother=smoother, q=q)
    for round_no in range(1, max_rounds + 1):
        if state.delta <= delta0:
            break
        lam, phi = mge_eigensolve(state.hierarchy, l_e=1, relax_sweeps=q)
        enriched = np.column_stack([relaxed, phi[:, 0]])
        cand_h, cand_vecs = _descend(a, enriched, smoother, q, n0, delta0, theta)
        cand_delta, cand_relaxed = _cycle_delta(a, cand_h, cand_vecs[0], q)
        state.rounds = round_no
        if cand_delta <= state.delta:
            state.hierarchy = cand_h
            state.test_vectors = cand_vecs
            state.delta = cand_delta
            relaxed = cand_relaxed
        else:
            state.flags.append(f"round {round_no} rejected: "
                               f"{cand_delta:.3f} > {state.delta:.3f}")
        state.delta_history.append(state.delta)
    return state.hierarchy, state


def mge_eigensolve(h, l_e, relax_sweeps=2):
    """Multigrid eigensolver: coarsest dense solve, then lift and refine.

    Level mass matrices are Gram matrices of the composite prolongations.
    Ascending one level: lift with P, keep the previous eigenvalue as shift,
    relax on (A - shift M) w = 0 with Jacobi damped by 0.5, then update the
    Rayleigh quotient (A phi, phi) / (M phi, phi).  A coarsest level beyond
    ``DENSE_CAP`` unknowns is refused before any dense work."""
    _refuse_beyond_cap(h.levels[-1].a.n_rows, "mge_eigensolve's coarsest pencil")
    mass = [sp.identity(h.levels[0].a.n_rows, format="csr")]
    comp = None
    for lvl in h.levels[:-1]:
        pm = lvl.p.matrix.mat
        comp = pm if comp is None else comp @ pm
        mass.append((comp.T @ comp).tocsr())
    coarsest = h.levels[-1].a
    if l_e > coarsest.n_rows:
        raise ValueError(f"l_e={l_e} exceeds the coarsest size {coarsest.n_rows}")
    m_dense = mass[-1].toarray()
    lam_all, phi_all = scipy.linalg.eigh(coarsest.toarray(), m_dense)
    lam = lam_all[:l_e].copy()
    phi = phi_all[:, :l_e].copy()
    for level in range(h.n_levels - 2, -1, -1):
        pm = h.levels[level].p.matrix.mat
        a_l = h.levels[level].a.mat
        m_l = mass[level]
        lifted = pm @ phi
        new_phi = np.empty((a_l.shape[0], l_e))
        for k in range(l_e):
            shift = lam[k]
            v = lifted[:, k]
            c_diag = a_l.diagonal() - shift * m_l.diagonal()
            c_diag = np.where(np.abs(c_diag) > 1e-12, c_diag, 1.0)
            for _ in range(relax_sweeps):
                v = v - 0.5 * (a_l @ v - shift * (m_l @ v)) / c_diag
                # deflate the already-updated lower pairs in the M inner
                # product, else every vector drifts to the lowest mode
                for kk in range(k):
                    w = new_phi[:, kk]
                    v = v - (float(v @ (m_l @ w)) / float(w @ (m_l @ w))) * w
            denom = float(v @ (m_l @ v))
            lam[k] = float(v @ (a_l @ v)) / max(denom, 1e-300)
            new_phi[:, k] = v
        phi = new_phi
    return lam, phi


def _asa_hierarchy(a, partitions, psi, smoother):
    """aSA levels over fixed aggregates, one level per partition plus the
    coarsest: each P holds the level's test vectors restricted to each
    aggregate, and the next level's test vectors are their block coordinates.
    Returns (hierarchy, test vectors per level).
    """
    vectors = [psi.copy()]

    def step(level, a):
        part = partitions[level]
        p = interpolation.ua_prolongation(part, vectors[-1])
        vectors.append(_restrict_asa(part, vectors[-1]))
        return p, make_smoother(a, smoother), None, part

    return hmod._build(a, step, len(partitions) + 1), vectors


def asa_add_vector(state, psi):
    """Append a test vector to a one-partition aSA state and rebuild it.

    When ``ua_prolongation`` finds an aggregate whose widened block is rank
    deficient (the coarse basis would not widen), the column is rejected:
    the returned state is the old one, flagged "vector rejected" with the
    reason.  A state with more partitions is refused: its coarser partitions
    split the old coarse dofs, not the widened ones.
    """
    levels = state.hierarchy.levels
    if levels[0].p is None or levels[0].p.builder != "ua":
        raise ValueError("asa_add_vector needs a state from asa_initial_state")
    if len(levels) != 2:
        raise ValueError(f"asa_add_vector needs a state with one partition, "
                         f"got {len(levels) - 1} partitions")
    a = levels[0].a
    psi = np.asarray(psi, dtype=float)
    psi_block = np.column_stack([state.test_vectors[0], psi])
    try:
        h, vectors = _asa_hierarchy(a, [levels[0].coarsening], psi_block, state.smoother)
    except interpolation.InterpolationError as exc:
        return replace(state, delta_history=list(state.delta_history),
                       flags=state.flags + [f"vector rejected: {exc}"])
    measured, _ = _cycle_delta(a, h, psi[:, None], state.q)
    return replace(state, hierarchy=h, test_vectors=vectors, delta=measured,
                   delta_history=state.delta_history + [measured],
                   flags=list(state.flags))


def asa_initial_state(a, partitions, psi0):
    """Seed an aggregation-based adaptive state from fixed per-level aggregates,
    smoothed and measured (over q V-cycles) at ``AdaptiveState``'s defaults."""
    psi0 = _columns(psi0)
    h, vectors = _asa_hierarchy(a, partitions, psi0, AdaptiveState.smoother)
    delta, _ = _cycle_delta(a, h, psi0, AdaptiveState.q)
    return AdaptiveState(h, vectors, delta, [delta])
