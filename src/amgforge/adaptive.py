"""Bootstrap and adaptive setup: discovering the near-null space on the fly.

The entry point is ``bootstrap_setup``: relax random test vectors, coarsen,
fit a prolongation to the relaxed vectors (least-squares row fitting or
per-aggregate blocks), recurse, then self-assess the resulting V-cycle and
enrich the test vectors with multigrid eigensolver output until the measured
contraction passes the target.  Rounds that fail to improve are flagged and
never replace the accepted state, so the measured contraction is monotone.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import coarsening, hierarchy as hmod, interpolation, sparse, strength
# Unused since Hierarchy.from_levels factors; perfbench/tracer.py patches this name.
from .linalg import SymPseudoInverse  # noqa: F401
from .smoothers import make_smoother


@dataclass
class TestVectorSet:
    psi: np.ndarray  # n x m block of test vectors
    history: list = field(default_factory=list)

    @property
    def count(self):
        return self.psi.shape[1]


@dataclass
class AdaptiveState:
    hierarchy: object
    test_vectors: list  # TestVectorSet per level, finest first
    aggregates: list  # AggregatePartition per level transition
    delta: float
    delta_history: list = field(default_factory=list)
    rounds: int = 0
    flags: list = field(default_factory=list)
    smoother: str = "gs"
    q: int = 4
    seed: int = 0
    restrict: str = "bamg"


def row_pattern_from_supports(supports, n):
    """Transpose a per-coarse-dof SupportSet into per-fine-row coarse lists."""
    rows = [[] for _ in range(n)]
    for col, idx in enumerate(supports.supports):
        for v in np.asarray(idx, dtype=np.int64):
            rows[int(v)].append(col)
    return [sorted(r) for r in rows]


def ls_fit_prolongation(psi_fine, psi_coarse, pattern, s_max=8, eps_fit=1e-3,
                        eps_p=0.0, candidate_order=None, builder="ls_fit"):
    """Row-by-row least-squares fit of P to the test vectors.

    Each fine row solves min ||Psi_c^T p - psi_row|| over its allowed coarse
    indices; while the residual exceeds ``eps_fit`` and the row holds fewer
    than ``s_max`` entries, the pattern grows along ``candidate_order``
    (nearest coarse dofs first).  Entries of magnitude <= ``eps_p`` are
    dropped at the end.  Rank-deficient local problems fall back to the
    minimal-norm solution and are flagged with a warning.
    """
    psi_fine = np.atleast_2d(np.asarray(psi_fine, dtype=float).T).T
    psi_coarse = np.atleast_2d(np.asarray(psi_coarse, dtype=float).T).T
    if psi_fine.shape[1] != psi_coarse.shape[1]:
        raise ValueError("fine and coarse test-vector counts differ")
    if isinstance(pattern, interpolation.SupportSet):
        pattern = row_pattern_from_supports(pattern, psi_fine.shape[0])
    n = psi_fine.shape[0]
    n_c = psi_coarse.shape[0]
    deficient = 0
    rows, cols, vals = [], [], []
    for i in range(n):
        allowed = list(pattern[i])
        extra = [c for c in (candidate_order[i] if candidate_order else [])
                 if c not in allowed]
        while True:
            basis = psi_coarse[allowed, :].T  # m x |allowed|
            p_row, _, rank, _ = np.linalg.lstsq(basis, psi_fine[i], rcond=None)
            resid = np.linalg.norm(basis @ p_row - psi_fine[i])
            if rank < len(allowed):
                deficient += 1
            if resid <= eps_fit or len(allowed) >= s_max or not extra:
                break
            allowed.append(extra.pop(0))
        for c, w in zip(allowed, p_row):
            if abs(w) > eps_p:
                rows.append(i)
                cols.append(c)
                vals.append(w)
    if deficient:
        warnings.warn(f"{deficient} rank-deficient row fits solved in the "
                      "minimal-norm sense", stacklevel=2)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n_c))
    return interpolation.Prolongation(sparse.from_scipy(mat), builder)


def _relax_block(a, smoother, psi, sweeps):
    out = psi.copy()
    zero = np.zeros(a.n_rows)
    for k in range(out.shape[1]):
        out[:, k] = smoother.apply(zero, out[:, k], sweeps=sweeps)
    return out


def _block_delta(a, before, after):
    """max_i ||after_i||_A / ||before_i||_A (the q-sweep contraction)."""
    num = np.einsum("ij,ij->j", after, (a.mat @ after))
    den = np.einsum("ij,ij->j", before, (a.mat @ before))
    den = np.maximum(den, 1e-300)
    return float(np.sqrt(np.max(np.maximum(num, 0.0) / den)))


def _restrict_bamg(part, psi):
    """Coarse dof evaluations: aggregate averages of each test vector."""
    n_agg = part.n_aggregates
    out = np.zeros((n_agg, psi.shape[1]))
    counts = np.bincount(part.labels, minlength=n_agg).astype(float)
    for j in range(psi.shape[1]):
        sums = np.bincount(part.labels, weights=psi[:, j], minlength=n_agg)
        out[:, j] = sums / counts
    return out


def _restrict_asa(part, psi):
    """Block coordinates: vector j maps to (1 (x) e_j) over aggregate blocks."""
    m = psi.shape[1]
    out = np.zeros((part.n_aggregates * m, m))
    for j in range(m):
        out[j::m, j] = 1.0
    return out


def _aggregate_candidates(part, s, depth=2):
    """Per vertex, nearby aggregate ids ordered by graph distance."""
    n = part.n
    adj = s.to_scipy()
    order = []
    for v in range(n):
        seen = {int(part.labels[v])}
        ordered = [int(part.labels[v])]
        frontier = [v]
        for _ in range(depth):
            nxt = []
            for u in frontier:
                for w in adj[u].indices:
                    lab = int(part.labels[w])
                    if lab not in seen:
                        seen.add(lab)
                        ordered.append(lab)
                    nxt.append(int(w))
            frontier = nxt
        order.append(ordered)
    return order


def _descend(a, psi, smoother_kind, q, n0, delta0, restrict, theta, max_levels=25):
    """Steps 1-2 of the adaptive loop: build levels and coarse test vectors."""
    levels, parts, vectors = [], [], []
    current, cur_psi = a, psi
    while True:
        smoother = make_smoother(current, smoother_kind)
        vectors.append(TestVectorSet(cur_psi.copy()))
        if current.n_rows <= n0 or len(levels) >= max_levels - 1:
            levels.append(hmod.Level(current))
            break
        relaxed = _relax_block(current, smoother, cur_psi, q)
        delta = _block_delta(current, cur_psi, relaxed)
        vectors[-1].history.append(delta)
        cur_psi = relaxed
        vectors[-1].psi = relaxed.copy()
        # stop test on the post-transient factor: one extra sweep on the
        # already-relaxed block, so random-start transients cannot end the
        # descent prematurely
        probe = _relax_block(current, smoother, relaxed, 1)
        if _block_delta(current, relaxed, probe) <= delta0:
            levels.append(hmod.Level(current))
            break
        s = strength.strength_matrix(current, strength.StrengthConfig(theta=theta))
        part = coarsening.greedy_aggregate(s)
        if part.n_aggregates >= 0.95 * current.n_rows:
            levels.append(hmod.Level(current))
            break
        if restrict == "bamg":
            psi_c = _restrict_bamg(part, cur_psi)
            pattern = [[int(part.labels[v])] for v in range(current.n_rows)]
            order = _aggregate_candidates(part, s)
            p = ls_fit_prolongation(cur_psi, psi_c, pattern, s_max=4,
                                    eps_fit=1e-8, candidate_order=order,
                                    builder="bootstrap_ls")
        elif restrict == "asa":
            psi_c = _restrict_asa(part, cur_psi)
            p = interpolation.ua_prolongation(part, cur_psi)
        else:
            raise ValueError(f"unknown restrict mode {restrict!r}")
        levels.append(hmod.Level(current, p, smoother, smoother.adjoint(), s, part))
        parts.append(part)
        current = sparse.galerkin_product(p.matrix, current)
        cur_psi = psi_c
    return hmod.Hierarchy.from_levels(levels), vectors, parts


def _cycle_delta(a, h, psi, q):
    """Contraction of q V-cycle error propagations over the test block."""
    after = psi.copy()
    for k in range(after.shape[1]):
        v = after[:, k]
        for _ in range(q):
            v = v - hmod.vcycle_apply(h, a.mat @ v)
        after[:, k] = v
    return _block_delta(a, psi, after), after


def bootstrap_setup(a, smoother="gs", m0=8, q=4, n0=50, delta0=0.7,
                    max_rounds=3, restrict="bamg", seed=0, theta=0.25):
    """Adaptive setup loop; returns (accepted hierarchy, AdaptiveState).

    Rounds beyond the first enrich the test vectors with the lowest
    multigrid-eigensolver mode and rebuild; a rebuild is accepted only when
    it does not worsen the measured contraction.
    """
    rng = np.random.default_rng(seed)
    psi = rng.uniform(-1.0, 1.0, size=(a.n_rows, m0))
    h, vectors, parts = _descend(a, psi, smoother, q, n0, delta0, restrict, theta)
    if h.n_levels == 1:
        state = AdaptiveState(h, vectors, parts, 0.0, [0.0], 0, [],
                              smoother, q, seed, restrict)
        return h, state
    delta, relaxed = _cycle_delta(a, h, vectors[0].psi, q)
    state = AdaptiveState(h, vectors, parts, delta, [delta], 0, [],
                          smoother, q, seed, restrict)
    for round_no in range(1, max_rounds + 1):
        if state.delta <= delta0:
            break
        lam, phi = mge_eigensolve(state.hierarchy, l_e=1, relax_sweeps=q)
        enriched = np.column_stack([relaxed, phi[:, 0]])
        cand_h, cand_vecs, cand_parts = _descend(
            a, enriched, smoother, q, n0, delta0, restrict, theta)
        cand_delta, cand_relaxed = _cycle_delta(a, cand_h, cand_vecs[0].psi, q)
        state.rounds = round_no
        if cand_delta <= state.delta:
            state.hierarchy = cand_h
            state.test_vectors = cand_vecs
            state.aggregates = cand_parts
            state.delta = cand_delta
            relaxed = cand_relaxed
        else:
            state.flags.append(f"round {round_no} rejected: "
                               f"{cand_delta:.3f} > {state.delta:.3f}")
        state.delta_history.append(state.delta)
    return state.hierarchy, state


def mge_eigensolve(h, l_e, relax_sweeps=2, omega=0.5):
    """Multigrid eigensolver: coarsest dense solve, then lift and refine.

    Level mass matrices are Gram matrices of the composite prolongations.
    Ascending one level: lift with P, keep the previous eigenvalue as shift,
    relax on (A - shift M) w = 0 with damped Jacobi, then update the
    Rayleigh quotient (A phi, phi) / (M phi, phi).
    """
    if h.n_levels < 1:
        raise ValueError("empty hierarchy")
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
                v = v - omega * (a_l @ v - shift * (m_l @ v)) / c_diag
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


def asa_add_vector(state, psi, delta=0.7):
    """Append a test vector to an aggregation state and rebuild level by level.

    Per-aggregate rank deficiency after the append rejects the column (the
    coarse basis would not widen); otherwise prolongations are rebuilt with
    the widened blocks one level at a time.  After each rebuilt level a
    bridge prolongation (fitting all but the newest column) reconnects the
    not-yet-rebuilt tail, giving a testable cycle; the rebuild stops early
    once the measured factor on the new vector passes ``delta``.
    """
    if state.restrict != "asa":
        raise ValueError("asa_add_vector needs a state built with restrict='asa'")
    a = state.hierarchy.levels[0].a
    psi = np.asarray(psi, dtype=float)
    psi_block = np.column_stack([state.test_vectors[0].psi, psi])
    m = psi_block.shape[1]
    finest_part = state.aggregates[0]
    for agg in range(finest_part.n_aggregates):
        block = psi_block[finest_part.members(agg)]
        if np.linalg.matrix_rank(block, tol=1e-10) < m:
            new_state = _copy_state(state)
            new_state.flags.append(
                f"vector rejected: aggregate {agg} rank-deficient after append")
            return new_state

    levels, vectors = [], []
    current, cur_psi = a, psi_block
    h = state.hierarchy
    measured = state.delta
    for depth, part in enumerate(state.aggregates):
        vectors.append(TestVectorSet(cur_psi.copy()))
        p = interpolation.ua_prolongation(part, cur_psi)
        pre = make_smoother(current, state.smoother)
        levels.append(hmod.Level(current, p, pre, pre.adjoint(), None, part))
        current = sparse.galerkin_product(p.matrix, current)
        cur_psi = _restrict_asa(part, cur_psi)
        if depth + 1 < len(state.aggregates):
            # bridge: connect the widened level to the old tail by fitting
            # all but the newest column, then test the cycle on psi
            bridge_p = interpolation.ua_prolongation(
                state.aggregates[depth + 1], cur_psi[:, :-1])
            bridged = levels.copy()
            pre_b = make_smoother(current, state.smoother)
            bridged.append(hmod.Level(current, bridge_p, pre_b, pre_b.adjoint(),
                                      None, state.aggregates[depth + 1]))
            tail_a = sparse.galerkin_product(bridge_p.matrix, current)
            h = hmod.Hierarchy.from_levels(bridged + [hmod.Level(tail_a)])
            measured, _ = _cycle_delta(a, h, psi[:, None], state.q)
            if measured <= delta:
                new_state = AdaptiveState(
                    h, vectors, state.aggregates, measured,
                    state.delta_history + [measured], state.rounds,
                    state.flags + [f"early stop after level {depth}: "
                                   f"factor {measured:.3f} <= {delta}"],
                    state.smoother, state.q, state.seed, state.restrict)
                return new_state
    vectors.append(TestVectorSet(cur_psi.copy()))
    h = hmod.Hierarchy.from_levels(levels + [hmod.Level(current)])
    measured, _ = _cycle_delta(a, h, psi[:, None], state.q)
    return AdaptiveState(h, vectors, state.aggregates, measured,
                         state.delta_history + [measured], state.rounds,
                         list(state.flags), state.smoother, state.q,
                         state.seed, state.restrict)


def _copy_state(state):
    return AdaptiveState(state.hierarchy, state.test_vectors, state.aggregates,
                         state.delta, list(state.delta_history), state.rounds,
                         list(state.flags), state.smoother, state.q,
                         state.seed, state.restrict)


def asa_initial_state(a, partitions, psi0, smoother="gs", q=4, seed=0):
    """Seed an aggregation-based adaptive state from fixed per-level aggregates."""
    psi0 = np.atleast_2d(np.asarray(psi0, dtype=float).T).T
    levels, vectors = [], []
    current, cur_psi = a, psi0
    for part in partitions:
        vectors.append(TestVectorSet(cur_psi.copy()))
        p = interpolation.ua_prolongation(part, cur_psi)
        pre = make_smoother(current, smoother)
        levels.append(hmod.Level(current, p, pre, pre.adjoint(), None, part))
        current = sparse.galerkin_product(p.matrix, current)
        cur_psi = _restrict_asa(part, cur_psi)
    vectors.append(TestVectorSet(cur_psi.copy()))
    levels.append(hmod.Level(current))
    h = hmod.Hierarchy.from_levels(levels)
    delta, _ = _cycle_delta(a, h, psi0, q)
    return AdaptiveState(h, vectors, list(partitions), delta, [delta], 0, [],
                         smoother, q, seed, "asa")
