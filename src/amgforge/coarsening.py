"""Coarse-degree-of-freedom selection: C/F splittings and aggregations.

All algorithms are sequential and deterministic: the visit order defaults to
ascending index and every tie breaks toward the lowest index, so results are
reproducible and permutation-equivariant.
"""

from dataclasses import dataclass, field

import numpy as np

from . import sparse
from .strength import StrengthMatrix, _pairwise_values, strength_power, union


@dataclass(frozen=True)
class CFSplitting:
    """Boolean classification over vertices: True = coarse."""

    is_coarse: np.ndarray

    @property
    def n(self):
        return self.is_coarse.size

    @property
    def n_coarse(self):
        return int(self.is_coarse.sum())

    @property
    def coarse_indices(self):
        return np.flatnonzero(self.is_coarse)

    @property
    def fine_indices(self):
        return np.flatnonzero(~self.is_coarse)


@dataclass(frozen=True)
class AggregatePartition:
    """Aggregate id per vertex; ids are contiguous 0..n_aggregates-1."""

    labels: np.ndarray
    n_aggregates: int
    isolated: tuple = ()

    @property
    def n(self):
        return self.labels.size

    def members(self, k):
        return np.flatnonzero(self.labels == k)

    def sizes(self):
        return np.bincount(self.labels, minlength=self.n_aggregates)


def mis(s, order=None):
    """Greedy maximal independent set in the strength graph.

    First sweep: a vertex joins C only when it and its whole neighborhood
    are untouched (then the closed neighborhood is marked).  Vertices still
    untouched afterwards are swept again and join C directly, which restores
    maximality; independence holds throughout.
    """
    g = s.graph if isinstance(s, StrengthMatrix) else s
    n = g.n_vertices
    order = np.arange(n) if order is None else np.asarray(order, dtype=np.int64)
    if sorted(order.tolist()) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    visited = np.zeros(n, dtype=bool)
    coarse = np.zeros(n, dtype=bool)
    for i in order:
        if visited[i]:
            continue
        nbrs = g.neighbors(i)
        if not visited[nbrs].any():
            coarse[i] = True
            visited[i] = True
            visited[nbrs] = True
    for i in order:
        if not visited[i]:
            coarse[i] = True
            visited[i] = True
            visited[g.neighbors(i)] = True
    return CFSplitting(coarse)


def check_mis(s, split):
    """True iff C is independent and maximal in the strength graph."""
    g = s.graph if isinstance(s, StrengthMatrix) else s
    coarse = split.is_coarse
    for i in split.coarse_indices:
        if coarse[g.neighbors(i)].any():
            return False
    for i in split.fine_indices:
        if not coarse[g.neighbors(i)].any():
            return False
    return True


def greedy_aggregate(s, order=None):
    """Root-plus-neighborhood aggregation with a mop-up attachment pass.

    Pass 1 turns every untouched closed neighborhood into an aggregate.
    Pass 2 attaches each leftover vertex to the neighboring aggregate of
    minimal current size (ties to the lowest aggregate id); vertices with no
    aggregated neighbor become singleton aggregates and are reported.
    """
    g = s.graph if isinstance(s, StrengthMatrix) else s
    n = g.n_vertices
    order = np.arange(n) if order is None else np.asarray(order, dtype=np.int64)
    labels = np.full(n, -1, dtype=np.int64)
    n_agg = 0
    for i in order:
        if labels[i] >= 0:
            continue
        nbrs = g.neighbors(i)
        if (labels[nbrs] < 0).all():
            labels[i] = n_agg
            labels[nbrs] = n_agg
            n_agg += 1
    sizes = np.bincount(labels[labels >= 0], minlength=n_agg).astype(np.int64)
    for i in order:
        if labels[i] >= 0:
            continue
        nbr_labels = sorted(set(labels[g.neighbors(i)].tolist()) - {-1})
        if not nbr_labels:
            labels[i] = n_agg
            sizes = np.append(sizes, 1)
            n_agg += 1
            continue
        best = min(nbr_labels, key=lambda k: (sizes[k], k))
        labels[i] = best
        sizes[best] += 1
    isolated = tuple(np.flatnonzero(np.diff(g.indptr) == 0).tolist())
    return AggregatePartition(labels, n_agg, isolated)


def _single_pass_matching(a):
    rows, cols, score = _pairwise_values(a, "pair_local_opt")
    start = np.searchsorted(rows, np.arange(a.n_rows + 1))
    labels = np.full(a.n_rows, -1, dtype=np.int64)
    n_agg = 0
    for i in range(a.n_rows):
        if labels[i] >= 0:
            continue
        labels[i] = n_agg
        nbrs, scores = cols[start[i]:start[i + 1]], score[start[i]:start[i + 1]]
        free = labels[nbrs] < 0
        if free.any():
            # neighbors ascend and argmax takes the first maximum, so ties
            # go to the lowest index
            labels[nbrs[free][np.argmax(scores[free])]] = n_agg
        n_agg += 1
    return AggregatePartition(labels, n_agg)


def pairwise_aggregate(a, passes=1):
    """Greedy matching on the pair quality score, recursively composed.

    Each pass matches the unmatched vertex of lowest index with its best
    unmatched neighbor; later passes recurse on the piecewise-constant
    Galerkin coarse matrix and compose, doubling the maximal aggregate size.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    part = _single_pass_matching(a)
    if passes == 1:
        return part
    from .interpolation import ua_prolongation

    p = ua_prolongation(part).matrix
    coarse = sparse.galerkin_product(p, a)
    sub = pairwise_aggregate(coarse, passes - 1)
    composed = sub.labels[part.labels]
    return AggregatePartition(composed, sub.n_aggregates)


def aggressive_coarsen(s, m, l, order=None):
    """MIS over the union of S and its (m, l) path power.

    Keeping the original edges in the union guarantees every fine vertex
    still reaches a coarse vertex inside S itself.
    """
    if m < 1 or l < 1:
        raise ValueError("need m >= 1 and l >= 1")
    if m == 1 and l == 1:
        return mis(s, order)
    extended = union(s, strength_power(s, m, l))
    return mis(extended, order)


@dataclass
class CRReport:
    rho_history: list = field(default_factory=list)
    rounds: int = 0
    converged: bool = True
    added: int = 0


def _f_contraction(a_ff, smoother_factory, seed, steps=10):
    """A-norm contraction of the fine-restricted smoother error propagator.

    Ten power-iteration steps on E_f = I - B_f A_ff; the reported value is
    the A-norm ratio of the last iterate pair.
    """
    if a_ff.n_rows == 0:
        return 0.0
    smoother = smoother_factory(a_ff)
    mat = a_ff.mat
    rng = np.random.default_rng(seed)
    rho = 0.0
    v = rng.uniform(-1.0, 1.0, a_ff.n_rows)
    for _ in range(steps):
        w = smoother.error_propagation(v)
        num = float(w @ (mat @ w))
        den = float(v @ (mat @ v))
        if den <= 0.0:
            break
        rho = np.sqrt(max(num, 0.0) / den)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return rho


def cr_refine(a, smoother_factory, split, s=None, delta_f=0.7, theta_cr=0.5,
              nu=4, max_rounds=5, seed=0):
    """Compatible-relaxation refinement of a C/F splitting.

    Measures the contraction of the smoother restricted to the fine
    variables; while it exceeds ``delta_f``, relaxes a seeded random fine
    vector ``nu`` sweeps, collects slow-to-converge candidates and promotes
    an independent subset of them to C.  The inner MIS runs on the strength
    subgraph induced by the candidate set.
    """
    report = CRReport()
    coarse = split.is_coarse.copy()
    rng = np.random.default_rng(seed)
    for round_no in range(max_rounds + 1):
        fine = np.flatnonzero(~coarse)
        if fine.size == 0:
            report.rho_history.append(0.0)
            break
        a_ff = sparse.restrict_to_indices(a, fine)
        rho = _f_contraction(a_ff, smoother_factory, seed + round_no)
        report.rho_history.append(float(rho))
        if rho <= delta_f or round_no == max_rounds:
            report.converged = rho <= delta_f
            break
        smoother = smoother_factory(a_ff)
        v = smoother.apply(np.zeros(fine.size), rng.uniform(-1.0, 1.0, fine.size), sweeps=nu)
        cutoff = theta_cr * np.abs(v).max()
        candidates = fine[np.abs(v) > cutoff]
        if candidates.size == 0:
            report.converged = False
            break
        if s is not None:
            sub = s.to_scipy()[candidates][:, candidates]
            local = mis(sparse.graph_from_scipy(sub))
            promoted = candidates[local.is_coarse]
        else:
            promoted = candidates
        coarse[promoted] = True
        report.added += int(promoted.size)
        report.rounds += 1
    return CFSplitting(coarse), report


def aggregates_from_cf(split, s):
    """Aggregates grown from C points: each F vertex joins its nearest C point."""
    g = s.graph if isinstance(s, StrengthMatrix) else s
    coarse = split.coarse_indices
    labels = np.full(split.n, -1, dtype=np.int64)
    labels[coarse] = np.arange(coarse.size)
    frontier = list(coarse)
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if labels[w] < 0:
                    labels[w] = labels[v]
                    nxt.append(int(w))
        frontier = nxt
    # vertices unreachable in S become singletons
    isolated = np.flatnonzero(labels < 0)
    n_agg = coarse.size
    for v in isolated:
        labels[v] = n_agg
        n_agg += 1
    return AggregatePartition(labels, n_agg, tuple(int(v) for v in isolated))
