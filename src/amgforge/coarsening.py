"""Coarse-degree-of-freedom selection: C/F splittings and aggregations.

All algorithms are sequential and deterministic: the visit order defaults to
ascending index and every tie breaks toward the lowest index, so results are
reproducible and permutation-equivariant.  ``mis`` and ``greedy_aggregate``
share one root rule: a vertex is a root iff its closed neighborhood is still
untouched.  The sweeps run over plain lists, with numpy only around them.
"""

from dataclasses import dataclass, field

import numpy as np

from . import sparse
from .interpolation import ua_prolongation
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

    def sizes(self):
        return np.bincount(self.labels, minlength=self.n_aggregates)


def _graph(s):
    return s.graph if isinstance(s, StrengthMatrix) else s


def _root_sweep(g, order):
    """The root rule: visiting vertices in ``order``, a vertex is a root iff
    its closed neighborhood is untouched; that neighborhood is then touched.
    Returns the order and CSR pair of ``g`` as lists, the flags and the roots.
    """
    n = g.n_vertices
    if order is not None:
        order = np.asarray(order, dtype=np.int64)
        if (order.shape != (n,) or (n and not 0 <= order.min() <= order.max() < n)
                or not (np.bincount(order, minlength=n) == 1).all()):
            raise ValueError("order must be a permutation of the vertices")
    order = range(n) if order is None else order.tolist()
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    touched = bytearray(n)
    roots = []
    for i in order:
        if touched[i]:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        for j in nbrs:
            if touched[j]:
                break
        else:
            roots.append(i)
            touched[i] = 1
            for j in nbrs:
                touched[j] = 1
    return order, indptr, indices, touched, roots


def mis(s, order=None):
    """Greedy maximal independent set in the strength graph.

    C starts as the roots of the root sweep.  Vertices still untouched
    afterwards are swept again and join C directly, touching their
    neighborhood, which restores maximality; independence holds throughout.
    """
    g = _graph(s)
    order, indptr, indices, touched, coarse = _root_sweep(g, order)
    for i in order:
        if not touched[i]:
            coarse.append(i)
            for j in indices[indptr[i]:indptr[i + 1]]:
                touched[j] = 1
    is_coarse = np.zeros(g.n_vertices, dtype=bool)
    is_coarse[coarse] = True
    return CFSplitting(is_coarse)


def check_mis(s, split):
    """True iff C is independent and maximal in the strength graph: the
    adjacency times the coarse indicator is zero exactly on C."""
    counts = _graph(s).to_scipy() @ split.is_coarse.astype(np.int64)
    return bool(np.array_equal(counts == 0, split.is_coarse))


def greedy_aggregate(s, order=None):
    """Root-plus-neighborhood aggregation with a mop-up attachment pass.

    Each root of the root sweep turns its closed neighborhood into an
    aggregate, numbered in visit order.  A second pass attaches each leftover
    vertex to the neighboring aggregate of minimal current size (ties to the
    lowest aggregate id); a leftover vertex has one, as the sweep touched one
    of its neighbors.  An isolated vertex is a root, a singleton in ``isolated``.
    """
    g = _graph(s)
    order, indptr, indices, _, roots = _root_sweep(g, order)
    labels = [-1] * g.n_vertices
    for k, r in enumerate(roots):
        for j in [r, *indices[indptr[r]:indptr[r + 1]]]:
            labels[j] = k
    sizes = [1 + indptr[r + 1] - indptr[r] for r in roots]
    for i in order:
        if labels[i] < 0:
            near = {labels[j] for j in indices[indptr[i]:indptr[i + 1]]} - {-1}
            labels[i] = best = min(near, key=lambda k: (sizes[k], k))
            sizes[best] += 1
    isolated = tuple(np.flatnonzero(np.diff(g.indptr) == 0).tolist())
    return AggregatePartition(np.array(labels, dtype=np.int64), len(sizes), isolated)


def _single_pass_matching(a):
    start, _, cols, score = _pairwise_values(a, "pair_local_opt")
    start, cols, score = start.tolist(), cols.tolist(), score.tolist()
    labels = [-1] * a.n_rows
    n_agg = 0
    for i in range(a.n_rows):
        if labels[i] >= 0:
            continue
        labels[i] = n_agg
        # np.argmax over the free neighbors, which ascend: the first maximum
        # wins, so ties go to the lowest index, and the first NaN is a maximum
        best, top = -1, 0.0
        for j, v in zip(cols[start[i]:start[i + 1]], score[start[i]:start[i + 1]]):
            if labels[j] < 0 and (best < 0 or v > top or (v != v and top == top)):
                best, top = j, v
        if best >= 0:
            labels[best] = n_agg
        n_agg += 1
    return AggregatePartition(np.array(labels, dtype=np.int64), n_agg)


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
    p = ua_prolongation(part).matrix
    coarse = sparse.galerkin_product(p, a)
    sub = pairwise_aggregate(coarse, passes - 1)
    composed = sub.labels[part.labels]
    return AggregatePartition(composed, sub.n_aggregates)


def aggressive_coarsen(s, m, l):
    """MIS over the union of S and its (m, l) path power.

    Keeping the original edges in the union guarantees every fine vertex
    still reaches a coarse vertex inside S itself.
    """
    return mis(union(s, strength_power(s, m, l)))


@dataclass
class CRReport:
    rho_history: list = field(default_factory=list)
    rounds: int = 0
    converged: bool = True
    added: int = 0


def _f_contraction(a_ff, smoother, seed, steps=10):
    """A-norm contraction of the fine-restricted smoother error propagator.

    Ten power-iteration steps on E_f = I - B_f A_ff; the reported value is
    the A-norm ratio of the last iterate pair.
    """
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


def cr_refine(a, smoother_factory, split, s=None, delta_f=0.7, max_rounds=5, seed=0):
    """Compatible-relaxation refinement of a C/F splitting.

    Measures the contraction of the smoother restricted to the fine
    variables; while it exceeds ``delta_f``, relaxes a seeded random fine
    vector 4 sweeps, collects the slow-to-converge candidates (entries above
    half the largest) and promotes an independent subset of them to C.  The
    inner MIS runs on the strength subgraph induced by the candidate set.
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
        smoother = smoother_factory(a_ff)
        rho = _f_contraction(a_ff, smoother, seed + round_no)
        report.rho_history.append(float(rho))
        if rho <= delta_f or round_no == max_rounds:
            report.converged = rho <= delta_f
            break
        v = smoother.apply(np.zeros(fine.size), rng.uniform(-1.0, 1.0, fine.size), sweeps=4)
        candidates = fine[np.abs(v) > 0.5 * np.abs(v).max()]
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
