"""Strength-of-connection measures and the boolean strength matrix.

All exposed strength functions are symmetric in (i, j); edges of the
strength matrix S always correspond to stored nonzeros of A (no invented
couplings).  Path powers of S extend strong connections to longer ranges
for aggressive coarsening.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import _exponent
from .sparse import Graph, _index_dtype, _masked_indptr, adjacency_graph, graph_from_scipy
from .smoothers import GaussSeidel

VARIANTS = ("classical_sym", "avg_sym", "cauchy_s1", "cauchy_s2",
            "pair_local_opt", "affinity")

# 64-bit path counts saturate here instead of wrapping around
_COUNT_CAP = np.int64(2) ** 62


@dataclass(frozen=True)
class StrengthConfig:
    variant: str = "classical_sym"
    theta: float = 0.25
    affinity_k: int = 8
    affinity_nu: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown strength variant {self.variant!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if self.affinity_k < 1 or self.affinity_nu < 1:
            raise ValueError("affinity needs K >= 1 and nu >= 1")


@dataclass(frozen=True)
class StrengthMatrix:
    """Boolean, symmetric, zero-diagonal adjacency of strong connections."""

    graph: Graph
    theta: float
    variant: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_vertices(self):
        return self.graph.n_vertices

    def neighbors(self, i):
        return self.graph.neighbors(i)

    def to_scipy(self):
        return self.graph.to_scipy()


def _off_diagonal(a):
    """A's off-diagonal entries in CSR order: (row starts, rows, cols, values).

    Row ids are expanded from A's indptr and the diagonal is masked out; the
    row starts are A's indptr less the diagonal entries dropped before each
    row.
    """
    mat = a.mat
    rows = np.repeat(np.arange(a.n_rows, dtype=mat.indices.dtype), np.diff(mat.indptr))
    off = rows != mat.indices
    return _masked_indptr(mat.indptr, off), rows[off], mat.indices[off], mat.data[off]


def _row_reduce(ufunc, start, x):
    """ufunc over each row's segment x[start[i]:start[i+1]], 0 for empty rows.

    ``reduceat`` reads an empty segment as the single entry at its start, so
    only the starts of non-empty rows are passed.
    """
    out = np.zeros(start.size - 1)
    full = np.flatnonzero(np.diff(start))
    if full.size:
        out[full] = ufunc.reduceat(x, start[full])
    return out


def _neg_row_max(start, vals):
    """max_k(-a_ik) per row over off-diagonal entries, 0 if none negative."""
    return np.maximum(_row_reduce(np.maximum, start, -vals), 0.0)


def _abs_row_mean(start, vals):
    """(1/|N(i)|) sum_k |a_ik| per row over off-diagonal entries."""
    counts = np.maximum(np.diff(start), 1)
    return _row_reduce(np.add, start, np.abs(vals)) / counts


def _pairwise_values(a, variant):
    """s_c on the off-diagonal pattern of A: (row starts, rows, cols, s) in
    CSR order."""
    start, rows, cols, vals = _off_diagonal(a)
    diag = a.diagonal()
    # every measure is scale-free, so A is read at the power of two that puts
    # max|a_ii| in [0.5, 1): exact, and then no product of two entries
    # overflows or underflows at any scale of A
    scale = -_exponent(diag)
    vals, diag = np.ldexp(vals, scale), np.ldexp(diag, scale)
    if variant == "classical_sym":
        # pairs with a_ij > 0 are ignored (value 0); the symmetrization keeps
        # an edge only when both endpoints see it as strong, so the larger
        # row maximum sits in the denominator
        row_max = _neg_row_max(start, vals)
        denom = np.maximum(row_max[rows], row_max[cols])
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where((denom > 0.0) & (vals < 0.0), -vals / denom, 0.0)
    elif variant == "avg_sym":
        means = _abs_row_mean(start, vals)
        s = np.abs(vals) / np.maximum(means[rows], means[cols])
    elif variant == "cauchy_s1":
        s = np.abs(vals) / np.sqrt(diag[rows] * diag[cols])
    elif variant == "cauchy_s2":
        s = -2.0 * vals / (diag[rows] + diag[cols])
    else:  # pair_local_opt; strength_matrix and matching pass only validated names
        s1 = np.abs(vals) / np.sqrt(diag[rows] * diag[cols])
        s2 = -2.0 * vals / (diag[rows] + diag[cols])
        # s2 = 1 only for an exactly singular 2x2 pair: infinitely strong
        s = np.full(vals.shape, np.inf)
        ok = s2 < 1.0
        s[ok] = (1.0 - s1[ok] * s1[ok]) / (1.0 - s2[ok])
    return start, rows, cols, s


def _affinity_values(a, cfg):
    """Relaxed-test-vector affinity on the off-diagonal pattern of A:
    (row starts, rows, cols, s) in CSR order."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(-1.0, 1.0, size=(a.n_rows, cfg.affinity_k))
    x = GaussSeidel(a, 1.0).apply(np.zeros_like(x), x, sweeps=cfg.affinity_nu)
    start, rows, cols, _ = _off_diagonal(a)
    dots = np.einsum("ij,ij->i", x[rows], x[cols])
    norms = np.einsum("ij,ij->i", x, x)
    s = dots**2 / (norms[rows] * norms[cols])
    return start, rows, cols, s


def strength_matrix(a, cfg=StrengthConfig()):
    """Strength matrix S: edge (i, j) kept iff s_c(i, j) >= theta."""
    if a.symmetry != "symmetric":
        raise ValueError("strength matrices are defined for symmetric A")
    flagged = 0
    if cfg.variant == "affinity":
        start, rows, cols, s = _affinity_values(a, cfg)
    else:
        start, rows, cols, s = _pairwise_values(a, cfg.variant)
        if cfg.variant == "classical_sym":
            flagged = int(np.count_nonzero(s == 0.0))
    keep = s >= cfg.theta
    # A is bit-symmetric and every s_c is bit-symmetric in (i, j), so the
    # kept pairs, still in A's CSR order, are already the sorted, symmetric,
    # loop-free adjacency: no symmetrization or sort is needed
    idx = _index_dtype(max(a.n_rows, cols.size))
    graph = Graph(a.n_rows, _masked_indptr(start, keep).astype(idx, copy=False),
                  cols[keep].astype(idx, copy=False))
    isolated = np.flatnonzero(np.diff(graph.indptr) == 0).tolist()
    diag = {"isolated_vertices": isolated, "zero_valued_pairs": flagged,
            "seed": cfg.seed if cfg.variant == "affinity" else None}
    return StrengthMatrix(graph, cfg.theta, cfg.variant, diag)


def full_strength(a):
    """Strength matrix equal to the full adjacency graph (theta -> 0 limit)."""
    return StrengthMatrix(adjacency_graph(a), 0.0, "adjacency", {})


def strength_power(s, m, l):
    """Edges between vertices joined by >= m strong paths of length exactly l.

    Path counts come from the l-th power of the boolean adjacency, in 64-bit
    integers with saturation.
    """
    if m < 1 or l < 1:
        raise ValueError("need m >= 1 and l >= 1")
    adj = s.graph.to_scipy().astype(np.int64)
    power = adj.copy()
    for _ in range(l - 1):
        power = power @ adj
        power.data = np.minimum(power.data, _COUNT_CAP)
    power = sp.coo_matrix(power)
    keep = (power.row != power.col) & (power.data >= m)
    pattern = sp.coo_matrix(
        (np.ones(int(keep.sum())), (power.row[keep], power.col[keep])),
        shape=(s.n_vertices, s.n_vertices),
    )
    return StrengthMatrix(graph_from_scipy(pattern), s.theta, f"{s.variant}^({m},{l})", {})


def union(s1, s2):
    """Union of two strength patterns on the same vertex set."""
    if s1.n_vertices != s2.n_vertices:
        raise ValueError("vertex counts differ")
    pattern = s1.to_scipy() + s2.to_scipy()
    return StrengthMatrix(graph_from_scipy(pattern), min(s1.theta, s2.theta),
                          f"{s1.variant}|{s2.variant}", {})
