"""Strength-of-connection measures and the boolean strength matrix.

All exposed strength functions are symmetric in (i, j); edges of the
strength matrix S always correspond to stored nonzeros of A (no invented
couplings).  Path powers of S extend strong connections to longer ranges
for aggressive coarsening.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .sparse import Graph, graph_from_scipy
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


def _neg_row_max(a):
    """max_k(-a_ik) per row over off-diagonal entries, 0 if none negative."""
    m = a.mat.copy()
    m.setdiag(0)
    m.eliminate_zeros()
    neg = -m.minimum(0)
    return np.asarray(neg.max(axis=1).todense()).ravel()


def _abs_row_mean(a):
    """(1/|N(i)|) sum_k |a_ik| per row over off-diagonal entries."""
    m = a.mat.copy()
    m.setdiag(0)
    m.eliminate_zeros()
    counts = np.maximum(np.diff(m.indptr), 1)
    sums = np.asarray(abs(m).sum(axis=1)).ravel()
    return sums / counts


def _pairwise_values(a, variant):
    """Sparse symmetric matrix of s_c values on the off-diagonal pattern of A."""
    coo = a.mat.tocoo()
    off = coo.row != coo.col
    rows, cols, vals = coo.row[off], coo.col[off], coo.data[off]
    diag = a.diagonal()
    if variant == "classical_sym":
        # pairs with a_ij > 0 are ignored (value 0); the symmetrization keeps
        # an edge only when both endpoints see it as strong, so the larger
        # row maximum sits in the denominator
        row_max = _neg_row_max(a)
        denom = np.maximum(row_max[rows], row_max[cols])
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where((denom > 0.0) & (vals < 0.0), -vals / denom, 0.0)
    elif variant == "avg_sym":
        means = _abs_row_mean(a)
        s = np.abs(vals) / np.maximum(means[rows], means[cols])
    elif variant == "cauchy_s1":
        s = np.abs(vals) / np.sqrt(diag[rows] * diag[cols])
    elif variant == "cauchy_s2":
        s = -2.0 * vals / (diag[rows] + diag[cols])
    elif variant == "pair_local_opt":
        s1 = np.abs(vals) / np.sqrt(diag[rows] * diag[cols])
        s2 = -2.0 * vals / (diag[rows] + diag[cols])
        # s2 = 1 only for an exactly singular 2x2 pair: infinitely strong
        s = np.full(vals.shape, np.inf)
        ok = s2 < 1.0
        s[ok] = (1.0 - s1[ok] * s1[ok]) / (1.0 - s2[ok])
    else:
        raise ValueError(f"unknown entrywise variant {variant!r}")
    return rows, cols, s


def _affinity_values(a, cfg):
    """Relaxed-test-vector affinity on the off-diagonal pattern of A."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(-1.0, 1.0, size=(a.n_rows, cfg.affinity_k))
    x = GaussSeidel(a, 1.0).apply(np.zeros_like(x), x, sweeps=cfg.affinity_nu)
    coo = a.mat.tocoo()
    off = coo.row != coo.col
    rows, cols = coo.row[off], coo.col[off]
    dots = np.einsum("ij,ij->i", x[rows], x[cols])
    norms = np.einsum("ij,ij->i", x, x)
    s = dots**2 / (norms[rows] * norms[cols])
    return rows, cols, s


def strength_matrix(a, cfg=StrengthConfig()):
    """Strength matrix S: edge (i, j) kept iff s_c(i, j) >= theta."""
    if a.symmetry != "symmetric":
        raise ValueError("strength matrices are defined for symmetric A")
    flagged = 0
    if cfg.variant == "affinity":
        rows, cols, s = _affinity_values(a, cfg)
    else:
        rows, cols, s = _pairwise_values(a, cfg.variant)
        if cfg.variant == "classical_sym":
            flagged = int(np.count_nonzero(s == 0.0))
    keep = s >= cfg.theta
    pattern = sp.coo_matrix(
        (np.ones(int(keep.sum())), (rows[keep], cols[keep])),
        shape=a.shape,
    )
    graph = graph_from_scipy(pattern)
    isolated = np.flatnonzero(np.diff(graph.indptr) == 0).tolist()
    diag = {"isolated_vertices": isolated, "zero_valued_pairs": flagged,
            "seed": cfg.seed if cfg.variant == "affinity" else None}
    return StrengthMatrix(graph, cfg.theta, cfg.variant, diag)


def full_strength(a):
    """Strength matrix equal to the full adjacency graph (theta -> 0 limit)."""
    from .sparse import adjacency_graph

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
