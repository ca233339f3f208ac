"""CSR sparse matrices, adjacency graphs and M-matrix relatives.

The substrate for everything else in the package.  Matrices are immutable
after construction: every constructor canonicalizes (duplicates summed, rows
sorted, explicit zeros dropped) so sparsity patterns are value-determined.
Kernels are delegated to scipy.sparse behind this surface.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

SYMMETRIC = "symmetric"
GENERAL = "general"


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable CSR matrix with a symmetry tag.

    ``symmetry`` is asserted structurally at assembly time (bit-exact value
    match of transposed pairs) and never re-checked in hot kernels.
    """

    mat: sp.csr_matrix
    symmetry: str = GENERAL

    @property
    def n_rows(self):
        return self.mat.shape[0]

    @property
    def n_cols(self):
        return self.mat.shape[1]

    @property
    def shape(self):
        return self.mat.shape

    @property
    def values(self):
        return self.mat.data

    @property
    def nnz(self):
        return self.mat.nnz

    def toarray(self):
        return self.mat.toarray()

    def diagonal(self):
        return self.mat.diagonal()

    def is_square(self):
        return self.n_rows == self.n_cols

    def __matmul__(self, x):
        return self.mat @ x


def _canonical_csr(mat):
    """Sorted, duplicate-free CSR with explicit zeros removed."""
    out = sp.csr_matrix(mat, dtype=float, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def from_scipy(mat, symmetry=GENERAL):
    """Wrap a scipy matrix, canonicalizing and checking the symmetry tag."""
    out = _canonical_csr(mat)
    if not np.isfinite(out.data).all():
        raise ValueError("matrix has non-finite entries")
    if symmetry == SYMMETRIC:
        if out.shape[0] != out.shape[1]:
            raise ValueError("symmetric tag requires a square matrix")
        if (out - out.T).nnz != 0:
            raise ValueError("matrix tagged symmetric is not bit-exactly symmetric")
    elif symmetry != GENERAL:
        raise ValueError(f"unknown symmetry tag {symmetry!r}")
    return SparseMatrix(out, symmetry)


def from_dense(a, symmetry=GENERAL):
    return from_scipy(sp.csr_matrix(np.asarray(a, dtype=float)), symmetry)


def spmv(a, x):
    """y = A x with the usual left-to-right accumulation per CSR row."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != a.n_cols:
        raise ValueError(f"dimension mismatch: matrix has {a.n_cols} columns, vector has {x.shape[0]}")
    return a.mat @ x


def galerkin_product(p, a):
    """Coarse-level operator P^T A P.

    The symmetric tag of ``a`` is preserved; the product is re-symmetrized
    bit-exactly (average with its transpose) so roundoff in the sparse triple
    product cannot break the structural-symmetry invariant.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("A must be square")
    if p.n_rows != a.n_cols:
        raise ValueError(f"shape mismatch: A is {a.shape}, P is {p.shape}")
    prod = p.mat.T @ a.mat @ p.mat
    if a.symmetry == SYMMETRIC:
        prod = (prod + prod.T) * 0.5
    return from_scipy(prod, a.symmetry)


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR layout (no self-loops, no values)."""

    n_vertices: int
    indptr: np.ndarray
    indices: np.ndarray

    def neighbors(self, i):
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    @property
    def n_edges(self):
        return int(self.indices.size // 2)

    def to_scipy(self):
        data = np.ones(self.indices.size, dtype=np.int64)
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=(self.n_vertices, self.n_vertices))


def _index_dtype(maxval):
    """The index dtype scipy gives a CSR matrix with indices and counts up
    to ``maxval``."""
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


def _masked_indptr(indptr, keep):
    """Row pointer of the compressed entries where ``keep`` holds, for
    entries laid out by ``indptr`` (the counts fit indptr's own dtype)."""
    ptr = np.zeros(keep.size + 1, dtype=indptr.dtype)
    np.cumsum(keep, out=ptr[1:])
    return ptr[indptr]


def graph_from_scipy(pattern):
    """Graph from a non-negative sparse pattern: edge (i, j) wherever i != j
    and the pattern is nonzero at (i, j) or (j, i)."""
    m = sp.csr_matrix(pattern, copy=True)  # sum_duplicates works in place
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"graph pattern must be square, got shape {m.shape}")
    m.sum_duplicates()
    rows = np.repeat(np.arange(m.shape[0], dtype=m.indices.dtype), np.diff(m.indptr))
    keep = (rows != m.indices) & (m.data != 0)
    m = sp.csr_matrix((np.ones(np.count_nonzero(keep), dtype=bool), m.indices[keep],
                       _masked_indptr(m.indptr, keep)), shape=m.shape)
    # both operands are sorted and duplicate-free, so the sum is a linear
    # merge that comes out sorted
    m = m + m.T
    return Graph(m.shape[0], m.indptr, m.indices)


def adjacency_graph(a):
    """Edges (i, j) with i != j and a_ij stored nonzero."""
    if not a.is_square():
        raise ValueError("adjacency graph needs a square matrix")
    return graph_from_scipy(a.mat != 0)


def connected_components(g):
    """Component labels 0..k-1, numbered in order of each component's
    lowest vertex."""
    _, labels = csgraph.connected_components(g.to_scipy(), directed=False)
    return labels.astype(np.int64)


def bfs_distance(g, sources):
    """Hop distance from each vertex to the nearest source (-1: unreachable)."""
    dist = csgraph.dijkstra(g.to_scipy(), directed=False, indices=sources,
                            unweighted=True, min_only=True)
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


def m_matrix_relative(a):
    """Sign-constrained companion A+ of a symmetric matrix.

    Positive off-diagonal entries are moved onto the diagonal (row sums are
    preserved exactly up to summation order); remaining off-diagonals are
    nonpositive, so A+ satisfies the M-matrix sign conditions.
    """
    if a.symmetry != SYMMETRIC:
        raise ValueError("M-matrix relative is defined for symmetric matrices")
    diag = a.diagonal()
    if np.any(diag <= 0.0):
        raise ValueError("M-matrix relative requires a positive diagonal")
    coo = a.mat.tocoo()
    off = coo.row != coo.col
    pos_off = off & (coo.data > 0.0)
    compensation = np.zeros(a.n_rows)
    np.add.at(compensation, coo.row[pos_off], coo.data[pos_off])
    keep = ~pos_off
    rows = np.concatenate([coo.row[keep], np.arange(a.n_rows)])
    cols = np.concatenate([coo.col[keep], np.arange(a.n_rows)])
    vals = np.concatenate([coo.data[keep], compensation])
    out = sp.coo_matrix((vals, (rows, cols)), shape=a.shape)
    return from_scipy(out, SYMMETRIC)


def restrict_to_indices(a, keep):
    """Principal submatrix on the index set ``keep`` (Dirichlet elimination)."""
    keep = np.asarray(keep, dtype=np.int64)
    sub = a.mat[keep][:, keep]
    return from_scipy(sub, a.symmetry)
