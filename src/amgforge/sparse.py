"""CSR sparse matrices, adjacency graphs and M-matrix relatives.

The substrate for everything else in the package.  Matrices are immutable
after construction: every constructor canonicalizes (duplicates summed, rows
sorted, explicit zeros dropped) so sparsity patterns are value-determined.
Kernels are delegated to scipy.sparse behind this surface.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .linalg import SymPseudoInverse

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
    def row_ptr(self):
        return self.mat.indptr

    @property
    def col_idx(self):
        return self.mat.indices

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


def csr_from_triplets(n_rows, n_cols, entries, symmetry=GENERAL):
    """Assemble from (i, j, value) triplets; duplicates are summed.

    Raises IndexError when any index falls outside [0, n_rows) x [0, n_cols).
    """
    entries = list(entries)
    if entries:
        rows = np.fromiter((e[0] for e in entries), dtype=np.int64, count=len(entries))
        cols = np.fromiter((e[1] for e in entries), dtype=np.int64, count=len(entries))
        vals = np.fromiter((e[2] for e in entries), dtype=float, count=len(entries))
    else:
        rows = np.zeros(0, dtype=np.int64)
        cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0, dtype=float)
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise IndexError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise IndexError("column index out of range")
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
    return from_scipy(coo, symmetry)


def spmv(a, x):
    """y = A x with the usual left-to-right accumulation per CSR row."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != a.n_cols:
        raise ValueError(f"dimension mismatch: matrix has {a.n_cols} columns, vector has {x.shape[0]}")
    return a.mat @ x


def spmv_transpose(a, x):
    x = np.asarray(x, dtype=float)
    if x.shape[0] != a.n_rows:
        raise ValueError(f"dimension mismatch: matrix has {a.n_rows} rows, vector has {x.shape[0]}")
    return a.mat.T @ x


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

    def degree(self, i):
        return int(self.indptr[i + 1] - self.indptr[i])

    @property
    def n_edges(self):
        return int(self.indices.size // 2)

    def has_edge(self, i, j):
        return j in self.neighbors(i)

    def to_scipy(self):
        data = np.ones(self.indices.size, dtype=np.int64)
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=(self.n_vertices, self.n_vertices))


def graph_from_scipy(pattern):
    """Graph from a boolean/binary sparse pattern; symmetrizes, drops diagonal."""
    m = sp.csr_matrix(pattern)
    m = m + m.T
    m.setdiag(0)
    m.eliminate_zeros()
    m.sort_indices()
    return Graph(m.shape[0], m.indptr.copy(), m.indices.copy())


def adjacency_graph(a):
    """Edges (i, j) with i != j and a_ij stored nonzero."""
    if not a.is_square():
        raise ValueError("adjacency graph needs a square matrix")
    return graph_from_scipy(a.mat != 0)


def connected_components(g):
    """Component labels 0..k-1, assigned in order of first BFS visit."""
    labels = np.full(g.n_vertices, -1, dtype=np.int64)
    current = 0
    for start in range(g.n_vertices):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if labels[w] < 0:
                    labels[w] = current
                    stack.append(w)
        current += 1
    return labels


def bfs_distance(g, sources):
    """Hop distance from each vertex to the nearest source (-1: unreachable)."""
    dist = np.full(g.n_vertices, -1, dtype=np.int64)
    frontier = [int(s) for s in sources]
    for s in frontier:
        dist[s] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(int(w))
        frontier = nxt
    return dist


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


@dataclass
class SspdReport:
    """Outcome of the symmetric semi-positive-definiteness check."""

    symmetric: bool
    positive_diagonal: bool
    is_sspd: bool
    kernel_dim: int = 0
    lambda_min: float = float("nan")
    lambda_max: float = float("nan")
    checked_spectrum: bool = False
    kernel_matches_hint: bool | None = None
    notes: list = field(default_factory=list)


def validate_sspd(a, kernel_hint=None, dense_cap=2000, tol=1e-10):
    """Report-only SSPD validation (never raises).

    Symmetry is checked bit-exactly; the spectrum is examined densely only
    for n <= dense_cap.  ``kernel_hint`` columns, when given, are tested for
    membership in the numerical kernel.
    """
    if not a.is_square():
        return SspdReport(False, False, False, notes=["matrix is not square"])
    dense_sym = (a.mat - a.mat.T).nnz == 0
    diag = a.diagonal()
    pos_diag = bool(np.all(diag > 0.0))
    report = SspdReport(dense_sym, pos_diag, False)
    if not dense_sym:
        report.notes.append("symmetry failure: a_ij != a_ji for some stored pair")
        return report
    if a.n_rows <= dense_cap:
        pinv = SymPseudoInverse(a.toarray())
        w = pinv.eigenvalues
        report.lambda_min = float(w[0])
        report.lambda_max = float(w[-1])
        report.kernel_dim = pinv.kernel_dim
        report.checked_spectrum = True
        semi_definite = w[0] >= -tol * max(abs(w[-1]), 1.0e-300)
        report.is_sspd = semi_definite and pos_diag
        if not semi_definite:
            report.notes.append(f"indefinite: lambda_min={w[0]:.3e}")
        if kernel_hint is not None:
            z = np.atleast_2d(np.asarray(kernel_hint, dtype=float).T).T
            resid = np.linalg.norm(a.toarray() @ z, axis=0)
            scale = np.linalg.norm(z, axis=0) * max(abs(w[-1]), 1.0)
            report.kernel_matches_hint = bool(np.all(resid <= 1e-8 * scale))
    else:
        report.is_sspd = pos_diag
        report.notes.append("spectrum not checked (n exceeds dense cap)")
    if not pos_diag:
        report.notes.append("nonpositive diagonal entry")
    return report


def restrict_to_indices(a, keep):
    """Principal submatrix on the index set ``keep`` (Dirichlet elimination)."""
    keep = np.asarray(keep, dtype=np.int64)
    sub = a.mat[keep][:, keep]
    return from_scipy(sub, a.symmetry)
