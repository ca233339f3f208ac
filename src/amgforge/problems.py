"""Deterministic model-problem generators with closed-form spectra.

Unknown ordering is lexicographic, k = (j-1)*n + i for grid point (i, j),
so every generated matrix is bit-reproducible.  Dirichlet conditions are
imposed by elimination: only interior unknowns are kept.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import sparse
from .linalg import _index_lists
from .sparse import from_scipy

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for one test matrix."""

    kind: str  # fd5 | fd9 | fe_aniso | fe_jump | graph_laplacian
    n: int
    epsilon: float = 1.0
    bc: str = DIRICHLET

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.bc not in (DIRICHLET, NEUMANN):
            raise ValueError(f"unknown boundary condition {self.bc!r}")


def laplace_1d(n, bc=DIRICHLET):
    """tridiag(-1, 2, -1) on n unknowns; Neumann variant is the path-graph Laplacian."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ex = np.ones(n - 1)
    diag = np.r_[ex, 0.0] + np.r_[0.0, ex] if bc == NEUMANN else np.full(n, 2.0)
    return from_scipy(sp.diags([-ex, diag, -ex], [-1, 0, 1]), sparse.SYMMETRIC)


def fe_anisotropic(n, epsilon, bc=DIRICHLET):
    """Anisotropic stencil kron(I, T) + eps kron(T, I), T = laplace_1d(n, bc).

    The strong direction is x (couplings -1 along each grid line); eps scales
    the weak y-direction couplings.  Dirichlet: diagonal 2(1+eps) on the n^2
    interior unknowns.  Neumann: the grid-graph Laplacian with edge weights 1
    and eps (singular, kernel = constants).
    """
    if n < 1 or epsilon <= 0:
        raise ValueError("need n >= 1 and epsilon > 0")
    t, eye = laplace_1d(n, bc).mat, sp.identity(n)
    return from_scipy(sp.kron(eye, t) + epsilon * sp.kron(t, eye), sparse.SYMMETRIC)


def fd_poisson_5pt(n, bc=DIRICHLET):
    """5-point Laplacian on the unit square, ``fe_anisotropic(n, 1.0, bc)``:
    diagonal 4 under Dirichlet, the unit-weight grid-graph Laplacian under
    Neumann."""
    return fe_anisotropic(n, 1.0, bc)


def fd_poisson_9pt(n):
    """9-point Laplacian 9I - kron(J, J), J = tridiag(1, 1, 1): diagonal 8,
    all eight neighbors coupled with -1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ex = np.ones(n - 1)
    j = sp.diags([ex, np.ones(n), ex], [-1, 0, 1])
    return from_scipy(9.0 * sp.identity(n * n) - sp.kron(j, j), sparse.SYMMETRIC)


@dataclass(eq=False)
class ElementAssembly:
    """Per-element stiffness blocks whose zero-extensions sum to A, as two
    arrays: ``verts`` (E x k vertex indices, int64) and ``blocks`` (E x k x k
    local matrices, float64), row e of each describing element e.  Every
    element has the same number k of vertices (all are triangles here).
    """

    n_vertices: int
    verts: np.ndarray
    blocks: np.ndarray
    coords: np.ndarray = None

    def __post_init__(self):
        self.verts = np.asarray(self.verts, dtype=np.int64)
        self.blocks = np.asarray(self.blocks, dtype=float)
        e, k = self.verts.shape
        if self.blocks.shape != (e, k, k):
            raise ValueError(f"blocks of shape {self.blocks.shape} do not match "
                             f"{e} elements of {k} vertices")

    def assemble(self):
        """A, after the range check of every element's vertices."""
        _index_lists(self.verts, self.n_vertices, "element")
        k = self.verts.shape[1]
        # entry (e, i, j) at (verts[e, i], verts[e, j]); the int64 row and
        # column arrays are freed once the COO matrix holds its own
        coo = sp.coo_matrix((self.blocks.ravel(), (np.repeat(self.verts, k, axis=1).ravel(),
                                                   np.tile(self.verts, k).ravel())),
                            shape=(self.n_vertices, self.n_vertices))
        return from_scipy(coo, sparse.SYMMETRIC)


def _triangle_stiffness(pts, coeff):
    """Stiffness blocks coeff * |T| * grad_i . grad_j of linear triangles.

    ``pts`` is one triangle's vertices, shape (3, 2), or a stack of them,
    shape (E, 3, 2); ``coeff`` is a scalar or one value per triangle.
    """
    pts = np.asarray(pts, dtype=float)
    d = pts[..., [2, 0, 1], :] - pts[..., [1, 2, 0], :]  # edge opposite each vertex
    area2 = d[..., 1, 0] * d[..., 2, 1] - d[..., 2, 0] * d[..., 1, 1]  # 2*area, signed
    grads = np.stack([d[..., 1], -d[..., 0]], axis=-1) / area2[..., None, None]
    scale = np.asarray(coeff) * (np.abs(area2) / 2.0)
    return scale[..., None, None] * (grads @ np.swapaxes(grads, -1, -2))


def checkerboard(x, y):
    """Quadrant pattern used for the jump-coefficient model: low-coefficient region."""
    return (x - 0.5) * (y - 0.5) < 0.0


def fe_jump_coefficient(n, epsilon):
    """Linear FE assembly of the jump-coefficient problem on the unit square.

    Uniform right-triangle mesh with (n+2)^2 nodes (n interior per direction,
    h = 1/(n+1)); natural boundary conditions, so the matrix is singular with
    kernel = constants and interior rows reproduce the 5-point stencil when
    the coefficient is 1 everywhere.  Elements whose barycenter lies in the
    ``checkerboard`` region get coefficient epsilon.

    Returns (matrix, assembly); the assembly carries the element vertex and
    block arrays.
    """
    if n < 1 or epsilon <= 0:
        raise ValueError("need n >= 1 and epsilon > 0")
    m = n + 2  # nodes per direction
    xs = np.arange(m) * (1.0 / (n + 1))
    coords = np.column_stack([np.tile(xs, m), np.repeat(xs, m)])
    # lower-left node of each cell, cells row by row; each cell is split
    # along its (i,j)-(i+1,j+1) diagonal
    ll = (m * np.arange(m - 1)[:, None] + np.arange(m - 1)).ravel()
    tris = np.column_stack([ll, ll + 1, ll + m + 1,
                            ll, ll + m + 1, ll + m]).reshape(-1, 3)
    pts = coords[tris]
    bary = pts.mean(axis=1)
    coeff = np.where(checkerboard(bary[:, 0], bary[:, 1]), epsilon, 1.0)
    assembly = ElementAssembly(m * m, tris, _triangle_stiffness(pts, coeff), coords)
    return assembly.assemble(), assembly


def exact_spectrum_5pt(n):
    """Closed-form Dirichlet 5-point eigenvalues, sorted ascending."""
    return exact_spectrum_anisotropic(n, 1.0)


def exact_spectrum_anisotropic(n, epsilon):
    """Eigenvalues 4 sin^2(i pi/(2(n+1))) + 4 eps sin^2(j pi/(2(n+1))), sorted.

    The strong (x) direction carries the unit weight, matching
    ``fe_anisotropic``; transpose the roles to compare against conventions
    that put eps on the other axis.
    """
    k = np.arange(1, n + 1)
    s = np.sin(k * np.pi / (2.0 * (n + 1))) ** 2
    lam = 4.0 * s[None, :] + 4.0 * epsilon * s[:, None]
    return np.sort(lam.ravel())


def rigid_body_vectors(coords):
    """Rigid-body modes for 2D points in interleaved (u_x, u_y) layout."""
    coords = np.asarray(coords, dtype=float)
    if not np.all(np.isfinite(coords)):
        raise ValueError("coordinates must be finite")
    npts = coords.shape[0]
    z1 = np.zeros(2 * npts)
    z2 = np.zeros(2 * npts)
    z3 = np.zeros(2 * npts)
    z1[0::2] = 1.0
    z2[1::2] = 1.0
    z3[0::2] = -coords[:, 1]
    z3[1::2] = coords[:, 0]
    return z1, z2, z3


def build(spec: ProblemSpec):
    """Materialize a ProblemSpec (jump problems discard the assembly)."""
    if spec.kind == "fd5":
        return fd_poisson_5pt(spec.n, spec.bc)
    if spec.kind == "fd9":
        return fd_poisson_9pt(spec.n)
    if spec.kind == "fe_aniso":
        return fe_anisotropic(spec.n, spec.epsilon, spec.bc)
    if spec.kind == "fe_jump":
        return fe_jump_coefficient(spec.n, spec.epsilon)[0]
    if spec.kind == "graph_laplacian":
        return laplace_1d(spec.n, NEUMANN)
    raise ValueError(f"unknown problem kind {spec.kind!r}")
