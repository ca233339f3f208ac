"""Deterministic model-problem generators with closed-form spectra.

Unknown ordering is lexicographic, k = (j-1)*n + i for grid point (i, j),
so every generated matrix is bit-reproducible.  Dirichlet conditions are
imposed by elimination: only interior unknowns are kept.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import sparse
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


def _grid_laplacian(n, wx, wy):
    """Graph Laplacian of the n x n grid graph with per-direction edge weights."""
    ex = np.ones(n - 1) if n > 1 else np.zeros(0)
    path = sp.diags([-ex, -ex], [-1, 1], shape=(n, n))
    lap_x = sp.diags((-path @ np.ones(n))) + path  # 1D path Laplacian
    eye = sp.identity(n)
    return wx * sp.kron(eye, lap_x) + wy * sp.kron(lap_x, eye)


def fd_poisson_5pt(n, bc=DIRICHLET):
    """5-point Laplacian on the unit square.

    Dirichlet: the classic block-tridiagonal matrix with diagonal 4 on the
    n^2 interior unknowns.  Neumann: the grid-graph Laplacian with unit edge
    weights (singular, kernel = constants).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if bc == NEUMANN:
        return from_scipy(_grid_laplacian(n, 1.0, 1.0), sparse.SYMMETRIC)
    ex = np.ones(n - 1) if n > 1 else np.zeros(0)
    b = sp.diags([-ex, 4.0 * np.ones(n), -ex], [-1, 0, 1])
    eye = sp.identity(n)
    off = sp.diags([np.ones(n - 1)], [1]) if n > 1 else sp.csr_matrix((n, n))
    a = sp.kron(eye, b) - sp.kron(off + off.T, eye)
    return from_scipy(a, sparse.SYMMETRIC)


def fd_poisson_9pt(n):
    """9-point Laplacian: diagonal 8, all eight neighbors coupled with -1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ex = np.ones(n - 1) if n > 1 else np.zeros(0)
    b = sp.diags([-ex, 8.0 * np.ones(n), -ex], [-1, 0, 1])
    c = sp.diags([ex, np.ones(n), ex], [-1, 0, 1])
    off = sp.diags([np.ones(n - 1)], [1]) if n > 1 else sp.csr_matrix((n, n))
    a = sp.kron(sp.identity(n), b) - sp.kron(off + off.T, c)
    return from_scipy(a, sparse.SYMMETRIC)


def fe_anisotropic(n, epsilon, bc=DIRICHLET):
    """Anisotropic stencil: diagonal 2(1+eps), x-neighbors -1, y-neighbors -eps.

    The strong direction is x (couplings -1 along each grid line); eps scales
    the weak y-direction couplings.  eps = 1 reduces to the isotropic
    five-point pattern scaled by 1.
    """
    if n < 1 or epsilon <= 0:
        raise ValueError("need n >= 1 and epsilon > 0")
    if bc == NEUMANN:
        return from_scipy(_grid_laplacian(n, 1.0, epsilon), sparse.SYMMETRIC)
    ex = np.ones(n - 1) if n > 1 else np.zeros(0)
    b = sp.diags([-ex, 2.0 * (1.0 + epsilon) * np.ones(n), -ex], [-1, 0, 1])
    off = sp.diags([np.ones(n - 1)], [1]) if n > 1 else sp.csr_matrix((n, n))
    a = sp.kron(sp.identity(n), b) - epsilon * sp.kron(off + off.T, sp.identity(n))
    return from_scipy(a, sparse.SYMMETRIC)


def laplace_1d(n, bc=DIRICHLET):
    """tridiag(-1, 2, -1) on n unknowns; Neumann variant is the path-graph Laplacian."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ex = np.ones(n - 1) if n > 1 else np.zeros(0)
    if bc == NEUMANN:
        diag = np.full(n, 2.0)
        diag[0] = diag[-1] = 1.0
        if n == 1:
            diag[0] = 0.0
        a = sp.diags([-ex, diag, -ex], [-1, 0, 1])
    else:
        a = sp.diags([-ex, 2.0 * np.ones(n), -ex], [-1, 0, 1])
    return from_scipy(a, sparse.SYMMETRIC)


@dataclass
class ElementAssembly:
    """Per-element stiffness blocks whose zero-extensions sum to A."""

    n_vertices: int
    elements: list  # (vertex index tuple, dense local block)
    coords: np.ndarray = None

    def assemble(self):
        rows, cols, vals = [], [], []
        for verts, block in self.elements:
            verts = np.asarray(verts, dtype=np.int64)
            r, c = np.meshgrid(verts, verts, indexing="ij")
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(np.asarray(block, dtype=float).ravel())
        coo = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_vertices, self.n_vertices),
        )
        return from_scipy(coo, sparse.SYMMETRIC)


def _triangle_stiffness(pts, coeff):
    """Stiffness block of one linear triangle: coeff * |T| * grad_i . grad_j."""
    pts = np.asarray(pts, dtype=float)
    d = np.array([pts[2] - pts[1], pts[0] - pts[2], pts[1] - pts[0]])
    area2 = d[1, 0] * d[2, 1] - d[2, 0] * d[1, 1]  # 2*area, signed
    area = abs(area2) / 2.0
    grads = np.column_stack([d[:, 1], -d[:, 0]]) / area2  # rotated edge vectors
    return coeff * area * (grads @ grads.T)


def checkerboard(x, y):
    """Quadrant pattern used for the jump-coefficient model: low-coefficient region."""
    return (x - 0.5) * (y - 0.5) < 0.0


def fe_jump_coefficient(n, epsilon, jump_pattern=checkerboard):
    """Linear FE assembly of the jump-coefficient problem on the unit square.

    Uniform right-triangle mesh with (n+2)^2 nodes (n interior per direction,
    h = 1/(n+1)); natural boundary conditions, so the matrix is singular with
    kernel = constants and interior rows reproduce the 5-point stencil when
    the coefficient is 1 everywhere.  ``jump_pattern(x, y) -> bool`` marks
    element barycenters lying in the epsilon region.

    Returns (matrix, assembly); the assembly carries per-element blocks.
    """
    if n < 1 or epsilon <= 0:
        raise ValueError("need n >= 1 and epsilon > 0")
    m = n + 2  # nodes per direction
    h = 1.0 / (n + 1)
    xs = np.arange(m) * h
    coords = np.array([(xs[i], xs[j]) for j in range(m) for i in range(m)])
    node = lambda i, j: j * m + i
    elements = []
    for j in range(m - 1):
        for i in range(m - 1):
            # split each cell along the (i,j)-(i+1,j+1) diagonal
            for tri in (
                (node(i, j), node(i + 1, j), node(i + 1, j + 1)),
                (node(i, j), node(i + 1, j + 1), node(i, j + 1)),
            ):
                pts = coords[list(tri)]
                bary = pts.mean(axis=0)
                coeff = epsilon if jump_pattern(bary[0], bary[1]) else 1.0
                elements.append((tri, _triangle_stiffness(pts, coeff)))
    assembly = ElementAssembly(m * m, elements, coords)
    return assembly.assemble(), assembly


def interior_indices(n):
    """Interior node indices of the (n+2)^2 FE grid, lexicographic."""
    m = n + 2
    return np.array([j * m + i for j in range(1, n + 1) for i in range(1, n + 1)])


def exact_spectrum_5pt(n):
    """Closed-form Dirichlet 5-point eigenvalues, sorted ascending."""
    k = np.arange(1, n + 1)
    s = np.sin(k * np.pi / (2.0 * (n + 1))) ** 2
    lam = 4.0 * (s[:, None] + s[None, :])
    return np.sort(lam.ravel())


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
