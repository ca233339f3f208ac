"""Pointwise and block relaxation, symmetrization, and subspace corrections.

Every smoother is an immutable object over a fixed matrix A exposing

    apply(b, x, sweeps)  -- run stationary sweeps x <- x + B(b - A x)
    action(g)            -- one application of the iterator, B g
    adjoint()            -- the smoother whose iterator is B^T

Gauss-Seidel triangular solves go through a cached sparse LU of the
triangular factor (natural ordering), so sweeps stay vectorized.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import power_iteration


class SingularSmootherError(ValueError):
    pass


def _check_diagonal(a):
    d = a.diagonal()
    if np.any(d == 0.0):
        raise SingularSmootherError("matrix has a zero diagonal entry")
    return d


def _triangular_solver(t):
    # LU of a triangular matrix with natural ordering is the matrix itself;
    # this gives a compiled solve without densifying.
    lu = spla.splu(sp.csc_matrix(t), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": False})
    return lu.solve


class Smoother:
    """Base: stationary iteration driven by an iterator action B."""

    def __init__(self, a):
        self.a = a

    @property
    def n(self):
        return self.a.n_rows

    def action(self, g):
        raise NotImplementedError

    def adjoint(self):
        raise NotImplementedError

    def apply(self, b, x=None, sweeps=1):
        """Iterate x <- x + B(b - A x); sweeps=0 returns x unchanged."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError("right-hand side has wrong length")
        x = np.zeros(self.n) if x is None else np.array(x, dtype=float)
        if x.shape[0] != self.n:
            raise ValueError("iterate has wrong length")
        for _ in range(sweeps):
            x = x + self.action(b - self.a @ x)
        return x

    def error_propagation(self, v):
        """(I - B A) v."""
        return v - self.action(self.a @ v)


class Jacobi(Smoother):
    """B = omega * D^{-1}.  Default omega is 1/rho(D^{-1}A) from 20 power steps."""

    def __init__(self, a, omega=None):
        super().__init__(a)
        d = _check_diagonal(a)
        self._dinv = 1.0 / d
        if omega is None:
            omega = 1.0 / estimate_rho_dinv_a(a, steps=20)
        if omega <= 0:
            raise ValueError("omega must be positive")
        self.omega = float(omega)

    def action(self, g):
        return self.omega * (self._dinv * g)

    def adjoint(self):
        return self


class GaussSeidel(Smoother):
    """B = (D/omega + L)^{-1} (forward) or (D/omega + U)^{-1} (backward)."""

    def __init__(self, a, omega=1.0, direction="forward"):
        super().__init__(a)
        if omega <= 0:
            raise ValueError("omega must be positive")
        if direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        _check_diagonal(a)
        self.omega = float(omega)
        self.direction = direction
        tri = sp.tril(a.mat, -1) if direction == "forward" else sp.triu(a.mat, 1)
        d = sp.diags(a.diagonal() / omega)
        self._solve = _triangular_solver(tri + d)

    def action(self, g):
        return self._solve(g)

    def adjoint(self):
        flip = "backward" if self.direction == "forward" else "forward"
        return GaussSeidel(self.a, self.omega, flip)


class SubspaceCorrection(Smoother):
    """Parallel subspace correction: B = sum_i I_i A_i^{-1} I_i'.

    Exact local solves on index-set subspaces that cover the unknowns and
    may overlap; singleton subspaces reproduce unit-weight Jacobi.
    """

    def __init__(self, a, subspaces):
        super().__init__(a)
        subspaces = [np.asarray(s, dtype=np.int64) for s in subspaces]
        covered = np.zeros(self.n, dtype=bool)
        for s in subspaces:
            covered[s] = True
        if not covered.all():
            raise ValueError("subspaces must cover every index")
        self.subspaces = subspaces
        self._factors = []
        for k, idx in enumerate(subspaces):
            sub = a.mat[idx][:, idx].toarray()
            try:
                self._factors.append(scipy.linalg.cho_factor(sub))
            except scipy.linalg.LinAlgError as exc:
                raise SingularSmootherError(f"local block for subspace {k} is singular") from exc

    def action(self, g):
        out = np.zeros(self.n)
        for idx, fac in zip(self.subspaces, self._factors):
            out[idx] += scipy.linalg.cho_solve(fac, g[idx])
        return out

    def adjoint(self):
        return self


class BlockGaussSeidel(SubspaceCorrection):
    """Successive subspace correction: the same local solves, one after another.

    On a disjoint block partition this is block Gauss-Seidel (line GS for
    grid lines); singleton subspaces reproduce unit-weight forward
    Gauss-Seidel.  The backward direction visits the subspaces in reverse
    order and is the adjoint of the forward one.
    """

    def __init__(self, a, blocks, direction="forward"):
        super().__init__(a, blocks)
        self.direction = direction

    def action(self, g):
        order = range(len(self.subspaces))
        if self.direction == "backward":
            order = reversed(order)
        x = np.zeros(self.n)
        r = g.copy()
        for k in order:
            idx = self.subspaces[k]
            x[idx] += scipy.linalg.cho_solve(self._factors[k], r[idx])
            r = g - self.a @ x
        return x

    def adjoint(self):
        flip = "backward" if self.direction == "forward" else "forward"
        return BlockGaussSeidel(self.a, self.subspaces, flip)


class SymmetrizedSmoother(Smoother):
    """Rbar = R' + R - R' A R, applied as two half-sweeps."""

    def __init__(self, smoother):
        super().__init__(smoother.a)
        self.inner = smoother
        self._adj = smoother.adjoint()

    def action(self, g):
        y = self.inner.action(g)
        return y + self._adj.action(g - self.a @ y)

    def adjoint(self):
        return self


def symmetrize(smoother):
    return SymmetrizedSmoother(smoother)


def estimate_rho_dinv_a(a, steps=200, tol=1e-10, seed=0):
    """Spectral radius of D^{-1}A by power iteration in the D-inner product."""
    dinv = 1.0 / _check_diagonal(a)
    d = a.diagonal()
    lam, _ = power_iteration(
        lambda v: dinv * (a @ v), a.n_rows, steps=steps, tol=tol, seed=seed,
        m_inner=lambda u, w: float(u @ (d * w)),
    )
    return max(lam, 1e-300)


@dataclass
class ConvergenceBound:
    converges: bool
    omega_limit: float


def convergence_bound(smoother, a=None):
    """Largest admissible damping: 2/rho(D^{-1}A) for Jacobi, 2 for Gauss-Seidel.

    A symmetrized smoother converges exactly when its inner smoother does,
    since |I - Rbar A|_A = |I - R A|_A^2.
    """
    a = a if a is not None else smoother.a
    if isinstance(smoother, SymmetrizedSmoother):
        return convergence_bound(smoother.inner, a)
    if isinstance(smoother, Jacobi):
        limit = 2.0 / estimate_rho_dinv_a(a)
        return ConvergenceBound(smoother.omega < limit, limit)
    if isinstance(smoother, GaussSeidel):
        return ConvergenceBound(0.0 < smoother.omega < 2.0, 2.0)
    # generic smoothers: convergent iff the symmetrized iterator is SPD
    from .analysis import materialize

    rbar = materialize(SymmetrizedSmoother(smoother).action, smoother.n)
    lam_min = scipy.linalg.eigh(0.5 * (rbar + rbar.T), eigvals_only=True)[0]
    return ConvergenceBound(bool(lam_min > 0.0), float("nan"))


def block_partition_lines(n, direction="x"):
    """Grid-line blocks of the lexicographic n x n grid, for line smoothing."""
    if direction not in ("x", "y"):
        raise ValueError("direction must be 'x' or 'y'")
    idx = np.arange(n * n).reshape(n, n)  # row j holds line y = j
    if direction == "x":
        return [idx[j, :].copy() for j in range(n)]
    return [idx[:, i].copy() for i in range(n)]


def make_smoother(a, kind="gs", omega=None, direction="x", grid_n=None):
    """Config-key smoother factory: jacobi | gs | sgs | line-gs."""
    if kind == "jacobi":
        return Jacobi(a, omega)
    if kind == "gs":
        return GaussSeidel(a, 1.0 if omega is None else omega)
    if kind == "sgs":
        return symmetrize(GaussSeidel(a, 1.0 if omega is None else omega))
    if kind == "line-gs":
        n = grid_n if grid_n is not None else int(round(np.sqrt(a.n_rows)))
        if n * n != a.n_rows:
            raise ValueError("line-gs needs a square grid problem")
        return BlockGaussSeidel(a, block_partition_lines(n, direction))
    raise ValueError(f"unknown smoother kind {kind!r}")
