"""Pointwise and block relaxation, symmetrization, and subspace corrections.

Every smoother is an immutable object over a fixed matrix A exposing

    apply(b, x, sweeps)  -- run stationary sweeps x <- x + B(b - A x)
    action(g)            -- one application of the iterator, B g
    adjoint()            -- the smoother whose iterator is B^T
    sparse_inverse()     -- M = B^{-1} as a sparse matrix, or None

Both apply and action take a vector or an (n, k) block and return the same
shape; a block gives, column for column, what each column alone gives.

Point and block Gauss-Seidel, B = (D_B/omega + L_B)^{-1}, solve with one
sparse LU of the block-lower triangle of A; the adjoint solves with its
transpose, so B^T is exact for any A and needs no second factorization.
That triangle is their sparse inverse M, and D/omega is Jacobi's; the
analysis layer forms the symmetrized smoother's inverse from M.
"""

import copy
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import _exponent, _index_lists, _index_sets, _refuse_beyond_cap, _stack_by_size
from .sparse import _masked_indptr


class SingularSmootherError(ValueError):
    pass


def _check_diagonal(a):
    d = a.diagonal()
    if np.any(d == 0.0):
        raise SingularSmootherError("matrix has a zero diagonal entry")
    return d


def _lower_triangle(a, block_of, omega):
    """The block-lower triangle of A (the a_ij with block_of[i] >= block_of[j]),
    its diagonal blocks divided by omega, as a CSC matrix.

    The triangle is masked out of A's CSC arrays, whose row indices already
    ascend within each column; it owns its arrays, so nothing done to it
    reaches A."""
    csc = a.mat.tocsc()
    bi = block_of[csc.indices]
    bj = np.repeat(block_of, np.diff(csc.indptr))
    keep = bi >= bj
    vals = np.where(bi == bj, csc.data / omega, csc.data)
    return sp.csc_matrix((vals[keep], csc.indices[keep], _masked_indptr(csc.indptr, keep)),
                         shape=a.shape)


def _lower_solver(t, ordering, panel_size=None):
    """Sparse LU of a Gauss-Seidel triangle ``t`` (``_lower_triangle``)."""
    try:
        return spla.splu(t, permc_spec=ordering, diag_pivot_thresh=0.0,
                         panel_size=panel_size, options={"SymmetricMode": False})
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise SingularSmootherError(f"Gauss-Seidel triangle is singular: {exc}") from exc


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

    def sparse_inverse(self):
        """M with B = M^{-1}, as a scipy sparse matrix; None for an iterator
        with no sparse inverse."""
        return None

    def apply(self, b, x=None, sweeps=1):
        """Iterate x <- x + B(b - A x) on a vector or an (n, k) block b, from
        x = 0 when x is None (the first sweep is then x = B b); sweeps=0
        returns x unchanged."""
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError("right-hand side has wrong length")
        if x is not None:
            x = np.array(x, dtype=float)
            if x.shape != b.shape:
                raise ValueError("iterate and right-hand side differ in shape")
        elif sweeps < 1:
            return np.zeros_like(b)
        else:
            x, sweeps = self.action(b), sweeps - 1
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
        dinv = self._dinv if np.ndim(g) == 1 else self._dinv[:, None]
        return self.omega * (dinv * g)

    def adjoint(self):
        return self

    def sparse_inverse(self):
        return sp.diags(self.a.diagonal() / self.omega, format="csr")


class GaussSeidel(Smoother):
    """B = (D/omega + L)^{-1}, factored in natural order (a triangle has no
    fill); the adjoint B^T is backward GS when A is symmetric."""

    _trans = "N"
    _block_of = None  # every index its own block; BlockGaussSeidel keeps its blocks

    def __init__(self, a, omega=1.0):
        super().__init__(a)
        if omega <= 0:
            raise ValueError("omega must be positive")
        _check_diagonal(a)
        self.omega = float(omega)
        # no fill and no reordering, so SuperLU's column panels only cost time
        self._lu = _lower_solver(self.sparse_inverse(), "NATURAL", panel_size=1)

    def action(self, g):
        return self._lu.solve(g, trans=self._trans)

    def adjoint(self):
        adj = copy.copy(self)
        adj._trans = "T" if self._trans == "N" else "N"
        return adj

    def sparse_inverse(self):
        """The triangle D_B/omega + L_B of A, transposed for the adjoint."""
        block_of = np.arange(self.n) if self._block_of is None else self._block_of
        t = _lower_triangle(self.a, block_of, self.omega)
        return t if self._trans == "N" else t.T


class SubspaceCorrection(Smoother):
    """Parallel subspace correction: B = sum_i I_i A_i^{-1} I_i'.

    Exact local solves on index-set subspaces that cover the unknowns and
    may overlap; singleton subspaces reproduce unit-weight Jacobi.  Blocks of one
    size share one batched Cholesky; a local solve is cho_solve's own LAPACK
    ``potrs``, keeping B's rounding, which the energy-min basis amplifies.
    ``ptr`` and ``flat`` hold the subspaces in CSR layout (``_index_lists``).
    """

    def __init__(self, a, subspaces):
        super().__init__(a)
        ptr, flat = self.ptr, self.flat = _index_lists(subspaces, self.n, "subspace")
        sizes = np.diff(ptr)
        if not (sizes.all() and np.bincount(flat, minlength=self.n).all()):
            raise ValueError("subspaces must be non-empty and cover every index")
        self.subspaces = _index_sets(ptr, flat)
        self._factors, singular = {}, []
        for pos, k in _stack_by_size(sizes):
            idx = flat[ptr[pos, None] + np.arange(k)]
            rows, cols = np.repeat(idx, k, axis=1).ravel(), np.tile(idx, k).ravel()
            blocks = np.asarray(a.mat[rows, cols]).reshape(-1, k, k)
            try:
                u = np.linalg.cholesky(blocks, upper=True)
            except np.linalg.LinAlgError:
                singular.append(next(p for p, blk in zip(pos, blocks)  # its first potrf failure
                                     if scipy.linalg.lapack.dpotrf(blk)[1]))
                continue
            self._factors.update(zip(pos.tolist(), np.ascontiguousarray(u.mT).mT))  # Fortran order
        if singular:
            raise SingularSmootherError(f"local block for subspace {min(singular)} is singular")

    def local_solves(self, g):
        """Yield (I_i, A_i^{-1} I_i' g) for each subspace i in order."""
        for i, idx in enumerate(self.subspaces):
            yield idx, scipy.linalg.lapack.dpotrs(self._factors[i], g[idx], overwrite_b=True)[0]

    def action(self, g):
        out = np.zeros(np.shape(g))
        for idx, y in self.local_solves(g):
            out[idx] += y
        return out

    def adjoint(self):
        return self


class BlockGaussSeidel(GaussSeidel):
    """Block GS on a disjoint partition, B = (D_B + L_B)^{-1}: successive
    subspace correction visiting the blocks in order (line GS for grid lines,
    unit-weight GS for singletons).  The block triangle fills in when
    factored, so it takes a fill-reducing ordering."""

    def __init__(self, a, blocks):
        Smoother.__init__(self, a)
        ptr, flat = _index_lists(blocks, self.n, "block")
        if not (np.bincount(flat, minlength=self.n) == 1).all():
            raise ValueError("blocks must be disjoint and cover every index")
        self._block_of = np.empty(self.n, dtype=np.int64)
        self._block_of[flat] = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
        self.omega = 1.0
        self._lu = _lower_solver(self.sparse_inverse(), "MMD_AT_PLUS_A")

    def action(self, g):  # its own, so per-class action counts tell line from point GS
        return self._lu.solve(g, trans=self._trans)


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


def estimate_rho_dinv_a(a, steps=200):
    """Spectral radius of D^{-1}A by power iteration in the D-inner product.

    Starts from a uniform random vector of seed 0 and stops early once the
    Rayleigh quotient changes by less than 1e-10 relatively.  A is read at
    the even power of two that brings max|a_ii| near 1: exact, so 1/a_ii and
    the D-norms stay in range at any scale of A.  A diagonal that gives no D
    inner product (a 1/a_ii that overflows, or a start vector whose v'Dv is
    not positive, as with a negative diagonal) is refused by a
    SingularSmootherError that names it."""
    diag = _check_diagonal(a)
    shift = -2 * (_exponent(diag) // 2)  # even: the D-norm's square root stays exact
    d = np.ldexp(diag, shift)
    v = np.random.default_rng(0).uniform(-1.0, 1.0, size=a.n_rows)
    with np.errstate(over="ignore"):  # an overflow is refused by name below
        dinv = 1.0 / d
        v_dv = float(v @ (d * v))
    if not (0.0 < v_dv < np.inf and np.isfinite(dinv).all()):
        raise SingularSmootherError(f"rho(D^-1 A) needs a D inner product, but the "
                                    f"diagonal of A runs from {diag.min():.3g} to {diag.max():.3g}")
    v /= np.sqrt(v_dv)
    lam = 0.0
    for _ in range(steps):
        w = dinv * np.ldexp(a @ v, shift)
        lam_new = float(w @ (d * v))
        nrm = np.sqrt(max(float(w @ (d * w)), 0.0))
        if nrm == 0.0:
            return 1e-300
        v = w / nrm
        if abs(lam_new - lam) <= 1e-10 * max(abs(lam_new), 1e-300):
            return max(lam_new, 1e-300)
        lam = lam_new
    return max(lam, 1e-300)


@dataclass
class ConvergenceBound:
    converges: bool
    omega_limit: float


def convergence_bound(smoother):
    """Largest admissible damping: 2/rho(D^{-1}A) for Jacobi, 2 for Gauss-Seidel.

    A symmetrized smoother converges exactly when its inner smoother does,
    since |I - Rbar A|_A = |I - R A|_A^2.  Any other smoother is tested on
    its dense symmetrized iterator, which is refused beyond ``DENSE_CAP``.
    """
    if isinstance(smoother, SymmetrizedSmoother):
        return convergence_bound(smoother.inner)
    if isinstance(smoother, Jacobi):
        limit = 2.0 / estimate_rho_dinv_a(smoother.a)
        return ConvergenceBound(smoother.omega < limit, limit)
    if isinstance(smoother, GaussSeidel):
        return ConvergenceBound(0.0 < smoother.omega < 2.0, 2.0)
    # generic smoothers: convergent iff the symmetrized iterator is SPD
    _refuse_beyond_cap(smoother.n, f"convergence_bound of a {type(smoother).__name__}")
    from .analysis import materialize  # analysis imports this module

    rbar = materialize(SymmetrizedSmoother(smoother).action, smoother.n)
    lam_min = scipy.linalg.eigh(0.5 * (rbar + rbar.T), eigvals_only=True)[0]
    return ConvergenceBound(bool(lam_min > 0.0), float("nan"))


def _check_direction(direction):
    """Grid lines run along "x" or "y"."""
    if direction not in ("x", "y"):
        raise ValueError("direction must be 'x' or 'y'")


def block_partition_lines(n, direction="x"):
    """Grid-line blocks of the lexicographic n x n grid: row k is line k."""
    _check_direction(direction)
    idx = np.arange(n * n).reshape(n, n)  # row j holds line y = j
    return idx if direction == "x" else idx.T


SMOOTHERS = ("jacobi", "gs", "sgs", "line-gs")  # the kinds of make_smoother


def _check_smoother(kind):
    if kind not in SMOOTHERS:
        raise ValueError(f"unknown smoother kind {kind!r}")


def make_smoother(a, kind="gs", omega=None, direction="x"):
    """Config-key smoother factory, one of ``SMOOTHERS``."""
    _check_smoother(kind)
    if kind == "jacobi":
        return Jacobi(a, omega)
    if kind == "line-gs":
        n = int(round(np.sqrt(a.n_rows)))
        if n * n != a.n_rows:
            raise ValueError("line-gs needs a square grid problem")
        return BlockGaussSeidel(a, block_partition_lines(n, direction))
    gs = GaussSeidel(a, 1.0 if omega is None else omega)
    return symmetrize(gs) if kind == "sgs" else gs
