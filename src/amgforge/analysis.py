"""Dense oracles for the exact two-level theory.

Everything here is desk-scale by design: symmetric eigensolves verify the
exact convergence identity (error norm squared = 1 - 1/K), the optimality of
low-end eigenvector coarse spaces, and the trace-minimization bound, for any
smoother/prolongation pair produced by the rest of the package.

Within ``DENSE_CAP`` unknowns the error norm is exact: the top eigenvalue of
the pencil (E'AE, A) of the materialized propagator.  The Rbar-norm oracles
share one dense frame: A, Rbar^{-1} and the spectrum mu of Rbar A.  For the
symmetrized Gauss-Seidel, line Gauss-Seidel and Jacobi smoothers over a
symmetric A, Rbar^{-1} = M (M + M' - A)^{-1} M' comes from the smoother's
sparse inverse M = R^{-1} and one sparse factorization of M + M' - A; for
any other Rbar (subspace correction, SGS as an inner smoother, a raw
smoother, a dense array) it comes from one eigendecomposition of the
materialized Rbar.  A smoother's frame is built once and
held, read-only, for as long as the smoother lives, so every report on one
smoother shares it; the P- and kernel-dependent parts, the error norm and
K(V_c), are computed per report.  The optimal coarse space is the low end of
the pencil (A, Rbar^{-1}), and K(V_c) the top of the pencil
(Rbar^{-1} - X (P'X)^{-1} X', A) with X = Rbar^{-1} P.  P may be a
``Prolongation``, a ``SparseMatrix`` or an array.
Beyond the cap only the error norm is available, from one LOBPCG run on the
same pencil (Knyazev, SISC 23(2), 2001), preconditioned by a solve with A.
That solve, and every solve with a coarse matrix P'AP, follow the one
coarse-solve rule, ``linalg.SymPseudoInverse``, keyed on the order of the
matrix solved.
"""

import functools
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import DENSE_CAP, SymPseudoInverse, _columns, _refuse_beyond_cap
from .smoothers import Smoother, SymmetrizedSmoother, symmetrize
from .sparse import SYMMETRIC, SparseMatrix


def materialize(action, n):
    """The n x n matrix of a linear action, from one call on the identity.

    Every action here maps an (n, k) block to an (n, k) block, column for
    column; one that does not is refused."""
    m = np.asarray(action(np.eye(n)), dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"action is not block-safe: it maps the {n} x {n} "
                         f"identity to shape {m.shape}")
    return m


def _complement(kernel):
    """Euclidean-orthonormal basis of a complement of the kernel columns, from
    the complete QR; None when there is no kernel."""
    if kernel is None or kernel.size == 0:
        return None
    q, _ = np.linalg.qr(kernel, mode="complete")
    return q[:, kernel.shape[1]:]


def _restrict(mat, u):
    return mat if u is None else u.T @ mat @ u


def _p_matrix(p):
    """P, given as a Prolongation, a SparseMatrix or an array, as a scipy
    sparse matrix."""
    p = getattr(p, "matrix", p)
    if isinstance(p, SparseMatrix):
        return p.mat
    return sp.csr_matrix(np.asarray(p, dtype=float))


def _top_eigenvalue(m, b, overwrite_b=False):
    """Largest eigenvalue of the symmetric pencil (m, b), b = A on the tested space, which
    must be positive definite.  m is symmetrized in place and eigh works in its memory;
    ``overwrite_b`` lets eigh work in b's too."""
    k = m.shape[0]
    m += m.T  # exactly symmetric, so m.T is m in the F order eigh works in
    m *= 0.5
    try:
        return float(scipy.linalg.eigh(m.T, b, eigvals_only=True, subset_by_index=[k - 1, k - 1],
                                       overwrite_a=True, overwrite_b=overwrite_b)[0])
    except np.linalg.LinAlgError as exc:
        raise ValueError("A is singular on the tested space; pass its kernel") from exc


@dataclass
class _Frame:
    """Dense A and Rbar^{-1}, the factor every Rbar-norm oracle shares."""

    a: np.ndarray  # dense A, read-only
    rinv: np.ndarray  # Rbar^{-1}, read-only
    mu: np.ndarray = None  # spectrum of Rbar A, once _mu has computed it


# smoother -> {symmetrized: frame}.  A SymmetrizedSmoother is filed under its
# inner smoother, so every symmetrize(s) finds one frame; s itself taken as
# Rbar is the other slot.  Weak keys: a frame lives as long as its smoother.
_FRAMES = weakref.WeakKeyDictionary()


def _frame(a, rbar):
    """The dense frame of (A, Rbar), Rbar a smoother or a dense n x n array;
    a smoother over this very A, or over a CSR-equal copy, gets its cached frame."""
    if not (isinstance(rbar, Smoother) and (a is rbar.a or (
            a.shape == rbar.a.shape and (a.mat != rbar.a.mat).nnz == 0))):
        return _build_frame(a, rbar)
    symmetrized = isinstance(rbar, SymmetrizedSmoother)
    slots = _FRAMES.setdefault(rbar.inner if symmetrized else rbar, {})
    if symmetrized not in slots:
        slots[symmetrized] = _build_frame(a, rbar)
    return slots[symmetrized]


_NOT_SPD = "Rbar must be SPD (smoother not A-convergent)"


def _build_frame(a, rbar):
    """Dense A and Rbar^{-1} of (A, Rbar), both read-only; Rbar must be SPD.

    A smoother R = M^{-1} with a sparse M (``Smoother.sparse_inverse``) over
    a symmetric A, taken symmetrized, gets the closed form of its inverse
    (``_closed_form_rinv``), built from the smoother's own A.  Any other
    Rbar (a smoother with no sparse inverse, a raw smoother, a dense array)
    is materialized and inverted by one eigendecomposition."""
    n = a.n_rows
    _refuse_beyond_cap(n, "the Rbar frame")
    m = None
    if isinstance(rbar, SymmetrizedSmoother) and rbar.inner.a.symmetry == SYMMETRIC:
        m = rbar.inner.sparse_inverse()
    if m is not None:
        rinv = _closed_form_rinv(rbar.inner.a, m)
    else:
        if isinstance(rbar, Smoother):
            rbar = materialize(rbar.action, n)
        rbar = np.asarray(rbar, dtype=float)
        if rbar.shape != (n, n):
            raise ValueError("Rbar has the wrong shape")
        w, v = scipy.linalg.eigh(0.5 * (rbar + rbar.T))
        if w[0] <= 0.0:
            raise ValueError(_NOT_SPD)
        rinv = (v / w) @ v.T
    frame = _Frame(a.toarray(), rinv)
    frame.a.flags.writeable = frame.rinv.flags.writeable = False
    return frame


def _closed_form_rinv(a, m):
    """Dense Rbar^{-1} = M K^{-1} M' for Rbar = R + R' - R'AR with R = M^{-1}
    and A symmetric, where K = M + M' - A: diagonal for point GS, the line
    blocks for line GS.  K is factored sparsely, and refused unless SPD."""
    k = sp.csc_matrix(m + m.T - a.mat)
    try:
        lu = spla.splu(k, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise ValueError(_NOT_SPD) from exc
    # pivoting on the diagonal only (perm_r equal to perm_c), the LU of a
    # symmetric K is its LDL', so K is SPD exactly when every pivot is positive
    if (lu.perm_r != lu.perm_c).any() or not (lu.U.diagonal() > 0.0).all():
        raise ValueError(_NOT_SPD)
    y = lu.solve(m.T.toarray())  # K^{-1} M', in Fortran order
    rinv = m @ np.ascontiguousarray(y)  # scipy's fast sparse-by-block product reads C order
    del y
    rinv += rinv.T  # exactly symmetric
    rinv *= 0.5
    return rinv


def _mu(frame):
    """The spectrum of Rbar A, values only, from the pencil (A, Rbar^{-1});
    computed on a frame's first use and kept on it, read-only."""
    if frame.mu is None:
        frame.mu = scipy.linalg.eigh(frame.a, frame.rinv, eigvals_only=True)
        frame.mu.flags.writeable = False
    return frame.mu


# LOBPCG beyond the cap: block size, iteration cap, stopping residual per sqrt(max |a_ii|)
# (as an A-normalized residual scales), and the top-pair residual that flags a lower bound
_LOBPCG_BLOCK = 4
_LOBPCG_MAXITER = 200
_LOBPCG_TOL = 1e-5
_LOWER_BOUND_RESIDUAL = 1e-4


def error_norm(a, e_action, e_action_t=None, kernel=None):
    """A-norm of an error propagator E on the complement of A's kernel: the
    square root of the top eigenvalue of the pencil (E'AE, A).

    ``e_action`` and ``e_action_t`` (the action of E') map an (n, k) block to
    an (n, k) block.  For n <= DENSE_CAP the value is exact, from one
    generalized eigensolve on the materialized E; ``e_action_t`` is unused,
    and a singular A needs its ``kernel``.  Beyond the cap it is the top Ritz
    value of one seeded LOBPCG run, preconditioned by ``SymPseudoInverse``'s
    solve with A, which refuses a singular A.  A Ritz value is a lower bound;
    a warning says so when its pair's relative residual
    |E'AEx - lambda Ax| / (lambda |Ax|) exceeds 1e-4.  Values above
    1 + 1e-8 are flagged with a warning but still returned.
    """
    n = a.n_rows
    kernel = _columns(kernel)
    if n <= DENSE_CAP:
        e = materialize(e_action, n)
        u = _complement(kernel)
        if u is not None:
            e = e @ u
        m = e.T @ (a.mat @ e)
        del e  # materialize's arrays are gone before the pencil is solved
        a_u = a.mat.toarray(order="F") if u is None else np.asfortranarray(u.T @ (a.mat @ u))
        lam = _top_eigenvalue(m, a_u, overwrite_b=True)
    else:
        if kernel is not None:
            raise ValueError("singular problems need n within the dense cap")
        if e_action_t is None:
            raise ValueError("supply the transposed action beyond the dense cap")
        amat = a.mat
        precond = SymPseudoInverse(a, "A").solve  # refuses a singular A by name

        def ete(v):
            return e_action_t(amat @ e_action(v))

        x0 = np.random.default_rng(0).uniform(-1.0, 1.0, (n, min(_LOBPCG_BLOCK, n)))
        with warnings.catch_warnings():
            # scipy flags every unconverged block vector; only the top pair is judged below
            warnings.simplefilter("ignore")
            lams, xs = spla.lobpcg(ete, x0, B=amat, M=precond, largest=True,
                                   maxiter=_LOBPCG_MAXITER,
                                   tol=_LOBPCG_TOL * np.sqrt(np.abs(a.diagonal()).max()))
        lam, x = float(lams.max()), xs[:, np.argmax(lams)]
        ax = amat @ x
        if np.linalg.norm(ete(x) - lam * ax) > _LOWER_BOUND_RESIDUAL * lam * np.linalg.norm(ax):
            warnings.warn(f"LOBPCG did not converge: {lam:.6f} is a lower bound on |E|_A^2",
                          stacklevel=2)
    value = np.sqrt(max(lam, 0.0))
    if value > 1.0 + 1e-8:
        warnings.warn(f"error propagator is not contractive: estimate {value:.6f}",
                      stacklevel=2)
    return value


def two_level_error_action(a, smoother, p):
    """Actions of E = (I - RA)(I - Pi_c) and its transpose, on a vector or
    an (n, k) block, with the coarse solve of ``SymPseudoInverse(P^T A P)``."""
    pmat = _p_matrix(p)
    a_c = pmat.T @ (a.mat @ pmat)
    # beyond the cap P^T A P is factored at the first action, so error_norm
    # factors A first and a singular A is refused under its own name
    coarse = functools.cache(lambda: SymPseudoInverse(a_c, "coarse matrix P^T A P"))
    if a.n_rows <= DENSE_CAP:
        coarse()
    pmat_t = pmat.T
    amat = a.mat
    adj = smoother.adjoint()

    def e_action(v):
        # in place, and v dropped once read: the identity materialize hands
        # over is then freed before the smoother's arrays are made, so E on
        # the identity holds three n x n arrays at once, not four
        w = pmat @ coarse().solve(pmat_t @ (amat @ v))
        np.subtract(v, w, out=w)
        del v
        return np.subtract(w, smoother.action(amat @ w), out=w)

    def e_action_t(v):
        w = v - amat @ (adj.action(v))
        return w - amat @ (pmat @ coarse().solve(pmat_t @ w))

    return e_action, e_action_t


def two_level_error_norm(a, smoother, p, kernel=None):
    e_action, e_action_t = two_level_error_action(a, smoother, p)
    return error_norm(a, e_action, e_action_t, kernel=kernel)


def k_of_vc(a, rbar, p, kernel=None):
    """Two-level quality constant K: worst R-bar-norm distance to the coarse
    space relative to the A-norm, restricted to the kernel complement.

    Computed densely as the largest eigenvalue of the pencil
    (I-Q_c)' Rbar^{-1} (I-Q_c) v = lambda A v, with Q_c the
    Rbar^{-1}-orthogonal projection onto range(P).  That matrix is the Schur
    form Rbar^{-1} - X (P'X)^{-1} X' with X = Rbar^{-1} P, so no n x n
    projector is formed.  ``rbar`` is a smoother or a dense array.
    """
    f = _frame(a, rbar)
    kernel = _columns(kernel)
    pm = _p_matrix(p).toarray()
    if kernel is not None:
        coef, *_ = np.linalg.lstsq(pm, kernel, rcond=None)
        defect = np.linalg.norm(pm @ coef - kernel)
        if defect > 1e-8 * max(1.0, np.linalg.norm(kernel)):
            raise ValueError("kernel of A is not contained in range(P)")
    x = f.rinv @ pm
    m = x @ np.linalg.solve(pm.T @ x, x.T)
    np.subtract(f.rinv, m, out=m)  # in place: one n x n array fewer
    u = _complement(kernel)
    # K >= 1 whenever range(P) is a proper subspace; the degenerate
    # full-space case (Q_c = identity) has rate 0, i.e. K = 1
    return max(_top_eigenvalue(_restrict(m, u), _restrict(f.a, u)), 1.0)


def optimal_coarse_space(a, rbar, n_c):
    """Low-end eigenvector coarse space of Rbar A and its full spectrum.

    Returns (P_opt, mu) from the pencil A z = mu Rbar^{-1} z: columns are
    Rbar^{-1}-orthonormal eigenvectors for the n_c smallest eigenvalues; the
    exact two-level rate with this space is 1 - mu_{n_c+1}.  ``rbar`` is a
    smoother or a dense array.
    """
    f = _frame(a, rbar)
    mu, z = scipy.linalg.eigh(f.a, f.rinv)
    return z[:, :n_c], mu


@dataclass
class TraceReport:
    bound: float
    optimal_trace: float
    candidate_traces: list
    all_above: bool
    optimal_attains: bool


def _rbar_inv_orthonormalize(x, rinv):
    g = x.T @ rinv @ x
    chol = np.linalg.cholesky(g)
    return x @ np.linalg.inv(chol).T


def trace_check(a, rbar, p_opt, candidates):
    """Ky-Fan trace bound: no Rbar^{-1}-orthonormal basis of matching width
    can push trace(Q' A Q) below the sum of the n_c smallest eigenvalues;
    both verdicts allow 1e-9 of rounding."""
    f = _frame(a, rbar)
    n_c = p_opt.shape[1]
    bound = float(_mu(f)[:n_c].sum())
    q_opt = _rbar_inv_orthonormalize(np.asarray(p_opt, dtype=float), f.rinv)
    opt_trace = float(np.trace(q_opt.T @ f.a @ q_opt))
    traces = []
    for cand in candidates:
        q = _rbar_inv_orthonormalize(np.asarray(cand, dtype=float), f.rinv)
        traces.append(float(np.trace(q.T @ f.a @ q)))
    return TraceReport(
        bound=bound,
        optimal_trace=opt_trace,
        candidate_traces=traces,
        all_above=all(t >= bound - 1e-9 for t in traces),
        optimal_attains=abs(opt_trace - bound) <= 1e-9,
    )


def classify_frequencies(a, rbar, v, eps, delta):
    """'low' when the A-energy is small against the Rbar^{-1} norm, 'high'
    when it dominates, 'neither' in the gap between eps and delta."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("cannot classify the zero vector")
    f = _frame(a, rbar)
    energy = float(v @ (a.mat @ v))
    rnorm = float(v @ (f.rinv @ v))
    if energy <= eps * rnorm:
        return "low"
    if energy >= delta * rnorm:
        return "high"
    return "neither"


def weyl_ratio(a, d):
    """(min, max) over k of lambda_k * (N/k)^(2/d) for the dense spectrum."""
    n = a.n_rows
    _refuse_beyond_cap(n, "weyl_ratio")
    lam = scipy.linalg.eigh(a.toarray(), eigvals_only=True)
    k = np.arange(1, n + 1)
    ratios = lam * (n / k) ** (2.0 / d)
    return float(ratios.min()), float(ratios.max())


@dataclass
class TwoLevelReport:
    builder: str
    n: int
    n_c: int
    e_norm_sq: float
    k_vc: float
    mu_spectrum: np.ndarray = None

    @property
    def rate_from_k(self):
        return 1.0 - 1.0 / self.k_vc

    @property
    def rate_from_mu(self):
        """Optimal-coarse-space lower bound 1 - mu_{n_c+1} of matching width."""
        if self.mu_spectrum is None:
            return float("nan")
        return 1.0 - float(self.mu_spectrum[self.n_c])

    @property
    def identity_gap(self):
        return abs(self.e_norm_sq - self.rate_from_k)


def two_level_report(a, smoother, p, kernel=None, include_mu=False):
    """Measure the exact two-level rate and its theoretical value side by side.

    The measured side, |E|_A^2, never sees Rbar; the theoretical side, K and
    the optimal spectrum mu (values only), share one frame of Rbar.  That
    frame and mu are built on the first report on ``smoother`` and held as
    long as the smoother lives, so a gallery of coarse spaces under one
    smoother pays for them once; ``mu_spectrum`` is then shared, read-only.
    """
    rbar = symmetrize(smoother)
    # the frame is built before error_norm's arrays, and k_of_vc finds it
    # cached when A is the smoother's own or a CSR-equal copy of it
    frame = _frame(a, rbar)
    e_sq = two_level_error_norm(a, smoother, p, kernel=kernel) ** 2
    k = k_of_vc(a, rbar, p, kernel)
    builder = getattr(p, "builder", "custom")
    n_c = _p_matrix(p).shape[1]
    mu = _mu(frame) if include_mu else None
    return TwoLevelReport(builder, a.n_rows, n_c, float(e_sq), float(k), mu)


def additive_condition(a, p, kernel=None):
    """Condition number of the additive two-level preconditioned operator
    (coarse solve plus pointwise diagonal), measured on the kernel complement."""
    _refuse_beyond_cap(a.n_rows, "additive_condition")
    a_dense = a.toarray()
    pm = _p_matrix(p).toarray()
    coarse = SymPseudoInverse(pm.T @ a_dense @ pm)
    b_hat = pm @ coarse.solve(pm.T) + np.diag(1.0 / a.diagonal())
    u = _complement(_columns(kernel))
    m = _restrict(a_dense @ b_hat @ a_dense, u)
    lam = scipy.linalg.eigh(0.5 * (m + m.T), _restrict(a_dense, u), eigvals_only=True)
    return float(lam[-1] / lam[0])
