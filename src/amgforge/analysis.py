"""Dense oracles for the exact two-level theory.

Everything here is desk-scale by design: symmetric eigensolves verify the
exact convergence identity (error norm squared = 1 - 1/K), the optimality of
low-end eigenvector coarse spaces, and the trace-minimization bound, for any
smoother/prolongation pair produced by the rest of the package.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from . import sparse
from .linalg import SymPseudoInverse
from .smoothers import Smoother, symmetrize

DENSE_CAP = 2000


def materialize(action, n):
    return np.column_stack([action(e) for e in np.eye(n)])


def _rbar_matrix(rbar, n):
    """Symmetric part of Rbar, given as a smoother or a dense n x n array."""
    if isinstance(rbar, Smoother):
        rbar = materialize(rbar.action, n)
    rbar = np.asarray(rbar, dtype=float)
    if rbar.shape != (n, n):
        raise ValueError("Rbar has the wrong shape")
    return 0.5 * (rbar + rbar.T)


def _range_basis(a_dense, kernel):
    """Euclidean-orthonormal basis of a complement of the kernel."""
    n = a_dense.shape[0]
    if kernel is None or kernel.size == 0:
        return np.eye(n)
    q, _ = np.linalg.qr(np.atleast_2d(kernel.T).T)
    full = np.linalg.svd(np.eye(n) - q @ q.T)[0]
    return full[:, : n - q.shape[1]]


def error_norm(a, e_action, e_action_t=None, kernel=None, dense_cap=DENSE_CAP,
               steps=500, tol=1e-12, seed=0, block=4):
    """A-norm of an error propagator by power iteration on E*E.

    The power iteration runs on a small block (subspace iteration with a
    Rayleigh-Ritz projection each step), which stays reliable when the top
    of the spectrum clusters.  The adjoint is taken in the A-inner product,
    so each step needs one solve with A: a sparse factorization when A is
    nonsingular, the dense pseudo-inverse (kernel deflation) otherwise.
    Estimates above 1 + 1e-8 are flagged with a warning but still returned.
    """
    n = a.n_rows
    if kernel is not None:
        kernel = np.atleast_2d(np.asarray(kernel, dtype=float).T).T
        if n > dense_cap:
            raise ValueError("singular problems need n within the dense cap")
        pinv = SymPseudoInverse(a.toarray())
        solve = pinv.solve
        q, _ = np.linalg.qr(kernel)
        deflate = lambda v: v - q @ (q.T @ v)
    else:
        lu = spla.splu(a.mat.tocsc())
        solve = lu.solve
        deflate = lambda v: v
    if e_action_t is None:
        if n > dense_cap:
            raise ValueError("supply the transposed action beyond the dense cap")
        e_mat = materialize(e_action, n)
        e_action = lambda v: e_mat @ v
        e_action_t = lambda v: e_mat.T @ v
    amat = a.mat
    b = max(1, min(block, n))

    def orthonormalize(block_v):
        # A-orthonormal columns via the Gram Cholesky; drop directions lost
        # to rank deficiency (e.g. E of low rank)
        gram = block_v.T @ (amat @ block_v)
        gram = 0.5 * (gram + gram.T)
        for k in range(block_v.shape[1], 0, -1):
            try:
                chol = np.linalg.cholesky(gram[:k, :k])
                return block_v[:, :k] @ np.linalg.inv(chol).T
            except np.linalg.LinAlgError:
                continue
        return None

    rng = np.random.default_rng(seed)
    v = orthonormalize(np.column_stack(
        [deflate(rng.uniform(-1.0, 1.0, n)) for _ in range(b)]))
    lam = 0.0
    if v is None:
        return 0.0
    for _ in range(steps):
        ev = np.column_stack([e_action(v[:, k]) for k in range(v.shape[1])])
        # Rayleigh-Ritz estimate on the current A-orthonormal block
        h = ev.T @ (amat @ ev)
        lam_new = float(scipy.linalg.eigh(0.5 * (h + h.T), eigvals_only=True)[-1])
        w = np.column_stack([deflate(solve(e_action_t(amat @ ev[:, k])))
                             for k in range(ev.shape[1])])
        v_next = orthonormalize(w)
        if v_next is None:
            lam = lam_new
            break
        v = v_next
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            lam = lam_new
            break
        lam = lam_new
    value = np.sqrt(max(lam, 0.0))
    if value > 1.0 + 1e-8:
        warnings.warn(f"error propagator is not contractive: estimate {value:.6f}",
                      stacklevel=2)
    return value


def two_level_error_action(a, smoother, p):
    """Actions of E = (I - RA)(I - Pi_c) and its transpose.

    The coarse solve uses the symmetric pseudo-inverse of P^T A P, so
    semidefinite coarse matrices are handled by the global convention.
    """
    pm = p.matrix if hasattr(p, "matrix") else p
    if isinstance(pm, np.ndarray):
        pmat = pm
        a_c = pmat.T @ (a.mat @ pmat)
    else:
        pmat = pm.mat
        a_c = (pmat.T @ (a.mat @ pmat)).toarray()
    coarse = SymPseudoInverse(0.5 * (a_c + a_c.T))
    amat = a.mat
    adj = smoother.adjoint()

    def e_action(v):
        w = v - pmat @ coarse.solve(pmat.T @ (amat @ v))
        return w - smoother.action(amat @ w)

    def e_action_t(v):
        w = v - amat @ (adj.action(v))
        return w - amat @ (pmat @ coarse.solve(pmat.T @ w))

    return e_action, e_action_t


def two_level_error_norm(a, smoother, p, kernel=None, **kw):
    e_action, e_action_t = two_level_error_action(a, smoother, p)
    return error_norm(a, e_action, e_action_t, kernel=kernel, **kw)


def k_of_vc(a, rbar, p, kernel=None):
    """Two-level quality constant K: worst R-bar-norm distance to the coarse
    space relative to the A-norm, restricted to the kernel complement.

    Computed densely as the largest eigenvalue of the pencil
    (I-Q_c)' Rbar^{-1} (I-Q_c) v = lambda A v, with Q_c the
    Rbar^{-1}-orthogonal projection onto range(P).
    """
    n = a.n_rows
    if n > DENSE_CAP:
        raise ValueError("K(V_c) is a dense oracle; n exceeds the cap")
    rbar_m = _rbar_matrix(rbar, n)
    w = scipy.linalg.eigh(rbar_m, eigvals_only=True)
    if w[0] <= 0.0:
        raise ValueError("Rbar must be SPD (smoother not A-convergent)")
    rinv = np.linalg.inv(rbar_m)
    pm = p.matrix.toarray() if hasattr(p, "matrix") else np.asarray(p, dtype=float)
    a_dense = a.toarray()
    if kernel is not None:
        kernel = np.atleast_2d(np.asarray(kernel, dtype=float).T).T
        coef, resid, *_ = np.linalg.lstsq(pm, kernel, rcond=None)
        defect = np.linalg.norm(pm @ coef - kernel)
        if defect > 1e-8 * max(1.0, np.linalg.norm(kernel)):
            raise ValueError("kernel of A is not contained in range(P)")
    gram = pm.T @ rinv @ pm
    q_c = pm @ np.linalg.solve(gram, pm.T @ rinv)
    resid_op = np.eye(n) - q_c
    m = resid_op.T @ rinv @ resid_op
    u = _range_basis(a_dense, kernel)
    lam = scipy.linalg.eigh(u.T @ (0.5 * (m + m.T)) @ u, u.T @ a_dense @ u,
                            eigvals_only=True)
    # K >= 1 whenever range(P) is a proper subspace; the degenerate
    # full-space case (Q_c = identity) has rate 0, i.e. K = 1
    return float(max(lam[-1], 1.0))


def optimal_coarse_space(a, rbar, n_c):
    """Low-end eigenvector coarse space of Rbar A and its full spectrum.

    Returns (P_opt, mu): columns are Rbar^{-1}-orthonormal eigenvectors for
    the n_c smallest eigenvalues; the exact two-level rate with this space
    is 1 - mu_{n_c+1}.
    """
    n = a.n_rows
    if n > DENSE_CAP:
        raise ValueError("optimal coarse space is a dense oracle; n exceeds the cap")
    rbar_m = _rbar_matrix(rbar, n)
    w, v = scipy.linalg.eigh(rbar_m)
    if w[0] <= 0.0:
        raise ValueError("Rbar must be SPD")
    sqrt_r = v @ np.diag(np.sqrt(w)) @ v.T
    c = sqrt_r @ a.toarray() @ sqrt_r
    mu, y = scipy.linalg.eigh(0.5 * (c + c.T))
    zeta = sqrt_r @ y
    return zeta[:, :n_c], mu


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


def trace_check(a, rbar, p_opt, candidates, tol=1e-9):
    """Ky-Fan trace bound: no Rbar^{-1}-orthonormal basis of matching width
    can push trace(Q' A Q) below the sum of the n_c smallest eigenvalues."""
    n = a.n_rows
    rbar_m = _rbar_matrix(rbar, n)
    rinv = np.linalg.inv(rbar_m)
    a_dense = a.toarray()
    _, mu = optimal_coarse_space(a, rbar_m, p_opt.shape[1])
    n_c = p_opt.shape[1]
    bound = float(mu[:n_c].sum())
    q_opt = _rbar_inv_orthonormalize(np.asarray(p_opt, dtype=float), rinv)
    opt_trace = float(np.trace(q_opt.T @ a_dense @ q_opt))
    traces = []
    for cand in candidates:
        q = _rbar_inv_orthonormalize(np.asarray(cand, dtype=float), rinv)
        traces.append(float(np.trace(q.T @ a_dense @ q)))
    return TraceReport(
        bound=bound,
        optimal_trace=opt_trace,
        candidate_traces=traces,
        all_above=all(t >= bound - tol for t in traces),
        optimal_attains=abs(opt_trace - bound) <= tol,
    )


def classify_frequencies(a, rbar, v, eps, delta):
    """'low' when the A-energy is small against the Rbar^{-1} norm, 'high'
    when it dominates, 'neither' in the gap between eps and delta."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("cannot classify the zero vector")
    n = a.n_rows
    rbar_m = _rbar_matrix(rbar, n)
    energy = float(v @ (a.mat @ v))
    rnorm = float(v @ np.linalg.solve(rbar_m, v))
    if energy <= eps * rnorm:
        return "low"
    if energy >= delta * rnorm:
        return "high"
    return "neither"


def weyl_ratio(a, d):
    """(min, max) over k of lambda_k * (N/k)^(2/d) for the dense spectrum."""
    n = a.n_rows
    if n > DENSE_CAP:
        raise ValueError("Weyl ratio is a dense oracle; n exceeds the cap")
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
    """Measure the exact two-level rate and its theoretical value side by side."""
    rbar = symmetrize(smoother)
    e_sq = two_level_error_norm(a, smoother, p, kernel=kernel) ** 2
    k = k_of_vc(a, rbar, p, kernel=kernel)
    builder = getattr(p, "builder", "custom")
    n_c = p.matrix.n_cols if hasattr(p, "matrix") else np.asarray(p).shape[1]
    mu = optimal_coarse_space(a, rbar, n_c)[1] if include_mu else None
    return TwoLevelReport(builder, a.n_rows, n_c, float(e_sq), float(k), mu)


def additive_condition(a, p, kernel=None):
    """Condition number of the additive two-level preconditioned operator
    (coarse solve plus pointwise diagonal), measured on the kernel complement."""
    n = a.n_rows
    if n > DENSE_CAP:
        raise ValueError("dense oracle; n exceeds the cap")
    a_dense = a.toarray()
    pm = p.matrix.toarray() if hasattr(p, "matrix") else np.asarray(p, dtype=float)
    a_c = pm.T @ a_dense @ pm
    coarse = SymPseudoInverse(0.5 * (a_c + a_c.T))
    b_hat = pm @ coarse.matrix() @ pm.T + np.diag(1.0 / a.diagonal())
    u = _range_basis(a_dense, None if kernel is None
                     else np.atleast_2d(np.asarray(kernel, dtype=float).T).T)
    au = u.T @ a_dense @ u
    m = u.T @ (a_dense @ b_hat @ a_dense) @ u
    lam = scipy.linalg.eigh(0.5 * (m + m.T), au, eigvals_only=True)
    return float(lam[-1] / lam[0])
