"""Shared dense linear-algebra helpers: the dense cap, pseudo-inverses and
power iteration."""

import numpy as np
import scipy.linalg

# Largest order n of the dense n x n arrays the package forms on its own: the
# analysis oracles, the SSPD spectrum check and the SA column-rank check.
DENSE_CAP = 2000


class SymPseudoInverse:
    """Pseudo-inverse of a symmetric positive semi-definite matrix.

    Built from a dense eigendecomposition; eigenvalues below
    ``rel_cutoff * lambda_max`` are treated as exact zeros.  This is the one
    pseudo-inverse convention used throughout the package, so coarsest-level
    solves, projections and analysis oracles all agree on what "singular"
    means.
    """

    def __init__(self, a, rel_cutoff=1e-12):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        w, v = scipy.linalg.eigh(a)
        lam_max = max(abs(w[0]), abs(w[-1]), 1.0e-300)
        keep = w > rel_cutoff * lam_max
        self.eigenvalues = w
        self._v = v
        self._keep = keep
        self._inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        self.rank = int(keep.sum())
        self.kernel = v[:, ~keep].copy()

    @property
    def n(self):
        return self._v.shape[0]

    @property
    def kernel_dim(self):
        return self.n - self.rank

    def solve(self, b):
        """Apply the pseudo-inverse to one vector or to columns of a matrix."""
        b = np.asarray(b, dtype=float)
        y = self._v.T @ b
        if y.ndim == 1:
            y *= self._inv_w
        else:
            y *= self._inv_w[:, None]
        return self._v @ y

    def matrix(self):
        return self._v @ (self._inv_w[:, None] * self._v.T)


def power_iteration(action, n, steps=200, tol=1e-10, seed=0, m_inner=None):
    """Estimate the largest eigenvalue of a self-adjoint linear action.

    ``action`` maps a vector to a vector; self-adjointness is with respect to
    the inner product ``m_inner(u, v)`` (Euclidean when omitted).  Returns
    ``(eigenvalue_estimate, vector)``.  Stops early once the Rayleigh quotient
    changes by less than ``tol`` relatively between iterations.
    """
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, size=n)
    if m_inner is None:
        m_inner = lambda u, w: float(u @ w)
    nrm = np.sqrt(m_inner(v, v))
    if nrm == 0.0:
        raise ValueError("degenerate start vector")
    v /= nrm
    lam = 0.0
    for _ in range(steps):
        w = action(v)
        lam_new = m_inner(w, v)
        nrm = np.sqrt(max(m_inner(w, w), 0.0))
        if nrm == 0.0:
            return 0.0, w
        v = w / nrm
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1.0e-300):
            return lam_new, v
        lam = lam_new
    return lam, v
