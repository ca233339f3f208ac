"""Shared linear algebra: the dense cap, the one symmetric pseudo-inverse,
the one nonsingular sparse LU beyond the cap, vectors as block columns and
the size grouping of stacked local solves."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Largest order n of the dense n x n arrays the package forms on its own: the
# analysis oracles, ideal interpolation's F block and the SA column-rank check.
DENSE_CAP = 2000
_STACK_ROWS = 128  # lists per stack in _stack_by_size, which bounds a stacked solve's arrays


class SymPseudoInverse:
    """Pseudo-inverse of a symmetric positive semi-definite matrix.

    Built from a dense eigendecomposition; eigenvalues below
    ``1e-12 * lambda_max`` are treated as exact zeros.  This is the one
    pseudo-inverse convention used throughout the package, so coarsest-level
    solves, projections and analysis oracles all agree on what "singular"
    means.
    """

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        w, self._v = scipy.linalg.eigh(a)
        lam_max = max(abs(w[0]), abs(w[-1]), 1.0e-300)
        keep = w > 1e-12 * lam_max
        self._inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)

    def solve(self, b):
        """Apply the pseudo-inverse to one vector or to columns of a matrix."""
        b = np.asarray(b, dtype=float)
        y = self._v.T @ b
        if y.ndim == 1:
            y *= self._inv_w
        else:
            y *= self._inv_w[:, None]
        return self._v @ y


def _sparse_lu_solve(m, name):
    """The solve of a sparse LU of the square scipy matrix ``m``, which must be
    nonsingular: SuperLU's exactly-singular error and a pivot of at most
    1e-12 times the largest both raise a ValueError that names ``m``."""
    try:
        lu = spla.splu(sp.csc_matrix(m), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise ValueError(f"{name} is singular: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= 1e-12 * pivots.max():
        raise ValueError(f"{name} is singular: its smallest LU pivot is "
                         f"{pivots.min() / pivots.max():.1e} of the largest")
    return lu.solve


def _columns(x):
    """A vector or an (n, k) block as the columns of a float array; None stays None."""
    return None if x is None else np.atleast_2d(np.asarray(x, dtype=float).T).T


def _stack_by_size(index_lists):
    """Per list length k, ascending, in stacks of <= _STACK_ROWS: the positions and (g, k) stack."""
    sizes = np.fromiter(map(len, index_lists), dtype=np.int64, count=len(index_lists))
    for k in np.unique(sizes):
        same = np.flatnonzero(sizes == k)
        for pos in np.split(same, range(_STACK_ROWS, same.size, _STACK_ROWS)):
            yield pos, np.array([index_lists[p] for p in pos], dtype=np.int64).reshape(pos.size, k)
