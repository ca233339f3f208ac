"""Shared linear algebra: the dense cap and its one refusal, the one coarse-solve
rule (a sparse LU above a small order when nonsingular, a pseudo-inverse below
it and for singular matrices within the cap), vectors as block columns, the
power-of-two exponent of a block, the one range check and CSR layout of local
index lists, and the one size-stack rule of stacked local solves."""

import itertools

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Largest order n of the dense n x n arrays the package forms on its own: the
# analysis oracles, ideal interpolation's F block, the SA column-rank check and
# the generic smoother test of ``smoothers.convergence_bound``.
DENSE_CAP = 2000
# Above this order a nonsingular matrix gets the sparse LU: on fd5 coarse matrices
# of order 254 it builds 15 times faster than the pseudo-inverse, solving 1.3 times slower.
_LU_ORDER = 256
# An LU pivot of at most this times the order times the largest marks a
# singular matrix, whose smallest pivot reads near 0.15 n eps.
_SINGULAR_PIVOT = 100 * np.finfo(float).eps
# A stack of _stack_by_size holds at most _STACK_ROWS positions and at most
# _STACK_ENTRIES entries of their k x k blocks, which bounds a stacked solve's
# arrays: fd5 256^2 energy-min subspaces (k = 15, 444 rows a stack) trace
# 28.0 MB in SubspaceCorrection, against 33.2 MB at 1024 rows a stack.  The
# row cap holds for small k, where a stack's arrays grow with rows * k * m
# rather than rows * k^2: the least-squares fit's basis carries m test
# vectors a row, and without the cap the fe_jump 62 bootstrap setup traces
# 6.9 MB against 4.6 MB.
_STACK_ROWS = 1024
_STACK_ENTRIES = 100_000


def _refuse_beyond_cap(n, what):
    """The dense layer's one refusal, made before any dense work: ``what``
    would form a dense order-``n`` array, and n exceeds ``DENSE_CAP``."""
    if n > DENSE_CAP:
        raise ValueError(f"{what} forms a dense order-{n} array, "
                         f"beyond the dense cap DENSE_CAP = {DENSE_CAP}")


class SymPseudoInverse:
    """The one coarse-solve rule, for a symmetric positive semi-definite
    ``a`` (dense, scipy sparse or a ``SparseMatrix``), keyed on its order.

    Above order ``_LU_ORDER``, the inverse from a sparse LU of the symmetric
    part when that is nonsingular: SuperLU finds no exactly-zero pivot, and
    the smallest is above ``100 * n * eps`` times the largest, for order n.
    Otherwise the pseudo-inverse from a dense eigendecomposition of the
    symmetric part, eigenvalues below ``1e-12 * lambda_max`` treated as exact
    zeros; a singular matrix beyond ``DENSE_CAP`` is refused instead, by a
    ValueError that names ``a``, and so is a kept eigenvalue whose inverse
    overflows.  Coarsest-level solves, coarse corrections
    and the analysis oracles all solve here, so they agree on what
    "singular" means.
    """

    def __init__(self, a, name="matrix"):
        a = getattr(a, "mat", a)
        a = a if sp.issparse(a) else np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        sym = 0.5 * (a + a.T)
        n = a.shape[0]
        self._lu = None
        if n > _LU_ORDER:
            try:
                self._lu = spla.splu(sp.csc_matrix(sym), permc_spec="MMD_AT_PLUS_A")
                pivots, cutoff = np.abs(self._lu.U.diagonal()), _SINGULAR_PIVOT * n
                singular = (f"its smallest LU pivot is {pivots.min() / pivots.max():.1e} "
                            f"of the largest, at most 100 n eps = {cutoff:.1e}"
                            if pivots.min() <= cutoff * pivots.max() else None)
            except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
                singular = exc
            if singular is None:
                return
            if n > DENSE_CAP:
                raise ValueError(f"{name} is singular: {singular}")
            self._lu = None
        w, self._v = scipy.linalg.eigh(sym.toarray() if sp.issparse(sym) else sym)
        lam_max = max(abs(w[0]), abs(w[-1]), 1.0e-300)
        keep = w > 1e-12 * lam_max
        if keep.any() and w[keep].min() < 1.0 / np.finfo(float).max:
            raise ValueError(f"{name} has an eigenvalue {w[keep].min():.1e} "
                             "whose inverse overflows")
        self._inv_w = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)

    def solve(self, b):
        """Apply the (pseudo-)inverse to one vector or to columns of a matrix."""
        b = np.asarray(b, dtype=float)
        if self._lu is not None:
            return self._lu.solve(b)
        y = self._v.T @ b
        return self._v @ (y * (self._inv_w if y.ndim == 1 else self._inv_w[:, None]))


def _columns(x):
    """A vector or an (n, k) block as the columns of a float array; None stays None."""
    return None if x is None else np.atleast_2d(np.asarray(x, dtype=float).T).T


def _exponent(v):
    """e with max|v| in [2^(e-1), 2^e), 0 for a zero v: 2^-e v is exact."""
    return int(np.frexp(np.abs(v).max(initial=0.0))[1])


def _index_lists(rows, n, what):
    """Local index sets (fit rows, supports, subspaces, blocks, elements) as CSR
    arrays (ptr, flat), set k being flat[ptr[k]:ptr[k + 1]]; the first set holding
    an index outside [0, n) is refused by a ValueError naming it as ``what`` k.
    A rectangular array holds one set per row, all of one width."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        ptr = np.arange(rows.shape[0] + 1) * rows.shape[1]
        flat = rows.astype(np.int64, copy=False).ravel()
    else:
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        ptr = np.concatenate([[0], np.cumsum(lens)])
        # concatenate is 7x faster than fromiter on arrays, and fromiter 3x faster on lists
        if len(rows) and isinstance(rows[0], np.ndarray):
            flat = np.concatenate(rows).astype(np.int64, copy=False)
        else:
            flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64,
                               count=ptr[-1])
    bad = np.flatnonzero((flat < 0) | (flat >= n))
    if bad.size:
        k = np.searchsorted(ptr, bad[0], side="right") - 1
        raise ValueError(f"{what} {k} holds index {flat[bad[0]]}, outside [0, {n})")
    return ptr, flat


def _index_sets(ptr, flat):
    """The sets of CSR arrays (ptr, flat) as views into ``flat``, set k being
    flat[ptr[k]:ptr[k + 1]]: the inverse of ``_index_lists``."""
    return [flat[i:j] for i, j in zip(ptr[:-1].tolist(), ptr[1:].tolist())]


def _stack_by_size(sizes):
    """Per size k, ascending, the positions of that size in chunks of at most
    _STACK_ROWS positions and _STACK_ENTRIES block entries (rows * k^2), and at
    least one position: yields (positions, k), and each caller gathers its own
    stack."""
    for k in np.unique(sizes):
        same = np.flatnonzero(sizes == k)
        rows = max(1, min(_STACK_ROWS, _STACK_ENTRIES // max(int(k) ** 2, 1)))
        for pos in np.split(same, range(rows, same.size, rows)):
            yield pos, k
