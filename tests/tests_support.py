"""Shared fixtures for the adaptive, acceptance and cap tests."""

import numpy as np
import scipy.linalg

from amgforge import problems, sparse
from amgforge.coarsening import AggregatePartition
from amgforge.linalg import DENSE_CAP


def refuse_dense_eigh_beyond_cap(monkeypatch):
    """Make ``scipy.linalg.eigh`` fail on any matrix of order > DENSE_CAP, so
    a test shows its path never forms such a dense eigendecomposition."""
    eigh = scipy.linalg.eigh

    def capped(a, *args, **kwargs):
        if np.shape(a)[0] > DENSE_CAP:
            raise AssertionError(f"dense eigh of order {np.shape(a)[0]} > DENSE_CAP")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", capped)


def elasticity_like(nx, ny):
    """SSPD system whose kernel is exactly the rigid-body modes: a sum of
    overlapping patch projections onto the local non-rigid complement."""
    coords = [(float(i), float(j)) for j in range(ny) for i in range(nx)]
    z = np.column_stack(problems.rigid_body_vectors(coords))
    n = 2 * nx * ny
    a = np.zeros((n, n))
    for j in range(ny - 1):
        for i in range(nx - 1):
            pts = [j * nx + i, j * nx + i + 1, (j + 1) * nx + i, (j + 1) * nx + i + 1]
            dofs = sorted([2 * p for p in pts] + [2 * p + 1 for p in pts])
            zloc = z[dofs]
            proj = np.eye(8) - zloc @ np.linalg.solve(zloc.T @ zloc, zloc.T)
            a[np.ix_(dofs, dofs)] += 0.5 * (proj + proj.T)
    return sparse.from_dense(a, sparse.SYMMETRIC), z


def point_block_partition(nx, ny, bx=2, by=2):
    """Aggregate interleaved dofs by (bx x by)-point blocks."""
    labels = np.empty(2 * nx * ny, dtype=np.int64)
    n_agg = 0
    index = {}
    for j in range(ny):
        for i in range(nx):
            key = (i // bx, j // by)
            if key not in index:
                index[key] = n_agg
                n_agg += 1
            p = j * nx + i
            labels[2 * p] = index[key]
            labels[2 * p + 1] = index[key]
    return AggregatePartition(labels, n_agg)
