"""Shared fixtures for the adaptive, acceptance and cap tests, and the
test-only constructions the coarsening, interpolation and acceptance tests
check the library against."""

import numpy as np
import scipy.linalg

from amgforge import problems, sparse
from amgforge.coarsening import AggregatePartition
from amgforge.linalg import DENSE_CAP


def refuse_dense_eigh_beyond_cap(monkeypatch, cap=DENSE_CAP):
    """Make ``scipy.linalg.eigh`` fail on any matrix of order > ``cap``, so a
    test shows its path never forms such a dense eigendecomposition."""
    eigh = scipy.linalg.eigh

    def capped(a, *args, **kwargs):
        if np.shape(a)[0] > cap:
            raise AssertionError(f"dense eigh of order {np.shape(a)[0]} > {cap}")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", capped)



def count_svd_calls(monkeypatch):
    """Record the shape of every ``np.linalg.svd`` argument in the returned
    list, so a test shows which path a fit took."""
    svd, calls = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls

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


def aggregates_from_cf(split, s):
    """Aggregates grown from the C points of ``split`` over the strength matrix
    ``s``: each F vertex joins its nearest C point."""
    g = s.graph
    coarse = split.coarse_indices
    labels = np.full(split.n, -1, dtype=np.int64)
    labels[coarse] = np.arange(coarse.size)
    queue = coarse.tolist()
    for v in queue:  # breadth-first: the queue grows while it is read
        for w in g.neighbors(v).tolist():
            if labels[w] < 0:
                labels[w] = labels[v]
                queue.append(w)
    # vertices unreachable in S become singletons
    isolated = np.flatnonzero(labels < 0)
    labels[isolated] = coarse.size + np.arange(isolated.size)
    return AggregatePartition(labels, coarse.size + isolated.size,
                              tuple(isolated.tolist()))


def harmonic_test_vertices(supports, graph, n):
    """Vertices interior to their coarse element: neighbor signatures (the
    sets of supports holding a vertex) nest in the vertex's own.

    At such a vertex p every basis function not supported at p vanishes on
    the whole neighborhood, so the minimizer must have zero A-residual there.
    """
    signature = [set() for _ in range(n)]
    for k, idx in enumerate(supports.supports):
        for v in np.asarray(idx, dtype=np.int64):
            signature[v].add(k)
    return [p for p in range(n)
            if all(signature[q] <= signature[p] for q in graph.neighbors(p))]
