import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from amgforge import problems, sparse, strength
from amgforge.smoothers import GaussSeidel, SingularSmootherError
from amgforge.strength import (StrengthConfig, full_strength, strength_matrix,
                               strength_power)


def strength_value(a, i, j, variant):
    """s_c(i, j) of the one stored pair (i, j), read from ``_pairwise_values``."""
    _, rows, cols, s = strength._pairwise_values(a, variant)
    (hit,) = np.flatnonzero((rows == i) & (cols == j))
    return s[hit]


class TestStrengthValue:
    def test_pair_local_opt_interior(self):
        t = problems.laplace_1d(5)
        assert strength_value(t, 1, 2, "pair_local_opt") == pytest.approx(1.5)

    def test_classical_interior(self):
        t = problems.laplace_1d(5)
        assert strength_value(t, 1, 2, "classical_sym") == pytest.approx(1.0)

    def test_anisotropic_pairs(self):
        a = problems.fe_anisotropic(4, 0.01)
        # vertex 5 = (2,2) of the 4x4 grid: x neighbor 6, y neighbor 9
        assert strength_value(a, 5, 6, "classical_sym") == pytest.approx(1.0)
        assert strength_value(a, 5, 9, "classical_sym") == pytest.approx(0.01)

    def test_positive_offdiagonal_ignored(self):
        a = sparse.from_dense([[2.0, 1.0, -1.0], [1.0, 2.0, -1.0],
                               [-1.0, -1.0, 2.0]], sparse.SYMMETRIC)
        assert strength_value(a, 0, 1, "classical_sym") == 0.0

    def test_no_negative_neighbors_flagged_zero(self):
        a = sparse.from_dense([[2.0, 1.0], [1.0, 2.0]], sparse.SYMMETRIC)
        assert strength_value(a, 0, 1, "classical_sym") == 0.0

    def test_singular_pair_infinitely_strong(self):
        a = sparse.from_dense([[1.0, -1.0], [-1.0, 1.0]], sparse.SYMMETRIC)
        assert strength_value(a, 0, 1, "pair_local_opt") == np.inf

    def test_cauchy_variants(self):
        t = problems.laplace_1d(3)
        assert strength_value(t, 0, 1, "cauchy_s1") == pytest.approx(0.5)
        assert strength_value(t, 0, 1, "cauchy_s2") == pytest.approx(0.5)


class TestStrengthMatrix:
    def test_semicoarsening_pattern(self):
        n = 5
        a = problems.fe_anisotropic(n, 1e-3)
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        for v in range(n * n):
            for w in s.neighbors(v):
                assert abs(int(w) - v) == 1  # only x-direction edges survive

    def test_theta_to_zero_gives_full_adjacency(self):
        a = problems.fd_poisson_5pt(3)
        s = strength_matrix(a, StrengthConfig("classical_sym", 1e-12))
        g = sparse.adjacency_graph(a)
        assert np.array_equal(s.graph.indptr, g.indptr)
        assert np.array_equal(s.graph.indices, g.indices)

    def test_checkerboard_disconnects(self):
        a, _ = problems.fe_jump_coefficient(8, 1e-3)
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        labels = sparse.connected_components(s.graph)
        assert labels.max() + 1 >= 2

    def test_symmetric_and_zero_diagonal(self):
        a, _ = problems.fe_jump_coefficient(4, 1e-3)
        for variant in ("classical_sym", "avg_sym", "cauchy_s1", "cauchy_s2",
                        "pair_local_opt"):
            s = strength_matrix(a, StrengthConfig(variant, 0.2))
            adj = s.to_scipy()
            assert (adj != adj.T).nnz == 0
            assert adj.diagonal().sum() == 0

    def test_edges_are_stored_pairs(self):
        a = problems.fd_poisson_5pt(4)
        s = strength_matrix(a, StrengthConfig("cauchy_s1", 0.1))
        dense = a.toarray()
        for v in range(a.n_rows):
            for w in s.neighbors(v):
                assert dense[v, w] != 0.0

    def test_isolated_vertices_reported(self):
        a = problems.fe_anisotropic(3, 1e-3, "neumann")
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        assert s.diagnostics["isolated_vertices"] == []
        a = sparse.from_dense(np.diag([2.0, 2.0, 1.0, 2.0])
                              - np.diag([1.0, 0.0, 0.0], 1) - np.diag([1.0, 0.0, 0.0], -1),
                              sparse.SYMMETRIC)
        isolated = strength_matrix(a, StrengthConfig("classical_sym", 0.25)) \
            .diagnostics["isolated_vertices"]
        assert isolated == [2, 3] and all(type(v) is int for v in isolated)

    def test_permutation_equivariance_entrywise(self):
        a = problems.fd_poisson_5pt(3)
        rng = np.random.default_rng(5)
        perm = rng.permutation(9)
        pmat = np.eye(9)[perm]
        a_perm = sparse.from_dense(pmat @ a.toarray() @ pmat.T, sparse.SYMMETRIC)
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        s_perm = strength_matrix(a_perm, StrengthConfig("classical_sym", 0.25))
        expect = pmat @ s.to_scipy().toarray() @ pmat.T
        assert np.array_equal(s_perm.to_scipy().toarray(), expect)


class TestAffinity:
    def test_deterministic_given_seed(self):
        a = problems.fd_poisson_5pt(4)
        cfg = StrengthConfig("affinity", 0.5, affinity_k=8, affinity_nu=4, seed=3)
        s1 = strength_matrix(a, cfg)
        s2 = strength_matrix(a, cfg)
        assert np.array_equal(s1.graph.indices, s2.graph.indices)
        assert s1.diagnostics["seed"] == 3

    def test_detects_anisotropy(self):
        a = problems.fe_anisotropic(6, 1e-4)
        s = strength_matrix(a, StrengthConfig("affinity", 0.5))
        x_edges = sum(1 for v in range(36) for w in s.neighbors(v) if abs(int(w) - v) == 1)
        y_edges = sum(1 for v in range(36) for w in s.neighbors(v) if abs(int(w) - v) == 6)
        assert x_edges > y_edges


class TestStrengthPower:
    def test_path_distance_two(self):
        s = full_strength(problems.laplace_1d(5))
        p = strength_power(s, 1, 2)
        assert np.array_equal(p.neighbors(0), [2])
        assert np.array_equal(p.neighbors(2), [0, 4])

    def test_two_paths_required_empty_on_path(self):
        s = full_strength(problems.laplace_1d(5))
        assert strength_power(s, 2, 2).graph.n_edges == 0

    def test_grid_diagonal_neighbors(self):
        s = full_strength(problems.fd_poisson_5pt(3))
        p22 = strength_power(s, 2, 2)
        # center (1,1)=4 connects to all four diagonal neighbors by 2 paths
        assert {0, 2, 6, 8} <= set(p22.neighbors(4).tolist())
        p12 = strength_power(s, 1, 2)
        assert {0, 2, 6, 8} <= set(p12.neighbors(4).tolist())

    def test_validation(self):
        s = full_strength(problems.laplace_1d(3))
        with pytest.raises(ValueError):
            strength_power(s, 0, 2)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-0.999, 0.999))
def test_pair_score_bounded_by_one_plus_s1(aii, ajj, frac):
    # random SSPD 2x2 restriction: |a_ij| < sqrt(a_ii a_jj)
    aij = frac * np.sqrt(aii * ajj)
    if aij == 0.0:
        return
    a = sparse.from_dense([[aii, aij], [aij, ajj]], sparse.SYMMETRIC)
    sc = strength_value(a, 0, 1, "pair_local_opt")
    s1 = strength_value(a, 0, 1, "cauchy_s1")
    assert sc <= 1.0 + s1 + 1e-12


def coo_route_graph(pattern):
    """Graph of a pattern by a sparse sum with its transpose, the diagonal
    set to zero and dropped, then a sort: the reference for both
    ``graph_from_scipy`` and the strength graph built from CSR arrays."""
    m = sp.csr_matrix(pattern)
    m = m + m.T
    m.setdiag(0)
    m.eliminate_zeros()
    m.sort_indices()
    return m.indptr, m.indices


def coo_route_strength(a, cfg):
    """(indptr, indices, diagnostics) of S from A's COO triplets: row maxima
    and means from the off-diagonal scipy matrix, the kept pairs through
    ``coo_route_graph``."""
    coo = a.mat.tocoo()
    off = coo.row != coo.col
    rows, cols, vals = coo.row[off], coo.col[off], coo.data[off]
    m = sp.csr_matrix((vals, (rows, cols)), shape=a.shape)
    diag = a.diagonal()
    flagged = 0
    if cfg.variant == "classical_sym":
        row_max = np.asarray((-m.minimum(0)).max(axis=1).todense()).ravel()
        denom = np.maximum(row_max[rows], row_max[cols])
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where((denom > 0.0) & (vals < 0.0), -vals / denom, 0.0)
        flagged = int(np.count_nonzero(s == 0.0))
    elif cfg.variant == "avg_sym":
        means = np.asarray(abs(m).sum(axis=1)).ravel() / np.maximum(np.diff(m.indptr), 1)
        s = np.abs(vals) / np.maximum(means[rows], means[cols])
    elif cfg.variant == "cauchy_s1":
        s = np.abs(vals) / np.sqrt(diag[rows] * diag[cols])
    elif cfg.variant == "cauchy_s2":
        s = -2.0 * vals / (diag[rows] + diag[cols])
    elif cfg.variant == "pair_local_opt":
        s1 = np.abs(vals) / np.sqrt(diag[rows] * diag[cols])
        s2 = -2.0 * vals / (diag[rows] + diag[cols])
        s = np.full(vals.shape, np.inf)
        ok = s2 < 1.0
        s[ok] = (1.0 - s1[ok] * s1[ok]) / (1.0 - s2[ok])
    else:
        x = np.random.default_rng(cfg.seed).uniform(-1.0, 1.0, size=(a.n_rows, cfg.affinity_k))
        x = GaussSeidel(a, 1.0).apply(np.zeros_like(x), x, sweeps=cfg.affinity_nu)
        dots = np.einsum("ij,ij->i", x[rows], x[cols])
        norms = np.einsum("ij,ij->i", x, x)
        s = dots**2 / (norms[rows] * norms[cols])
    keep = s >= cfg.theta
    indptr, indices = coo_route_graph(sp.coo_matrix(
        (np.ones(int(keep.sum())), (rows[keep], cols[keep])), shape=a.shape))
    diagnostics = {"isolated_vertices": np.flatnonzero(np.diff(indptr) == 0).tolist(),
                   "zero_valued_pairs": flagged,
                   "seed": cfg.seed if cfg.variant == "affinity" else None}
    return indptr, indices, diagnostics


def perturbed_model_problem(kind, k, seed):
    """A bit-symmetric model problem with its off-diagonal pairs rescaled and
    some of their signs flipped, one vertex isolated (diagonal kept) and one
    row and column emptied."""
    a = {"laplace_1d": lambda: problems.laplace_1d(k + 2),
         "fd5": lambda: problems.fd_poisson_5pt(k),
         "fe_aniso": lambda: problems.fe_anisotropic(k, 1e-2)}[kind]()
    rng = np.random.default_rng(seed)
    upper = sp.triu(a.mat, 1).tocoo()
    upper.data = upper.data * rng.uniform(0.5, 2.0, upper.nnz) \
        * np.where(rng.random(upper.nnz) < 0.3, -1.0, 1.0)
    isolated, empty = rng.choice(a.n_rows, 2, replace=False)
    drop = np.isin(upper.row, [isolated, empty]) | np.isin(upper.col, [isolated, empty])
    upper.data[drop] = 0.0
    d = a.diagonal().copy()
    d[empty] = 0.0
    return sparse.from_scipy(upper + upper.T + sp.diags(d), sparse.SYMMETRIC)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(strength.VARIANTS), st.sampled_from(["laplace_1d", "fd5", "fe_aniso"]),
       st.integers(2, 6), st.integers(0, 2**31), st.floats(0.05, 1.0))
def test_strength_graph_matches_coo_route(variant, kind, k, seed, theta):
    a = perturbed_model_problem(kind, k, seed)
    cfg = StrengthConfig(variant, theta, seed=seed % 7)
    if variant == "affinity":  # its relaxation refuses the emptied row: isolate it
        with pytest.raises(SingularSmootherError):
            strength_matrix(a, cfg)
        a = sparse.from_scipy(a.mat + sp.diags((a.diagonal() == 0.0) * 1.0), sparse.SYMMETRIC)
    indptr, indices, diagnostics = coo_route_strength(a, cfg)
    s = strength_matrix(a, cfg)
    for got, want in ((s.graph.indptr, indptr), (s.graph.indices, indices)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert s.diagnostics == diagnostics


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 40), st.integers(0, 2**31),
       st.sampled_from(["coo", "csr", "unsorted csr"]))
def test_graph_from_scipy_matches_sum_with_transpose(n, nnz, seed, fmt):
    # non-negative weights with explicit zeros; the draws repeat entries
    # and hit the diagonal
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, n, nnz), rng.integers(0, n, nnz)
    vals = rng.choice([0.0, 0.5, 1.0, 2.0], nnz)
    if fmt == "unsorted csr":  # rows grouped, columns in draw order, duplicates kept
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        pattern = sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))
    else:
        pattern = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).asformat(fmt)
    before = pattern.copy()
    indptr, indices = coo_route_graph(pattern)
    g = sparse.graph_from_scipy(pattern)
    for got, want in ((g.indptr, indptr), (g.indices, indices)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if fmt != "coo":  # the caller's arrays are left as they were
        for got, want in ((pattern.indptr, before.indptr), (pattern.indices, before.indices),
                          (pattern.data, before.data)):
            assert np.array_equal(got, want)


def test_graph_from_scipy_refuses_non_square():
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        sparse.graph_from_scipy(sp.csr_matrix(np.ones((2, 3))))


@pytest.mark.parametrize("variant", ["classical_sym", "affinity"])
def test_general_tagged_matrix_refused(variant):
    # the tag decides, not the values: this A is bit-symmetric
    a = sparse.SparseMatrix(problems.fd_poisson_5pt(4).mat, sparse.GENERAL)
    with pytest.raises(ValueError, match="strength matrices are defined for symmetric A"):
        strength_matrix(a, StrengthConfig(variant=variant))
