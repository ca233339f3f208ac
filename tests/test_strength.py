import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from amgforge import problems, sparse, strength
from amgforge.strength import (StrengthConfig, full_strength, strength_matrix,
                               strength_power)


def strength_value(a, i, j, variant):
    """s_c(i, j) of the one stored pair (i, j), read from ``_pairwise_values``."""
    rows, cols, s = strength._pairwise_values(a, variant)
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
