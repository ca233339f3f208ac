import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from amgforge import problems, sparse
from amgforge.sparse import (adjacency_graph, connected_components,
                             csr_from_triplets, from_dense, galerkin_product,
                             m_matrix_relative, restrict_to_indices, spmv,
                             spmv_transpose, validate_sspd)


def tridiag(n):
    return problems.laplace_1d(n)


class TestTriplets:
    def test_direct_construction(self):
        a = csr_from_triplets(2, 2, [(0, 0, 2), (0, 1, -1), (1, 0, -1), (1, 1, 2)])
        assert np.array_equal(a.toarray(), [[2, -1], [-1, 2]])

    def test_duplicates_summed(self):
        a = csr_from_triplets(1, 1, [(0, 0, 1), (0, 0, 1)])
        assert a.toarray() == [[2.0]]
        assert a.nnz == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            csr_from_triplets(2, 2, [(0, 5, 1)])

    def test_explicit_zeros_dropped(self):
        a = csr_from_triplets(2, 2, [(0, 0, 0.0), (1, 1, 1.0), (0, 1, 1.0), (0, 1, -1.0)])
        assert a.nnz == 1

    def test_rows_sorted(self):
        a = csr_from_triplets(1, 4, [(0, 3, 1), (0, 0, 2), (0, 2, 3)])
        assert np.array_equal(a.col_idx, [0, 2, 3])

    def test_symmetry_tag_checked(self):
        with pytest.raises(ValueError):
            csr_from_triplets(2, 2, [(0, 1, 1.0)], symmetry=sparse.SYMMETRIC)


class TestSpmv:
    def test_tridiag_row_sums(self):
        assert np.array_equal(spmv(tridiag(3), np.ones(3)), [1, 0, 1])

    def test_identity(self):
        eye = from_dense(np.eye(4))
        x = np.arange(4.0)
        assert np.array_equal(spmv(eye, x), x)

    def test_five_point_row_sum(self):
        a = problems.fd_poisson_5pt(2)
        assert np.array_equal(spmv(a, np.ones(4)), [2, 2, 2, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spmv(tridiag(3), np.ones(4))

    def test_transpose(self):
        a = csr_from_triplets(2, 3, [(0, 1, 2.0), (1, 2, -1.0)])
        x = np.array([1.0, 1.0])
        assert np.array_equal(spmv_transpose(a, x), a.toarray().T @ x)


class TestGalerkin:
    def test_identity_leaves_a(self):
        a = tridiag(4)
        p = from_dense(np.eye(4))
        assert np.array_equal(galerkin_product(p, a).toarray(), a.toarray())

    def test_gmg_1d_stencil(self):
        a = tridiag(5)
        p = from_dense(np.array([[0.5, 0], [1, 0], [0.5, 0.5], [0, 1], [0, 0.5]]))
        coarse = galerkin_product(p, a)
        assert np.allclose(coarse.toarray(), [[1, -0.5], [-0.5, 1]], atol=1e-15)
        assert coarse.symmetry == sparse.SYMMETRIC

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(7)
        for n in (10, 60, 200):
            dense = rng.standard_normal((n, n))
            dense = dense + dense.T
            dense[np.abs(dense) < 1.0] = 0.0  # keep it sparse
            np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
            a = from_dense(dense, sparse.SYMMETRIC)
            p = from_dense(rng.standard_normal((n, n // 2)))
            got = galerkin_product(p, a).toarray()
            expect = p.toarray().T @ dense @ p.toarray()
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(dense).max()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            galerkin_product(from_dense(np.ones((3, 2))), tridiag(4))


class TestGraph:
    def test_path_graph(self):
        g = adjacency_graph(tridiag(5))
        assert g.n_edges == 4
        assert np.array_equal(g.neighbors(2), [1, 3])

    def test_diagonal_matrix_edgeless(self):
        g = adjacency_graph(from_dense(np.diag([1.0, 2.0, 3.0])))
        assert g.n_edges == 0

    def test_five_point_grid_edges(self):
        g = adjacency_graph(problems.fd_poisson_5pt(3))
        assert g.n_edges == 12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            adjacency_graph(from_dense(np.ones((2, 3))))

    def test_components_path(self):
        labels = connected_components(adjacency_graph(tridiag(6)))
        assert labels.max() == 0

    def test_components_edgeless(self):
        labels = connected_components(adjacency_graph(from_dense(np.eye(4))))
        assert np.array_equal(labels, [0, 1, 2, 3])

    def test_components_two_triangles(self):
        tri = np.ones((3, 3))
        a = from_dense(scipy.linalg.block_diag(tri, tri), sparse.SYMMETRIC)
        labels = connected_components(adjacency_graph(a))
        assert np.array_equal(labels, [0, 0, 0, 1, 1, 1])
        # labels follow first-visit order
        assert labels[0] == 0


def obtuse_pair_assembly():
    """Two flat triangles sharing an edge: the angle opposite the shared
    edge is obtuse, so the stiffness matrix picks up a positive
    off-diagonal entry."""
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.2], [0.5, -0.2]])
    elements = []
    for tri in ((0, 1, 2), (0, 3, 1)):
        pts = coords[list(tri)]
        elements.append((tri, problems._triangle_stiffness(pts, 1.0)))
    return problems.ElementAssembly(4, elements, coords)


class TestMMatrixRelative:
    def test_diagonal_compensation_example(self):
        a = from_dense([[3, 1, -2], [1, 3, -2], [-2, -2, 4]], sparse.SYMMETRIC)
        plus = m_matrix_relative(a)
        assert np.array_equal(plus.toarray(), [[4, 0, -2], [0, 4, -2], [-2, -2, 4]])

    def test_m_matrix_unchanged(self):
        a = tridiag(5)
        assert np.array_equal(m_matrix_relative(a).toarray(), a.toarray())

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError):
            m_matrix_relative(from_dense([[0.0, 1.0], [1.0, 2.0]], sparse.SYMMETRIC))

    def test_obtuse_pair_spectral_pencil(self):
        a = obtuse_pair_assembly().assemble()
        assert (a.values > 0).sum() > a.n_rows  # a positive off-diagonal exists
        plus = m_matrix_relative(a)
        off = plus.toarray().copy()
        np.fill_diagonal(off, 0.0)
        assert off.max() <= 0.0
        # generalized pencil on the shared kernel complement: c exists with
        # lambda_min(A - c A+) >= 0
        u = scipy.linalg.null_space(np.ones((1, 4)))
        au = u.T @ a.toarray() @ u
        pu = u.T @ plus.toarray() @ u
        lam = scipy.linalg.eigh(au, pu, eigvals_only=True)
        assert lam[0] > 0.0  # spectral equivalence constant c = lam[0]

    def test_row_sums_preserved_and_signs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 9)
            m = rng.standard_normal((n, n))
            m = m + m.T
            np.fill_diagonal(m, np.abs(m).sum(axis=1) + 1.0)
            a = from_dense(m, sparse.SYMMETRIC)
            plus = m_matrix_relative(a)
            rows_a = a.toarray().sum(axis=1)
            rows_p = plus.toarray().sum(axis=1)
            assert np.abs(rows_a - rows_p).max() <= 1e-14 * np.abs(m).sum(axis=1).max()
            off = plus.toarray().copy()
            np.fill_diagonal(off, 0.0)
            assert off.max() <= 0.0

    def test_fe_diag_spectrally_comparable(self):
        a, _ = problems.fe_jump_coefficient(6, 1e-3)
        plus = m_matrix_relative(a)
        ratio = plus.diagonal() / a.diagonal()
        assert ratio.min() >= 1.0 - 1e-14  # compensation only grows the diagonal
        assert ratio.max() <= 3.0


class TestValidateSspd:
    def test_neumann_path(self):
        report = validate_sspd(problems.laplace_1d(6, "neumann"),
                               kernel_hint=np.ones((6, 1)))
        assert report.is_sspd and report.kernel_dim == 1
        assert report.kernel_matches_hint

    def test_dirichlet_spd(self):
        report = validate_sspd(problems.fd_poisson_5pt(3))
        assert report.is_sspd and report.kernel_dim == 0

    def test_asymmetric_reported(self):
        a = csr_from_triplets(2, 2, [(0, 0, 1), (1, 1, 1), (0, 1, 1), (1, 0, 2)])
        report = validate_sspd(a)
        assert not report.symmetric and not report.is_sspd


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(10))))
def test_adjacency_invariant_under_triplet_order(perm):
    base = [(0, 1, -1.0), (1, 0, -1.0), (1, 2, -2.0), (2, 1, -2.0), (3, 4, 1.0),
            (4, 3, 1.0), (0, 0, 2.0), (1, 1, 4.0), (2, 2, 2.0), (3, 3, 1.0)]
    trips = [base[i] for i in perm]
    a = csr_from_triplets(5, 5, trips + [(4, 4, 1.0)])
    g = adjacency_graph(a)
    ref = adjacency_graph(csr_from_triplets(5, 5, base + [(4, 4, 1.0)]))
    assert np.array_equal(g.indptr, ref.indptr)
    assert np.array_equal(g.indices, ref.indices)


def test_restrict_to_indices():
    a = problems.fd_poisson_5pt(3)
    sub = restrict_to_indices(a, [0, 1, 2])
    assert np.array_equal(sub.toarray(), problems.laplace_1d(3).toarray() + 2 * np.eye(3))


def test_from_scipy_idempotent_and_cleans_foreign_matrices():
    import scipy.sparse as sp

    raw = sp.csr_matrix((np.array([1.0, 0.0, 2.0, 3.0]),
                         np.array([1, 0, 0, 1]),
                         np.array([0, 2, 4])), shape=(2, 2))
    dirty = sparse.SparseMatrix(raw, sparse.GENERAL)  # bypasses constructors
    clean = sparse.from_scipy(dirty.mat, dirty.symmetry)
    assert clean.nnz == 3
    assert np.array_equal(clean.toarray(), [[0, 1], [2, 3]])
    again = sparse.from_scipy(clean.mat, clean.symmetry)
    assert np.array_equal(again.col_idx, clean.col_idx)


def test_negative_index_rejected():
    with pytest.raises(IndexError):
        csr_from_triplets(2, 2, [(-1, 0, 1.0)])
