import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from amgforge import hierarchy, problems, smoothers, sparse
from amgforge.analysis import materialize
from amgforge.smoothers import (BlockGaussSeidel, GaussSeidel, Jacobi,
                                SingularSmootherError, SubspaceCorrection,
                                SymmetrizedSmoother, block_partition_lines,
                                convergence_bound, estimate_rho_dinv_a, make_smoother,
                                symmetrize)
from test_interpolation import random_m_matrix

A2 = sparse.from_dense([[2.0, -1.0], [-1.0, 2.0]], sparse.SYMMETRIC)


class TestApply:
    def test_jacobi_hand_sweep(self):
        x = Jacobi(A2, 1.0).apply(np.zeros(2), np.array([1.0, 0.0]), 1)
        assert np.array_equal(x, [0.0, 0.5])

    def test_fixed_point(self):
        a = problems.laplace_1d(6)
        x_exact = np.arange(6.0)
        b = a.mat @ x_exact
        for s in (Jacobi(a, 0.8), GaussSeidel(a), symmetrize(GaussSeidel(a))):
            assert np.allclose(s.apply(b, x_exact, 3), x_exact, atol=1e-13)

    def test_forward_gs_hand_sweep(self):
        a = problems.laplace_1d(3)
        x = GaussSeidel(a).apply(np.zeros(3), np.ones(3), 1)
        assert np.array_equal(x, [0.5, 0.75, 0.375])

    def test_zero_sweeps_identity(self):
        x0 = np.array([3.0, -1.0])
        assert np.array_equal(Jacobi(A2, 1.0).apply(np.ones(2), x0, 0), x0)

    def test_zero_diagonal_raises(self):
        bad = sparse.from_dense([[0.0, 1.0], [1.0, 2.0]], sparse.SYMMETRIC)
        with pytest.raises(SingularSmootherError):
            GaussSeidel(bad)


class TestSymmetrize:
    def test_gs_closed_form(self):
        rbar = materialize(symmetrize(GaussSeidel(A2)).action, 2)
        assert np.allclose(rbar, [[5 / 8, 1 / 4], [1 / 4, 1 / 2]], atol=1e-15)

    def test_gs_triangular_identity(self):
        a = problems.fd_poisson_5pt(3)
        dense = a.toarray()
        d = np.diag(np.diag(dense))
        l = np.tril(dense, -1)
        u = np.triu(dense, 1)
        expect = np.linalg.solve(d + u, d @ np.linalg.solve(d + l, np.eye(9)))
        got = materialize(symmetrize(GaussSeidel(a)).action, 9)
        assert np.abs(got - expect).max() <= 1e-13

    def test_jacobi_closed_form(self):
        omega = 0.7
        dinv = np.diag(1.0 / A2.diagonal())
        expect = 2 * omega * dinv - omega**2 * dinv @ A2.toarray() @ dinv
        got = materialize(symmetrize(Jacobi(A2, omega)).action, 2)
        assert np.abs(got - expect).max() <= 1e-15

    def test_symmetry_on_probes(self):
        a = problems.fd_poisson_5pt(4)
        rbar = symmetrize(GaussSeidel(a))
        rng = np.random.default_rng(0)
        for _ in range(5):
            u, v = rng.standard_normal((2, 16))
            lhs = float(u @ rbar.action(v))
            rhs = float(v @ rbar.action(u))
            assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_spd_for_convergent_smoother(self):
        a = problems.fd_poisson_5pt(4)
        rbar = materialize(symmetrize(GaussSeidel(a)).action, 16)
        lam = scipy.linalg.eigh(0.5 * (rbar + rbar.T), eigvals_only=True)
        assert lam[0] > 0.0

    def test_error_propagation_composition(self):
        # I - Rbar A equals (I - RA)* (I - RA) in the A-inner product
        a = problems.fd_poisson_5pt(3)
        dense = a.toarray()
        gs = GaussSeidel(a)
        e = np.eye(9) - materialize(gs.action, 9) @ dense
        e_bar = np.eye(9) - materialize(symmetrize(gs).action, 9) @ dense
        e_star = np.linalg.solve(dense, e.T @ dense)
        assert np.abs(e_bar - e_star @ e).max() <= 1e-12


class TestConvergenceBound:
    def test_jacobi_limit(self):
        bound = convergence_bound(Jacobi(A2, 1.0))
        assert bound.omega_limit == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert bound.converges

    def test_gs_limit_two(self):
        assert convergence_bound(GaussSeidel(A2, 1.0)).omega_limit == 2.0
        assert not convergence_bound(GaussSeidel(A2, 2.5)).converges

    def test_symmetrized_follows_inner(self):
        assert convergence_bound(symmetrize(GaussSeidel(A2, 1.0))).converges
        assert not convergence_bound(symmetrize(GaussSeidel(A2, 2.5))).converges

    def test_unit_jacobi_converges_on_five_point(self):
        a = problems.fd_poisson_5pt(5)
        assert convergence_bound(Jacobi(a, 1.0)).converges

    def test_generic_smoother_tested_on_dense_iterator(self):
        a = problems.fd_poisson_5pt(5)
        singletons = SubspaceCorrection(a, [[i] for i in range(a.n_rows)])
        assert convergence_bound(singletons).converges

    def test_generic_smoother_refused_beyond_cap(self, monkeypatch):
        a = problems.fd_poisson_5pt(45)
        singletons = SubspaceCorrection(a, [[i] for i in range(a.n_rows)])

        def no_dense(action, n):
            raise AssertionError(f"dense order-{n} materialize")

        monkeypatch.setattr("amgforge.analysis.materialize", no_dense)
        with pytest.raises(ValueError, match="order-2025 .*DENSE_CAP = 2000"):
            convergence_bound(singletons)


class TestSubspaceCorrection:
    def test_psc_singletons_is_jacobi(self):
        a = problems.fd_poisson_5pt(2)
        psc = SubspaceCorrection(a, [[i] for i in range(4)])
        assert np.abs(materialize(psc.action, 4) - np.diag(1.0 / a.diagonal())).max() <= 1e-14

    def test_ssc_singletons_is_forward_gs(self):
        a = problems.fd_poisson_5pt(2)
        ssc = BlockGaussSeidel(a, [[i] for i in range(4)])
        gs = GaussSeidel(a)
        assert np.abs(materialize(ssc.action, 4) - materialize(gs.action, 4)).max() <= 1e-14

    def test_single_full_subspace_is_exact(self):
        a = problems.laplace_1d(5)
        solver = SubspaceCorrection(a, [list(range(5))])
        e = np.eye(5) - materialize(solver.action, 5) @ a.toarray()
        assert np.abs(e).max() <= 1e-12

    def test_successive_adjoint_is_transpose(self):
        a = problems.laplace_1d(6)
        ssc = BlockGaussSeidel(a, [[0, 1, 2], [3, 4], [5]])
        fwd = materialize(ssc.action, 6)
        assert np.abs(materialize(ssc.adjoint().action, 6) - fwd.T).max() <= 1e-14

    def test_successive_blocks_must_be_disjoint(self):
        a = problems.laplace_1d(6)
        with pytest.raises(ValueError, match="disjoint"):
            BlockGaussSeidel(a, [[0, 1, 2], [2, 3, 4], [4, 5]])
        with pytest.raises(ValueError, match="cover"):
            BlockGaussSeidel(a, [[0, 1, 2], [3, 4]])

    def test_cover_required(self):
        with pytest.raises(ValueError):
            SubspaceCorrection(A2, [[0]])
        with pytest.raises(ValueError, match="non-empty"):
            SubspaceCorrection(A2, [[0, 1], []])

    def test_singular_block_named(self):
        bad = sparse.from_dense([[1.0, 0, 0], [0, 1, 1], [0, 1, 1]], sparse.SYMMETRIC)
        with pytest.raises(SingularSmootherError, match="subspace 1"):
            SubspaceCorrection(bad, [[0], [1, 2]])


def block_lower_triangle(dense, blocks):
    block_of = np.empty(dense.shape[0], dtype=np.int64)
    for k, idx in enumerate(blocks):
        block_of[idx] = k
    return np.where(block_of[:, None] >= block_of[None, :], dense, 0.0)


class TestOneTriangularFactor:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 30), st.integers(0, 2**31), st.floats(0.1, 0.9))
    def test_block_gs_is_block_lower_solve(self, n, seed, density):
        a = random_m_matrix(n, seed, density)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        cuts = np.sort(rng.choice(np.arange(1, n), rng.integers(0, n), replace=False))
        blocks = np.split(perm, cuts)
        bgs = BlockGaussSeidel(a, blocks)
        want = np.linalg.inv(block_lower_triangle(a.toarray(), blocks))
        scale = np.abs(want).max()
        fwd = materialize(bgs.action, n)
        assert np.abs(fwd - want).max() <= 1e-12 * scale
        assert np.abs(materialize(bgs.adjoint().action, n) - fwd.T).max() <= 1e-12 * scale
        singletons = materialize(BlockGaussSeidel(a, [[i] for i in range(n)]).action, n)
        gs = materialize(GaussSeidel(a).action, n)
        assert np.abs(singletons - gs).max() <= 1e-14 * np.abs(gs).max()

    def test_gs_adjoint_is_transpose_for_nonsymmetric_a(self):
        rng = np.random.default_rng(12)
        dense = rng.uniform(-1.0, 1.0, (12, 12))
        dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
        a = sparse.from_dense(dense)
        for omega in (1.0, 1.4):
            gs = GaussSeidel(a, omega)
            fwd = materialize(gs.action, 12)
            want = np.linalg.inv(np.tril(dense, -1) + np.diag(np.diag(dense) / omega))
            assert np.abs(fwd - want).max() <= 1e-14
            assert np.abs(materialize(gs.adjoint().action, 12) - fwd.T).max() <= 1e-14
            assert np.array_equal(materialize(gs.adjoint().adjoint().action, 12), fwd)

    def test_setup_factors_once_per_smoothed_level(self, monkeypatch):
        calls = []
        splu = spla.splu

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        for kind in ("gs", "sgs"):
            calls.clear()
            h = hierarchy.setup(problems.fd_poisson_5pt(32), {"smoother": kind})
            assert h.n_levels >= 3
            assert calls == [lvl.a.shape for lvl in h.levels[:-1]]

    def test_block_gs_action_does_no_matvec(self, monkeypatch):
        n = 12
        a = problems.fe_anisotropic(n, 1e-3)
        line = BlockGaussSeidel(a, block_partition_lines(n, "x"))
        matvecs = []
        matmul = sparse.SparseMatrix.__matmul__
        monkeypatch.setattr(sparse.SparseMatrix, "__matmul__",
                            lambda m, x: matvecs.append(1) or matmul(m, x))
        g = np.ones(n * n)
        line.action(g)
        line.adjoint().action(g)
        assert matvecs == []


class TestSparseInverse:
    """M with B = M^{-1}, stated once per smoother class."""

    def test_m_inverts_the_action(self):
        a = problems.fe_anisotropic(5, 1e-2)
        rng = np.random.default_rng(5)
        d = rng.uniform(0.5, 2.0, a.n_rows)
        a = sparse.from_scipy(sps.diags(d) @ a.mat @ sps.diags(d))
        gs = GaussSeidel(a, 1.3)
        for s in (gs, gs.adjoint(), Jacobi(a, 0.7), make_smoother(a, "line-gs"),
                  BlockGaussSeidel(a, np.array_split(rng.permutation(a.n_rows), 6))):
            m = s.sparse_inverse()
            assert sps.issparse(m)
            assert np.abs(materialize(s.action, a.n_rows) @ m.toarray()
                          - np.eye(a.n_rows)).max() <= 1e-12
        assert np.array_equal(gs.adjoint().sparse_inverse().toarray(),
                              gs.sparse_inverse().toarray().T)

    def test_none_without_one(self):
        a = problems.laplace_1d(6)
        for s in (SubspaceCorrection(a, [[0, 1, 2], [2, 3, 4, 5]]), symmetrize(GaussSeidel(a))):
            assert s.sparse_inverse() is None


def coo_route_lu(a, block_of, omega, ordering):
    """SuperLU factor, at SuperLU's default panel size, of the block-lower
    triangle assembled from A's COO triplets."""
    coo = a.mat.tocoo()
    bi, bj = block_of[coo.row], block_of[coo.col]
    keep = bi >= bj
    vals = np.where(bi == bj, coo.data / omega, coo.data)
    t = sps.csc_matrix((vals[keep], (coo.row[keep], coo.col[keep])), shape=a.shape)
    return spla.splu(t, permc_spec=ordering, diag_pivot_thresh=0.0,
                     options={"SymmetricMode": False})


GS_PROBLEMS = {
    "fd5": lambda: problems.fd_poisson_5pt(12),
    "fe_jump": lambda: problems.fe_jump_coefficient(10, 1e-6)[0],
    "fe_aniso": lambda: problems.fe_anisotropic(12, 1e-3),
}


class TestTriangleFromCsrArrays:
    """The triangle masked out of A's CSC arrays solves bit for bit as the
    COO-assembled one, the point triangle at panel size 1 included."""

    @staticmethod
    def assert_same_solves(smoother, lu, rng):
        for g in (rng.standard_normal(smoother.n), rng.standard_normal((smoother.n, 3))):
            assert np.array_equal(smoother.action(g), lu.solve(g))
            assert np.array_equal(smoother.adjoint().action(g), lu.solve(g, trans="T"))

    @pytest.mark.parametrize("omega", [1.0, 1.3])
    @pytest.mark.parametrize("name", sorted(GS_PROBLEMS))
    def test_point_gs(self, name, omega):
        a = GS_PROBLEMS[name]()
        lu = coo_route_lu(a, np.arange(a.n_rows), omega, "NATURAL")
        self.assert_same_solves(GaussSeidel(a, omega), lu, np.random.default_rng(3))

    @pytest.mark.parametrize("direction", ["x", "y"])
    @pytest.mark.parametrize("name", sorted(GS_PROBLEMS))
    def test_line_gs(self, name, direction):
        a = GS_PROBLEMS[name]()
        n = int(round(np.sqrt(a.n_rows)))
        block_of = np.arange(a.n_rows).reshape(n, n)
        block_of = block_of // n if direction == "x" else block_of % n
        lu = coo_route_lu(a, block_of.ravel(), 1.0, "MMD_AT_PLUS_A")
        line = make_smoother(a, "line-gs", direction=direction)
        self.assert_same_solves(line, lu, np.random.default_rng(4))

    def test_singular_block_triangle_raises(self):
        bad = sparse.from_dense([[1.0, 0, 0], [0, 1, 1], [0, 1, 1]], sparse.SYMMETRIC)
        with pytest.raises(SingularSmootherError, match="singular"):
            BlockGaussSeidel(bad, [[0], [1, 2]])


class TestBlockActions:
    @pytest.mark.parametrize("name", ["jacobi", "gs", "sgs", "line-gs",
                                      "subspace", "block-gs"])
    def test_block_action_is_column_by_column(self, name):
        n = 5
        a = problems.fe_anisotropic(n, 1e-2)
        d = np.random.default_rng(3).uniform(0.5, 2.0, n * n)
        a = sparse.from_scipy(sps.diags(d) @ a.mat @ sps.diags(d))
        build = {
            "subspace": lambda: SubspaceCorrection(
                a, [np.arange(k, min(k + 4, n * n)) for k in range(0, n * n, 3)]),
            "block-gs": lambda: BlockGaussSeidel(
                a, np.array_split(np.arange(n * n), 7)),
        }
        s = build[name]() if name in build else make_smoother(a, name)
        rng = np.random.default_rng(4)
        for k in (3, n * n):
            x = rng.standard_normal((n * n, k))
            for act in (s.action, s.adjoint().action):
                want = np.column_stack([act(x[:, j]) for j in range(k)])
                got = act(x)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["jacobi", "gs", "sgs", "line-gs"])
    def test_block_apply_is_column_by_column(self, name):
        a = problems.fe_anisotropic(6, 1e-2)
        s = make_smoother(a, name)
        rng = np.random.default_rng(5)
        b, x = rng.standard_normal((2, a.n_rows, 3))
        for got, want in (
                (s.apply(b, x, 2),
                 np.column_stack([s.apply(b[:, j], x[:, j], 2) for j in range(3)])),
                (s.apply(b, sweeps=2),
                 np.column_stack([s.apply(b[:, j], sweeps=2) for j in range(3)]))):
            assert got.shape == (a.n_rows, 3)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["jacobi", "gs", "sgs", "line-gs"])
    @pytest.mark.parametrize("sweeps", [0, 1, 2])
    def test_zero_start_equals_sweeps_from_zero(self, name, sweeps):
        # apply from x=None makes its first sweep x = B b; bitwise the same
        # as sweeping from an explicit zero iterate
        a = problems.fe_anisotropic(6, 1e-2)
        s = make_smoother(a, name)
        rng = np.random.default_rng(6)
        for b in (rng.standard_normal(a.n_rows), rng.standard_normal((a.n_rows, 3))):
            want = np.zeros_like(b)
            for _ in range(sweeps):
                want = want + s.action(b - a.mat @ want)
            got = s.apply(b, None, sweeps)
            assert got.shape == b.shape
            assert np.array_equal(got, want)

    def test_iterate_shape_must_match(self):
        with pytest.raises(ValueError, match="differ in shape"):
            GaussSeidel(A2).apply(np.zeros(2), np.zeros((2, 3)))


class TestLineSmoothing:
    def test_x_line_blocks(self):
        blocks = block_partition_lines(3, "x")
        assert [b.tolist() for b in blocks] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_single_line(self):
        assert block_partition_lines(1, "x")[0].tolist() == [0]

    def test_line_gs_beats_point_gs_on_smooth_component(self):
        n, eps = 15, 1e-4
        a = problems.fe_anisotropic(n, eps)
        # smooth in both directions: the component point smoothing leaves
        s = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
        v = np.kron(s, s)
        point = GaussSeidel(a)
        line = BlockGaussSeidel(a, block_partition_lines(n, "x"))
        a_norm = lambda w: np.sqrt(w @ (a.mat @ w))
        before = a_norm(v)
        assert before / a_norm(line.error_propagation(v)) >= 2.0
        assert before / a_norm(point.error_propagation(v)) < 1.1


class TestBounds:
    def test_jacobi_gs_norm_equivalence(self):
        # (1/4)(Dv,v) <= (D^{-1}(D+U)v,(D+U)v) <= c (Dv,v) with c from the
        # squared neighbor count
        for n in (4, 6, 8):
            a = problems.fd_poisson_5pt(n).toarray()
            d = np.diag(np.diag(a))
            u = np.triu(a, 1)
            m = (d + u).T @ np.linalg.solve(d, (d + u))
            lam = scipy.linalg.eigh(m, d, eigvals_only=True)
            max_neighbors = max(np.count_nonzero(row) for row in a)
            assert lam[0] >= 0.25 - 1e-12
            assert lam[-1] <= max_neighbors**2 + 1e-12

    def test_smoothing_separation(self):
        # the damped-Jacobi default barely touches the lowest mode while
        # Gauss-Seidel crushes the highest one
        a = problems.fd_poisson_5pt(15)
        w, v = scipy.linalg.eigh(a.toarray())
        low, high = v[:, 0], v[:, -1]
        a_norm = lambda x: np.sqrt(x @ (a.mat @ x))
        jac = Jacobi(a)
        assert a_norm(jac.error_propagation(low)) / a_norm(low) >= 0.99
        gs = GaussSeidel(a)
        assert a_norm(gs.error_propagation(high)) / a_norm(high) <= 0.5


def test_make_smoother_kinds():
    a = problems.fd_poisson_5pt(3)
    assert isinstance(make_smoother(a, "jacobi"), Jacobi)
    assert isinstance(make_smoother(a, "gs"), GaussSeidel)
    sgs = make_smoother(a, "sgs")
    assert isinstance(sgs, SymmetrizedSmoother) and isinstance(sgs.inner, GaussSeidel)
    assert isinstance(make_smoother(a, "line-gs", direction="y"), BlockGaussSeidel)
    with pytest.raises(ValueError):
        make_smoother(a, "cheby")



@pytest.mark.parametrize("n", [2, 6, 15])
def test_line_gs_needs_a_square_grid(n):
    with pytest.raises(ValueError, match="line-gs needs a square grid problem"):
        make_smoother(problems.laplace_1d(n), "line-gs")


@pytest.mark.parametrize("direction", ["x", "y"])
def test_line_blocks_as_an_index_array(direction):
    # row k is the k-th line; an array gives the LU of the list of lines
    a, n = problems.fe_anisotropic(6, 1e-3), 6
    blocks = block_partition_lines(n, direction)
    assert blocks.shape == (n, n)
    idx = np.arange(n * n).reshape(n, n)
    assert np.array_equal(blocks, idx if direction == "x" else idx.T)
    g = np.random.default_rng(0).standard_normal((a.n_rows, 2))
    line = BlockGaussSeidel(a, blocks)
    listed = BlockGaussSeidel(a, [row.copy() for row in blocks])
    assert np.array_equal(line.action(g), listed.action(g))
    assert np.array_equal(line.adjoint().action(g), listed.adjoint().action(g))


class TestRhoEstimate:
    @pytest.mark.parametrize("k", [-1000, -999, -3, 2, 1001])
    def test_same_at_any_power_of_two_scale(self, k):
        # A is read at an even power of two, so an even k keeps every bit
        a = problems.fe_jump_coefficient(8, 1e-3)[0]
        scaled = sparse.from_scipy(a.mat * 2.0**k, sparse.SYMMETRIC)
        want = estimate_rho_dinv_a(a)
        assert estimate_rho_dinv_a(scaled) == pytest.approx(want, rel=1e-12 if k % 2 else 0)

    def test_negative_diagonal_refused_by_name(self):
        # the start vector's D-norm would be the square root of a negative
        # number, and SA and Jacobi would make a NaN damping from it
        a = sparse.from_scipy(-problems.fd_poisson_5pt(6).mat, sparse.SYMMETRIC)
        with pytest.raises(SingularSmootherError, match="needs a D inner product.*from -4 to -4"):
            estimate_rho_dinv_a(a)
        with pytest.raises(SingularSmootherError, match="needs a D inner product"):
            make_smoother(a, "jacobi")
