import numpy as np
import pytest
import scipy.linalg

from amgforge import problems, smoothers, sparse
from amgforge.analysis import materialize
from amgforge.smoothers import (BlockGaussSeidel, GaussSeidel, Jacobi,
                                SingularSmootherError, SubspaceCorrection,
                                SymmetrizedSmoother, block_partition_lines,
                                convergence_bound, make_smoother, symmetrize)

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

    def test_successive_adjoint_is_transpose_with_overlap(self):
        a = problems.laplace_1d(6)
        ssc = BlockGaussSeidel(a, [[0, 1, 2], [2, 3, 4], [4, 5]])
        fwd = materialize(ssc.action, 6)
        assert np.abs(materialize(ssc.adjoint().action, 6) - fwd.T).max() <= 1e-14

    def test_cover_required(self):
        with pytest.raises(ValueError):
            SubspaceCorrection(A2, [[0]])

    def test_singular_block_named(self):
        bad = sparse.from_dense([[1.0, 0, 0], [0, 1, 1], [0, 1, 1]], sparse.SYMMETRIC)
        with pytest.raises(SingularSmootherError, match="subspace 1"):
            SubspaceCorrection(bad, [[0], [1, 2]])


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
