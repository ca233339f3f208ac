import dataclasses
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps
from scipy.sparse.linalg import spsolve
from hypothesis import given, settings, strategies as st

from amgforge import (analysis, coarsening, hierarchy, interpolation, linalg, problems,
                      smoothers, sparse)
from amgforge.analysis import (additive_condition, classify_frequencies,
                               error_norm, k_of_vc, optimal_coarse_space,
                               trace_check, two_level_error_norm,
                               two_level_report, weyl_ratio)
from amgforge.linalg import DENSE_CAP, SymPseudoInverse
from amgforge.smoothers import GaussSeidel, Jacobi, symmetrize
from amgforge.strength import StrengthConfig, full_strength, strength_matrix
from test_interpolation import random_m_matrix
from tests_support import refuse_dense_eigh_beyond_cap

A2 = sparse.from_dense([[2.0, -1.0], [-1.0, 2.0]], sparse.SYMMETRIC)


class TestErrorNorm:
    def test_zero_propagator(self):
        a = problems.laplace_1d(5)
        assert error_norm(a, lambda v: np.zeros_like(v)) == 0.0

    def test_dense_peak_is_three_arrays(self):
        # the E action frees materialize's identity once it is read and works
        # in place, so it holds three n x n arrays (the coarse-corrected block,
        # A times it and the smoother's output); E'AE holds E, AE and E'AE, and
        # its in-place symmetrization dense A and one copy; 128 KiB covers the
        # small work arrays.  K(V_c) on a built frame stays below three too
        a = problems.fd_poisson_5pt(30)
        n = a.n_rows
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        p = interpolation.direct_interpolation(a, coarsening.mis(s), s)
        gs = GaussSeidel(a)
        e_action, _ = analysis.two_level_error_action(a, gs, p)
        analysis._frame(a, symmetrize(gs))
        got, peaks = [], []
        for run in (lambda: error_norm(a, e_action), lambda: k_of_vc(a, symmetrize(gs), p)):
            tracemalloc.start()
            try:
                got.append(run())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 3 * 8 * n * n + 2**17
        assert peaks[1] <= 3 * 8 * n * n
        e = analysis.materialize(e_action, n)
        m = e.T @ (a.mat @ e)
        want = scipy.linalg.eigh(0.5 * (m + m.T), a.toarray(), eigvals_only=True)[-1]
        assert abs(got[0] - np.sqrt(want)) <= 1e-15

    def test_materialize_refuses_vector_only_action(self):
        with pytest.raises(ValueError, match="not block-safe"):
            analysis.materialize(lambda v: np.zeros(5), 5)

    def test_exact_inverse_propagator(self):
        a = problems.laplace_1d(6)
        inv = np.linalg.inv(a.toarray())
        e = np.eye(6) - inv @ a.toarray()
        assert error_norm(a, lambda v: e @ v) <= 1e-12

    def test_jacobi_on_2x2(self):
        e = np.eye(2) - np.diag([0.5, 0.5]) @ A2.toarray()
        assert error_norm(A2, lambda v: e @ v) == pytest.approx(0.5, abs=1e-10)

    def test_noncontractive_flagged(self):
        a = problems.laplace_1d(4)
        with pytest.warns(UserWarning, match="not contractive"):
            value = error_norm(a, lambda v: 2.0 * v)
        assert value == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("case", [("fd5", 5, 1.0), ("fe_aniso", 20, 1e-3),
                                      ("fe_aniso", 20, 1e-6), ("fe_aniso", 31, 1e-4)],
                             ids=lambda case: f"{case[0]}-{case[1]}-{case[2]:g}")
    def test_matrix_free_agrees_with_dense(self, case, monkeypatch):
        kind, n, eps = case
        a = problems.build(problems.ProblemSpec(kind, n, eps))
        gs = GaussSeidel(a)
        if kind == "fd5":
            s = full_strength(a)
            p = interpolation.direct_interpolation(a, gs_split(s), s)
        else:
            s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
            p = interpolation.standard_interpolation(a, gs_split(s), s)
        e_act, e_act_t = analysis.two_level_error_action(a, gs, p)
        dense = error_norm(a, e_act)
        # a cap below n sends the same actions down the LOBPCG run
        monkeypatch.setattr(analysis, "DENSE_CAP", 10)
        free = error_norm(a, e_act, e_act_t)
        # a Ritz value reads the top eigenvalue from below.  On the anisotropic
        # cases the top of the spectrum is a tight cluster, so a Ritz pair
        # with a small residual can still read a neighbour of the top value:
        # the squared norm is held to 1e-5 there (4.5e-6 is the largest miss
        # seen), and to rounding on fd5
        assert free <= dense + 1e-9
        assert dense**2 - free**2 <= (1e-9 if kind == "fd5" else 1e-5)

    def test_beyond_cap_refusals(self):
        a = problems.laplace_1d(DENSE_CAP + 1)

        def half(v):
            return 0.5 * v

        with pytest.raises(ValueError, match="^singular problems need n within the dense cap$"):
            error_norm(a, half, half, kernel=np.ones(a.n_rows))
        with pytest.raises(ValueError, match="^supply the transposed action beyond the dense"):
            error_norm(a, half)

    def test_unconverged_run_is_flagged_as_lower_bound(self, monkeypatch):
        a = problems.fe_anisotropic(20, 1e-6)
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        p = interpolation.standard_interpolation(a, gs_split(s), s)
        e_act, e_act_t = analysis.two_level_error_action(a, GaussSeidel(a), p)
        dense = error_norm(a, e_act)
        monkeypatch.setattr(analysis, "DENSE_CAP", 10)
        monkeypatch.setattr(analysis, "_LOBPCG_MAXITER", 1)
        with pytest.warns(UserWarning, match="lower bound") as record:
            free = error_norm(a, e_act, e_act_t)
        assert len(record) == 1
        assert 0.0 < free <= dense

    @pytest.mark.parametrize("k", [-40, 40])
    def test_beyond_cap_is_scale_free(self, k):
        a = problems.fd_poisson_5pt(46)
        assert a.n_rows > DENSE_CAP
        s = full_strength(a)
        p = interpolation.direct_interpolation(a, gs_split(s), s)
        scaled = sparse.from_scipy(a.mat * 2.0**k, a.symmetry)
        want = two_level_error_norm(a, GaussSeidel(a), p)
        got = two_level_error_norm(scaled, GaussSeidel(scaled), p)
        assert abs(got - want) <= 1e-12 * want


def gs_split(s):
    return coarsening.mis(s)


class TestKofVc:
    def test_full_space_gives_k_one(self):
        a = problems.laplace_1d(6)
        rbar = symmetrize(GaussSeidel(a))
        assert k_of_vc(a, rbar, np.eye(6)) == pytest.approx(1.0, abs=1e-10)

    def test_identity_over_random_instances(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(6, 40))
            m = rng.standard_normal((n, n))
            a = sparse.from_dense(m @ m.T + n * np.eye(n), sparse.SYMMETRIC)
            smoother = GaussSeidel(a) if trial % 2 else Jacobi(a, 0.5)
            n_c = int(rng.integers(1, n - 1))
            p = rng.standard_normal((n, n_c))
            e2 = two_level_error_norm(a, smoother, p) ** 2
            k = k_of_vc(a, symmetrize(smoother), p)
            assert abs(e2 - (1.0 - 1.0 / k)) <= 1e-8

    def test_closed_form_projector_brute_force(self):
        a = problems.laplace_1d(15)
        rbar = symmetrize(GaussSeidel(a))
        split = coarsening.CFSplitting(np.arange(15) % 2 == 1)
        p = interpolation.ideal_interpolation(a, split)
        k = k_of_vc(a, rbar, p)
        # independent oracle: max over eigenvectors of the explicit pencil
        rbar_m = analysis.materialize(rbar.action, 15)
        rinv = np.linalg.inv(rbar_m)
        pm = p.toarray()
        q_c = pm @ np.linalg.solve(pm.T @ rinv @ pm, pm.T @ rinv)
        m = (np.eye(15) - q_c).T @ rinv @ (np.eye(15) - q_c)
        lam = scipy.linalg.eigh(0.5 * (m + m.T), a.toarray(), eigvals_only=True)
        assert abs(k - lam[-1]) <= 1e-8

    def test_kernel_not_in_range_rejected(self):
        a = problems.laplace_1d(6, "neumann")
        rbar = symmetrize(GaussSeidel(a))
        p = np.eye(6)[:, :2]  # constants not representable
        with pytest.raises(ValueError, match="kernel"):
            k_of_vc(a, rbar, p, kernel=np.ones((6, 1)))


class TestOptimalCoarseSpace:
    def test_jacobi_2x2_flat_spectrum(self):
        rbar = symmetrize(Jacobi(A2, 1.0))
        p_opt, mu = optimal_coarse_space(A2, rbar, 1)
        # Rbar A = (3/4) I: every 1-dimensional space yields rate 1/4
        assert np.allclose(mu, [0.75, 0.75], atol=1e-12)
        rate = two_level_error_norm(A2, Jacobi(A2, 1.0), p_opt) ** 2
        assert rate == pytest.approx(0.25, abs=1e-10)

    def test_rate_equals_one_minus_mu(self):
        a = problems.laplace_1d(15)
        gs = GaussSeidel(a)
        p_opt, mu = optimal_coarse_space(a, symmetrize(gs), 7)
        rate = two_level_error_norm(a, gs, p_opt) ** 2
        assert abs(rate - (1.0 - mu[7])) <= 1e-8

    def test_random_subspaces_no_better(self):
        a = problems.laplace_1d(15)
        gs = GaussSeidel(a)
        rbar = symmetrize(gs)
        _, mu = optimal_coarse_space(a, rbar, 7)
        rng = np.random.default_rng(10)
        for _ in range(20):
            cand = rng.standard_normal((15, 7))
            assert k_of_vc(a, rbar, cand) >= 1.0 / mu[7] - 1e-10

    def test_lower_bound_on_any_method(self):
        a = problems.fd_poisson_5pt(4)
        gs = GaussSeidel(a)
        s = full_strength(a)
        split = coarsening.mis(s)
        p = interpolation.direct_interpolation(a, split, s)
        _, mu = optimal_coarse_space(a, symmetrize(gs), p.n_coarse)
        rate = two_level_error_norm(a, gs, p) ** 2
        assert rate >= 1.0 - mu[p.n_coarse] - 1e-9


class TestTraceCheck:
    def setup_method(self):
        self.a = problems.laplace_1d(30)
        self.rbar = symmetrize(GaussSeidel(self.a))
        self.p_opt, self.mu = optimal_coarse_space(self.a, self.rbar, 7)

    def test_optimal_attains_bound(self):
        report = trace_check(self.a, self.rbar, self.p_opt, [])
        assert report.optimal_attains

    def test_top_eigenvectors_strictly_larger(self):
        rbar_m = analysis.materialize(self.rbar.action, 30)
        rbar_m = 0.5 * (rbar_m + rbar_m.T)
        _, mu_all = optimal_coarse_space(self.a, rbar_m, 30)
        # top-of-spectrum candidate
        w, v = scipy.linalg.eigh(
            scipy.linalg.sqrtm(rbar_m).real @ self.a.toarray()
            @ scipy.linalg.sqrtm(rbar_m).real)
        top = scipy.linalg.sqrtm(rbar_m).real @ v[:, -7:]
        report = trace_check(self.a, self.rbar, self.p_opt, [top])
        assert report.candidate_traces[0] >= sum(mu_all[-7:]) - 1e-9
        assert report.candidate_traces[0] > report.bound + 1.0

    def test_random_candidates_respect_bound(self):
        rng = np.random.default_rng(11)
        cands = [rng.standard_normal((30, 7)) for _ in range(50)]
        report = trace_check(self.a, self.rbar, self.p_opt, cands)
        assert report.all_above


class TestClassify:
    def test_eigenvector_classification(self):
        a = problems.laplace_1d(12)
        rbar = symmetrize(GaussSeidel(a))
        p_all, mu = optimal_coarse_space(a, rbar, 12)
        assert classify_frequencies(a, rbar, p_all[:, 0], mu[0] + 1e-12, 0.9) == "low"
        assert classify_frequencies(a, rbar, p_all[:, -1], 0.05, mu[-1] - 1e-12) == "high"
        mid = p_all[:, 5]
        assert classify_frequencies(a, rbar, mid, mu[5] / 2, mu[5] * 2) == "neither"

    def test_zero_vector_rejected(self):
        a = problems.laplace_1d(4)
        with pytest.raises(ValueError):
            classify_frequencies(a, symmetrize(GaussSeidel(a)), np.zeros(4), 0.1, 0.5)

    def test_anisotropic_tensor_vector_ratio(self):
        # the y-oscillatory, x-constant vector is algebraically low frequency;
        # its A- to D-norm ratio has a closed form
        n, eps = 15, 1e-3
        a = problems.fe_anisotropic(n, eps)
        y = np.zeros(n)
        y[::2] = 1.0
        mu_vec = np.kron(y, np.ones(n))
        num = float(mu_vec @ (a.mat @ mu_vec))
        den = float(mu_vec @ (a.diagonal() * mu_vec))
        expected = eps / (1 + eps) + 1.0 / ((1 + eps) * n)
        assert abs(num / den - expected) <= 1e-12
        d_smoother = Jacobi(a, 1.0)
        rbar_d = np.diag(1.0 / a.diagonal())  # D^{-1} as the norm operator
        assert classify_frequencies(a, rbar_d, mu_vec, 2 * expected, 0.5) == "low"


class TestWeyl:
    def test_2d_dirichlet_bounded_ratio(self):
        low, high = weyl_ratio(problems.fd_poisson_5pt(10), 2)
        assert high / low <= 6.0

    def test_1d_bounded_ratio(self):
        low, high = weyl_ratio(problems.laplace_1d(40), 1)
        assert high / low <= 6.0

    def test_linear_spectrum_constant_ratio(self):
        a = sparse.from_dense(np.diag(np.arange(1.0, 31.0)), sparse.SYMMETRIC)
        low, high = weyl_ratio(a, 2)  # exponent 2/d = 1
        assert high / low == pytest.approx(1.0, abs=1e-12)


def test_additive_condition_reported():
    a = problems.fd_poisson_5pt(5)
    s = full_strength(a)
    split = coarsening.mis(s)
    p = interpolation.direct_interpolation(a, split, s)
    kappa = additive_condition(a, p)
    assert 1.0 <= kappa <= 100.0


def test_two_level_report_fields():
    a = problems.laplace_1d(10)
    s = full_strength(a)
    p = interpolation.direct_interpolation(a, coarsening.mis(s), s)
    rep = two_level_report(a, GaussSeidel(a), p)
    assert rep.builder == "direct"
    assert rep.n == 10 and rep.n_c == p.n_coarse
    assert 0.0 <= rep.e_norm_sq < 1.0
    assert rep.identity_gap <= 1e-8


# (kind, bc) of the model families; fe_jump has natural boundary conditions
MODEL_FAMILIES = [("fd5", "dirichlet"), ("fd5", "neumann"), ("fe_aniso", "dirichlet"),
                  ("fe_aniso", "neumann"), ("fe_jump", "neumann")]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MODEL_FAMILIES), st.integers(3, 12), st.floats(1e-6, 1.0),
       st.sampled_from(["gs", "jacobi"]), st.sampled_from(["direct", "standard", "ua", "sa"]))
def test_identity_on_model_problems(family, n, eps, kind, builder):
    a = problems.build(problems.ProblemSpec(family[0], n, eps, family[1]))
    kernel = np.ones((a.n_rows, 1)) if family[1] == "neumann" else None
    cfg = hierarchy.SetupConfig()
    s = strength_matrix(a, cfg.strength_config())
    splitting = {"cf": coarsening.mis(s), "agg": coarsening.greedy_aggregate(s)}
    split_kind, build = hierarchy.BUILDERS[builder]
    p = build(a, splitting[split_kind], s, cfg)
    smoother = GaussSeidel(a) if kind == "gs" else Jacobi(a, 0.5)
    assert two_level_report(a, smoother, p, kernel=kernel).identity_gap <= 1e-7


class TestExactOracle:
    def test_aniso_gallery_identity_to_rounding(self):
        a = problems.fe_anisotropic(20, 1e-3)
        s = strength_matrix(a, StrengthConfig())
        split = coarsening.mis(s)
        part = coarsening.greedy_aggregate(s)
        ps = [
            interpolation.ideal_interpolation(a, split),
            interpolation.direct_interpolation(a, split, s),
            interpolation.standard_interpolation(a, split, s),
            interpolation.ua_prolongation(part),
            interpolation.sa_prolongation(interpolation.ua_prolongation(part), a),
            interpolation.energy_min_prolongation(
                a, interpolation.supports_from_aggregates(part, s)),
        ]
        gs = smoothers.make_smoother(a, "gs")
        line = smoothers.make_smoother(a, "line-gs")
        pairs = [(gs, p) for p in ps] + [(line, ps[2])]
        for smoother, p in pairs:
            rep = two_level_report(a, smoother, p)
            assert rep.identity_gap <= 1e-12, (p.builder, type(smoother).__name__)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 60), st.integers(0, 2**32 - 1), st.floats(0.05, 0.4),
           st.sampled_from(["gs", "jacobi"]), st.sampled_from(["direct", "standard"]))
    def test_identity_on_random_m_matrices(self, n, seed, density, kind, builder):
        a = random_m_matrix(n, seed, density)
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        split = coarsening.mis(s)
        build = {"direct": interpolation.direct_interpolation,
                 "standard": interpolation.standard_interpolation}[builder]
        p = build(a, split, s)
        smoother = GaussSeidel(a) if kind == "gs" else Jacobi(a, 0.5)
        e2 = two_level_error_norm(a, smoother, p) ** 2
        k = k_of_vc(a, symmetrize(smoother), p)
        assert abs(e2 - (1.0 - 1.0 / k)) <= 1e-10
        # the optimal space solves the pencil (A, Rbar^{-1}), Rbar^{-1}-orthonormal
        z, mu = optimal_coarse_space(a, symmetrize(smoother), n)
        rbar = analysis.materialize(symmetrize(smoother).action, n)
        rinv = np.linalg.inv(0.5 * (rbar + rbar.T))
        assert np.abs(z.T @ rinv @ z - np.eye(n)).max() <= 1e-10
        assert np.abs(a.toarray() @ z - rinv @ z * mu).max() <= 1e-10

    def test_singular_a_needs_its_kernel(self):
        a = problems.laplace_1d(6, "neumann")
        with pytest.raises(ValueError, match="singular.*kernel"):
            error_norm(a, lambda v: 0.5 * v)
        assert error_norm(a, lambda v: 0.5 * v, kernel=np.ones(6)) == pytest.approx(0.5)

    def test_sparse_coarse_solve_beyond_cap(self):
        a = problems.fd_poisson_5pt(46)
        assert a.n_rows > analysis.DENSE_CAP
        s = full_strength(a)
        p = interpolation.direct_interpolation(a, coarsening.mis(s), s)
        gs = GaussSeidel(a)
        e_act, e_act_t = analysis.two_level_error_action(a, gs, p)
        pm, amat = p.matrix.mat, a.mat
        coarse = SymPseudoInverse((pm.T @ amat @ pm).toarray())

        def ref(v):
            w = v - pm @ coarse.solve(pm.T @ (amat @ v))
            return w - gs.action(amat @ w)

        def ref_t(v):
            w = v - amat @ gs.adjoint().action(v)
            return w - amat @ (pm @ coarse.solve(pm.T @ w))

        rng = np.random.default_rng(12)
        for v in rng.standard_normal((3, a.n_rows)):
            for got, want in ((e_act(v), ref(v)), (e_act_t(v), ref_t(v))):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_nonsingular_coarse_matrix_above_lu_order_gets_no_eigh(self, monkeypatch):
        a = problems.fd_poisson_5pt(30)
        s = full_strength(a)
        p = interpolation.direct_interpolation(a, coarsening.mis(s), s)
        pm, amat = p.matrix.mat, a.mat
        a_c = (pm.T @ amat @ pm).tocsc()
        assert linalg._LU_ORDER < a_c.shape[0] <= DENSE_CAP
        refuse_dense_eigh_beyond_cap(monkeypatch, cap=linalg._LU_ORDER)
        gs = GaussSeidel(a)
        e_act, _ = analysis.two_level_error_action(a, gs, p)  # factors P^T A P
        v = np.random.default_rng(4).standard_normal(a.n_rows)
        w = v - pm @ spsolve(a_c, pm.T @ (amat @ v))
        want = w - gs.action(amat @ w)
        assert np.linalg.norm(e_act(v) - want) <= 1e-12 * np.linalg.norm(want)

    def test_singular_coarse_matrix_above_lu_order_gets_pseudo_inverse(self):
        h = hierarchy.setup(problems.fd_poisson_5pt(30, "neumann"), {"max_levels": 2})
        a_c = h.levels[-1].a.toarray()
        assert linalg._LU_ORDER < a_c.shape[0] <= DENSE_CAP
        assert np.linalg.eigvalsh(a_c)[0] <= 1e-12 * np.abs(a_c).max()
        b = np.random.default_rng(4).standard_normal(a_c.shape[0])
        want = np.linalg.pinv(a_c, hermitian=True) @ b
        got = h.coarsest_solver.solve(b)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_singular_coarse_matrix_beyond_cap_named(self):
        # a P^T A P of order beyond the cap gets the sparse LU, which refuses
        # it; one within the cap would get the pseudo-inverse instead
        a = problems.fd_poisson_5pt(46)
        n_c = analysis.DENSE_CAP + 1
        cols = np.delete(np.arange(n_c), 5)  # column 5 is zero, so P^T A P is singular
        p = sparse.from_scipy(sps.csr_matrix((np.ones(n_c - 1), (cols, cols)),
                                             shape=(a.n_rows, n_c)))
        e_act, _ = analysis.two_level_error_action(a, GaussSeidel(a), p)
        with pytest.raises(ValueError, match="coarse matrix"):
            e_act(np.ones(a.n_rows))  # P^T A P is factored at the first action

    def test_singular_a_beyond_cap_refused(self):
        # the sparse LU beyond the cap refuses a singular A as the dense
        # pencil within it does, instead of returning a number; P^T A P is
        # singular here too, but A is the cause and is factored first
        a = problems.fe_jump_coefficient(45, 1e-3)[0]
        assert a.n_rows > analysis.DENSE_CAP
        s = strength_matrix(a, StrengthConfig())
        p = interpolation.standard_interpolation(a, coarsening.mis(s), s)
        with pytest.raises(ValueError, match="^A is singular"):
            two_level_error_norm(a, GaussSeidel(a), p)

    def test_singular_a_beyond_cap_named(self):
        a = problems.fd_poisson_5pt(47, "neumann")
        assert a.n_rows > analysis.DENSE_CAP
        with pytest.raises(ValueError, match="^A is singular"):
            error_norm(a, lambda v: 0.5 * v, lambda v: 0.5 * v)

    def test_report_eigendecomposes_rbar_once(self, monkeypatch):
        # sgs has no sparse inverse, so its Rbar takes the eigendecomposition
        a = problems.fe_anisotropic(8, 1e-2)
        s = full_strength(a)
        p = interpolation.direct_interpolation(a, coarsening.mis(s), s)
        sgs = smoothers.make_smoother(a, "sgs")
        rbar = analysis.materialize(symmetrize(sgs).action, a.n_rows)
        rbar = 0.5 * (rbar + rbar.T)
        calls = []
        eigh = scipy.linalg.eigh

        def counting(m, *args, **kwargs):
            if np.shape(m) == rbar.shape and np.allclose(m, rbar, rtol=0, atol=1e-14):
                calls.append(1)
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting)
        rep = two_level_report(a, sgs, p, include_mu=True)
        assert len(calls) == 1
        assert rep.identity_gap <= 1e-12


def test_oracles_read_p_as_matrix():
    a = problems.fd_poisson_5pt(6)
    s = full_strength(a)
    p = interpolation.direct_interpolation(a, coarsening.mis(s), s)
    gs = GaussSeidel(a)
    want = two_level_report(a, gs, p)
    for pm in (p.matrix, p.toarray()):
        assert k_of_vc(a, symmetrize(gs), pm) == want.k_vc
        rep = two_level_report(a, gs, pm)
        assert (rep.n_c, rep.e_norm_sq, rep.k_vc) == (want.n_c, want.e_norm_sq, want.k_vc)
        assert additive_condition(a, pm) == additive_condition(a, p)


def oracle_cases():
    """{label: (a, smoother, p, kernel)}: the aniso_oracle gallery (fe_aniso
    20, eps=1e-3, forward GS, and standard under line GS) and UA under
    forward GS on the singular fe_jump 20 (eps=1e-6) with its constant kernel."""
    a = problems.fe_anisotropic(20, 1e-3)
    s = strength_matrix(a, StrengthConfig())
    split = coarsening.mis(s)
    part = coarsening.greedy_aggregate(s)
    ps = {
        "ideal": interpolation.ideal_interpolation(a, split),
        "direct": interpolation.direct_interpolation(a, split, s),
        "standard": interpolation.standard_interpolation(a, split, s),
        "ua": interpolation.ua_prolongation(part),
        "sa": interpolation.sa_prolongation(interpolation.ua_prolongation(part), a),
        "energymin": interpolation.energy_min_prolongation(
            a, interpolation.supports_from_aggregates(part, s)),
    }
    gs = smoothers.make_smoother(a, "gs")
    cases = {f"aniso/{name}/gs": (a, gs, p, None) for name, p in ps.items()}
    cases["aniso/standard/line-gs"] = (
        a, smoothers.make_smoother(a, "line-gs"), ps["standard"], None)
    j, _ = problems.fe_jump_coefficient(20, 1e-6)
    ua = interpolation.ua_prolongation(
        coarsening.greedy_aggregate(strength_matrix(j, StrengthConfig())))
    cases["jump/ua/gs"] = (j, smoothers.make_smoother(j, "gs"), ua,
                           np.ones((j.n_rows, 1)))
    return cases


# e_norm_sq, k_vc and mu ("<case>/<field>") of every oracle_cases() report
# with include_mu, written by the Rbar^{1/2} frame and the explicit-projector
# K(V_c) that preceded the Rbar^{-1} ones (commit f314393); jump/ua/gs's k_vc
# and mu were rewritten from the closed-form Rbar^{-1}, which moved them by
# 7.1e-12 relative and 4.0e-10, past their tolerances.
ORACLE_GOLDEN = Path(__file__).parent / "data" / "oracle_reference.npz"


def test_oracles_match_golden():
    with np.load(ORACLE_GOLDEN) as ref:
        for key, (a, smoother, p, kernel) in oracle_cases().items():
            rep = two_level_report(a, smoother, p, kernel=kernel, include_mu=True)
            assert abs(rep.e_norm_sq - ref[key + "/e_norm_sq"]) <= 1e-15, key
            k_ref = ref[key + "/k_vc"]
            assert abs(rep.k_vc - k_ref) <= 1e-13 * k_ref, key
            assert np.abs(rep.mu_spectrum - ref[key + "/mu"]).max() <= 1e-11, key


class TestFrameCache:
    """A smoother's Rbar frame and mu spectrum are built once and live as
    long as the smoother."""

    def test_gallery_builds_one_frame_and_spectrum_per_smoother(self, monkeypatch):
        builds, spectra = [], []
        build, eigh = analysis._build_frame, scipy.linalg.eigh

        def counting_build(a, rbar):
            builds.append(rbar)
            return build(a, rbar)

        def counting_eigh(m, *args, **kwargs):
            if kwargs.get("eigvals_only") and "subset_by_index" not in kwargs:
                spectra.append(1)  # the values-only pencil (A, Rbar^{-1})
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(analysis, "_build_frame", counting_build)
        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        cases = [case for key, case in oracle_cases().items() if key.startswith("aniso/")]
        assert len(cases) == 7
        for a, smoother, p, kernel in cases:
            two_level_report(a, smoother, p, kernel=kernel, include_mu=True)
        assert sorted(type(s.inner).__name__ for s in builds) == [
            "BlockGaussSeidel", "GaussSeidel"]
        assert len(spectra) == 2

    def test_frame_dies_with_its_smoother(self):
        a = problems.laplace_1d(8)
        gs = GaussSeidel(a)
        frame = weakref.ref(analysis._frame(a, symmetrize(gs)))
        assert gs in analysis._FRAMES and frame() is not None
        del gs
        gc.collect()
        assert frame() is None

    def test_hit_needs_an_a_equal_to_the_smoothers(self):
        a = problems.laplace_1d(8)
        gs = GaussSeidel(a)
        frame = analysis._frame(a, symmetrize(gs))
        assert analysis._frame(a, symmetrize(gs)) is frame
        twin = sparse.from_scipy(a.mat.copy(), sparse.SYMMETRIC)
        assert analysis._frame(twin, symmetrize(gs)) is frame
        scaled = sparse.from_scipy(2.0 * a.mat, sparse.SYMMETRIC)
        other = analysis._frame(scaled, symmetrize(gs))
        assert other is not frame and np.array_equal(other.rinv, frame.rinv)
        assert np.array_equal(other.a, 2.0 * frame.a)
        assert analysis._frame(a, symmetrize(gs)) is frame

    def test_report_on_a_twin_builds_one_frame(self, monkeypatch):
        a = problems.laplace_1d(8)
        twin = sparse.from_scipy(a.mat.copy(), sparse.SYMMETRIC)
        p = interpolation.ua_prolongation(coarsening.AggregatePartition(np.arange(8) // 2, 4))
        builds, build = [], analysis._build_frame
        monkeypatch.setattr(analysis, "_build_frame",
                            lambda a, rbar: builds.append(rbar) or build(a, rbar))
        report = two_level_report(twin, GaussSeidel(a), p, include_mu=True)
        assert len(builds) == 1
        assert report.identity_gap < 1e-12

    def test_cached_arrays_are_read_only(self):
        a = problems.laplace_1d(8)
        frame = analysis._frame(a, symmetrize(GaussSeidel(a)))
        for arr in (frame.a, frame.rinv, analysis._mu(frame)):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, ...] = 0.0

    def test_raw_smoother_is_not_its_symmetrization(self):
        a = problems.laplace_1d(8)
        gs = GaussSeidel(a)
        raw, sym = analysis._frame(a, gs), analysis._frame(a, symmetrize(gs))
        assert raw is not sym and not np.allclose(raw.rinv, sym.rinv)
        assert analysis._frame(a, gs) is raw
        assert analysis._frame(a, symmetrize(gs)) is sym

    def test_kernel_stays_off_the_cached_frame(self):
        j, gs, ua, kernel = oracle_cases()["jump/ua/gs"]
        # A is singular and no kernel was given
        with pytest.raises(ValueError, match="singular.*kernel"):
            k_of_vc(j, symmetrize(gs), ua)
        got = two_level_report(j, gs, ua, kernel=kernel, include_mu=True)
        want = two_level_report(j, smoothers.make_smoother(j, "gs"), ua, kernel=kernel,
                                include_mu=True)
        assert (got.e_norm_sq, got.k_vc) == (want.e_norm_sq, want.k_vc)
        assert got.mu_spectrum.tobytes() == want.mu_spectrum.tobytes()
        frame = analysis._frame(j, symmetrize(gs))
        assert tuple(f.name for f in dataclasses.fields(frame)) == ("a", "rinv", "mu")
        # the report's kernel did not stay behind
        with pytest.raises(ValueError, match="singular.*kernel"):
            k_of_vc(j, symmetrize(gs), ua)


FRAME_SMOOTHERS = {
    "gs": lambda a: GaussSeidel(a),
    "gs-1.5": lambda a: GaussSeidel(a, 1.5),
    "gs-adjoint": lambda a: GaussSeidel(a).adjoint(),
    "line-gs": lambda a: smoothers.make_smoother(a, "line-gs"),
    "jacobi": lambda a: smoothers.make_smoother(a, "jacobi"),
}


def eigh_frame(a, smoother):
    """The frame of symmetrize(smoother) by the materialize + eigh route."""
    return analysis._build_frame(a, analysis.materialize(symmetrize(smoother).action, a.n_rows))


class TestClosedFormFrame:
    """A symmetrized smoother with a sparse inverse M over a symmetric A
    gets Rbar^{-1} = M (M + M' - A)^{-1} M' without materializing Rbar."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(MODEL_FAMILIES), st.integers(3, 12), st.floats(1e-6, 1.0),
           st.sampled_from(sorted(FRAME_SMOOTHERS)))
    def test_matches_the_eigh_route(self, family, n, eps, kind):
        a = problems.build(problems.ProblemSpec(family[0], n, eps, family[1]))
        smoother = FRAME_SMOOTHERS[kind](a)
        got = analysis._build_frame(a, symmetrize(smoother)).rinv
        want = eigh_frame(a, smoother).rinv
        assert np.array_equal(got, got.T)
        # eigh's inverse is good to about eps * cond(Rbar), near 1e7 at
        # epsilon = 1e-6; the largest miss seen is 3.6e-9
        assert np.abs(got - want).max() <= 1e-7 * np.abs(want).max()

    def test_no_materialize_and_no_eigh(self, monkeypatch):
        a = problems.fe_anisotropic(6, 1e-3)
        monkeypatch.setattr(analysis, "materialize",
                            lambda action, n: pytest.fail("Rbar materialized"))
        monkeypatch.setattr(scipy.linalg, "eigh", lambda *args, **kw: pytest.fail("eigh called"))
        for kind in ("gs", "line-gs"):
            frame = analysis._frame(a, symmetrize(smoothers.make_smoother(a, kind)))
            assert frame.rinv.shape == (36, 36)

    def test_built_from_copies_of_a(self):
        a = problems.fe_anisotropic(6, 1e-3)
        before = [arr.copy() for arr in (a.mat.data, a.mat.indices, a.mat.indptr)]
        for kind in sorted(FRAME_SMOOTHERS):
            analysis._frame(a, symmetrize(FRAME_SMOOTHERS[kind](a)))
        after = (a.mat.data, a.mat.indices, a.mat.indptr)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def test_non_convergent_smoother_refused_on_both_routes(self):
        a = problems.fe_anisotropic(6, 1e-3)
        too_far = 2.5 / smoothers.estimate_rho_dinv_a(a)
        for smoother in (GaussSeidel(a, 2.5), Jacobi(a, too_far)):
            for route in (lambda: analysis._build_frame(a, symmetrize(smoother)),
                          lambda: eigh_frame(a, smoother)):
                with pytest.raises(ValueError, match=r"^Rbar must be SPD \(smoother not A-convergent\)$"):
                    route()
        # at omega = 2, K = (2/omega - 1) D is exactly zero
        with pytest.raises(ValueError, match="^Rbar must be SPD"):
            analysis._build_frame(a, symmetrize(GaussSeidel(a, 2.0)))
