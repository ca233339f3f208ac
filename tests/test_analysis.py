import numpy as np
import pytest
import scipy.linalg

from amgforge import analysis, coarsening, interpolation, problems, smoothers, sparse
from amgforge.analysis import (additive_condition, classify_frequencies,
                               error_norm, k_of_vc, optimal_coarse_space,
                               trace_check, two_level_error_norm,
                               two_level_report, weyl_ratio)
from amgforge.smoothers import GaussSeidel, Jacobi, symmetrize
from amgforge.strength import full_strength

A2 = sparse.from_dense([[2.0, -1.0], [-1.0, 2.0]], sparse.SYMMETRIC)


class TestErrorNorm:
    def test_zero_propagator(self):
        a = problems.laplace_1d(5)
        assert error_norm(a, lambda v: np.zeros(5)) == 0.0

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

    def test_matrix_free_agrees_with_dense(self):
        a = problems.fd_poisson_5pt(5)
        gs = GaussSeidel(a)
        s = full_strength(a)
        p = interpolation.direct_interpolation(a, gs_split(s), s)
        e_act, e_act_t = analysis.two_level_error_action(a, gs, p)
        free = error_norm(a, e_act, e_act_t)
        dense = error_norm(a, e_act)
        assert abs(free - dense) <= 1e-9


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
            e2 = two_level_error_norm(a, smoother, p, block=8) ** 2
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
        rbar_m = analysis._rbar_matrix(self.rbar, 30)
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
