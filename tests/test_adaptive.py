import numpy as np
import pytest
import scipy.sparse as sps

from amgforge import (adaptive, analysis, coarsening, hierarchy,
                      interpolation, problems, smoothers, sparse)
from amgforge.adaptive import (asa_add_vector, asa_initial_state,
                               bootstrap_setup, ls_fit_prolongation,
                               mge_eigensolve)
from amgforge.coarsening import AggregatePartition
from amgforge.strength import full_strength


from tests_support import (count_svd_calls, elasticity_like, point_block_partition,
                           refuse_dense_eigh_beyond_cap)


def rescaled_laplacian(n, seed=42, spread=2.0):
    a0 = problems.fd_poisson_5pt(n)
    rng = np.random.default_rng(seed)
    d = 10.0 ** rng.uniform(-spread, spread, a0.n_rows)
    return sparse.from_scipy(sps.diags(d) @ a0.mat @ sps.diags(d),
                             sparse.SYMMETRIC), d


class TestLsFit:
    def test_constant_vector_recovers_ua(self):
        part = AggregatePartition(np.array([0, 0, 1, 1, 1]), 2)
        psi = np.ones((5, 1))
        psi_c = np.ones((2, 1))
        pattern = [[int(part.labels[i])] for i in range(5)]
        p = ls_fit_prolongation(psi, psi_c, pattern)
        expect = interpolation.ua_prolongation(part).toarray()
        assert np.abs(p.toarray() - expect).max() <= 1e-14

    def test_linear_functions_give_interpolation_weights(self):
        n = 9
        x = np.arange(n, dtype=float)
        coarse = np.arange(0, n, 2)
        psi = np.column_stack([np.ones(n), x])
        psi_c = np.column_stack([np.ones(coarse.size), x[coarse]])
        pattern = []
        for i in range(n):
            lo = max(0, (i - 1) // 2)
            pattern.append(sorted({lo, min(lo + 1, coarse.size - 1)})
                           if i % 2 else [i // 2])
        p = ls_fit_prolongation(psi, psi_c, pattern).toarray()
        for i in range(n):
            assert abs(p[i] @ np.ones(coarse.size) - 1.0) <= 1e-12
            assert abs(p[i] @ x[coarse] - x[i]) <= 1e-12

    def test_infinite_tolerance_keeps_pattern(self):
        psi = np.random.default_rng(0).standard_normal((6, 2))
        psi_c = np.random.default_rng(1).standard_normal((3, 2))
        pattern = [[0]] * 6
        order = [[1, 2]] * 6
        p = ls_fit_prolongation(psi, psi_c, pattern, eps_fit=np.inf,
                                candidate_order=order)
        assert np.diff(p.matrix.mat.tocsc().indptr).tolist()[1:] == [0, 0]
        assert p.matrix.mat[:, 0].nnz == 6

    def test_residual_nonincreasing_with_growth(self):
        rng = np.random.default_rng(2)
        psi_c = rng.standard_normal((5, 3))
        target = rng.standard_normal(3)
        resid = []
        for width in (1, 2, 3, 4, 5):
            basis = psi_c[:width].T
            sol, *_ = np.linalg.lstsq(basis, target, rcond=None)
            resid.append(np.linalg.norm(basis @ sol - target))
        assert all(b <= a + 1e-12 for a, b in zip(resid, resid[1:]))

    def test_rank_deficient_flagged(self):
        psi = np.ones((3, 2))
        psi_c = np.ones((2, 2))  # duplicate coarse test vectors
        with pytest.warns(UserWarning, match="rank-deficient"):
            ls_fit_prolongation(psi, psi_c, [[0, 1]] * 3)


    def test_well_conditioned_fit_makes_no_svd(self, monkeypatch):
        a, _ = problems.fe_jump_coefficient(20, 1e-6)
        h, state = bootstrap_setup(a, seed=0)
        level, psi = h.levels[0], state.test_vectors[0]  # the first level's fit inputs
        psi_c = adaptive._restrict_bamg(level.coarsening, psi)
        candidates = adaptive._aggregate_candidates(level.coarsening, level.strength)
        calls = count_svd_calls(monkeypatch)
        p = ls_fit_prolongation(psi, psi_c, level.coarsening.labels[:, None].tolist(),
                                s_max=4, eps_fit=1e-8, candidate_order=candidates)
        assert calls == []
        assert (p.matrix.mat != level.p.matrix.mat).nnz == 0

    def test_repeated_coarse_vector_still_takes_svd(self, monkeypatch):
        rng = np.random.default_rng(0)
        psi_c = rng.standard_normal((3, 4))
        psi_c[2] = psi_c[0]
        calls = count_svd_calls(monkeypatch)
        with pytest.warns(UserWarning, match="^1 rank-deficient"):
            ls_fit_prolongation(rng.standard_normal((3, 4)), psi_c, [[0, 2], [0, 1], [1, 2]])
        assert calls == [(1, 4, 2)]

    @pytest.mark.parametrize("pattern, order, match", [
        ([[0]] * 3, None, r"pattern has 3 rows, not one per fine row \(4\): row 3 is missing"),
        ([[0]] * 5, None, "pattern has 5 rows.*row 4 is extra"),
        ([[0]] * 4, [[1]] * 3, "candidate_order has 3 rows.*row 3 is missing"),
        ([[0], [1], [2, 3], [0]], None, r"pattern row 2 holds index 3, outside \[0, 3\)"),
        ([[0], [-1], [1], [0]], None, "pattern row 1 holds index -1"),
        ([[0]] * 4, [[], [1, 2], [], [5]], "candidate_order row 3 holds index 5"),
    ])
    def test_malformed_pattern_refused_by_row(self, pattern, order, match):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=match):
            ls_fit_prolongation(rng.standard_normal((4, 2)), rng.standard_normal((3, 2)),
                                pattern, candidate_order=order)

class TestBootstrap:
    def test_plain_laplacian_quick_convergence(self):
        a = problems.fd_poisson_5pt(8)
        _, state = bootstrap_setup(a, m0=4, q=4, n0=20, delta0=0.7,
                                   max_rounds=2, seed=1)
        assert state.delta <= 0.7
        assert state.rounds <= 2

    def test_rescaled_laplacian_paired_experiment(self):
        from amgforge.strength import StrengthConfig, strength_matrix

        a, _ = rescaled_laplacian(8)
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        split = coarsening.mis(s)
        p = interpolation.direct_interpolation(a, split, s)
        gs = smoothers.GaussSeidel(a)
        classical_rate = analysis.two_level_error_norm(a, gs, p)
        _, state = bootstrap_setup(a, m0=8, q=4, n0=20, delta0=0.7,
                                   max_rounds=3, seed=0)
        assert classical_rate > 0.7
        assert state.delta <= 0.7

    def test_small_problem_no_coarsening(self):
        a = problems.laplace_1d(10)
        h, state = bootstrap_setup(a, n0=50, seed=0)
        assert h.n_levels == 1
        assert state.delta == 0.0

    def test_deterministic_given_seed(self):
        a, _ = rescaled_laplacian(6)
        h1, s1 = bootstrap_setup(a, m0=4, q=4, n0=12, seed=7)
        h2, s2 = bootstrap_setup(a, m0=4, q=4, n0=12, seed=7)
        assert s1.delta_history == s2.delta_history
        assert h1.level_sizes() == h2.level_sizes()
        for l1, l2 in zip(h1.levels[:-1], h2.levels[:-1]):
            assert np.array_equal(l1.p.matrix.values, l2.p.matrix.values)

    def test_coarsest_level_gets_no_smoother(self, monkeypatch):
        import scipy.sparse.linalg as spla

        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu",
                            lambda m, *args, **kw: calls.append(m.shape[0])
                            or splu(m, *args, **kw))
        a, _ = problems.fe_jump_coefficient(62, 1e-6)
        h, state = bootstrap_setup(a, m0=8, q=4, n0=50, seed=1)
        assert state.rounds == 0
        assert calls == h.level_sizes()[:-1]
        assert len(calls) == 4

    def test_relaxation_alone_beyond_cap(self, monkeypatch):
        # relaxation meets delta0 on the finest level, which is then the
        # coarsest; beyond DENSE_CAP it is factored sparse, not densely
        refuse_dense_eigh_beyond_cap(monkeypatch)
        a0 = problems.fd_poisson_5pt(100).mat
        a = sparse.from_scipy(a0 + 4.0 * sps.identity(a0.shape[0]), sparse.SYMMETRIC)
        h, state = bootstrap_setup(a)
        assert h.level_sizes() == [10000]
        assert state.delta == 0.0

    def test_level_cap(self, monkeypatch):
        monkeypatch.setattr(hierarchy.SetupConfig, "max_levels", 2)
        a, _ = problems.fe_jump_coefficient(62, 1e-6)
        h, state = bootstrap_setup(a, seed=1)
        assert h.n_levels == 2
        assert [v.shape[0] for v in state.test_vectors] == h.level_sizes()

    def test_accepted_delta_monotone(self):
        a, _ = rescaled_laplacian(8, seed=5, spread=2.5)
        _, state = bootstrap_setup(a, m0=2, q=2, n0=20, delta0=1e-6,
                                   max_rounds=3, seed=2)
        hist = state.delta_history
        assert all(b <= a_ + 1e-12 for a_, b in zip(hist, hist[1:]))


class TestMge:
    def test_exact_when_coarse_space_contains_eigenvector(self):
        import scipy.linalg

        a = problems.laplace_1d(12)
        w, v = scipy.linalg.eigh(a.toarray())
        p_cols = np.column_stack([v[:, 0], v[:, 3], v[:, 7]])
        p = interpolation.Prolongation(sparse.from_dense(p_cols), "custom")
        gs = smoothers.GaussSeidel(a)
        levels = [hierarchy.Level(a, p, gs),
                  hierarchy.Level(sparse.galerkin_product(p.matrix, a))]
        h = hierarchy.Hierarchy(levels)
        lam, phi = mge_eigensolve(h, 1, relax_sweeps=0)
        assert abs(lam[0] - w[0]) <= 1e-10

    def test_1d_three_level_accuracy_and_monotonicity(self):
        import scipy.linalg

        t = problems.laplace_1d(63)
        h = hierarchy.setup(t, {"n0": 8, "interpolation": "standard"})
        true = scipy.linalg.eigh(t.toarray(), eigvals_only=True)[:3]
        errs = []
        for sweeps in (1, 2, 4, 8):
            lam, _ = mge_eigensolve(h, 3, relax_sweeps=sweeps)
            errs.append(np.abs(lam - true) / true)
        assert errs[-1].max() <= 0.10
        assert all((b <= a_ + 1e-12).all() for a_, b in zip(errs, errs[1:]))

    def test_rayleigh_quotient_bound(self):
        import scipy.linalg

        t = problems.laplace_1d(40)
        h = hierarchy.setup(t, {"n0": 10, "interpolation": "standard"})
        lam, _ = mge_eigensolve(h, 2, relax_sweeps=3)
        lam_min = scipy.linalg.eigh(t.toarray(), eigvals_only=True)[0]
        assert (lam >= lam_min - 1e-10).all()

    def test_coarsest_beyond_cap_refused(self, monkeypatch):
        refuse_dense_eigh_beyond_cap(monkeypatch)
        h = hierarchy.setup(problems.fd_poisson_5pt(46), {"max_levels": 1})
        with pytest.raises(ValueError, match="DENSE_CAP"):
            mge_eigensolve(h, 1)

    def test_l_e_exceeding_coarsest_rejected(self):
        t = problems.laplace_1d(31)
        h = hierarchy.setup(t, {"n0": 4, "interpolation": "direct"})
        with pytest.raises(ValueError, match="l_e"):
            mge_eigensolve(h, h.levels[-1].a.n_rows + 1)


class TestAsaAddVector:
    def setup_method(self):
        self.a, self.z = elasticity_like(4, 4)
        self.part = point_block_partition(4, 4)
        self.gs = smoothers.GaussSeidel(self.a)

    def rate(self, state):
        p = state.hierarchy.levels[0].p
        return analysis.two_level_error_norm(self.a, self.gs, p,
                                             kernel=self.z)

    def test_rigid_modes_improve_rate_strictly(self):
        state1 = asa_initial_state(self.a, [self.part], self.z[:, :1])
        state2 = asa_add_vector(state1, self.z[:, 1])
        state3 = asa_add_vector(state2, self.z[:, 2])
        r1, r2, r3 = self.rate(state1), self.rate(state2), self.rate(state3)
        assert r2 < r1 - 1e-6
        assert r3 < r2 - 1e-6

    def test_dependent_vector_rejected(self):
        state = asa_initial_state(self.a, [self.part], self.z[:, :2])
        combo = 0.3 * self.z[:, 0] - 1.2 * self.z[:, 1]
        new_state = asa_add_vector(state, combo)
        assert any("rejected" in f for f in new_state.flags)
        assert abs(self.rate(new_state) - self.rate(state)) <= 1e-6

    def test_nearly_parallel_scaled_vector_rejected(self):
        # the rank test is ua_prolongation's own, so a vector it refuses is
        # flagged, not raised
        a = problems.fd_poisson_5pt(8)
        s = full_strength(a)
        state = asa_initial_state(a, [coarsening.greedy_aggregate(s)],
                                  1e9 * np.ones(a.n_rows))
        noise = np.random.default_rng(0).standard_normal(a.n_rows)
        new_state = asa_add_vector(state, 1e9 * np.ones(a.n_rows) + 1e-7 * noise)
        assert any("vector rejected" in f for f in new_state.flags)
        assert new_state.hierarchy is state.hierarchy

    def test_relaxed_noise_vector_not_worse(self):
        state = asa_initial_state(self.a, [self.part], self.z)
        rng = np.random.default_rng(8)
        noise = self.gs.apply(np.zeros(self.a.n_rows),
                              rng.standard_normal(self.a.n_rows), sweeps=8)
        new_state = asa_add_vector(state, noise)
        if not any("rejected" in f for f in new_state.flags):
            assert self.rate(new_state) <= self.rate(state) + 1e-6

    def test_needs_asa_state(self):
        a = problems.fd_poisson_5pt(6)
        _, state = bootstrap_setup(a, m0=2, q=2, n0=10, seed=0)
        with pytest.raises(ValueError, match="asa"):
            asa_add_vector(state, np.ones(a.n_rows))

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_level_per_partition(self, k):
        parts = [self.part, AggregatePartition(np.repeat(np.arange(2), 2), 2)][:k]
        state = asa_initial_state(self.a, parts, self.z[:, :1])
        h = state.hierarchy
        assert h.n_levels == k + 1 == len(state.test_vectors)
        assert all(lvl.coarsening is part for lvl, part in zip(h.levels, parts))
        assert h.levels[-1].coarsening is None

    def test_two_partition_state_refused(self):
        coarse = AggregatePartition(np.repeat(np.arange(2), 2), 2)
        state = asa_initial_state(self.a, [self.part, coarse], self.z[:, :1])
        assert state.hierarchy.n_levels == 3
        with pytest.raises(ValueError, match="2 partitions"):
            asa_add_vector(state, self.z[:, 1])


def test_bootstrap_checks_the_smoother_before_the_first_level():
    # fd5 6 has 36 <= n0 unknowns: no smoother is ever built
    with pytest.raises(ValueError, match="unknown smoother kind 'bogus'"):
        bootstrap_setup(problems.fd_poisson_5pt(6), smoother="bogus")


def test_one_entry_pattern_as_an_array_fits_as_the_lists_do():
    a = problems.fd_poisson_5pt(10)
    part = coarsening.greedy_aggregate(full_strength(a))
    psi = np.random.default_rng(1).uniform(-1.0, 1.0, (a.n_rows, 3))
    psi_c = adaptive._restrict_bamg(part, psi)
    cands = adaptive._aggregate_candidates(part, full_strength(a))
    got = ls_fit_prolongation(psi, psi_c, part.labels[:, None], s_max=4, eps_fit=1e-8,
                              candidate_order=cands).matrix.mat
    want = ls_fit_prolongation(psi, psi_c, part.labels[:, None].tolist(), s_max=4,
                               eps_fit=1e-8, candidate_order=cands).matrix.mat
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_bootstrap_rejects_asa_restrict():
    a = problems.fd_poisson_5pt(6)
    with pytest.raises(ValueError, match="asa_initial_state"):
        bootstrap_setup(a, m0=2, q=2, n0=10, restrict="asa")


def test_restrict_modes_shapes():
    part = AggregatePartition(np.array([0, 0, 1, 1]), 2)
    psi = np.arange(8.0).reshape(4, 2)
    bamg = adaptive._restrict_bamg(part, psi)
    assert bamg.shape == (2, 2)
    assert bamg[0, 0] == pytest.approx(1.0)  # mean of 0 and 2
    asa = adaptive._restrict_asa(part, psi)
    assert asa.shape == (4, 2)
    assert np.array_equal(asa[:, 0], [1, 0, 1, 0])
