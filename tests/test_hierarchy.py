import numpy as np
import pytest

from amgforge import analysis, hierarchy, problems, smoothers, sparse
from amgforge.hierarchy import (Hierarchy, IndefinitePreconditionerError,
                                Level, SetupConfig, SetupError, pcg_solve,
                                setup, two_level_apply, vcycle_apply)
from amgforge.linalg import SymPseudoInverse


class TestSetup:
    def test_classical_on_poisson(self):
        h = setup(problems.fd_poisson_5pt(31), {"interpolation": "direct"})
        assert h.n_levels >= 3
        assert h.levels[-1].a.n_rows <= 50
        sizes = h.level_sizes()
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_small_input_single_level(self):
        h = setup(problems.fd_poisson_5pt(3))
        assert h.n_levels == 1

    def test_ua_operator_complexity(self):
        h = setup(problems.fd_poisson_5pt(31),
                  {"coarsening": "aggregate", "interpolation": "ua"})
        assert h.operator_complexity <= 1.5

    def test_galerkin_consistency(self):
        h = setup(problems.fd_poisson_5pt(15), {"interpolation": "standard"})
        for lvl, nxt in zip(h.levels, h.levels[1:]):
            p = lvl.p.matrix.toarray()
            expect = p.T @ lvl.a.toarray() @ p
            assert np.abs(nxt.a.toarray() - expect).max() <= 1e-12

    def test_stagnation_aborts(self):
        # an edgeless strength graph keeps every vertex coarse
        a = sparse.from_dense(np.diag(np.arange(1.0, 61.0)), sparse.SYMMETRIC)
        with pytest.raises(SetupError, match="stagnated"):
            setup(a, {"n0": 10})

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            SetupConfig.from_mapping({"smother": "gs"})

    def test_intermediates_recorded(self):
        h = setup(problems.fd_poisson_5pt(15))
        assert h.levels[0].strength is not None
        assert h.levels[0].coarsening is not None
        assert h.levels[0].p is not None


def two_level_hierarchy(a, config=None):
    cfg = dict(config or {})
    cfg.setdefault("n0", a.n_rows - 1)
    cfg["max_levels"] = 2
    return setup(a, cfg)


class TestTwoLevelApply:
    def test_zero_maps_to_zero(self):
        h = two_level_hierarchy(problems.fd_poisson_5pt(5))
        assert np.array_equal(two_level_apply(h, np.zeros(25)), np.zeros(25))

    def test_exact_smoother_gives_exact_inverse(self):
        a = problems.laplace_1d(8)
        s = problems_strength(a)
        import amgforge.coarsening as co
        import amgforge.interpolation as ip

        split = co.mis(s)
        p = ip.direct_interpolation(a, split, s)
        exact = smoothers.SubspaceCorrection(a, [list(range(8))])
        levels = [Level(a, p, exact, exact),
                  Level(sparse.galerkin_product(p.matrix, a))]
        h = Hierarchy(levels, SymPseudoInverse(levels[1].a.toarray()))
        g = np.arange(1.0, 9.0)
        assert np.abs(two_level_apply(h, g) - np.linalg.solve(a.toarray(), g)).max() <= 1e-10

    def test_error_propagator_factorization(self):
        a = problems.fd_poisson_5pt(4)
        h = two_level_hierarchy(a)
        n = a.n_rows
        b_mat = np.column_stack([two_level_apply(h, e) for e in np.eye(n)])
        e_mat = np.eye(n) - b_mat @ a.toarray()
        lvl = h.levels[0]
        p = lvl.p.matrix.toarray()
        a_c = h.levels[1].a.toarray()
        pi_c = p @ np.linalg.solve(a_c, p.T @ a.toarray())
        r = analysis.materialize(lvl.post_smoother.action, n)
        expect = (np.eye(n) - r @ a.toarray()) @ (np.eye(n) - pi_c)
        assert np.abs(e_mat - expect).max() <= 1e-12


def problems_strength(a):
    from amgforge.strength import full_strength

    return full_strength(a)


class TestVCycle:
    def test_two_level_recursion_base(self):
        a = problems.fd_poisson_5pt(4)
        h = two_level_hierarchy(a)
        g = np.random.default_rng(0).standard_normal(16)
        lvl = h.levels[0]
        x = lvl.pre_smoother.apply(g, sweeps=1)
        x = x + two_level_apply_correction(h, g, x)
        expect = lvl.post_smoother.apply(g, x, sweeps=1)
        assert np.abs(vcycle_apply(h, g) - expect).max() <= 1e-13

    def test_symmetry_on_probes(self):
        h = setup(problems.fd_poisson_5pt(15), {"interpolation": "standard"})
        rng = np.random.default_rng(1)
        for _ in range(3):
            g, w = rng.standard_normal((2, 225))
            lhs = float(g @ vcycle_apply(h, w))
            rhs = float(w @ vcycle_apply(h, g))
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(g) * np.linalg.norm(w)

    def test_stationary_iteration_monotone_in_a_norm(self):
        a = problems.fd_poisson_5pt(31)
        h = setup(a, {"interpolation": "standard"})
        rng = np.random.default_rng(2)
        x = rng.standard_normal(a.n_rows)
        norms = []
        for _ in range(6):
            norms.append(float(x @ (a.mat @ x)))
            x = x - vcycle_apply(h, a.mat @ x)
        assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))

    def test_measured_contraction_matches_analysis(self):
        a = problems.fd_poisson_5pt(6)
        h = two_level_hierarchy(a, {"interpolation": "direct"})
        lvl = h.levels[0]
        e_rate = analysis.two_level_error_norm(a, lvl.post_smoother, lvl.p)
        # stationary two-level iteration measured contraction factor
        n = a.n_rows
        e_mat = np.eye(n) - np.column_stack(
            [two_level_apply(h, e) for e in np.eye(n)]) @ a.toarray()
        measured = analysis.error_norm(a, lambda v: e_mat @ v,
                                       lambda v: e_mat.T @ v)
        assert abs(measured - e_rate) <= 2e-3


def two_level_apply_correction(h, g, x):
    p = h.levels[0].p.matrix
    r = g - h.levels[0].a @ x
    return sparse.spmv(p, h.coarsest_solver.solve(sparse.spmv_transpose(p, r)))


class TestPcg:
    def test_identity_converges_immediately(self):
        a = sparse.from_dense(np.eye(5), sparse.SYMMETRIC)
        x, report = pcg_solve(a, np.arange(1.0, 6.0))
        assert report.iterations <= 1 and report.converged

    def test_poisson_with_amg_preconditioner(self):
        a = problems.fd_poisson_5pt(31)
        h = setup(a, {"interpolation": "standard"})
        b = a.mat @ np.ones(a.n_rows)
        x, report = pcg_solve(a, b, h, tol=1e-8)
        assert report.converged and report.iterations <= 20
        assert np.abs(x - 1.0).max() <= 1e-6
        assert 0.0 < report.convergence_factor <= 1.0

    def test_neumann_with_kernel(self):
        a = problems.fd_poisson_5pt(6, "neumann")
        rng = np.random.default_rng(3)
        x_exact = rng.standard_normal(36)
        x_exact -= x_exact.mean()
        b = a.mat @ x_exact
        x, report = pcg_solve(a, b, None, tol=1e-10, kernel=np.ones((36, 1)))
        assert report.converged
        assert abs(x.sum()) <= 1e-8 * np.linalg.norm(x)
        assert np.abs(x - x_exact).max() <= 1e-6

    def test_semidefinite_direction_flagged(self):
        # unprojected kernel component drives p^T A p to zero
        a = problems.laplace_1d(6, "neumann")
        with pytest.raises(IndefinitePreconditionerError):
            pcg_solve(a, np.ones(6))

    def test_non_finite_input_rejected(self):
        a = problems.laplace_1d(6)
        b = np.ones(6)
        b[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pcg_solve(a, b)
        with pytest.raises(ValueError, match="non-finite"):
            pcg_solve(a, np.ones(6), x0=np.full(6, np.inf))

    def test_report_fields(self):
        a = problems.laplace_1d(12)
        _, report = pcg_solve(a, np.ones(12), tol=1e-10)
        assert report.wall_time >= 0.0
        assert len(report.residuals) == report.iterations + 1


def test_grid_independence_proxy():
    iters = {}
    for n in (16, 64):
        a = problems.fd_poisson_5pt(n)
        h = setup(a, {"interpolation": "standard"})
        b = a.mat @ np.ones(a.n_rows)
        _, report = pcg_solve(a, b, h, tol=1e-8)
        iters[n] = report.iterations
    assert iters[64] <= 1.3 * iters[16]


def test_setup_with_compatible_relaxation():
    a = problems.fe_anisotropic(10, 1e-4)
    h_plain = setup(a, {"interpolation": "standard", "n0": 20})
    h_cr = setup(a, {"interpolation": "standard", "n0": 20, "cr": True})
    assert h_cr.levels[0].p.n_coarse >= h_plain.levels[0].p.n_coarse
    b = a.mat @ np.ones(a.n_rows)
    _, rep = pcg_solve(a, b, h_cr, tol=1e-8)
    assert rep.converged


def test_setup_aggressive_multipass():
    a = problems.fd_poisson_5pt(15)
    h = setup(a, {"coarsening": "aggressive", "ml": "1,2",
                  "interpolation": "multipass", "n0": 20})
    assert h.levels[0].p.builder == "multipass"
    # aggressive coarsening thins the coarse grid beyond plain MIS
    h_mis = setup(a, {"interpolation": "direct", "n0": 20})
    assert h.levels[0].p.n_coarse <= h_mis.levels[0].p.n_coarse
    b = a.mat @ np.ones(a.n_rows)
    _, rep = pcg_solve(a, b, h, tol=1e-8)
    assert rep.converged


def test_setup_mismatched_builder_rejected():
    a = problems.fd_poisson_5pt(8)
    with pytest.raises(SetupError, match="aggregation"):
        setup(a, {"coarsening": "mis", "interpolation": "ua", "n0": 20})
    with pytest.raises(SetupError, match="C/F"):
        setup(a, {"coarsening": "aggregate", "interpolation": "direct", "n0": 20})
    with pytest.raises(SetupError, match="unknown interpolation"):
        setup(a, {"interpolation": "bogus", "n0": 20})
