import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

from amgforge import (adaptive, analysis, coarsening, hierarchy, linalg, problems,
                      smoothers, sparse, strength)
from amgforge.hierarchy import (Hierarchy, IndefinitePreconditionerError,
                                Level, SetupConfig, SetupError, pcg_solve,
                                setup, vcycle_apply)
from amgforge.interpolation import verify_full_rank
from amgforge.linalg import SymPseudoInverse

from test_analysis import MODEL_FAMILIES
from tests_support import (elasticity_like, point_block_partition,
                           refuse_dense_eigh_beyond_cap)


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

    def test_line_gs_refused_on_coarse_levels(self):
        a = problems.fe_anisotropic(32, 1e-3)
        with pytest.raises(SetupError, match="smoother=line-gs .* no grid lines"):
            setup(a, {"smoother": "line-gs"})
        # the coarse level of a two-level hierarchy is solved exactly, unsmoothed
        h = setup(a, {"smoother": "line-gs", "max_levels": 2})
        assert h.n_levels == 2

    def test_intermediates_recorded(self):
        h = setup(problems.fd_poisson_5pt(15))
        assert h.levels[0].strength is not None
        assert h.levels[0].coarsening is not None
        assert h.levels[0].p is not None


class TestCoarsestBeyondCap:
    """Beyond DENSE_CAP the coarsest level is factored by a sparse LU: no
    dense eigendecomposition of its order is formed."""

    def test_large_coarsest_level_solved(self, monkeypatch):
        refuse_dense_eigh_beyond_cap(monkeypatch)
        a = problems.fd_poisson_5pt(100)
        h = setup(a, {"max_levels": 2})
        assert h.level_sizes() == [10000, 3302]
        _, report = pcg_solve(a, np.ones(a.n_rows), h)
        assert report.converged

    def test_singular_coarsest_level_refused(self, monkeypatch):
        refuse_dense_eigh_beyond_cap(monkeypatch)
        with pytest.raises(SetupError, match="coarsest matrix is singular"):
            setup(problems.fd_poisson_5pt(100, "neumann"), {"max_levels": 2})

    def test_singular_coarsest_level_refused_at_a_larger_order(self, monkeypatch):
        # a singular LU's smallest pivot grows with the order: 1.2e-12 of the
        # largest on this 34,081-unknown coarsest level
        refuse_dense_eigh_beyond_cap(monkeypatch)
        with pytest.raises(SetupError, match="coarsest matrix is singular"):
            setup(problems.fd_poisson_5pt(320, "neumann"), {"max_levels": 2})

    def test_nearly_singular_coarsest_level_factored(self, monkeypatch):
        refuse_dense_eigh_beyond_cap(monkeypatch)
        a = problems.fe_jump_coefficient(150, 1e-6)[0].mat
        a = sparse.from_scipy(a + 1e-10 * sps.identity(a.shape[0]), sparse.SYMMETRIC)
        h = setup(a, {"max_levels": 2, "coarsening": "pairwise", "interpolation": "ua"})
        assert h.level_sizes() == [23104, 11561]
        a_c = h.levels[-1].a.mat
        b = np.random.default_rng(0).standard_normal(a_c.shape[0])
        x = h.coarsest_solver.solve(b)  # entries near 2e7; smallest pivot 1.4e-7 of the largest
        assert np.linalg.norm(a_c @ x - b) <= 1e-6 * np.linalg.norm(b)


def two_level_hierarchy(a, config=None):
    cfg = dict(config or {})
    cfg.setdefault("n0", a.n_rows - 1)
    cfg["max_levels"] = 2
    return setup(a, cfg)


class TestTwoLevelApply:
    def test_zero_maps_to_zero(self):
        h = two_level_hierarchy(problems.fd_poisson_5pt(5))
        assert h.n_levels == 2
        assert np.array_equal(vcycle_apply(h, np.zeros(25), 0, 1), np.zeros(25))

    def test_exact_smoother_gives_exact_inverse(self):
        a = problems.laplace_1d(8)
        s = problems_strength(a)
        import amgforge.coarsening as co
        import amgforge.interpolation as ip

        split = co.mis(s)
        p = ip.direct_interpolation(a, split, s)
        exact = smoothers.SubspaceCorrection(a, [list(range(8))])
        levels = [Level(a, p, exact),
                  Level(sparse.galerkin_product(p.matrix, a))]
        h = Hierarchy(levels)
        assert h.grid_complexity == (8 + p.n_coarse) / 8
        assert h.operator_complexity == (a.nnz + levels[1].a.nnz) / a.nnz
        g = np.arange(1.0, 9.0)
        assert np.abs(vcycle_apply(h, g, 0, 1) - np.linalg.solve(a.toarray(), g)).max() <= 1e-10

    def test_error_propagator_factorization(self):
        a = problems.fd_poisson_5pt(4)
        h = two_level_hierarchy(a)
        assert h.n_levels == 2
        n = a.n_rows
        b_mat = np.column_stack([vcycle_apply(h, e, 0, 1) for e in np.eye(n)])
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
        # every hierarchy constructor yields a symmetric positive definite B
        a = problems.fd_poisson_5pt(15)
        hs = [setup(a, {"interpolation": interp, "coarsening": coarsen,
                        "smoother": sm})
              for interp, coarsen in (("standard", "mis"), ("sa", "aggregate"))
              for sm in ("gs", "sgs", "jacobi")]
        hs.append(adaptive.bootstrap_setup(a, m0=4, n0=50, seed=0)[0])
        a_e, z = elasticity_like(4, 4)
        hs.append(adaptive.asa_initial_state(
            a_e, [point_block_partition(4, 4)], z).hierarchy)
        rng = np.random.default_rng(1)
        for h in hs:
            n = h.levels[0].a.n_rows
            assert h.n_levels >= 2
            for _ in range(3):
                g, w = rng.standard_normal((2, n))
                lhs = float(g @ vcycle_apply(h, w))
                rhs = float(w @ vcycle_apply(h, g))
                assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(g) * np.linalg.norm(w)
                assert float(g @ vcycle_apply(h, g)) > 0.0

    @pytest.mark.parametrize("smoother", ["gs", "sgs", "jacobi", "line-gs"])
    def test_block_cycle_is_column_by_column(self, smoother):
        a = problems.fe_anisotropic(12, 1e-2)
        cfg = {"smoother": smoother, "n0": 10}
        h = two_level_hierarchy(a, cfg) if smoother == "line-gs" else setup(a, cfg)
        assert h.n_levels >= 2
        g = np.random.default_rng(3).standard_normal((a.n_rows, 3))
        got = vcycle_apply(h, g)
        want = np.column_stack([vcycle_apply(h, g[:, j]) for j in range(3)])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

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
            [vcycle_apply(h, e, 0, 1) for e in np.eye(n)]) @ a.toarray()
        measured = analysis.error_norm(a, lambda v: e_mat @ v,
                                       lambda v: e_mat.T @ v)
        assert abs(measured - e_rate) <= 2e-3


def test_pseudo_inverse_refuses_an_inverse_that_overflows():
    with pytest.raises(ValueError, match="^coarsest matrix has an eigenvalue 1.0e-309 "
                                         "whose inverse overflows$"):
        SymPseudoInverse(np.diag([1e-300, 1e-309]), "coarsest matrix")


VCYCLE_CONFIGS = [{}, {"coarsening": "pairwise", "interpolation": "ua"},
                  {"coarsening": "aggregate", "interpolation": "sa"}]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(MODEL_FAMILIES), st.integers(3, 18), st.floats(1e-6, 1.0),
       st.sampled_from(VCYCLE_CONFIGS), st.integers(0, 2**32 - 1))
def test_vcycle_spd_and_galerkin_bit_symmetric(family, n, eps, config, seed):
    # the V(1,1) operator B is symmetric and positive on random probes, and
    # every coarse operator P^T A P is exactly symmetric
    a = problems.build(problems.ProblemSpec(family[0], n, eps, family[1]))
    h = setup(a, config)
    for lvl in h.levels:
        assert (lvl.a.mat != lvl.a.mat.T).nnz == 0
    x = np.random.default_rng(seed).standard_normal((a.n_rows, 4))
    m = x.T @ vcycle_apply(h, x)
    assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()
    assert (np.diag(m) > 0.0).all()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(MODEL_FAMILIES), st.integers(3, 18), st.floats(1e-6, 1.0),
       st.sampled_from(VCYCLE_CONFIGS), st.integers(-1000, 1000), st.integers(0, 2**32 - 1))
def test_pcg_at_any_power_of_two_scale(family, n, eps, config, k, seed):
    # (A 2^k, b 2^k) takes the unscaled iteration count to the unscaled
    # solution: neither the residual norms nor r'Br, p'Ap and the V-cycle's
    # values overflow or underflow.  For |k| <= 960 the solve must converge;
    # beyond it the setup may refuse by name a coarsest eigenvalue whose
    # inverse overflows (fe_jump 18, eps = 1e-6, SA at 2^-1000 reads 6.4e-310)
    a = problems.build(problems.ProblemSpec(family[0], n, eps, family[1]))
    kernel = np.ones((a.n_rows, 1)) if family[1] == "neumann" else None
    b = a.mat @ np.random.default_rng(seed).standard_normal(a.n_rows)
    x, report = pcg_solve(a, b, setup(a, config), kernel=kernel)
    scaled = a.mat.copy()
    scaled.data = np.ldexp(scaled.data, k)
    scaled = sparse.from_scipy(scaled, sparse.SYMMETRIC)
    try:
        xk, report_k = pcg_solve(scaled, np.ldexp(b, k), setup(scaled, config), kernel=kernel)
    except (SetupError, IndefinitePreconditionerError):
        if abs(k) <= 960:
            raise
        return
    assert report_k.iterations == report.iterations
    assert np.linalg.norm(xk - x) <= 1e-6 * np.linalg.norm(x)


@pytest.mark.parametrize("k", [-1000, 1000])
def test_pcg_at_the_scale_extremes_to_a_tight_tolerance(k):
    # at tol 1e-13 the residual falls to about 2^-43: r'Br and p'Ap would
    # read 2^-k |r|^2 unshifted, zero at k = 1000, but read |r|^2 here
    a = problems.fd_poisson_5pt(16)
    b = a.mat @ np.random.default_rng(3).standard_normal(a.n_rows)
    x, report = pcg_solve(a, b, setup(a), tol=1e-13)
    scaled = sparse.from_scipy(a.mat * 2.0**k, sparse.SYMMETRIC)
    xk, report_k = pcg_solve(scaled, np.ldexp(b, k), setup(scaled), tol=1e-13)
    assert report_k.iterations == report.iterations
    assert np.linalg.norm(xk - x) <= 1e-12 * np.linalg.norm(x)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(MODEL_FAMILIES), st.integers(3, 18), st.floats(1e-6, 1.0))
def test_aggregation_p_full_rank_and_keeps_constants(family, n, eps):
    # UA, SA and energy-min P have full column rank, and on the Neumann
    # families the kernel (the constants) lies in range(P)
    a = problems.build(problems.ProblemSpec(family[0], n, eps, family[1]))
    cfg = SetupConfig()
    s = strength.strength_matrix(a, cfg.strength_config())
    part = coarsening.greedy_aggregate(s)
    ones = np.ones(a.n_rows)
    for builder in ("ua", "sa", "energymin"):
        p = hierarchy.BUILDERS[builder][1](a, part, s, cfg)
        assert verify_full_rank(p), builder
        if family[1] == "neumann":
            pm = p.toarray()
            coef, *_ = np.linalg.lstsq(pm, ones, rcond=None)
            assert np.linalg.norm(pm @ coef - ones) <= 1e-8 * np.linalg.norm(ones), builder


def reference_vcycle(h, level, g, nu1, nu2):
    """The V-cycle spelled out: sweeps from an explicit zero iterate and
    restriction by the CSC transpose of P."""
    lvl = h.levels[level]
    if level == h.n_levels - 1:
        return h.coarsest_solver.solve(g)
    x = np.zeros_like(g)
    for _ in range(nu1):
        x = x + lvl.pre_smoother.action(g - lvl.a.mat @ x)
    rc = lvl.p.matrix.mat.T @ (g - lvl.a.mat @ x)
    x = x + lvl.p.matrix.mat @ reference_vcycle(h, level + 1, rc, nu1, nu2)
    for _ in range(nu2):
        x = x + lvl.post_smoother.action(g - lvl.a.mat @ x)
    return x


class TestLeanCycle:
    @pytest.mark.parametrize("case", ["fd5", "fe_jump"])
    def test_cycle_is_bitwise_the_reference(self, case):
        if case == "fd5":
            h = setup(problems.fd_poisson_5pt(64))
        else:
            h = setup(problems.fe_jump_coefficient(32, 1e-6)[0],
                      {"coarsening": "pairwise", "interpolation": "ua"})
        assert h.n_levels >= 3
        n = h.levels[0].a.n_rows
        rng = np.random.default_rng(7)
        for g in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            for nu1, nu2 in ((1, 1), (2, 1), (0, 2)):
                assert np.array_equal(vcycle_apply(h, g, nu1, nu2),
                                      reference_vcycle(h, 0, g, nu1, nu2))

    def test_stored_transpose(self):
        h = setup(problems.fd_poisson_5pt(31))
        for lvl in h.levels[:-1]:
            assert lvl.pt.symmetry == sparse.GENERAL
            assert np.array_equal(lvl.pt.toarray(), lvl.p.matrix.toarray().T)
        assert h.levels[-1].pt is None


def two_level_apply_correction(h, g, x):
    lvl = h.levels[0]
    r = g - lvl.a @ x
    return sparse.spmv(lvl.p.matrix, h.coarsest_solver.solve(sparse.spmv(lvl.pt, r)))


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

    def test_one_column_projection_is_bitwise_the_block_one(self):
        rng = np.random.default_rng(5)
        for kernel in (np.ones(16900), rng.standard_normal((16900, 1))):
            q, _ = np.linalg.qr(kernel.reshape(-1, 1))
            proj = hierarchy._kernel_projector(kernel)
            for _ in range(20):
                v = rng.standard_normal(16900) * 10.0 ** rng.uniform(-3, 6)
                assert np.array_equal(proj(v), v - q @ (q.T @ v))

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

    def test_two_column_kernel(self):
        # two disconnected Neumann chains: the kernel is their two indicators
        blocks = [problems.laplace_1d(m, "neumann").mat for m in (10, 14)]
        a = sparse.from_scipy(sps.block_diag(blocks, format="csr"), sparse.SYMMETRIC)
        kernel = np.zeros((24, 2))
        kernel[:10, 0] = kernel[10:, 1] = 1.0
        rng = np.random.default_rng(8)
        x_exact = hierarchy._kernel_projector(kernel)(rng.standard_normal(24))
        seen = []

        def record(r):
            seen.append(np.abs(kernel.T @ r).max() / np.linalg.norm(r))
            return r.copy()

        x, report = pcg_solve(a, a.mat @ x_exact, record, tol=1e-10, kernel=kernel)
        assert report.converged
        assert max(seen) <= 1e-12  # every residual the iteration sees is projected
        assert np.abs(kernel.T @ x).max() <= 1e-12 * np.linalg.norm(x)
        assert np.abs(x - x_exact).max() <= 1e-8

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

    def test_exact_initial_guess_returned_unchanged(self):
        # r = 0 gives r'Br = 0, which is no fault of the preconditioner
        a = problems.laplace_1d(6)
        x, report = pcg_solve(a, a.mat @ np.ones(6), x0=np.ones(6))
        assert report.converged and report.iterations == 0
        assert np.array_equal(x, np.ones(6))

    def test_initial_residual_that_overflows_rejected(self):
        # the initial guess is refused before any preconditioner runs
        a = problems.laplace_1d(6)
        with pytest.raises(ValueError, match="^initial residual b - A x0 has a norm that overflows$"):
            pcg_solve(a, np.zeros(6), x0=np.full(6, 1e300))

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


@pytest.mark.parametrize("config, error, match", [
    ({"coarsening": "bogus"}, SetupError, "unknown coarsening 'bogus'"),
    ({"interpolation": "bogus"}, SetupError, "unknown interpolation 'bogus'"),
    ({"coarsening": "pairwise", "interpolation": "direct"}, SetupError,
     "'direct' needs a C/F coarsening"),
    ({"strength": "bogus"}, ValueError, "unknown strength variant 'bogus'"),
    ({"coarsening": "aggressive", "ml": "bogus"}, SetupError,
     "ml expects two positive integers 'm,l', got 'bogus'"),
    ({"coarsening": "aggressive", "ml": "1,2,3"}, SetupError, "ml expects"),
    ({"coarsening": "aggressive", "ml": "0,2"}, SetupError, "ml expects"),
    ({"smoother": "line-gs", "direction": "z"}, ValueError, "direction must be 'x' or 'y'"),
    ({"smoother": "bogus"}, ValueError, "unknown smoother kind 'bogus'"),
])
def test_config_checked_below_n0(config, error, match):
    # fd5 5 has 25 <= n0 unknowns, so no level is ever coarsened
    with pytest.raises(error, match=match):
        setup(problems.fd_poisson_5pt(5), config)


def test_smoother_checked_before_the_first_level(monkeypatch):
    # above n0 too, a bad name is refused before level 0's strength,
    # coarsening and interpolation run
    monkeypatch.setattr(strength, "strength_matrix", lambda *args: pytest.fail("S built"))
    with pytest.raises(ValueError, match="unknown smoother kind 'bogus'"):
        setup(problems.fd_poisson_5pt(20), {"smoother": "bogus"})


@pytest.mark.parametrize("v, e", [([0.5], 0), ([1.0], 1), ([0.75, -3.0], 2), ([0.0], 0),
                                  ([], 0), ([2.0**-1074], -1073), ([np.finfo(float).max], 1024)])
def test_exponent_brings_the_largest_entry_into_half_to_one(v, e):
    v = np.asarray(v, dtype=float)
    assert linalg._exponent(v) == e
    assert np.abs(np.ldexp(v, -e)).max(initial=0.5) >= 0.5
    assert np.abs(np.ldexp(v, -e)).max(initial=0.0) < 1.0


def test_ml_and_direction_checked_only_where_read():
    # a bad ml above n0 names its key, where int() raised on the first level
    with pytest.raises(SetupError, match="ml expects"):
        setup(problems.fd_poisson_5pt(20), {"coarsening": "aggressive", "ml": "bogus"})
    # no other coarsening reads ml, and no other smoother reads direction
    assert setup(problems.fd_poisson_5pt(20), {"ml": "bogus", "direction": "z"}).n_levels > 1


@pytest.mark.parametrize("interp", ["ua", "sa"])
def test_strength_built_only_where_read(interp, monkeypatch):
    # pairwise matching and the ua/sa builders read A alone
    monkeypatch.setattr(strength, "strength_matrix", lambda *args: pytest.fail("S built"))
    h = setup(problems.fd_poisson_5pt(20), {"coarsening": "pairwise", "interpolation": interp})
    assert h.n_levels >= 3
    assert all(lvl.strength is None and lvl.coarsening is not None for lvl in h.levels[:-1])
