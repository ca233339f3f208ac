import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

from amgforge import coarsening, hierarchy, interpolation, problems, smoothers, sparse
from amgforge.coarsening import AggregatePartition, CFSplitting
from amgforge.interpolation import (InterpolationError, SupportSet,
                                    direct_interpolation,
                                    energy_min_prolongation,
                                    ideal_interpolation,
                                    multipass_interpolation, sa_prolongation,
                                    spectral_amge_coarse_space,
                                    standard_interpolation,
                                    supports_from_aggregates, ua_prolongation,
                                    vector_preserving_interpolation,
                                    verify_full_rank)
from amgforge.linalg import DENSE_CAP
from amgforge.strength import StrengthConfig, full_strength, strength_matrix

from tests_support import harmonic_test_vertices

EVEN_SPLIT_5 = CFSplitting(np.array([False, True, False, True, False]))


class TestIdeal:
    def test_gmg_stencil_1d(self):
        p = ideal_interpolation(problems.laplace_1d(5), EVEN_SPLIT_5)
        expect = np.array([[0.5, 0], [1, 0], [0.5, 0.5], [0, 1], [0, 0.5]])
        assert np.abs(p.toarray() - expect).max() <= 1e-14

    def test_block_diagonal_no_coupling(self):
        a = sparse.from_dense(scipy.linalg.block_diag(
            [[2.0, -1.0], [-1.0, 2.0]], [[3.0]]), sparse.SYMMETRIC)
        split = CFSplitting(np.array([False, True, True]))
        p = ideal_interpolation(a, split).toarray()
        # F row 0 couples only into its own block's C point
        assert p[0, 1] == 0.0

    def test_neumann_preserves_constants(self):
        a = problems.laplace_1d(7, "neumann")
        split = CFSplitting(np.arange(7) % 2 == 1)
        p = ideal_interpolation(a, split)
        assert np.abs(p.toarray().sum(axis=1) - 1.0).max() <= 1e-13

    def test_cap_enforced(self):
        n = 2 * DENSE_CAP + 3
        a = problems.laplace_1d(n)
        with pytest.raises(ValueError):
            ideal_interpolation(a, CFSplitting(np.arange(n) % 2 == 1))

    def test_singular_ff_block(self):
        a = sparse.from_dense([[0.0, 0.0, 1.0], [0.0, 2.0, -1.0], [1.0, -1.0, 2.0]],
                              sparse.SYMMETRIC)
        with pytest.raises(InterpolationError):
            ideal_interpolation(a, CFSplitting(np.array([False, False, True])))


class TestDirect:
    def test_frozen_1d_rows(self):
        a = problems.laplace_1d(5)
        p = direct_interpolation(a, EVEN_SPLIT_5, full_strength(a))
        w = p.toarray()[[0, 2, 4]]
        assert np.array_equal(w, [[1, 0], [0.5, 0.5], [0, 1]])

    def test_single_coarse_neighbor_weight_one(self):
        a = problems.laplace_1d(3)
        split = CFSplitting(np.array([False, True, False]))
        p = direct_interpolation(a, split, full_strength(a))
        assert np.array_equal(p.toarray(), [[1.0], [1.0], [1.0]])

    def test_anisotropic_weights_along_x_only(self):
        n = 5
        a = problems.fe_anisotropic(n, 1e-3)
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        split = coarsening.mis(s)
        p = direct_interpolation(a, split, s)
        coarse = split.coarse_indices
        for pos, i in enumerate(split.fine_indices):
            row = p.matrix.mat[i].tocoo()
            for c in row.col:
                assert abs(int(coarse[c]) - int(i)) < n  # same grid line

    def test_orphan_row_raises(self):
        a = problems.laplace_1d(3)
        s = full_strength(a)
        split = CFSplitting(np.array([True, False, False]))
        with pytest.raises(InterpolationError, match="2"):
            direct_interpolation(a, split, s)


class TestStandard:
    def test_neumann_1d_equals_ideal(self):
        a = problems.laplace_1d(5, "neumann")
        s = full_strength(a)
        p_std = standard_interpolation(a, EVEN_SPLIT_5, s)
        p_ideal = ideal_interpolation(a, EVEN_SPLIT_5)
        assert np.abs(p_std.toarray() - p_ideal.toarray()).max() <= 1e-14

    def test_diagonal_ff_reduces_to_direct(self):
        a = problems.laplace_1d(5)
        s = full_strength(a)
        p_std = standard_interpolation(a, EVEN_SPLIT_5, s)
        p_dir = direct_interpolation(a, EVEN_SPLIT_5, s)
        assert np.abs(p_std.toarray() - p_dir.toarray()).max() <= 1e-14

    def test_2d_row_sums_and_pattern(self):
        a = problems.fd_poisson_5pt(5)
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        split = coarsening.mis(s)
        p = standard_interpolation(a, split, s)
        rows = p.toarray().sum(axis=1)
        assert np.abs(rows - 1.0).max() <= 1e-12
        # pattern within strong distance 2
        coarse = split.coarse_indices
        adj = s.to_scipy()
        two_hop = ((adj + adj @ adj).toarray() > 0)
        for i in split.fine_indices:
            row = p.matrix.mat[i].tocoo()
            for c in row.col:
                assert two_hop[i, coarse[c]]


class TestMultipass:
    def test_single_level_set_equals_direct(self):
        a = problems.laplace_1d(5)
        s = full_strength(a)
        p_multi = multipass_interpolation(a, EVEN_SPLIT_5, s)
        p_dir = direct_interpolation(a, EVEN_SPLIT_5, s)
        assert np.abs(p_multi.toarray() - p_dir.toarray()).max() <= 1e-14

    def test_path_with_center_coarse_point(self):
        a = problems.laplace_1d(5)
        s = full_strength(a)
        split = CFSplitting(np.array([False, False, True, False, False]))
        p = multipass_interpolation(a, split, s)
        assert np.array_equal(p.toarray().ravel(), np.ones(5))

    def test_aggressive_2d_row_sums(self):
        a = problems.fd_poisson_5pt(6)
        s = full_strength(a)
        split = coarsening.aggressive_coarsen(s, 1, 2)
        p = multipass_interpolation(a, split, s)
        assert np.abs(p.toarray().sum(axis=1) - 1.0).max() <= 1e-12
        dist = sparse.bfs_distance(s.graph, split.coarse_indices)
        assert dist.max() <= 2

    def test_unreachable_vertex_raises(self):
        a = sparse.from_dense(np.diag([2.0, 2.0]), sparse.SYMMETRIC)
        s = full_strength(a)
        split = CFSplitting(np.array([True, False]))
        with pytest.raises(InterpolationError):
            multipass_interpolation(a, split, s)


class TestAggregation:
    def test_indicator_columns(self):
        part = AggregatePartition(np.array([0, 0, 1, 1, 1]), 2)
        p = ua_prolongation(part).toarray()
        assert np.array_equal(p[:, 0], [1, 1, 0, 0, 0])
        assert np.array_equal(p[:, 1], [0, 0, 1, 1, 1])

    def test_rigid_body_preservation(self):
        coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        z = np.column_stack(problems.rigid_body_vectors(coords))
        part = AggregatePartition(np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
        p = ua_prolongation(part, z)
        assert p.matrix.shape == (8, 6)
        for j in range(3):
            e = np.zeros(6)
            e[j::3] = 1.0
            assert np.abs(p.matrix.mat @ e - z[:, j]).max() == 0.0

    def test_single_aggregate_is_vector_matrix(self):
        z = np.arange(1.0, 5.0)[:, None]
        part = AggregatePartition(np.zeros(4, dtype=np.int64), 1)
        assert np.array_equal(ua_prolongation(part, z).toarray(), z)

    def test_rank_deficient_aggregate_rejected(self):
        z = np.column_stack([np.ones(4), np.ones(4)])
        part = AggregatePartition(np.array([0, 0, 1, 1]), 2)
        with pytest.raises(InterpolationError, match="aggregate"):
            ua_prolongation(part, z)

    def test_vectors_match_per_aggregate_reference(self):
        a = problems.fe_jump_coefficient(12, 1e-6)[0]
        part = coarsening.greedy_aggregate(strength_matrix(a, StrengthConfig()))
        rng = np.random.default_rng(3)
        z = np.column_stack([np.ones(a.n_rows), rng.standard_normal(a.n_rows)])
        z[rng.random(a.n_rows) < 0.2, 1] = 0.0  # zeros stay out of the pattern
        rows, cols, vals = [], [], []
        for agg in range(part.n_aggregates):
            for vertex in np.flatnonzero(part.labels == agg):
                for j in range(2):
                    if z[vertex, j] != 0.0:
                        rows.append(vertex)
                        cols.append(2 * agg + j)
                        vals.append(z[vertex, j])
        ref = sparse.from_scipy(sps.coo_matrix(
            (vals, (rows, cols)), shape=(a.n_rows, 2 * part.n_aggregates))).mat
        got = ua_prolongation(part, z).matrix.mat
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(ref, field)), field
            assert getattr(got, field).dtype == getattr(ref, field).dtype, field

    def test_lowest_rank_deficient_aggregate_named(self):
        # aggregates 1 (size 2) and 3 (size 3) are rank deficient; the
        # stacks go by size, so the larger bad aggregate is seen first
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 3, 3, 3])
        z = np.column_stack([np.ones(10), np.arange(10.0)])
        z[3:5, 1] = 1.0
        z[7:10, 1] = 2.0
        with pytest.raises(InterpolationError, match="aggregate 1 "):
            ua_prolongation(AggregatePartition(labels, 4), z)

    def test_vectors_of_wrong_length_refused(self):
        part = AggregatePartition(np.array([0, 0, 1, 1]), 2)
        with pytest.raises(ValueError, match="4 finite rows"):
            ua_prolongation(part, np.ones((5, 1)))


class TestSmoothedAggregation:
    def test_kernel_vector_survives_smoothing(self):
        a = problems.laplace_1d(8, "neumann")
        part = AggregatePartition(np.repeat(np.arange(4), 2), 4)
        p = sa_prolongation(ua_prolongation(part), a, nu=1)
        assert np.abs(p.matrix.mat @ np.ones(4) - 1.0).max() <= 1e-14

    def test_nu_zero_is_identity_on_p(self):
        a = problems.laplace_1d(8)
        part = AggregatePartition(np.repeat(np.arange(4), 2), 4)
        tent = ua_prolongation(part)
        assert sa_prolongation(tent, a, nu=0) is tent

    def test_columns_widen_one_graph_distance(self):
        a = problems.laplace_1d(8)
        part = AggregatePartition(np.repeat(np.arange(4), 2), 4)
        p = sa_prolongation(ua_prolongation(part), a, nu=1, omega=2.0 / 3.0)
        nnz_per_col = np.diff(p.matrix.mat.tocsc().indptr)
        assert nnz_per_col.max() <= 4

    def test_full_rank_at_desk_scale(self):
        a = problems.fd_poisson_5pt(4)
        part = coarsening.greedy_aggregate(full_strength(a))
        assert verify_full_rank(sa_prolongation(ua_prolongation(part), a))

    def test_damping_that_overflows_is_refused_by_name(self):
        # on a coarse level of this tiny-scaled matrix omega / a_ii overflows;
        # the refusal names the damping, not the input's values
        a = problems.fe_jump_coefficient(48, 1e-6)[0]
        tiny = sparse.from_scipy(a.mat * 2.0**-1000, sparse.SYMMETRIC)
        with pytest.raises(InterpolationError, match="SA damping omega / a_ii is not finite"):
            hierarchy.setup(tiny, {"coarsening": "aggregate", "interpolation": "sa"})

    def test_damping_on_a_zero_diagonal_is_refused_by_name(self):
        a = sparse.from_dense([[0.0, 1.0], [1.0, 2.0]], sparse.SYMMETRIC)
        part = AggregatePartition(np.array([0, 0]), 1)
        with pytest.raises(InterpolationError, match="not finite at row 0: omega = 0.5"):
            sa_prolongation(ua_prolongation(part), a, omega=0.5)


class TestEnergyMin:
    def neumann_path_supports(self, n):
        sup = []
        for c in range(0, n, 2):
            sup.append(np.array([i for i in (c - 1, c, c + 1) if 0 <= i < n]))
        return SupportSet(tuple(sup))

    def test_1d_hats(self):
        n = 9
        a = problems.laplace_1d(n, "neumann")
        p = energy_min_prolongation(a, self.neumann_path_supports(n))
        cols = p.toarray()
        for j in range(1, 4):  # interior columns are exact hats
            c = 2 * j
            expect = np.zeros(n)
            expect[c - 1:c + 2] = [0.5, 1.0, 0.5]
            assert np.abs(cols[:, j] - expect).max() <= 1e-10

    def test_single_support_returns_constraint(self):
        a = problems.laplace_1d(5)
        supports = SupportSet((np.arange(5),))
        v = np.linspace(1.0, 2.0, 5)
        p = energy_min_prolongation(a, supports, constraint=v)
        assert np.abs(p.toarray().ravel() - v).max() <= 1e-10

    def test_harmonic_inside_coarse_elements(self):
        n = 7
        a = problems.fd_poisson_5pt(n, "neumann")
        sup = []
        for cy in range(0, n, 2):
            for cx in range(0, n, 2):
                idx = [j * n + i
                       for j in range(max(cy - 1, 0), min(cy + 2, n))
                       for i in range(max(cx - 1, 0), min(cx + 2, n))]
                sup.append(np.array(idx))
        supports = SupportSet(tuple(sup))
        p = energy_min_prolongation(a, supports)
        pts = harmonic_test_vertices(supports, sparse.adjacency_graph(a), n * n)
        assert len(pts) == 9
        resid = (a.mat @ p.toarray())[pts]
        assert np.abs(resid).max() <= 1e-8

    def test_support_validation(self):
        with pytest.raises(ValueError, match="cover"):
            SupportSet((np.array([0, 1]),)).validate(3)
        with pytest.raises(ValueError, match="contained"):
            SupportSet((np.array([0, 1]), np.array([0, 1, 2]))).validate(3)

    def test_validation_names_lowest_bad_support(self):
        # supports 1, 2 and 3 have no private vertex
        sup = [np.array([0, 1]), np.array([1, 2]), np.array([2, 3, 4]), np.array([4]),
               np.array([3, 5])]
        with pytest.raises(ValueError, match="support 1 is contained"):
            SupportSet(tuple(sup)).validate(6)
        sup = [np.array([0, 1]), np.array([1]), np.array([2, 3]), np.array([3])]
        with pytest.raises(ValueError, match="support 1 is contained"):
            SupportSet(tuple(sup)).validate(4)
        with pytest.raises(ValueError, match="cover vertex 2"):
            SupportSet((np.array([0]), np.array([4]), np.array([1]))).validate(5)

    def test_empty_support_refused(self):
        for sup in ((np.array([0, 1]), np.array([], dtype=np.int64)),
                    (np.array([], dtype=np.int64), np.array([0, 1])),
                    (np.array([0]), np.array([], dtype=np.int64), np.array([1]))):
            empty = next(k for k, s in enumerate(sup) if s.size == 0)
            with pytest.raises(ValueError, match=f"support {empty} is contained"):
                SupportSet(sup).validate(2)

    def test_repeated_vertex_counts_once(self):
        # vertex 1 is private to support 1 even though support 1 lists it twice
        SupportSet((np.array([0, 2]), np.array([1, 1, 2]))).validate(3)
        with pytest.raises(ValueError, match=r"support 1 holds index 3, outside \[0, 3\)"):
            SupportSet((np.array([0, 1]), np.array([2, 3]))).validate(3)

    def test_singular_local_block_named(self):
        a = problems.laplace_1d(4, "neumann")
        supports = SupportSet((np.arange(4),))  # support = whole singular domain
        with pytest.raises(InterpolationError, match="support 0"):
            energy_min_prolongation(a, supports)

    def test_no_dense_basis(self):
        # a dense n x n_c basis at fd5 64^2 alone is 4096 x 704 doubles (23 MB)
        a = problems.fd_poisson_5pt(64)
        s = strength_matrix(a, StrengthConfig())
        supports = supports_from_aggregates(coarsening.greedy_aggregate(s), s)
        tracemalloc.start()
        try:
            p = energy_min_prolongation(a, supports)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.matrix.nnz == 10116
        assert peak <= 8e6

    def test_trace_not_above_ua(self):
        a = problems.fd_poisson_5pt(4)
        s = full_strength(a)
        part = coarsening.greedy_aggregate(s)
        supports = supports_from_aggregates(part, s)
        p_emin = energy_min_prolongation(a, supports)
        p_ua = ua_prolongation(part)
        tr = lambda p: np.trace(p.toarray().T @ a.toarray() @ p.toarray())
        assert tr(p_emin) <= tr(p_ua) + 1e-10


class TestTraceOrdering:
    def test_ideal_has_minimal_trace_among_unit_c_rows(self):
        a = problems.fd_poisson_5pt(5)
        s = full_strength(a)
        split = coarsening.mis(s)
        p_ideal = ideal_interpolation(a, split)
        tr = lambda p: np.trace(p.toarray().T @ a.toarray() @ p.toarray())
        t0 = tr(p_ideal)
        for other in (direct_interpolation(a, split, s),
                      standard_interpolation(a, split, s)):
            assert t0 <= tr(other) + 1e-10


class TestVectorPreserving:
    def test_constant_prototype_on_neumann(self):
        a = problems.laplace_1d(7, "neumann")
        s = full_strength(a)
        split = coarsening.mis(s)
        p = vector_preserving_interpolation(a, split, s, np.ones(7))
        assert np.abs(p.toarray().sum(axis=1) - 1.0).max() <= 1e-12

    def test_rescaled_prototype_preserved_where_direct_fails(self):
        import scipy.sparse as sps

        a0 = problems.laplace_1d(15)
        rng = np.random.default_rng(3)
        d = 10.0 ** rng.uniform(-1, 1, 15)
        a = sparse.from_scipy(sps.diags(d) @ a0.mat @ sps.diags(d),
                              sparse.SYMMETRIC)
        v = 1.0 / d
        s = full_strength(a)
        split = coarsening.mis(s)
        fine, coarse = split.fine_indices, split.coarse_indices
        p_v = vector_preserving_interpolation(a, split, s, v)
        assert np.abs(p_v.toarray()[fine] @ v[coarse] - v[fine]).max() <= 1e-10
        p_d = direct_interpolation(a, split, s)
        assert np.abs(p_d.toarray()[fine] @ v[coarse] - v[fine]).max() > 1e-2

    def test_better_two_level_rate_with_exact_eigenvector(self):
        from amgforge import analysis

        a = problems.laplace_1d(15)
        w, vecs = scipy.linalg.eigh(a.toarray())
        v = vecs[:, 0]
        s = full_strength(a)
        split = coarsening.mis(s)
        gs = smoothers.GaussSeidel(a)
        rate_v = analysis.two_level_error_norm(
            a, gs, vector_preserving_interpolation(a, split, s, v))
        rate_d = analysis.two_level_error_norm(
            a, gs, direct_interpolation(a, split, s))
        assert rate_v < rate_d

    def test_vanishing_prototype_rejected(self):
        a = problems.laplace_1d(5)
        s = full_strength(a)
        v = np.ones(5)
        v[0] = 0.0
        with pytest.raises(InterpolationError, match="re-relax"):
            vector_preserving_interpolation(a, EVEN_SPLIT_5, s, v)


class TestSpectralAmge:
    def element_labels_by_quadrant(self, assembly):
        bary = assembly.coords[assembly.verts].mean(axis=1)
        return (bary[:, 0] > 0.5).astype(np.int64) + 2 * (bary[:, 1] > 0.5)

    def element_labels_by_patch(self, assembly):
        # the 10 x 10 patches of the unit square
        patch = np.minimum((assembly.coords[assembly.verts].mean(axis=1) * 10).astype(int), 9)
        return patch[:, 0] + 10 * patch[:, 1]

    def test_constants_reproduced(self):
        a, asm = problems.fe_jump_coefficient(4, 1e-3)
        labels = self.element_labels_by_quadrant(asm)
        p = spectral_amge_coarse_space(asm, labels, 1)
        coef, *_ = np.linalg.lstsq(p.toarray(), np.ones(a.n_rows), rcond=None)
        assert np.abs(p.toarray() @ coef - 1.0).max() <= 1e-10

    def test_whole_mesh_agglomerate_spans_everything(self):
        from amgforge import analysis

        a, asm = problems.fe_jump_coefficient(1, 1.0)
        labels = np.zeros(len(asm.verts), dtype=np.int64)
        p = spectral_amge_coarse_space(asm, labels, a.n_rows)
        gs = smoothers.GaussSeidel(a)
        rate = analysis.two_level_error_norm(a, gs, p,
                                             kernel=np.ones((a.n_rows, 1)))
        assert rate <= 1e-7

    def test_local_eigenvalue_uniform_in_epsilon(self):
        # agglomerates aligned with the interface: the second local
        # eigenvalue stays bounded away from zero as the jump grows
        mus = []
        for eps in (1.0, 1e-3, 1e-6):
            _, asm = problems.fe_jump_coefficient(4, eps)
            labels = self.element_labels_by_quadrant(asm)
            for j in range(4):
                verts = np.unique(asm.verts[labels == j])
                local = np.zeros((len(verts), len(verts)))
                for e in np.flatnonzero(labels == j):
                    loc = np.searchsorted(verts, asm.verts[e])
                    local[np.ix_(loc, loc)] += asm.blocks[e]
                lam = scipy.linalg.eigh(local, np.diag(np.diag(local)),
                                        eigvals_only=True)
                mus.append(lam[1])
        assert min(mus) >= 0.01
        assert max(mus) / min(mus) <= 1.5  # epsilon-independent

    def test_no_dense_basis(self):
        # a dense basis here is 1764 x 400 doubles (5.6 MB)
        _, asm = problems.fe_jump_coefficient(40, 1e-6)
        labels = self.element_labels_by_patch(asm)
        tracemalloc.start()
        try:
            p = spectral_amge_coarse_space(asm, labels, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.matrix.shape == (1764, 400)
        assert peak <= 3e6

    def test_m_per_too_large(self):
        _, asm = problems.fe_jump_coefficient(1, 1.0)
        labels = np.zeros(len(asm.verts), dtype=np.int64)
        with pytest.raises(ValueError, match="m_per"):
            spectral_amge_coarse_space(asm, labels, 100)


def test_row_sum_preservation_on_neumann_family():
    cases = [problems.fd_poisson_5pt(5, "neumann"),
             problems.fe_anisotropic(5, 1e-3, "neumann"),
             problems.fe_jump_coefficient(4, 1e-3)[0]]
    for a in cases:
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        split = coarsening.mis(s)
        for build in (direct_interpolation, standard_interpolation,
                      multipass_interpolation):
            p = build(a, split, s)
            assert np.abs(p.matrix.mat @ np.ones(p.n_coarse) - 1.0).max() <= 1e-12


def test_all_builders_full_rank():
    a = problems.fd_poisson_5pt(4)
    s = full_strength(a)
    split = coarsening.mis(s)
    part = coarsening.greedy_aggregate(s)
    ps = [ideal_interpolation(a, split),
          direct_interpolation(a, split, s),
          standard_interpolation(a, split, s),
          ua_prolongation(part),
          sa_prolongation(ua_prolongation(part), a),
          energy_min_prolongation(a, supports_from_aggregates(part, s))]
    for p in ps:
        assert verify_full_rank(p), p.builder


def random_m_matrix(n, seed, density):
    """Seeded SPD M-matrix: random symmetric negative couplings, strictly
    diagonally dominant rows."""
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < density, 1)
    off = np.where(mask, -rng.uniform(0.1, 1.0, (n, n)), 0.0)
    off = off + off.T
    a = off + np.diag(-off.sum(axis=1) + rng.uniform(0.01, 0.5, n))
    return sparse.from_dense(a, sparse.SYMMETRIC)


def classical_builds(a, theta, v):
    """The four classical builders on A at one theta: multipass on an
    aggressive (1, 2) splitting, the others on the MIS splitting."""
    s = strength_matrix(a, StrengthConfig("classical_sym", theta))
    split = coarsening.mis(s)
    aggressive = coarsening.aggressive_coarsen(s, 1, 2)
    return s, split, aggressive, {
        "direct": lambda: direct_interpolation(a, split, s),
        "standard": lambda: standard_interpolation(a, split, s),
        "multipass": lambda: multipass_interpolation(a, aggressive, s),
        "vector_preserving": lambda: vector_preserving_interpolation(a, split, s, v),
    }


GOLDEN_CASES = {
    "fd5_16": lambda: problems.fd_poisson_5pt(16),
    "fe_aniso_12": lambda: problems.fe_anisotropic(12, 1e-3),
    "fe_jump_12": lambda: problems.fe_jump_coefficient(12, 1e-6)[0],
    "random_m_0": lambda: random_m_matrix(40, 0, 0.1),
    "random_m_1": lambda: random_m_matrix(40, 1, 0.2),
}

# CSR arrays ("<case>/<theta>/<builder>/{data,indices,indptr,shape}") of
# every GOLDEN_CASES x theta x builder P, written by the per-row loop
# builders that preceded the sparse-algebra ones (commit 51c6302).
GOLDEN = Path(__file__).parent / "data" / "classical_p_reference.npz"


def golden_prototype(n):
    return 1.0 + 0.5 * np.cos(0.7 * np.arange(n))


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_classical_p_matches_golden(case):
    a = GOLDEN_CASES[case]()
    with np.load(GOLDEN) as ref:
        for theta in (0.25, 0.5):
            _, _, _, builds = classical_builds(a, theta, golden_prototype(a.n_rows))
            for name, build in builds.items():
                key = f"{case}/{theta}/{name}"
                got = build().matrix.mat
                assert tuple(ref[key + "/shape"]) == got.shape, key
                assert np.array_equal(ref[key + "/indptr"], got.indptr), key
                assert np.array_equal(ref[key + "/indices"], got.indices), key
                if name == "direct":
                    assert np.array_equal(ref[key + "/data"], got.data), key
                else:
                    assert np.abs(ref[key + "/data"] - got.data).max() <= 1e-14, key


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 40), st.integers(0, 2**32 - 1), st.floats(0.05, 0.4),
       st.sampled_from([0.25, 0.5]))
def test_classical_p_properties_on_random_m_matrices(n, seed, density, theta):
    a = random_m_matrix(n, seed, density)
    v = np.random.default_rng(seed).uniform(0.5, 1.5, n)
    s, split, aggressive, builds = classical_builds(a, theta, v)
    reach = s.to_scipy() + sps.identity(n, dtype=np.int64)
    within = {"direct": reach.toarray(), "standard": (reach @ reach).toarray()}
    for name, build in builds.items():
        p = build()
        mat = p.matrix.mat
        cf = aggressive if name == "multipass" else split
        coarse, fine = cf.coarse_indices, cf.fine_indices
        assert np.array_equal(mat[coarse].toarray(), np.eye(coarse.size)), name
        if name == "vector_preserving":
            assert np.abs(mat[fine] @ v[coarse] - v[fine]).max(initial=0.0) <= 1e-12
        else:
            sums = mat[fine] @ np.ones(coarse.size)
            assert np.abs(sums - 1.0).max(initial=0.0) <= 1e-12, name
        if name in within:
            rows, cols = mat[fine].nonzero()
            assert (within[name][fine[rows], coarse[cols]] != 0).all(), name
        assert verify_full_rank(p), name


SUPPORT_FAMILIES = {
    "fd5": lambda n: problems.fd_poisson_5pt(n),
    "fe_aniso": lambda n: problems.fe_anisotropic(n, 1e-3),
    "fe_jump": lambda n: problems.fe_jump_coefficient(n, 1e-6)[0],
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SUPPORT_FAMILIES)), st.integers(2, 12),
       st.integers(0, 2**32 - 1))
def test_supports_equal_per_aggregate_union(family, n, seed):
    a = SUPPORT_FAMILIES[family](n)
    s = strength_matrix(a, StrengthConfig())
    part = coarsening.greedy_aggregate(s, np.random.default_rng(seed).permutation(a.n_rows))
    adj = s.to_scipy()
    got = supports_from_aggregates(part, s).supports
    assert len(got) == part.n_aggregates
    for k, support in enumerate(got):
        members = np.flatnonzero(part.labels == k)
        ref = np.unique(np.concatenate([members, adj[members].tocoo().col]))
        assert support.dtype == ref.dtype and np.array_equal(support, ref), k
