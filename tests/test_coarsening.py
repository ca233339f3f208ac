from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

from amgforge import coarsening, problems, smoothers, sparse, strength
from amgforge.coarsening import (CFSplitting, aggressive_coarsen,
                                 check_mis, cr_refine, greedy_aggregate, mis,
                                 pairwise_aggregate)
from amgforge.strength import StrengthConfig, full_strength, strength_matrix

from tests_support import aggregates_from_cf


def path_strength(n):
    return full_strength(problems.laplace_1d(n))


class TestMis:
    def test_path_of_five(self):
        split = mis(path_strength(5))
        assert split.coarse_indices.tolist() == [0, 3]

    def test_edgeless_graph_all_coarse(self):
        a = sparse.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]), sparse.SYMMETRIC)
        s = full_strength(a)
        assert mis(s).n_coarse == 4

    def test_independent_and_maximal(self):
        s = full_strength(problems.fd_poisson_5pt(4))
        split = mis(s)
        assert check_mis(s, split)

    def test_path_of_nine_leftover_promoted(self):
        split = mis(path_strength(9))
        assert split.coarse_indices.tolist() == [0, 3, 6, 8]
        assert check_mis(path_strength(9), split)

    def test_relabeling_equivariance(self):
        a = problems.fd_poisson_5pt(3)
        base = mis(full_strength(a))
        rng = np.random.default_rng(4)
        perm = rng.permutation(9)  # new vertex i holds old vertex perm[i]
        pmat = np.eye(9)[perm]
        a_perm = sparse.from_dense(pmat @ a.toarray() @ pmat.T, sparse.SYMMETRIC)
        invperm = np.argsort(perm)
        split_perm = mis(full_strength(a_perm), order=invperm)
        assert np.array_equal(split_perm.is_coarse, base.is_coarse[perm])

    def test_determinism(self):
        s = full_strength(problems.fd_poisson_5pt(4))
        assert np.array_equal(mis(s).is_coarse, mis(s).is_coarse)


class TestGreedyAggregate:
    def test_path_of_five(self):
        part = greedy_aggregate(path_strength(5))
        assert part.labels.tolist() == [0, 0, 1, 1, 1]

    def test_complete_graph_single_aggregate(self):
        a = sparse.from_dense(4 * np.eye(4) - np.ones((4, 4)), sparse.SYMMETRIC)
        part = greedy_aggregate(full_strength(a))
        assert part.n_aggregates == 1

    def test_grid_aggregates_connected_and_sized(self):
        s = full_strength(problems.fd_poisson_5pt(4))
        part = greedy_aggregate(s)
        sizes = part.sizes()
        assert sizes.min() >= 2 and sizes.max() <= 9
        for k in range(part.n_aggregates):
            assert _connected_in(s, np.flatnonzero(part.labels == k))

    def test_isolated_vertex_flagged(self):
        a = sparse.from_dense(
            np.diag([2.0, 2.0, 1.0]) - np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
            sparse.SYMMETRIC)
        part = greedy_aggregate(full_strength(a))
        assert part.isolated == (2,) and type(part.isolated[0]) is int


@pytest.mark.parametrize("sweep", [mis, greedy_aggregate])
@pytest.mark.parametrize("order", [[0, 1, 2], [0] * 16, list(range(1, 17)),
                                   list(range(-1, 15))])
def test_order_must_be_a_permutation(sweep, order):
    s = strength_matrix(problems.fd_poisson_5pt(4))
    with pytest.raises(ValueError, match="permutation"):
        sweep(s, order=order)


def random_graph(n, seed, density):
    pattern = sps.random(n, n, density, random_state=seed, format="csr")
    return sparse.graph_from_scipy(pattern)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.floats(0.0, 0.3),
       st.booleans())
def test_sweeps_on_random_graphs(n, seed, density, permuted):
    g = random_graph(n, seed, density)
    order = np.random.default_rng(seed).permutation(n) if permuted else None
    split = mis(g, order)
    assert check_mis(g, split)
    # any single flip breaks independence or maximality
    flipped = split.is_coarse.copy()
    flipped[seed % n] = not flipped[seed % n]
    assert not check_mis(g, CFSplitting(flipped))
    part = greedy_aggregate(g, order)
    assert (part.labels >= 0).all()
    assert np.array_equal(np.unique(part.labels), np.arange(part.n_aggregates))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.floats(0.0, 0.3),
       st.booleans())
def test_mop_up_opens_no_aggregate(n, seed, density, permuted):
    # a leftover vertex has a touched neighbor, and every touched vertex lies
    # in a root's aggregate; an isolated vertex is a root
    g = random_graph(n, seed, density)
    order = np.random.default_rng(seed).permutation(n) if permuted else None
    roots = coarsening._root_sweep(g, order)[-1]
    part = greedy_aggregate(g, order)
    assert part.n_aggregates == len(roots)
    assert part.labels[roots].tolist() == list(range(len(roots)))
    assert set(part.isolated) <= set(roots)


def _connected_in(s, members):
    members = set(int(m) for m in members)
    if not members:
        return False
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in s.neighbors(v):
            if int(w) in members and int(w) not in seen:
                seen.add(int(w))
                stack.append(int(w))
    return seen == members


class TestPairwise:
    def test_tridiag4_pairs(self):
        part = pairwise_aggregate(problems.laplace_1d(4))
        assert part.labels.tolist() == [0, 0, 1, 1]

    def test_single_vertex(self):
        a = sparse.from_dense([[2.0]], sparse.SYMMETRIC)
        part = pairwise_aggregate(a)
        assert part.n_aggregates == 1

    def test_singular_pair_matched(self):
        # pair_local_opt scores an exactly singular pair +inf, as strength does
        a = sparse.from_dense([[1.0, -1.0], [-1.0, 1.0]], sparse.SYMMETRIC)
        assert pairwise_aggregate(a).labels.tolist() == [0, 0]

    def test_two_passes_compose(self):
        part = pairwise_aggregate(problems.laplace_1d(8), passes=2)
        assert part.n_aggregates == 2
        assert np.array_equal(part.sizes(), [4, 4])

    def test_aggregates_connected(self):
        a = problems.fd_poisson_5pt(4)
        part = pairwise_aggregate(a, passes=2)
        s = full_strength(a)
        for k in range(part.n_aggregates):
            assert _connected_in(s, np.flatnonzero(part.labels == k))


class TestAggressive:
    def test_path_of_nine_distance(self):
        s = path_strength(9)
        split = aggressive_coarsen(s, 1, 2)
        coarse = split.coarse_indices
        assert len(coarse) >= 2
        # pairwise distance >= 3 in the original strength graph
        dist = {}
        for c in coarse:
            d = sparse.bfs_distance(s.graph, [c])
            for c2 in coarse:
                if c2 != c:
                    assert d[c2] >= 3

    def test_unit_parameters_reduce_to_mis(self):
        s = full_strength(problems.fd_poisson_5pt(4))
        assert np.array_equal(aggressive_coarsen(s, 1, 1).is_coarse, mis(s).is_coarse)

    def test_no_denser_than_mis(self):
        s = full_strength(problems.fd_poisson_5pt(6))
        assert aggressive_coarsen(s, 2, 2).n_coarse <= mis(s).n_coarse


class TestCompatibleRelaxation:
    def test_perfect_coarsening_untouched(self):
        t = problems.laplace_1d(31)
        split = CFSplitting(np.arange(31) % 2 == 1)
        refined, report = cr_refine(t, smoothers.GaussSeidel, split,
                                    full_strength(t))
        assert report.rho_history[0] <= 0.45
        assert report.added == 0
        assert np.array_equal(refined.is_coarse, split.is_coarse)

    def test_empty_coarse_set_triggers_refinement(self):
        t = problems.laplace_1d(31)
        split = CFSplitting(np.zeros(31, dtype=bool))
        refined, report = cr_refine(t, smoothers.GaussSeidel, split,
                                    full_strength(t))
        assert report.rho_history[0] > 0.7  # close to the full smoother rate
        assert report.added > 0
        assert refined.n_coarse > 0

    def test_anisotropic_full_coarsening_refined_along_lines(self):
        n, eps = 8, 1e-4
        a = problems.fe_anisotropic(n, eps)
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        # aggressive full coarsening in both directions: every 4th point
        is_coarse = np.zeros(n * n, dtype=bool)
        for j in range(0, n, 4):
            for i in range(0, n, 4):
                is_coarse[j * n + i] = True
        refined, report = cr_refine(a, smoothers.GaussSeidel,
                                    CFSplitting(is_coarse), s,
                                    max_rounds=6, seed=1)
        assert refined.n_coarse > is_coarse.sum()
        assert report.rho_history[-1] <= report.rho_history[0]

    def test_rounds_exhausted_flagged(self):
        t = problems.laplace_1d(31)
        split = CFSplitting(np.zeros(31, dtype=bool))
        _, report = cr_refine(t, smoothers.GaussSeidel, split,
                              full_strength(t), delta_f=0.01, max_rounds=1)
        assert not report.converged


def test_aggregates_from_cf_covers():
    s = full_strength(problems.fd_poisson_5pt(4))
    split = mis(s)
    part = aggregates_from_cf(split, s)
    assert part.n_aggregates == split.n_coarse
    assert (part.labels >= 0).all()


GOLDEN_CASES = {
    "fd5_64": lambda: problems.fd_poisson_5pt(64),
    "fe_aniso_32": lambda: problems.fe_anisotropic(32, 1e-3),
    "fe_jump_32": lambda: problems.fe_jump_coefficient(32, 1e-6)[0],
}

# Labels ("<case>/<sweep>") of every GOLDEN_CASES sweep: np.savez_compressed
# of the merged golden_entries(case) of all cases, run against the per-vertex
# numpy sweeps that preceded the list-based ones (commit 258850f).
GOLDEN = Path(__file__).parent / "data" / "coarsening_reference.npz"


def golden_entries(case):
    a = GOLDEN_CASES[case]()
    s = strength_matrix(a)
    order = np.random.default_rng(41).permutation(a.n_rows)
    return {
        f"{case}/mis": mis(s).is_coarse,
        f"{case}/mis_order": mis(s, order).is_coarse,
        f"{case}/aggregate": greedy_aggregate(s).labels,
        f"{case}/aggregate_order": greedy_aggregate(s, order).labels,
        f"{case}/pairwise_1": pairwise_aggregate(a, passes=1).labels,
        f"{case}/pairwise_2": pairwise_aggregate(a, passes=2).labels,
        f"{case}/aggressive_2_2": aggressive_coarsen(s, 2, 2).is_coarse,
    }


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_sweeps_match_golden(case):
    with np.load(GOLDEN) as ref:
        for key, got in golden_entries(case).items():
            assert ref[key].dtype == got.dtype, key
            assert np.array_equal(ref[key], got), key
