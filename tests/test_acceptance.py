"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps

from amgforge import (adaptive, analysis, coarsening, hierarchy,
                      interpolation, problems, smoothers, sparse)
from amgforge.coarsening import AggregatePartition, mis
from amgforge.interpolation import (SupportSet, direct_interpolation,
                                    energy_min_prolongation,
                                    ideal_interpolation,
                                    multipass_interpolation, sa_prolongation,
                                    standard_interpolation,
                                    supports_from_aggregates, ua_prolongation)
from amgforge.smoothers import GaussSeidel, Jacobi, symmetrize
from amgforge.strength import StrengthConfig, strength_matrix

from tests_support import harmonic_test_vertices


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_closed_form_spectrum():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 5, 10):
        dense = scipy.linalg.eigh(problems.fd_poisson_5pt(n).toarray(),
                                  eigvals_only=True)
        worst = max(worst, np.abs(dense - problems.exact_spectrum_5pt(n)).max())
    n2 = np.abs(problems.exact_spectrum_5pt(2) - np.array([2.0, 4.0, 4.0, 6.0])).max()
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and n2 <= 1e-12 and elapsed < 1.0
    report(1, "closed-form spectrum", ok,
           f"max dev {worst:.2e}, n=2 dev {n2:.2e}, {elapsed:.2f}s")


def _builder_matrix(a, s):
    split = mis(s)
    part = coarsening.greedy_aggregate(s)
    yield ideal_interpolation(a, split)
    yield direct_interpolation(a, split, s)
    yield standard_interpolation(a, split, s)
    yield ua_prolongation(part)
    yield sa_prolongation(ua_prolongation(part), a)
    yield energy_min_prolongation(a, supports_from_aggregates(part, s))


def test_02_two_level_rate_identity():
    start = time.perf_counter()
    cases = [
        (problems.laplace_1d(15), None),
        (problems.laplace_1d(24, "neumann"), np.ones((24, 1))),
        (problems.fd_poisson_5pt(5), None),
        (problems.fd_poisson_5pt(6, "neumann"), np.ones((36, 1))),
        (problems.fe_anisotropic(6, 1e-2), None),
    ]
    count, worst = 0, 0.0
    for a, kernel in cases:
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        for p in _builder_matrix(a, s):
            for smoother in (GaussSeidel(a), Jacobi(a, 0.6)):
                e2 = analysis.two_level_error_norm(a, smoother, p, kernel=kernel) ** 2
                k = analysis.k_of_vc(a, symmetrize(smoother), p, kernel=kernel)
                worst = max(worst, abs(e2 - (1.0 - 1.0 / k)))
                count += 1
    elapsed = time.perf_counter() - start
    ok = count >= 60 and worst <= 1e-7 and elapsed < 30.0
    report(2, "exact two-level rate identity", ok,
           f"{count} combinations, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_03_optimal_coarse_space():
    start = time.perf_counter()
    a = problems.laplace_1d(15)
    gs = GaussSeidel(a)
    rbar = symmetrize(gs)
    p_opt, mu = analysis.optimal_coarse_space(a, rbar, 7)
    rate = analysis.two_level_error_norm(a, gs, p_opt) ** 2
    gap = abs(rate - (1.0 - mu[7]))
    rng = np.random.default_rng(100)
    margin = min(analysis.k_of_vc(a, rbar, rng.standard_normal((15, 7)))
                 - 1.0 / mu[7] for _ in range(20))
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-8 and margin >= -1e-10 and elapsed < 5.0
    report(3, "optimal coarse space", ok,
           f"rate gap {gap:.2e}, worst K margin {margin:.2e}, {elapsed:.1f}s")


def test_04_trace_minimization():
    a = problems.laplace_1d(15)
    rbar = symmetrize(GaussSeidel(a))
    p_opt, mu = analysis.optimal_coarse_space(a, rbar, 7)
    rng = np.random.default_rng(101)
    cands = [rng.standard_normal((15, 7)) for _ in range(50)]
    rep = analysis.trace_check(a, rbar, p_opt, cands)
    ok = rep.optimal_attains and rep.all_above
    worst = min(rep.candidate_traces) - rep.bound
    report(4, "trace minimization", ok,
           f"bound {rep.bound:.6f}, worst candidate margin {worst:.2e}")


def test_05_ideal_interpolation_geometry():
    a = problems.laplace_1d(9)
    split = coarsening.CFSplitting(np.arange(9) % 2 == 1)
    p = ideal_interpolation(a, split).toarray()
    expect = np.zeros((9, 4))
    for j in range(4):
        expect[2 * j:2 * j + 3, j] = [0.5, 1.0, 0.5]
    dev = np.abs(p - expect).max()
    report(5, "ideal interpolation recovers geometry", dev <= 1e-14,
           f"max deviation {dev:.2e}")


def test_06_row_sum_preservation():
    cases = [problems.fd_poisson_5pt(4, "neumann"),
             problems.fd_poisson_5pt(6, "neumann"),
             problems.fe_anisotropic(5, 1e-3, "neumann"),
             problems.fe_jump_coefficient(4, 1e-3)[0],
             problems.laplace_1d(12, "neumann")]
    worst = 0.0
    for a in cases:
        s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
        split = mis(s)
        builders = [direct_interpolation(a, split, s),
                    standard_interpolation(a, split, s),
                    multipass_interpolation(a, coarsening.aggressive_coarsen(s, 1, 2), s)]
        for p in builders:
            worst = max(worst, np.abs(
                p.matrix.mat @ np.ones(p.n_coarse) - 1.0).max())
    report(6, "row-sum preservation", worst <= 1e-12, f"worst defect {worst:.2e}")


def test_07_m_matrix_pencil():
    ratios = []
    for eps in (1.0, 1e-3):
        for n in (8, 20):
            a, _ = problems.fe_jump_coefficient(n, eps)
            plus = sparse.m_matrix_relative(a)
            u = scipy.linalg.null_space(np.ones((1, a.n_rows)))
            lam = scipy.linalg.eigh(u.T @ a.toarray() @ u,
                                    u.T @ plus.toarray() @ u,
                                    eigvals_only=True)
            ratios.append(lam[-1] / lam[0])
    worst = max(ratios)
    report(7, "M-matrix relative pencil", worst <= 10.0,
           f"worst c2/c1 = {worst:.3f}")


def test_08_kernel_preservation():
    # unsmoothed aggregation on plain rigid-body vectors
    coords = [(float(i), float(j)) for j in range(3) for i in range(3)]
    z = np.column_stack(problems.rigid_body_vectors(coords))
    part = AggregatePartition(np.repeat(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), 2), 2)
    p_ua = ua_prolongation(part, z)
    worst = 0.0
    for j in range(3):
        e = np.zeros(6)
        e[j::3] = 1.0
        worst = max(worst, np.abs(p_ua.matrix.mat @ e - z[:, j]).max())
    # smoothed aggregation on a matrix with A zeta = 0
    from tests_support import elasticity_like, point_block_partition

    a, z2 = elasticity_like(4, 4)
    part2 = point_block_partition(4, 4)
    p_sa = sa_prolongation(ua_prolongation(part2, z2), a, nu=1)
    for j in range(3):
        e = np.zeros(3 * part2.n_aggregates)
        e[j::3] = 1.0
        worst = max(worst, np.abs(p_sa.matrix.mat @ e - z2[:, j]).max())
    report(8, "kernel preservation (UA and SA)", worst <= 1e-12,
           f"worst defect {worst:.2e}")


def test_09_energy_min_harmonicity():
    # 1D: interior basis functions are exact coarse hats
    n = 9
    a1 = problems.laplace_1d(n, "neumann")
    sup = tuple(np.array([i for i in (c - 1, c, c + 1) if 0 <= i < n])
                for c in range(0, n, 2))
    p1 = energy_min_prolongation(a1, SupportSet(sup))
    dev1 = 0.0
    for j in range(1, 4):
        expect = np.zeros(n)
        expect[2 * j - 1:2 * j + 2] = [0.5, 1.0, 0.5]
        dev1 = max(dev1, np.abs(p1.toarray()[:, j] - expect).max())
    # 2D: basis residuals vanish inside every coarse element
    m = 7
    a2 = problems.fd_poisson_5pt(m, "neumann")
    sup2 = []
    for cy in range(0, m, 2):
        for cx in range(0, m, 2):
            sup2.append(np.array([j * m + i
                                  for j in range(max(cy - 1, 0), min(cy + 2, m))
                                  for i in range(max(cx - 1, 0), min(cx + 2, m))]))
    supports2 = SupportSet(tuple(sup2))
    p2 = energy_min_prolongation(a2, supports2)
    pts = harmonic_test_vertices(supports2, sparse.adjacency_graph(a2), m * m)
    dev2 = np.abs((a2.mat @ p2.toarray())[pts]).max()
    ok = dev1 <= 1e-10 and dev2 <= 1e-8
    report(9, "energy-min harmonicity", ok,
           f"1D hat deviation {dev1:.2e}, 2D residual {dev2:.2e}")


def test_10_anisotropy_robustness():
    start = time.perf_counter()
    worst_rate = 0.0
    strength_ok = True
    for eps in (1.0, 1e-2, 1e-4, 1e-6):
        for n in (15, 31, 63):
            a = problems.fe_anisotropic(n, eps)
            s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
            if eps <= 1e-2:
                for v in range(n * n):
                    for w in s.neighbors(v):
                        if abs(int(w) - v) != 1:
                            strength_ok = False
            split = mis(s)
            p = standard_interpolation(a, split, s)
            rate = analysis.two_level_error_norm(a, GaussSeidel(a), p)
            worst_rate = max(worst_rate, rate)
    elapsed = time.perf_counter() - start
    ok = strength_ok and worst_rate <= 0.75 and elapsed < 120.0
    report(10, "anisotropy robustness", ok,
           f"x-only edges: {strength_ok}, worst rate {worst_rate:.4f}, "
           f"{elapsed:.0f}s")


def test_11_jump_robustness():
    worst = 0.0
    for eps in (1.0, 1e-3, 1e-6):
        for n in (16, 32):
            a, _ = problems.fe_jump_coefficient(n, eps)
            s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
            split = mis(s)
            p = standard_interpolation(a, split, s)
            rate = analysis.two_level_error_norm(
                a, GaussSeidel(a), p, kernel=np.ones((a.n_rows, 1)))
            worst = max(worst, rate)
    report(11, "jump robustness", worst <= 0.8, f"worst rate {worst:.4f}")


def test_12_grid_independence_proxy():
    iters = {}
    for n in (16, 64):
        a = problems.fd_poisson_5pt(n)
        h = hierarchy.setup(a, {"interpolation": "standard"})
        b = a.mat @ np.ones(a.n_rows)
        _, rep = hierarchy.pcg_solve(a, b, h, tol=1e-8)
        assert rep.converged
        iters[n] = rep.iterations
    growth = iters[64] / iters[16] - 1.0
    report(12, "multilevel grid-independence proxy", growth <= 0.30,
           f"iterations {iters[16]} -> {iters[64]} (+{100 * growth:.0f}%)")


def test_13_bootstrap_efficacy():
    a0 = problems.fd_poisson_5pt(8)
    rng = np.random.default_rng(42)
    d = 10.0 ** rng.uniform(-2, 2, a0.n_rows)
    a = sparse.from_scipy(sps.diags(d) @ a0.mat @ sps.diags(d), sparse.SYMMETRIC)
    s = strength_matrix(a, StrengthConfig("classical_sym", 0.25))
    p = direct_interpolation(a, mis(s), s)
    classical = analysis.two_level_error_norm(a, GaussSeidel(a), p)
    _, state = adaptive.bootstrap_setup(a, m0=8, q=4, n0=20, delta0=0.7,
                                        max_rounds=3, seed=0)
    ok = classical > 0.7 and state.delta <= 0.7 and state.rounds <= 3
    report(13, "bootstrap efficacy (paired)", ok,
           f"classical rate {classical:.3f} vs bootstrap delta {state.delta:.3f} "
           f"in {state.rounds} rounds")


def test_14_weyl_scaling():
    low, high = analysis.weyl_ratio(problems.fd_poisson_5pt(10), 2)
    ratio = high / low
    report(14, "Weyl scaling", ratio <= 6.0, f"max/min = {ratio:.3f}")
