"""The four benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the workload seed, then runs passes in a
closed loop: one caller starts each read, setup, solve or report only after
the previous one has finished.  A pass is what one user waits for: read
(where there is one), setup, then every solve or report that follows it.
The program receives only the generated matrices, right-hand sides and
seeds.
"""

import math
import os
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from amgforge import (adaptive, analysis, coarsening, hierarchy, interpolation,
                      io_mm, problems, smoothers, sparse, strength)

TOL = 1e-8  # PCG relative-residual tolerance of every solve


class Record:
    """Timings, checked values and operation counts of one run.

    Operations are setups, solves and reports.  Every planned operation of a
    pass counts as attempted; one that raises, or whose output fails its
    check, counts as failed.  An exception also fails the operations of the
    pass that could not run after it.
    """

    def __init__(self):
        self.times = defaultdict(list)
        self.values = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._done = 0

    def run_pass(self, workload, k):
        """Run pass k; returns its time to solution, or None if it raised."""
        planned = workload.ops_per_pass
        self.attempted += planned
        self._done = 0
        try:
            return workload.run_pass(k, self)
        except Exception:  # a failed operation is counted, never fatal
            self.failed += planned - self._done
            self.failures.append(traceback.format_exc())
            print(self.failures[-1], file=sys.stderr)
            return None

    def check(self, ok, what):
        """Close one operation; a failed check counts it as failed."""
        self._done += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


_clock = time.perf_counter


def _project(b, kernel):
    if kernel is None:
        return b
    q, _ = np.linalg.qr(kernel)
    return b - q @ (q.T @ b)


def _manufactured(a, rng, kernel):
    """b = A x for a seeded random x, as `amgforge solve` makes it."""
    x = _project(rng.standard_normal(a.n_rows), kernel)
    return a.mat @ x


def _check_solve(rec, a, b, x, report, kernel):
    """The solve converged, and the recomputed true residual meets TOL."""
    bp = _project(b, kernel)
    ratio = float(np.linalg.norm(bp - a.mat @ x) / (TOL * np.linalg.norm(bp)))
    rec.values["residual_ratio"].append(ratio)
    rec.values["iterations"].append(report.iterations)
    rec.values["convergence_factor"].append(report.convergence_factor)
    rec.check(report.converged and ratio <= 1.0,
              f"solve: converged={report.converged} residual/tol={ratio:.4g}")


def _record_hierarchy(rec, h):
    rec.values["operator_complexity"].append(h.operator_complexity)
    rec.values["grid_complexity"].append(h.grid_complexity)


def _solve_each(rec, a, rhs, h, kernel):
    """PCG-solve every right-hand side on h; returns the total solve time."""
    total = 0.0
    for b in rhs:
        t0 = _clock()
        x, report = hierarchy.pcg_solve(a, b, h, tol=TOL, kernel=kernel)
        dt = _clock() - t0
        total += dt
        rec.times["solve_s"].append(dt)
        _check_solve(rec, a, b, x, report, kernel)
    return total


class Workload:
    name = ""
    ops_per_pass = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def pass_rng(self, k):
        """Generator for the inputs of pass k (same seed, same inputs)."""
        return np.random.default_rng([self.seed, k])

    def warm_up(self):
        """One untimed pass of a small instance: lazy imports and first-call
        costs are paid before timing starts."""
        type(self)(self.seed, self.workdir, tiny=True).run_pass(0, Record())

    def run_pass(self, k, rec):
        raise NotImplementedError


class PoissonClassical(Workload):
    """fd5 Dirichlet, read from Matrix Market, default setup, one PCG solve."""

    name = "poisson_classical"
    ops_per_pass = 2  # setup, solve

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.a = problems.fd_poisson_5pt(12 if tiny else 256)
        self.path = os.path.join(workdir, f"{self.name}{'-tiny' if tiny else ''}.mtx")
        io_mm.write_matrix_market(self.path, self.a)

    def run_pass(self, k, rec):
        b = _manufactured(self.a, self.pass_rng(k), None)
        t0 = _clock()
        a = io_mm.read_matrix_market(self.path)
        t1 = _clock()
        h = hierarchy.setup(a, hierarchy.SetupConfig())
        t2 = _clock()
        rec.check(True, "setup")
        _record_hierarchy(rec, h)
        rec.times["read_s"].append(t1 - t0)
        rec.times["setup_s"].append(t2 - t1)
        return t2 - t0 + _solve_each(rec, a, [b], h, None)


class JumpMultiRhs(Workload):
    """fe_jump (singular), pairwise + UA setup, then 8 solves on it."""

    name = "jump_multirhs"
    n_rhs = 8
    ops_per_pass = 1 + n_rhs  # setup, solves

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.a, _ = problems.fe_jump_coefficient(10 if tiny else 128, 1e-6)
        self.kernel = np.ones((self.a.n_rows, 1))
        self.config = hierarchy.SetupConfig(coarsening="pairwise", interpolation="ua")

    def run_pass(self, k, rec):
        rng = self.pass_rng(k)
        rhs = [_manufactured(self.a, rng, self.kernel) for _ in range(self.n_rhs)]
        t0 = _clock()
        h = hierarchy.setup(self.a, self.config)
        total = _clock() - t0
        rec.check(True, "setup")
        rec.times["setup_s"].append(total)
        _record_hierarchy(rec, h)
        return total + _solve_each(rec, self.a, rhs, h, self.kernel)


class AnisoOracle(Workload):
    """fe_aniso 20x20: the builder gallery under forward GS, plus standard
    interpolation under line GS, each through the dense two-level report."""

    name = "aniso_oracle"
    builders = ("ideal", "direct", "standard", "ua", "sa", "energymin")
    ops_per_pass = 1 + len(builders) + 1  # gallery setup, seven reports

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        base = problems.fe_anisotropic(4 if tiny else 20, 1e-3)
        # The seed draws a positive scale factor: every two-level quantity
        # is invariant under A -> cA, so the figures stay comparable across
        # seeds while the program still receives seed-dependent input.
        scale = 2.0 ** np.random.default_rng(seed).uniform(-2.0, 2.0)
        self.a = sparse.from_scipy(base.mat * scale, sparse.SYMMETRIC)

    def _gallery(self):
        a = self.a
        gs = smoothers.make_smoother(a, "gs")
        line = smoothers.make_smoother(a, "line-gs")
        s = strength.strength_matrix(a, strength.StrengthConfig())
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
        return [(gs, ps[name]) for name in self.builders] + [(line, ps["standard"])]

    def run_pass(self, k, rec):
        t0 = _clock()
        pairs = self._gallery()
        total = _clock() - t0
        rec.check(True, "gallery setup")
        rec.times["setup_s"].append(total)
        rates, gaps, op_cx, grid_cx = [], [], [], []
        for smoother, p in pairs:
            r0 = _clock()
            rep = analysis.two_level_report(self.a, smoother, p, include_mu=True)
            dt = _clock() - r0
            total += dt
            rec.times["report_s"].append(dt)
            ok = (math.isfinite(rep.e_norm_sq) and 0.0 <= rep.e_norm_sq <= 1.0
                  and math.isfinite(rep.k_vc) and rep.k_vc >= 1.0)
            rec.check(ok, f"report {p.builder}/{type(smoother).__name__}: "
                          f"|E|^2={rep.e_norm_sq!r} K={rep.k_vc!r}")
            rates.append(math.sqrt(max(rep.e_norm_sq, 0.0)))
            gaps.append(rep.identity_gap)
            pm = p.matrix.mat
            a_c = pm.T @ self.a.mat @ pm
            op_cx.append((self.a.nnz + a_c.nnz) / self.a.nnz)
            grid_cx.append((p.n + p.n_coarse) / p.n)
        worst = max(rates)
        rec.values["convergence_factor"].append(worst)
        # iterations to TOL of the worst two-level method in the gallery
        rec.values["iterations"].append(math.ceil(math.log(TOL) / math.log(worst)))
        rec.values["identity_gap"].append(max(gaps))
        rec.values["operator_complexity"].append(max(op_cx))
        rec.values["grid_complexity"].append(max(grid_cx))
        return total


class JumpBootstrap(Workload):
    """fe_jump (singular), bootstrap adaptive setup with the `amgforge adapt`
    defaults, then PCG solves on the resulting hierarchy.

    Four solves rather than one: a solve here takes a few tens of
    milliseconds, and one sample per pass left its median too noisy.
    """

    name = "jump_bootstrap"
    n_rhs = 4
    ops_per_pass = 1 + n_rhs  # bootstrap setup, solves
    delta0 = 0.7

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.a, _ = problems.fe_jump_coefficient(14 if tiny else 62, 1e-6)
        self.kernel = np.ones((self.a.n_rows, 1))

    def run_pass(self, k, rec):
        rng = self.pass_rng(k)
        setup_seed = int(rng.integers(2 ** 31))
        rhs = [_manufactured(self.a, rng, self.kernel) for _ in range(self.n_rhs)]
        t0 = _clock()
        h, state = adaptive.bootstrap_setup(
            self.a, smoother="gs", m0=8, q=4, n0=50, delta0=self.delta0,
            max_rounds=3, restrict="bamg", seed=setup_seed)
        total = _clock() - t0
        rec.check(state.delta <= self.delta0,
                  f"bootstrap: delta={state.delta:.4g} > delta0={self.delta0}")
        rec.times["setup_s"].append(total)
        rec.values["bootstrap_delta"].append(state.delta)
        rec.values["bootstrap_rounds"].append(state.rounds)
        _record_hierarchy(rec, h)
        return total + _solve_each(rec, self.a, rhs, h, self.kernel)


WORKLOADS = {w.name: w for w in (PoissonClassical, JumpMultiRhs, AnisoOracle,
                                 JumpBootstrap)}
