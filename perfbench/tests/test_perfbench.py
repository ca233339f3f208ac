"""Tests of the benchmark itself, at tiny problem sizes.

Run with:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from amgforge import hierarchy, linalg, problems, sparse  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(autouse=True)
def _no_wrappers_left():
    yield
    assert tracer.installed_wrappers() == []


def _run(name, trace, tmp_path, seed=3):
    return run.run_workload(name, seed, 0.01, trace, tiny=True, out_dir=str(tmp_path))


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path, monkeypatch):
    checked = []
    original = workloads.Record.check

    def check_without_wrappers(self, ok, what):
        # the untraced run must never see a tracing wrapper
        checked.append(tracer.installed_wrappers())
        return original(self, ok, what)

    monkeypatch.setattr(workloads.Record, "check", check_without_wrappers)
    result, detail = _run(name, 0, tmp_path)
    assert checked and all(w == [] for w in checked)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    for m, v in result["metrics"].items():
        assert math.isfinite(v["value"]) and v["value"] > 0, m
    assert detail["checks"]["failure_rate"] == 0.0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric_and_removes_wrappers(name, tmp_path):
    result, _ = _run(name, 1, tmp_path)
    assert tracer.installed_wrappers() == []
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert os.path.getsize(tmp_path / f"trace-{name}.tsv") > 0


def test_layers_show_up_only_where_they_run(tmp_path):
    solver, _ = _run("poisson_classical", 1, tmp_path)
    oracle, _ = _run("aniso_oracle", 1, tmp_path)
    value = lambda r, m: r["metrics"][m]["value"]
    assert value(solver, "io_mm.read_s") > 0
    assert value(solver, "interpolation.busy_s") > 0
    assert value(solver, "hierarchy.vcycles") > 0
    assert value(solver, "analysis.error_norm_busy_s") == 0
    assert value(oracle, "analysis.error_norm_busy_s") > 0
    assert 0 < value(oracle, "analysis.error_norm_steps") <= 500
    assert value(oracle, "smoothers.action_calls.BlockGaussSeidel") > 0
    assert value(oracle, "hierarchy.vcycles") == 0


def test_install_patches_lookup_sites_and_uninstall_restores_them():
    owners = tracer._amgforge_modules() + tracer._smoother_classes() + [
        linalg.SymPseudoInverse, sparse.SparseMatrix]
    before = [dict(vars(o)) for o in owners]
    t = tracer.Tracer()
    t.install()
    try:
        patched = set(tracer.installed_wrappers())
        for site in [("amgforge.hierarchy", "make_smoother"),
                     ("amgforge.hierarchy", "SymPseudoInverse"),
                     ("amgforge.adaptive", "make_smoother"),
                     ("amgforge.strength", "strength_matrix"),
                     ("amgforge.analysis", "two_level_error_action"),
                     ("Smoother", "apply"), ("GaussSeidel", "action"),
                     ("SymPseudoInverse", "solve"), ("SparseMatrix", "__matmul__")]:
            assert site in patched
    finally:
        t.uninstall()
    after = [dict(vars(o)) for o in owners]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[k] is a[k] for k in b)


def test_spans_nest_and_count_one_vcycle_per_pcg_iteration():
    a = problems.fd_poisson_5pt(12)
    b = a.mat @ np.random.default_rng(0).standard_normal(a.n_rows)
    t = tracer.Tracer()
    t.install()
    try:
        h = hierarchy.setup(a)
        _, report = hierarchy.pcg_solve(a, b, h)
    finally:
        t.uninstall()
    spans = t.spans
    assert all(s.end >= s.start and s.self_time >= -1e-9 for s in spans)
    setup = next(s for s in spans if s.name == "hierarchy.setup")
    children = [s for s in spans if s.parent is setup]
    assert children and setup.self_time < setup.duration
    m = t.finish_pass()
    assert m["hierarchy.vcycles"] == report.iterations
    assert m["smoothers.apply_calls"] == 2 * report.iterations * (h.n_levels - 1)
    assert m["linalg.coarsest_n"] == h.levels[-1].a.n_rows
    assert m["strength.strong_edges"] == sum(
        lvl.strength.graph.n_edges for lvl in h.levels[:-1])
    assert m["strength.strong_edges.L0"] == h.levels[0].strength.graph.n_edges
    assert m["coarsening.coarse_ratio.L0"] == pytest.approx(
        h.levels[1].a.n_rows / h.levels[0].a.n_rows)


def test_failed_checks_and_exceptions_count_as_failures():
    rec = workloads.Record()

    class Broken(workloads.Workload):
        ops_per_pass = 3

        def run_pass(self, k, rec):
            rec.check(True, "first")
            rec.check(False, "second")
            raise RuntimeError("third never runs")

    assert rec.run_pass(Broken(0, "."), 0) is None
    assert (rec.attempted, rec.failed) == (3, 2)


def test_unconverged_solve_fails_its_check():
    rec = workloads.Record()
    a = problems.fd_poisson_5pt(8)
    b = a.mat @ np.ones(a.n_rows)
    x, report = hierarchy.pcg_solve(a, b, None, max_it=2)
    workloads._check_solve(rec, a, b, x, report, None)
    assert rec.failed == 1 and rec.values["residual_ratio"][0] > 1


def test_inputs_follow_the_seed(tmp_path):
    w1 = workloads.JumpMultiRhs(5, str(tmp_path), tiny=True)
    w2 = workloads.JumpMultiRhs(6, str(tmp_path), tiny=True)
    draw = lambda w: workloads._manufactured(w.a, w.pass_rng(0), w.kernel)
    assert np.array_equal(draw(w1), draw(w1))
    assert not np.array_equal(draw(w1), draw(w2))
    a1 = workloads.AnisoOracle(5, str(tmp_path), tiny=True).a.mat
    a2 = workloads.AnisoOracle(6, str(tmp_path), tiny=True).a.mat
    assert (a1 != a2).nnz > 0


def test_timing_summary_reports_a_percentile_with_ten_samples_beyond():
    s = run.timing_summary([float(v) for v in range(1, 101)])
    assert s["n"] == 100 and s["median"] == 50.5 and s["p90"] == 90.0
    assert "p90" not in run.timing_summary([1.0] * 10)


def test_command_prints_the_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "jump_bootstrap",
         "--seed", "1", "--seconds", "0.01", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aniso_oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_all_runs_every_workload_in_its_own_process():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "all",
         "--seed", "2", "--seconds", "0.01", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    details = [json.loads(ln)["detail"] for ln in lines if ln.startswith('{"detail"')]
    assert [d["workload"] for d in details] == list(run.WORKLOAD_NAMES)
    combined = json.loads(lines[-1])
    assert combined["correct"] and combined["failed"] == 0
    assert set(combined["metrics"]) == {f"{w}.{m['name']}" for w in run.WORKLOAD_NAMES
                                        for m in SPEC["end_to_end"]}
