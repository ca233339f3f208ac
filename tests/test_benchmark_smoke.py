"""One tiny pass of every benchmark workload through the library.

The benchmark's own tests live outside the tier-1 test paths; these smoke
tests catch a library change that breaks a call the benchmark makes, or a
name its layer tracer patches.
"""

import importlib.util
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")

SOLVE_WORKLOADS = ("poisson_classical", "jump_multirhs", "jump_bootstrap")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_has_no_failures(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path), tiny=True)
    rec = workloads.Record()
    rec.run_pass(workload, 0)
    assert rec.failed == 0, rec.failures


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_tiny_pass(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path), tiny=True)
    rec = workloads.Record()
    t = tracer.Tracer()
    t.install()
    try:
        rec.run_pass(workload, 0)
    finally:
        t.uninstall()
    assert tracer.installed_wrappers() == []
    assert rec.failed == 0, rec.failures
    metrics = t.finish_pass()
    assert set(metrics) == set(tracer.metric_names()) - {tracer.OVERHEAD_METRIC}
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    # the layers the tracer times ran through the names it patches
    if name in SOLVE_WORKLOADS:
        for key in ("sparse.spmv_calls", "smoothers.apply_calls", "hierarchy.vcycles",
                    "linalg.coarsest_factor_s", "linalg.pinv_solve_busy_s"):
            assert metrics[key] > 0, key
    if name == "poisson_classical":
        assert metrics["io_mm.read_s"] > 0
    if name == "jump_multirhs":  # pairwise + ua reads no strength matrix
        assert metrics["strength.busy_s"] == 0
    if name == "aniso_oracle":  # perfbench/tests pins this class name too
        assert metrics["smoothers.action_calls.BlockGaussSeidel"] > 0
