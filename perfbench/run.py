"""amgforge benchmark: time to solution, setup, solve and oracle cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``--workload all`` runs every workload, each in a fresh
process) from the root of a source checkout, against the ``amgforge`` under
``src/`` there.  A run makes its inputs from the seed, warms up on a small
instance, then repeats passes until the next pass would end after
``--seconds``.  Every output is checked.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics, measured by wrapping the
program's functions on every other pass (the passes in between give the
tracing overhead).  BLAS runs on one thread.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("poisson_classical", "jump_multirhs", "aniso_oracle",
                  "jump_bootstrap")
MIN_PASSES = 2  # the traced run needs one traced and one untraced pass

# End-to-end metrics: name -> unit.  Each is defined on every workload.
END_TO_END = {
    "setup_s": "s",
    "solve_or_report_s": "s",
    "time_to_solution_s": "s",
    "iterations": "count",
    "convergence_factor": "ratio",
    "operator_complexity": "ratio",
    "grid_complexity": "ratio",
    "peak_rss_mb": "MB",
}
# Timed samples reported with their count and high percentile.
_TIMINGS = {"setup_s": ("setup_s",),
            "solve_or_report_s": ("solve_s", "report_s"),
            "time_to_solution_s": ("time_to_solution_s",),
            "read_s": ("read_s",)}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import amgforge from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "amgforge", "__init__.py")):
        raise ProgramMissing(f"no amgforge sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import amgforge
    if not os.path.abspath(amgforge.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"amgforge imported from {amgforge.__file__}, not {SRC}")
    return amgforge


def _rank(n, p):
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100))


def timing_summary(values):
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if len(values) - _rank(len(values), p) >= 10:
            out[f"p{p}"] = ordered[_rank(len(values), p) - 1]
            break
    return out


def _median(values):
    """Median, or None when no operation produced a sample."""
    return float(statistics.median(values)) if values else None


def run_workload(name, seed, seconds, trace, tiny=False, out_dir=OUT):
    """Run one workload in this process; returns (result, detail)."""
    from tracer import OVERHEAD_METRIC, Tracer, metric_names, metric_unit
    from workloads import WORKLOADS, Record

    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[name](seed, out_dir, tiny=tiny)
    workload.warm_up()
    rec = Record()
    tracer = Tracer() if trace else None
    tts = {False: [], True: []}
    layer_passes = []
    pass_walls = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        gc.collect()  # no collection of an earlier pass's garbage in this one
        if traced:
            tracer.install()
        w0 = time.perf_counter()
        try:
            t = rec.run_pass(workload, k)
        finally:
            if traced:
                tracer.uninstall()
        pass_walls.append(time.perf_counter() - w0)
        if traced:
            layer_passes.append(tracer.finish_pass())
        if t is not None:
            tts[traced].append(t)
            if not traced:
                rec.times["time_to_solution_s"].append(t)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= MIN_PASSES and elapsed + statistics.median(pass_walls) > seconds:
            break

    times = {key: [v for src in srcs for v in rec.times[src]]
             for key, srcs in _TIMINGS.items()}
    if trace:
        metrics = {m: _median([lp[m] for lp in layer_passes])
                   for m in metric_names() if m != OVERHEAD_METRIC}
        traced_tts, plain_tts = _median(tts[True]), _median(tts[False])
        metrics[OVERHEAD_METRIC] = (100.0 * (traced_tts / plain_tts - 1.0)
                                    if traced_tts and plain_tts else None)
        units = {m: metric_unit(m) for m in metrics}
        tracer.write(os.path.join(out_dir, f"trace-{name}.tsv"))
    else:
        metrics = {
            "setup_s": _median(times["setup_s"]),
            "solve_or_report_s": _median(times["solve_or_report_s"]),
            "time_to_solution_s": _median(times["time_to_solution_s"]),
            "iterations": _median(rec.values["iterations"]),
            "convergence_factor": _median(rec.values["convergence_factor"]),
            "operator_complexity": _median(rec.values["operator_complexity"]),
            "grid_complexity": _median(rec.values["grid_complexity"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    checks = {
        "residual_ratio_max": max(rec.values["residual_ratio"], default=None),
        "identity_gap_max": max(rec.values["identity_gap"], default=None),
        "bootstrap_delta": _median(rec.values["bootstrap_delta"]),
        "bootstrap_rounds_max": max(rec.values["bootstrap_rounds"], default=None),
        "failure_rate": rec.failed / rec.attempted,
    }
    detail = {
        "workload": name, "seed": seed, "trace": int(bool(trace)),
        "passes": k, "measured_s": elapsed,
        "pass_time_to_solution_s": {"untraced": _median(tts[False]),
                                    "traced": _median(tts[True])},
        "timings": {key: timing_summary(v) for key, v in times.items() if v},
        "checks": checks,
        "failures": rec.failures[:5],
    }
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return result, detail


def run_all(args):
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        except subprocess.TimeoutExpired:
            print(f"workload {name} timed out", file=sys.stderr)
            return 1
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small problem sizes, for testing the benchmark itself")
    args = parser.parse_args(argv)
    # one BLAS thread: set before numpy is first imported, inherited by
    # the per-workload processes of --workload all
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, tiny=args.tiny)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
