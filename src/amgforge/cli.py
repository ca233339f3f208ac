"""Batch front end: generate | solve | analyze | adapt.

Configuration is a flat key=value file ('#' starts a comment); command-line
flags override file entries, unknown keys are rejected, and every run echoes
its fully resolved configuration so it can be reproduced bit-identically.
Exit codes: 0 ok, 1 usage error, 2 nonconvergence or failed setup,
3 internal error.
"""

import argparse
import json
import sys

import numpy as np

from . import adaptive, analysis, hierarchy, io_mm, problems, smoothers, sparse
from .hierarchy import SetupConfig, _CONFIG_DEFAULTS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONCONVERGENCE = 2
EXIT_INTERNAL = 3

# run-level keys on top of the hierarchy setup keys
_RUN_DEFAULTS = {
    "kind": "fd5",
    "n": 8,
    "epsilon": 1.0,
    "bc": "dirichlet",
    "tol": 1e-8,
    "max_it": 500,
    "m0": 8,
    "q": 4,
    "delta0": 0.7,
    "rounds": 3,
    "restrict": "bamg",
    "n_c": 0,
    "problem_seed": 0,
}

_ALL_DEFAULTS = {**_CONFIG_DEFAULTS, **_RUN_DEFAULTS}


class UsageError(ValueError):
    pass


def _coerce(key, text):
    default = _ALL_DEFAULTS[key]
    if isinstance(default, bool):
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"key {key!r} expects a boolean, got {text!r}")
    if default is None or isinstance(default, float):
        try:
            return float(text)
        except ValueError:
            raise UsageError(f"key {key!r} expects a number, got {text!r}") from None
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"key {key!r} expects an integer, got {text!r}") from None
    return text


def load_config(path=None, overrides=()):
    """Resolve defaults <- file <- overrides into one flat dict."""
    resolved = dict(_ALL_DEFAULTS)
    def apply(key, value, where):
        if key not in _ALL_DEFAULTS:
            raise UsageError(f"unknown config key {key!r} ({where})")
        resolved[key] = _coerce(key, value)
    if path:
        with open(path) as f:
            for no, line in enumerate(f, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{no}: expected key=value")
                key, value = (t.strip() for t in line.split("=", 1))
                apply(key, value, f"{path}:{no}")
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = (t.strip() for t in item.split("=", 1))
        apply(key, value, "command line")
    return resolved


def echo_config(cfg, stream=None):
    stream = stream if stream is not None else sys.stdout
    for key in sorted(cfg):
        stream.write(f"# config {key}={cfg[key]}\n")


def setup_config_from(cfg):
    return SetupConfig.from_mapping({k: cfg[k] for k in _CONFIG_DEFAULTS})


def _problem_from(cfg):
    return problems.ProblemSpec(cfg["kind"], int(cfg["n"]), cfg["epsilon"], cfg["bc"])


def cmd_generate(args):
    cfg = load_config(args.config, args.set)
    if args.kind:
        cfg["kind"] = args.kind
    if args.n is not None:
        cfg["n"] = args.n
    if args.epsilon is not None:
        cfg["epsilon"] = args.epsilon
    if args.bc:
        cfg["bc"] = args.bc
    spec = _problem_from(cfg)
    a = problems.build(spec)
    echo_config(cfg)
    io_mm.write_matrix_market(args.out, a)
    meta = {"kind": spec.kind, "n": spec.n, "epsilon": spec.epsilon, "bc": spec.bc,
            "n_rows": a.n_rows, "nnz": a.nnz}
    with open(args.out + ".meta.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out} ({a.n_rows} rows, {a.nnz} stored entries) and sidecar")
    return EXIT_OK


def _detect_kernel(a):
    """Constant-kernel detection via row sums (the usual Neumann case)."""
    row_sums = np.abs(a.mat @ np.ones(a.n_rows))
    scale = np.abs(a.values).max() if a.nnz else 1.0
    if row_sums.max() <= 1e-12 * max(scale, 1.0):
        return np.ones((a.n_rows, 1))
    return None


def cmd_solve(args):
    cfg = load_config(args.config, args.set)
    a = io_mm.read_matrix_market(args.matrix)
    if not isinstance(a, sparse.SparseMatrix):
        raise UsageError("matrix file does not hold a sparse coordinate matrix")
    echo_config(cfg)
    kernel = None
    if args.kernel == "constants":
        kernel = np.ones((a.n_rows, 1))
    elif args.kernel is None:
        kernel = _detect_kernel(a)
        if kernel is not None:
            print("# warning: singular system detected (zero row sums); "
                  "projecting onto the constant-kernel complement")
    if args.rhs and args.manufactured:
        raise UsageError("--rhs and --manufactured are mutually exclusive")
    if args.rhs:
        b = io_mm.read_matrix_market(args.rhs)
        b = np.asarray(b, dtype=float).ravel()
    else:
        rng = np.random.default_rng(int(cfg["problem_seed"]))
        x_exact = rng.standard_normal(a.n_rows)
        if kernel is not None:
            q, _ = np.linalg.qr(kernel)
            x_exact -= q @ (q.T @ x_exact)
        b = a.mat @ x_exact
        print("# manufactured right-hand side from a seeded random solution")
    h = hierarchy.setup(a, setup_config_from(cfg))
    print(f"# levels={h.n_levels} sizes={h.level_sizes()} "
          f"operator_complexity={h.operator_complexity:.3f}")
    x, report = hierarchy.pcg_solve(a, b, h, tol=cfg["tol"],
                                    max_it=int(cfg["max_it"]), kernel=kernel)
    if args.csv:
        print("iteration,residual")
        for k, r in enumerate(report.residuals):
            print(f"{k},{r:.6e}")
    else:
        for k, r in enumerate(report.residuals):
            print(f"iter {k:4d}  residual {r:.6e}")
    print(f"iterations={report.iterations} converged={report.converged} "
          f"factor={report.convergence_factor:.4f} wall={report.wall_time:.3f}s")
    return EXIT_OK if report.converged else EXIT_NONCONVERGENCE


_BUILDERS = ("ideal", "direct", "standard", "ua", "sa", "energymin")


def _analyze_rows(cfg):
    from . import coarsening, strength

    spec = _problem_from(cfg)
    a = problems.build(spec)
    if a.n_rows > analysis.DENSE_CAP:
        raise UsageError(f"analysis cap exceeded: n={a.n_rows} > {analysis.DENSE_CAP}")
    kernel = _detect_kernel(a)
    smoother = smoothers.make_smoother(a, cfg["smoother"], cfg["omega"])
    setup_cfg = setup_config_from(cfg)
    s = strength.strength_matrix(a, setup_cfg.strength_config())
    splitting = {"cf": coarsening.mis(s), "agg": coarsening.greedy_aggregate(s)}
    wanted = cfg["interpolation"]
    names = _BUILDERS if wanted == "direct" else (wanted,)
    rows = []
    for name in names:
        if name not in hierarchy.BUILDERS:
            raise UsageError(f"unknown builder {name!r}")
        kind, build = hierarchy.BUILDERS[name]
        p = build(a, splitting[kind], s, setup_cfg)
        rows.append(analysis.two_level_report(a, smoother, p, kernel=kernel,
                                              include_mu=True))
    return rows


def cmd_analyze(args):
    cfg = load_config(args.config, args.set)
    echo_config(cfg)
    rows = _analyze_rows(cfg)
    header = ("builder", "n", "n_c", "e_norm_sq", "rate_from_k",
              "rate_from_mu", "identity_gap")
    if args.csv:
        print(",".join(header))
        for r in rows:
            print(f"{r.builder},{r.n},{r.n_c},{r.e_norm_sq:.10f},"
                  f"{r.rate_from_k:.10f},{r.rate_from_mu:.10f},"
                  f"{r.identity_gap:.3e}")
    else:
        print(f"{'builder':>12} {'n':>6} {'n_c':>5} {'|E|_A^2':>12} "
              f"{'1-1/K':>12} {'1-mu':>12} {'gap':>10}")
        for r in rows:
            print(f"{r.builder:>12} {r.n:>6} {r.n_c:>5} {r.e_norm_sq:>12.8f} "
                  f"{r.rate_from_k:>12.8f} {r.rate_from_mu:>12.8f} "
                  f"{r.identity_gap:>10.2e}")
    return EXIT_OK


def cmd_adapt(args):
    cfg = load_config(args.config, args.set)
    echo_config(cfg)
    spec = _problem_from(cfg)
    a = problems.build(spec)
    _, state = adaptive.bootstrap_setup(
        a, smoother=cfg["smoother"], m0=int(cfg["m0"]), q=int(cfg["q"]),
        n0=int(cfg["n0"]), delta0=cfg["delta0"], max_rounds=int(cfg["rounds"]),
        restrict=cfg["restrict"], seed=int(cfg["seed"]))
    if args.csv:
        print("round,delta")
        for k, d in enumerate(state.delta_history):
            print(f"{k},{d:.6f}")
    else:
        for k, d in enumerate(state.delta_history):
            print(f"round {k}: delta = {d:.6f}")
        for flag in state.flags:
            print(f"# {flag}")
    print(f"final delta={state.delta:.6f} rounds={state.rounds}")
    return EXIT_OK if state.delta <= cfg["delta0"] else EXIT_NONCONVERGENCE


def build_parser():
    parser = argparse.ArgumentParser(prog="amgforge",
                                     description="algebraic multigrid toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    common.add_argument("--csv", action="store_true", help="machine-readable output")

    g = sub.add_parser("generate", parents=[common], help="write a model matrix")
    g.add_argument("--kind", choices=("fd5", "fd9", "fe_aniso", "fe_jump",
                                      "graph_laplacian"))
    g.add_argument("--n", type=int)
    g.add_argument("--epsilon", type=float)
    g.add_argument("--bc", choices=("dirichlet", "neumann"))
    g.add_argument("--out", required=True, help="output Matrix Market path")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", parents=[common], help="AMG-preconditioned CG solve")
    s.add_argument("--matrix", required=True, help="Matrix Market input")
    s.add_argument("--rhs", help="right-hand side (array format)")
    s.add_argument("--manufactured", action="store_true",
                   help="build b from a seeded random solution (default when no rhs)")
    s.add_argument("--kernel", choices=("constants",),
                   help="declare the kernel of a singular system")
    s.set_defaults(func=cmd_solve)

    an = sub.add_parser("analyze", parents=[common],
                        help="exact two-level rates vs. theory (runs the full "
                             "builder matrix unless interpolation is set)")
    an.set_defaults(func=cmd_analyze)

    ad = sub.add_parser("adapt", parents=[common], help="bootstrap adaptive setup")
    ad.set_defaults(func=cmd_adapt)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, io_mm.MatrixMarketError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except hierarchy.IndefinitePreconditionerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except hierarchy.SetupError as exc:
        print(f"error: setup failed: {exc}; try a different "
              "--set coarsening=... or --set theta=...", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
