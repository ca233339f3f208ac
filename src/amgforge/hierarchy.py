"""Multilevel hierarchies, two-level and V-cycle application, and PCG.

The default cycle is V(1,1) with forward Gauss-Seidel pre-smoothing and
backward Gauss-Seidel post-smoothing, which makes the cycle operator
symmetric and therefore admissible as a PCG preconditioner.  Coarsest-level
solves use the package-wide symmetric pseudo-inverse convention.
"""

import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import coarsening, interpolation, sparse, strength
from .linalg import SymPseudoInverse
from .smoothers import make_smoother


class SetupError(RuntimeError):
    pass


class IndefinitePreconditionerError(RuntimeError):
    pass


@dataclass(frozen=True)
class SetupConfig:
    smoother: str = "gs"
    omega: float = None
    direction: str = "x"
    strength: str = "classical_sym"
    theta: float = 0.25
    affinity_k: int = 8
    affinity_nu: int = 4
    seed: int = 0
    coarsening: str = "mis"
    ml: str = "1,2"
    cr: bool = False
    interpolation: str = "direct"
    sa_nu: int = 1
    sa_omega: float = None
    emin_tol: float = 1e-10
    n0: int = 50
    max_levels: int = 25

    @classmethod
    def from_mapping(cls, mapping):
        unknown = set(mapping) - set(_CONFIG_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**mapping)

    def to_dict(self):
        return asdict(self)

    def strength_config(self):
        return strength.StrengthConfig(self.strength, self.theta,
                                       self.affinity_k, self.affinity_nu, self.seed)


_CONFIG_DEFAULTS = {f.name: f.default for f in fields(SetupConfig)}


@dataclass
class Level:
    a: sparse.SparseMatrix
    p: interpolation.Prolongation = None
    pre_smoother: object = None
    post_smoother: object = None
    strength: object = None
    coarsening: object = None


@dataclass
class Hierarchy:
    levels: list
    coarsest_solver: SymPseudoInverse
    grid_complexity: float = 0.0
    operator_complexity: float = 0.0

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def finest(self):
        return self.levels[0].a

    def level_sizes(self):
        return [lvl.a.n_rows for lvl in self.levels]

    @classmethod
    def from_levels(cls, levels):
        """Hierarchy over finished levels: factor the coarsest operator and
        record grid and operator complexities."""
        nnz0 = max(levels[0].a.nnz, 1)
        return cls(
            levels,
            SymPseudoInverse(levels[-1].a.toarray()),
            grid_complexity=sum(l.a.n_rows for l in levels) / levels[0].a.n_rows,
            operator_complexity=sum(l.a.nnz for l in levels) / nnz0,
        )


@dataclass
class SolveReport:
    residuals: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    convergence_factor: float = float("nan")
    wall_time: float = 0.0

    def finalize(self):
        r = self.residuals
        if len(r) >= 2:
            window = r[-6:] if len(r) >= 6 else r
            steps = len(window) - 1
            if window[0] > 0:
                self.convergence_factor = (window[-1] / window[0]) ** (1.0 / steps)
        elif self.converged:
            self.convergence_factor = 0.0  # converged without iterating
        self.iterations = max(len(r) - 1, 0)
        return self


# Prolongation builders by config name: (splitting kind, builder).  A "cf"
# builder takes a C/F splitting, an "agg" builder an aggregate partition;
# every builder is called as builder(a, splitting, strength, config).
BUILDERS = {
    "ideal": ("cf", lambda a, split, s, cfg: interpolation.ideal_interpolation(a, split)),
    "direct": ("cf", lambda a, split, s, cfg: interpolation.direct_interpolation(a, split, s)),
    "standard": ("cf", lambda a, split, s, cfg:
                 interpolation.standard_interpolation(a, split, s)),
    "multipass": ("cf", lambda a, split, s, cfg:
                  interpolation.multipass_interpolation(a, split, s)),
    "ua": ("agg", lambda a, part, s, cfg: interpolation.ua_prolongation(part)),
    "sa": ("agg", lambda a, part, s, cfg: interpolation.sa_prolongation(
        interpolation.ua_prolongation(part), a, cfg.sa_nu, cfg.sa_omega)),
    "energymin": ("agg", lambda a, part, s, cfg: interpolation.energy_min_prolongation(
        a, interpolation.supports_from_aggregates(part, s), cg_tol=cfg.emin_tol)),
}

def _aggressive(a, s, cfg):
    m, l = (int(t) for t in cfg.ml.split(","))
    return coarsening.aggressive_coarsen(s, m, l)


# Coarsenings by config name: (splitting kind, coarsen(a, strength, config)).
_COARSENINGS = {
    "mis": ("cf", lambda a, s, cfg: coarsening.mis(s)),
    "aggressive": ("cf", _aggressive),
    "aggregate": ("agg", lambda a, s, cfg: coarsening.greedy_aggregate(s)),
    "pairwise": ("agg", lambda a, s, cfg: coarsening.pairwise_aggregate(a)),
}


def _coarsen_once(a, cfg):
    """One strength -> coarsen -> interpolate round; returns (P, S, splitting)."""
    if cfg.coarsening not in _COARSENINGS:
        raise SetupError(f"unknown coarsening {cfg.coarsening!r}")
    if cfg.interpolation not in BUILDERS:
        raise SetupError(f"unknown interpolation {cfg.interpolation!r}")
    kind, coarsen = _COARSENINGS[cfg.coarsening]
    needs, build = BUILDERS[cfg.interpolation]
    if needs != kind:
        wanted = "aggregation coarsening" if needs == "agg" else "a C/F coarsening"
        raise SetupError(f"interpolation {cfg.interpolation!r} needs {wanted}")
    s = strength.strength_matrix(a, cfg.strength_config())
    split = coarsen(a, s, cfg)
    if cfg.cr and kind == "cf":
        factory = lambda sub: make_smoother(sub, cfg.smoother, cfg.omega)
        split, _ = coarsening.cr_refine(a, factory, split, s, seed=cfg.seed)
    return build(a, split, s, cfg), s, split


def setup(a, config=None):
    """Build a hierarchy by repeating strength -> coarsen -> interpolate -> Galerkin.

    Stops once the level size drops to ``n0`` or the level cap is reached;
    aborts with diagnostics when coarsening stagnates (n_c >= 0.95 n).
    Every intermediate object is retained on its Level for inspection.
    """
    if config is None:
        config = SetupConfig()
    elif isinstance(config, dict):
        config = SetupConfig.from_mapping(config)
    levels = []
    current = a
    while current.n_rows > config.n0 and len(levels) < config.max_levels - 1:
        p, s, coarse_obj = _coarsen_once(current, config)
        if p.n_coarse >= 0.95 * current.n_rows:
            raise SetupError(
                f"coarsening stagnated at level {len(levels)}: "
                f"{current.n_rows} -> {p.n_coarse} unknowns")
        pre = make_smoother(current, config.smoother, config.omega, config.direction)
        post = pre.adjoint()
        levels.append(Level(current, p, pre, post, s, coarse_obj))
        current = sparse.galerkin_product(p.matrix, current)
    levels.append(Level(current))
    return Hierarchy.from_levels(levels)


def two_level_apply(h, g):
    """Exact two-level action: coarse correction then one post-smoothing step."""
    if h.n_levels != 2:
        raise ValueError("two_level_apply needs a 2-level hierarchy")
    fine = h.levels[0]
    g = np.asarray(g, dtype=float)
    p = fine.p.matrix
    w = sparse.spmv(p, h.coarsest_solver.solve(sparse.spmv_transpose(p, g)))
    return w + fine.post_smoother.action(g - fine.a @ w)


def _vcycle(h, level, g, nu1, nu2):
    lvl = h.levels[level]
    if level == h.n_levels - 1:
        return h.coarsest_solver.solve(g)
    x = lvl.pre_smoother.apply(g, sweeps=nu1)
    p = lvl.p.matrix
    rc = sparse.spmv_transpose(p, g - lvl.a @ x)
    x = x + sparse.spmv(p, _vcycle(h, level + 1, rc, nu1, nu2))
    return lvl.post_smoother.apply(g, x, sweeps=nu2)


def vcycle_apply(h, g, nu1=1, nu2=1):
    """One V(nu1, nu2) cycle applied to the residual-like vector g."""
    return _vcycle(h, 0, np.asarray(g, dtype=float), nu1, nu2)


def vcycle_preconditioner(h, nu1=1, nu2=1):
    return lambda g: vcycle_apply(h, g, nu1, nu2)


def pcg_solve(a, b, preconditioner=None, tol=1e-8, max_it=500, kernel=None, x0=None):
    """Preconditioned conjugate gradients with optional kernel projection.

    ``preconditioner`` is a callable g -> Bg (or a Hierarchy, wrapped as a
    V(1,1) cycle).  For singular systems pass the kernel vectors: right-hand
    side and iterates are kept orthogonal to them.  A non-finite ``b`` or
    ``x0`` raises ValueError before any iteration.
    """
    if isinstance(preconditioner, Hierarchy):
        preconditioner = vcycle_preconditioner(preconditioner)
    elif preconditioner is None:
        preconditioner = lambda g: g
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if not (np.isfinite(b).all() and np.isfinite(x).all()):
        raise ValueError("right-hand side or initial guess has non-finite entries")
    proj = None
    if kernel is not None:
        z = np.atleast_2d(np.asarray(kernel, dtype=float).T).T
        q, _ = np.linalg.qr(z)
        proj = lambda v: v - q @ (q.T @ v)
        b = proj(b)
    start = time.perf_counter()
    report = SolveReport()
    if proj is not None:
        x = proj(x)
    r = b - a @ x
    b_norm = float(np.linalg.norm(b))
    report.residuals.append(float(np.linalg.norm(r)))
    if b_norm == 0.0:
        report.converged = True
        report.wall_time = time.perf_counter() - start
        return x, report.finalize()
    z = preconditioner(r)
    if proj is not None:
        z = proj(z)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_it):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefinitePreconditionerError(
                "non-descent direction: preconditioned operator is indefinite")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if proj is not None:
            r = proj(r)
        res = float(np.linalg.norm(r))
        report.residuals.append(res)
        if res <= tol * b_norm:
            report.converged = True
            break
        z = preconditioner(r)
        if proj is not None:
            z = proj(z)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    report.wall_time = time.perf_counter() - start
    return x, report.finalize()
