"""Multilevel hierarchies, V-cycle application and PCG.

The default cycle is V(1,1) with forward Gauss-Seidel pre-smoothing and
backward Gauss-Seidel post-smoothing, which makes the cycle operator
symmetric and therefore admissible as a PCG preconditioner.  The coarsest
solve is the package's one coarse-solve rule, ``linalg.SymPseudoInverse``;
a singular coarsest operator beyond ``DENSE_CAP`` is refused (SetupError).
"""

import functools
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import coarsening, interpolation, sparse, strength
from .linalg import SymPseudoInverse, _columns, _exponent
from .smoothers import _check_direction, _check_smoother, make_smoother


class SetupError(RuntimeError):
    pass


class StagnationError(SetupError):
    """Coarsening kept at least 95% of a level's unknowns."""


class IndefinitePreconditionerError(RuntimeError):
    pass


# Coarsening that keeps at least this share of a level's unknowns stagnates.
_STAGNATION = 0.95
_STRENGTH = strength.StrengthConfig  # owns the defaults of the strength keys


def _refuse_coarse_line_gs(smoother, level):
    """Line Gauss-Seidel smooths the finest level only."""
    if level and smoother == "line-gs":
        raise SetupError(f"smoother=line-gs cannot smooth level {level}: coarse levels "
                         "have no grid lines; use another smoother")


@dataclass(frozen=True)
class SetupConfig:
    smoother: str = "gs"
    omega: float = None
    direction: str = "x"
    strength: str = _STRENGTH.variant
    theta: float = _STRENGTH.theta
    affinity_k: int = _STRENGTH.affinity_k
    affinity_nu: int = _STRENGTH.affinity_nu
    seed: int = _STRENGTH.seed
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

    def strength_config(self):
        return strength.StrengthConfig(self.strength, self.theta,
                                       self.affinity_k, self.affinity_nu, self.seed)


_CONFIG_DEFAULTS = {f.name: f.default for f in fields(SetupConfig)}


@dataclass
class Level:
    """One level of a hierarchy: its operator and, above the coarsest, the
    prolongation P to the next level, P's transpose stored once as a CSR
    ``pt`` for restriction, the smoother pair, and the strength matrix (None
    where nothing read one) and splitting it coarsened with.

    The post-smoother is always the adjoint of the pre-smoother, which keeps
    the V-cycle symmetric and so admissible as a PCG preconditioner.
    """

    a: sparse.SparseMatrix
    p: interpolation.Prolongation = None
    pre_smoother: object = None
    strength: object = None
    coarsening: object = None
    post_smoother: object = field(init=False)
    pt: sparse.SparseMatrix = field(init=False)

    def __post_init__(self):
        pre = self.pre_smoother
        self.post_smoother = None if pre is None else pre.adjoint()
        # CSR P^T sums each row in P's row order, as the CSC product P.T @ v does
        self.pt = None if self.p is None else sparse.from_scipy(self.p.matrix.mat.T)


@dataclass
class Hierarchy:
    """Finished levels, finest first, and what they determine: the factored
    coarsest operator and the grid and operator complexities.  A coarsest
    operator the coarse-solve rule refuses raises SetupError."""

    levels: list
    coarsest_solver: SymPseudoInverse = field(init=False)
    grid_complexity: float = field(init=False)
    operator_complexity: float = field(init=False)

    def __post_init__(self):
        levels = self.levels
        try:
            self.coarsest_solver = SymPseudoInverse(levels[-1].a, "coarsest matrix")
        except ValueError as exc:
            raise SetupError(f"{exc}; try a larger max_levels or a smaller n0") from exc
        self.grid_complexity = sum(l.a.n_rows for l in levels) / levels[0].a.n_rows
        self.operator_complexity = sum(l.a.nnz for l in levels) / max(levels[0].a.nnz, 1)

    @property
    def n_levels(self):
        return len(self.levels)

    def level_sizes(self):
        return [lvl.a.n_rows for lvl in self.levels]


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

def _aggressive(cfg):
    """Aggressive coarsening with the (m, l) of the ``ml`` key, parsed once."""
    try:
        m, l = (int(t) for t in cfg.ml.split(","))
    except ValueError:
        m = l = 0
    if min(m, l) < 1:
        raise SetupError(f"ml expects two positive integers 'm,l', got {cfg.ml!r}")
    return lambda a, s: coarsening.aggressive_coarsen(s, m, l)


# Coarsenings by config name: (splitting kind, config -> coarsen(a, strength)),
# resolved once before the first level.  The names in _A_ONLY read A alone: setup
# builds no strength matrix when both its coarsening and its builder are among them.
_A_ONLY = {"pairwise", "ideal", "ua", "sa"}
_COARSENINGS = {
    "mis": ("cf", lambda cfg: lambda a, s: coarsening.mis(s)),
    "aggressive": ("cf", _aggressive),
    "aggregate": ("agg", lambda cfg: lambda a, s: coarsening.greedy_aggregate(s)),
    "pairwise": ("agg", lambda cfg: lambda a, s: coarsening.pairwise_aggregate(a)),
}


def _build(a, step, max_levels):
    """The Galerkin recursion A_{l+1} = P_l^T A_l P_l, the one loop that stacks
    levels.  ``step(level, a)`` returns the level's (P, pre-smoother, S,
    splitting), or None to make ``a`` the coarsest, as ``max_levels`` does."""
    levels = []
    while len(levels) < max_levels - 1 and (out := step(len(levels), a)) is not None:
        levels.append(Level(a, *out))
        a = sparse.galerkin_product(out[0].matrix, a)
    levels.append(Level(a))
    return Hierarchy(levels)


def setup(a, config=None):
    """Build a hierarchy by repeating strength -> coarsen -> interpolate -> Galerkin.

    The config's names (coarsening, interpolation, smoother), and the ``ml``
    and line-GS ``direction`` values they read, are checked before the first
    level.  Coarsening stops once the level size drops to ``n0`` or the level
    cap is reached, and aborts with diagnostics when it stagnates
    (n_c >= 0.95 n).  Each Level keeps its splitting, and its strength matrix
    where one was read (else None).
    """
    if config is None:
        config = SetupConfig()
    elif isinstance(config, dict):
        config = SetupConfig.from_mapping(config)
    if config.coarsening not in _COARSENINGS:
        raise SetupError(f"unknown coarsening {config.coarsening!r}")
    if config.interpolation not in BUILDERS:
        raise SetupError(f"unknown interpolation {config.interpolation!r}")
    kind, resolve = _COARSENINGS[config.coarsening]
    needs, build = BUILDERS[config.interpolation]
    if needs != kind:
        wanted = "aggregation coarsening" if needs == "agg" else "a C/F coarsening"
        raise SetupError(f"interpolation {config.interpolation!r} needs {wanted}")
    coarsen = resolve(config)
    _check_smoother(config.smoother)
    if config.smoother == "line-gs":
        _check_direction(config.direction)
    strength_config = config.strength_config()
    reads_s = not {config.coarsening, config.interpolation} <= _A_ONLY
    factory = lambda sub: make_smoother(sub, config.smoother, config.omega)

    def step(level, a):
        if a.n_rows <= config.n0:
            return None
        _refuse_coarse_line_gs(config.smoother, level)
        s = strength.strength_matrix(a, strength_config) if reads_s else None
        split = coarsen(a, s)
        if config.cr and kind == "cf":
            split, _ = coarsening.cr_refine(a, factory, split, s, seed=config.seed)
        p = build(a, split, s, config)
        if p.n_coarse >= _STAGNATION * a.n_rows:
            raise StagnationError(f"coarsening stagnated at level {level}: "
                                  f"{a.n_rows} -> {p.n_coarse} unknowns")
        return p, make_smoother(a, config.smoother, config.omega, config.direction), s, split

    return _build(a, step, config.max_levels)


def _vcycle(h, level, g, nu1, nu2):
    lvl = h.levels[level]
    if level == h.n_levels - 1:
        return h.coarsest_solver.solve(g)
    x = lvl.pre_smoother.apply(g, sweeps=nu1)
    rc = sparse.spmv(lvl.pt, g - lvl.a @ x)
    x = x + sparse.spmv(lvl.p.matrix, _vcycle(h, level + 1, rc, nu1, nu2))
    return lvl.post_smoother.apply(g, x, sweeps=nu2)


def vcycle_apply(h, g, nu1=1, nu2=1):
    """One V(nu1, nu2) cycle applied to the residual-like vector g, or to
    each column of an (n, k) block g in one pass.  With (nu1, nu2) = (0, 1)
    on a two-level hierarchy it is the exact two-level method: coarse
    correction, then one post-smoothing step."""
    return _vcycle(h, 0, np.asarray(g, dtype=float), nu1, nu2)


def _kernel_projector(kernel):
    """v -> v minus its orthogonal projection onto the span of the kernel columns."""
    q, _ = np.linalg.qr(_columns(kernel))
    if q.shape[1] == 1:  # same bits as below; numpy's (n, 1) @ (1,) is ~4x slower
        q1 = q[:, 0]
        return lambda v: v - q1 * (q1 @ v)
    return lambda v: v - q @ (q.T @ v)


def pcg_solve(a, b, preconditioner=None, tol=1e-8, max_it=500, kernel=None, x0=None):
    """Preconditioned conjugate gradients with optional kernel projection.

    ``preconditioner`` is a callable g -> Bg (or a Hierarchy, wrapped as a
    V(1,1) cycle).  For singular systems pass the kernel vectors: right-hand
    side and iterates are kept orthogonal to them.  A non-finite ``b`` or
    ``x0`` raises ValueError before any iteration, and so does an initial
    residual whose norm overflows; an initial guess that already meets
    ``tol`` is returned unchanged.  The iteration runs on b and x0 scaled by
    the power of two that brings max|b| into [0.5, 1).  From the second
    direction on, the preconditioner reads r scaled by one power of two,
    half its first output's gain, so that with A of any scale 2^k neither its
    own values nor r'Br and p'Ap carry more than 2^(k/2).  Powers of two
    are exact and B is linear, so an ordinary solve keeps every bit.  A
    non-finite norm or step, or a direction with r'Br <= 0 or p'Ap <= 0,
    raises IndefinitePreconditionerError.
    """
    if isinstance(preconditioner, Hierarchy):
        preconditioner = functools.partial(vcycle_apply, preconditioner)
    elif preconditioner is None:
        preconditioner = lambda g: g
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if not (np.isfinite(b).all() and np.isfinite(x).all()):
        raise ValueError("right-hand side or initial guess has non-finite entries")
    scale = _exponent(b)
    b, x = np.ldexp(b, -scale), np.ldexp(x, -scale)  # exact: a power of two
    proj = (lambda v: v) if kernel is None else _kernel_projector(kernel)
    start = time.perf_counter()
    report = SolveReport()

    def residual_norm(r):
        with np.errstate(over="ignore"):  # an overflow is refused by name below
            norm = float(np.linalg.norm(r))
        if not np.isfinite(norm) and not report.residuals:
            raise ValueError("initial residual b - A x0 has a norm that overflows")
        if not np.isfinite(norm):
            raise IndefinitePreconditionerError(
                f"residual norm is not finite after {len(report.residuals) - 1} steps")
        report.residuals.append(float(np.ldexp(norm, scale)))
        return norm

    b, x = proj(b), proj(x)
    r = b - a @ x
    b_norm = float(np.linalg.norm(b))
    report.converged = residual_norm(r) <= tol * b_norm or b_norm == 0.0
    p, shift = None, 0
    while not report.converged and len(report.residuals) <= max_it:
        # z = 2^shift B r: B reads r 2^shift, exact for a linear B
        z = proj(preconditioner(np.ldexp(r, shift) if shift else r))
        if p is None:
            shift = (_exponent(r) - _exponent(z)) // 2
            z = np.ldexp(z, shift)  # a new array: an identity B returns r itself
        rz_new = float(r @ z)
        if not 0.0 < rz_new < np.inf:
            raise IndefinitePreconditionerError(
                f"r'Br = {rz_new:.3g}: preconditioner is not positive definite")
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = a @ p
        pap = float(p @ ap)
        if not 0.0 < pap < np.inf:
            raise IndefinitePreconditionerError(
                "non-descent direction: preconditioned operator is indefinite")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        r = proj(r)
        report.converged = residual_norm(r) <= tol * b_norm
    report.wall_time = time.perf_counter() - start
    return np.ldexp(x, scale), report.finalize()
