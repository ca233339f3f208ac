"""Outside-in layer tracing for the amgforge benchmark.

``Tracer.install()`` replaces amgforge functions and methods with wrappers
that record one span per call: name, start, end, parent span and operand
size.  ``Tracer.uninstall()`` puts every original back.  Nothing under
``src/`` changes.  Names are patched where the program looks them up, so a
function imported with ``from .x import f`` is patched in the importing
module as well as in its own.

Spans stay in memory.  ``finish_pass()`` turns the spans of one pass into
per-layer metrics, and ``write()`` dumps every span when the run ends.
"""

import functools
import inspect
import time

import numpy as np

import amgforge
from amgforge import linalg, smoothers, sparse

# Modules whose public functions are traced.  The layer of a span is the
# module name; hierarchy is traced so that its own (self) time can be split
# from the layers it calls.
TRACED_MODULES = ("io_mm", "strength", "coarsening", "interpolation", "sparse",
                  "analysis", "adaptive", "hierarchy")

# Modules that build the coarsest-level pseudo-inverse of a hierarchy.
COARSEST_FACTOR_MODULES = ("hierarchy", "adaptive")

# Smoother classes whose iterator actions are reported one by one.
ACTION_CLASSES = ("GaussSeidel", "BlockGaussSeidel", "SymmetrizedSmoother",
                  "SubspaceCorrection")

LEVELS = ("L0", "L1", "L2", "Lrest")

_INT = (int, np.integer)

# Metrics reported per level as well as in total.
LEVELLED_METRICS = (
    "strength.busy_s", "strength.strong_edges",
    "coarsening.busy_s", "coarsening.coarse_ratio",
    "interpolation.busy_s", "interpolation.p_nnz_per_row",
    "sparse.galerkin_busy_s",
    "sparse.spmv_busy_s", "sparse.spmv_calls",
    "sparse.matvec_busy_s", "sparse.matvec_calls",
    "smoothers.setup_busy_s",
    "smoothers.apply_busy_s", "smoothers.apply_calls",
)

PLAIN_METRICS = (
    "io_mm.read_s",
    *(f"smoothers.{kind}.{cls}" for cls in ACTION_CLASSES
      for kind in ("action_busy_s", "action_calls")),
    "linalg.coarsest_factor_s", "linalg.coarsest_n", "linalg.pinv_solve_busy_s",
    "hierarchy.setup_self_s", "hierarchy.vcycle_busy_s", "hierarchy.vcycles",
    "hierarchy.pcg_self_s",
    "analysis.error_norm_busy_s", "analysis.error_norm_steps",
    "analysis.k_of_vc_busy_s", "analysis.optimal_coarse_space_busy_s",
    "analysis.materialize_busy_s", "analysis.materialize_columns",
    "adaptive.busy_s", "adaptive.ls_fit_busy_s", "adaptive.self_s",
)

OVERHEAD_METRIC = "trace.overhead_pct"


def metric_names():
    """Every per-layer metric name, in report order."""
    names = []
    for base in LEVELLED_METRICS:
        names.append(base)
        names.extend(f"{base}.{lvl}" for lvl in LEVELS)
    names.extend(PLAIN_METRICS)
    names.append(OVERHEAD_METRIC)
    return names


def metric_unit(name):
    base = name.rsplit(".", 1)[0] if name.endswith(LEVELS) else name
    if base == OVERHEAD_METRIC:
        return "%"
    if base.endswith("_s") or "busy_s" in base:
        return "s"
    if base.endswith(("_ratio", "_per_row")):
        return "ratio"
    return "count"


# Span groups: a group's busy time counts only its outermost spans, so a
# call nested inside another call of the same group is not counted twice.
_GROUP_OF_NAME = {
    "io_mm.read_matrix_market": "io_mm.read",
    "sparse.galerkin_product": "sparse.galerkin",
    "sparse.spmv": "sparse.spmv",
    "sparse.spmv_transpose": "sparse.spmv",
    "hierarchy.setup": "hierarchy.setup",
    "hierarchy.vcycle_apply": "hierarchy.vcycle",
    "hierarchy.pcg_solve": "hierarchy.pcg",
    "analysis.error_norm": "analysis.error_norm",
    "analysis.k_of_vc": "analysis.k_of_vc",
    "analysis.optimal_coarse_space": "analysis.optimal_coarse_space",
    "analysis.materialize": "analysis.materialize",
    "adaptive.ls_fit_prolongation": "adaptive.ls_fit",
    "smoothers.make_smoother": "smoothers.setup",
    "smoothers.adjoint": "smoothers.setup",
    "smoothers.apply": "smoothers.apply",
    "linalg.coarsest_factor": "linalg.coarsest_factor",
    "linalg.pinv_solve": "linalg.pinv_solve",
    "sparse.matvec": "sparse.matvec",
}
_WHOLE_LAYER_GROUPS = ("strength", "coarsening", "interpolation")


def _group_of(name):
    if name in _GROUP_OF_NAME:
        return _GROUP_OF_NAME[name]
    if name.startswith("smoothers.action."):
        return name
    layer = name.split(".", 1)[0]
    return layer if layer in _WHOLE_LAYER_GROUPS else layer + ".other"


def _operand_size(args):
    """Rows of the first operand: matrix, strength graph, smoother, P, array."""
    if not args:
        return None
    x = args[0]
    for attr in ("n_rows", "n_vertices"):
        n = getattr(x, attr, None)
        if isinstance(n, _INT):
            return int(n)
    inner = getattr(x, "a", None)
    if isinstance(getattr(inner, "n_rows", None), _INT):
        return int(inner.n_rows)
    n = getattr(x, "n", None)
    if isinstance(n, _INT):
        return int(n)
    shape = getattr(x, "shape", None)
    if shape:
        return int(shape[0])
    return None


class Span:
    __slots__ = ("name", "group", "layer", "start", "end", "parent", "size",
                 "outer_group", "outer_layer", "child", "count", "info")

    def __init__(self, name, group, layer, start, parent, size, outer_group,
                 outer_layer):
        self.name = name
        self.group = group
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.size = size
        self.outer_group = outer_group
        self.outer_layer = outer_layer
        self.child = 0.0
        self.count = 0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


def _result_info(name, args, result):
    """Work counts read from a traced call's arguments and result."""
    layer = name.split(".", 1)[0]
    if name == "strength.strength_matrix":
        return {"edges": result.graph.n_edges}
    if layer == "coarsening":
        obj = result[0] if isinstance(result, tuple) else result
        n_c = getattr(obj, "n_coarse", getattr(obj, "n_aggregates", None))
        n = getattr(obj, "n", None)
        if isinstance(n_c, _INT) and isinstance(n, _INT):
            return {"coarse": n_c, "rows": n}
    if layer == "interpolation":
        mat = getattr(result, "matrix", None)
        if mat is not None and hasattr(mat, "nnz"):
            return {"nnz": mat.nnz, "rows": mat.n_rows}
    if name == "analysis.materialize":
        return {"columns": int(args[1])}
    return None


class Tracer:
    """Records spans around amgforge calls while installed."""

    def __init__(self):
        self.spans = []
        self.archive = []
        self._stack = []
        self._group_depth = {}
        self._layer_depth = {}
        self._patches = []
        self._clock = time.perf_counter
        self.origin = self._clock()

    # -- recording ---------------------------------------------------------

    def _open(self, name, group, layer, size):
        gd, ld = self._group_depth, self._layer_depth
        outer_group = gd.get(group, 0) == 0
        outer_layer = ld.get(layer, 0) == 0
        gd[group] = gd.get(group, 0) + 1
        ld[layer] = ld.get(layer, 0) + 1
        parent = self._stack[-1] if self._stack else None
        span = Span(name, group, layer, self._clock(), parent, size,
                    outer_group, outer_layer)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = self._clock()
        self._stack.pop()
        self._group_depth[span.group] -= 1
        self._layer_depth[span.layer] -= 1
        if span.parent is not None:
            span.parent.child += span.duration

    def _nearest(self, name):
        for span in reversed(self._stack):
            if span.name == name:
                return span
        return None

    def _wrap(self, fn, name, size_of=_operand_size):
        tracer = self
        group = _group_of(name)
        layer = name.split(".", 1)[0]

        wants_info = layer in ("strength", "coarsening", "interpolation") or (
            name == "analysis.materialize")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, group, layer, size_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if wants_info:
                span.info = _result_info(name, args, result)
            return result

        traced.perfbench_span = name
        return traced

    def _counted_action(self, action):
        """Count propagator applications inside the enclosing error_norm."""
        tracer = self

        def counted(v):
            span = tracer._nearest("analysis.error_norm")
            if span is not None:
                span.count += 1
            return action(v)

        counted.perfbench_span = "analysis.e_action"
        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> wrapper
        for short in TRACED_MODULES:
            mod = getattr(amgforge, short)
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name == "analysis.materialize":
                    wrapper = self._wrap(fn, name, lambda args: int(args[1]))
                elif name == "analysis.two_level_error_action":
                    wrapper = self._wrap_error_action(fn, name)
                else:
                    wrapper = self._wrap(fn, name)
                wrappers[id(fn)] = wrapper
        wrappers[id(smoothers.make_smoother)] = self._wrap(
            smoothers.make_smoother, "smoothers.make_smoother")
        # patch every module-level name bound to a traced function
        for mod in _amgforge_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patch(mod, attr, wrapper)
        for short in COARSEST_FACTOR_MODULES:
            mod = getattr(amgforge, short)
            self._patch(mod, "SymPseudoInverse",
                        self._wrap(linalg.SymPseudoInverse, "linalg.coarsest_factor"))
        self._patch(linalg.SymPseudoInverse, "solve",
                    self._wrap(linalg.SymPseudoInverse.solve, "linalg.pinv_solve"))
        self._patch(sparse.SparseMatrix, "__matmul__",
                    self._wrap(sparse.SparseMatrix.__matmul__, "sparse.matvec"))
        self._patch(smoothers.Smoother, "apply",
                    self._wrap(smoothers.Smoother.apply, "smoothers.apply"))
        for cls in _smoother_classes():
            if "action" in cls.__dict__:
                self._patch(cls, "action", self._wrap(
                    cls.__dict__["action"], f"smoothers.action.{cls.__name__}"))
            if "adjoint" in cls.__dict__:
                self._patch(cls, "adjoint", self._wrap(
                    cls.__dict__["adjoint"], "smoothers.adjoint"))

    def _wrap_error_action(self, fn, name):
        traced = self._wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            e_action, e_action_t = traced(*args, **kwargs)
            return tracer._counted_action(e_action), e_action_t

        counted.perfbench_span = name
        return counted

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._stack:
            raise RuntimeError("tracer removed with spans still open")

    # -- per-pass metrics --------------------------------------------------

    def finish_pass(self):
        """Per-layer metrics of the spans recorded since the last call."""
        spans, self.spans = self.spans, []
        self.archive.append(spans)
        return layer_metrics(spans)

    def write(self, path):
        """Write every recorded span as tab-separated text."""
        with open(path, "w") as f:
            f.write("pass\tspan\tname\tstart_s\tend_s\tparent\tsize\n")
            for k, spans in enumerate(self.archive):
                index = {id(s): i for i, s in enumerate(spans)}
                for i, s in enumerate(spans):
                    parent = index.get(id(s.parent), -1) if s.parent else -1
                    f.write(f"{k}\t{i}\t{s.name}\t{s.start - self.origin:.9f}\t"
                            f"{s.end - self.origin:.9f}\t{parent}\t"
                            f"{'' if s.size is None else s.size}\n")


def _amgforge_modules():
    return [getattr(amgforge, name) for name in amgforge.__all__]


def _smoother_classes():
    return [cls for cls in vars(smoothers).values()
            if inspect.isclass(cls) and issubclass(cls, smoothers.Smoother)]


def installed_wrappers():
    """(owner, attribute) pairs currently bound to a tracing wrapper."""
    found = []
    owners = _amgforge_modules() + _smoother_classes() + [
        linalg.SymPseudoInverse, sparse.SparseMatrix]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if hasattr(value, "perfbench_span"):
                found.append((getattr(owner, "__name__", str(owner)), attr))
    return found


def _level_table(spans):
    """Level sizes of one pass, finest first: every level that got a
    smoother, plus the coarsest factorization."""
    sizes = {s.size for s in spans if s.size is not None and s.group in
             ("smoothers.setup", "linalg.coarsest_factor")}
    return sorted(sizes, reverse=True)


def _level_name(size, table):
    """Level of an operand: the number of level sizes above its own size."""
    if size is None:
        return None
    k = sum(1 for t in table if t > size)
    return LEVELS[min(k, len(LEVELS) - 1)]


# group -> metric that sums the durations of the group's outermost spans
_BUSY_OF_GROUP = {
    "strength": "strength.busy_s",
    "coarsening": "coarsening.busy_s",
    "interpolation": "interpolation.busy_s",
    "sparse.galerkin": "sparse.galerkin_busy_s",
    "sparse.spmv": "sparse.spmv_busy_s",
    "sparse.matvec": "sparse.matvec_busy_s",
    "smoothers.setup": "smoothers.setup_busy_s",
    "smoothers.apply": "smoothers.apply_busy_s",
    "io_mm.read": "io_mm.read_s",
    "linalg.coarsest_factor": "linalg.coarsest_factor_s",
    "linalg.pinv_solve": "linalg.pinv_solve_busy_s",
    "hierarchy.vcycle": "hierarchy.vcycle_busy_s",
    "analysis.error_norm": "analysis.error_norm_busy_s",
    "analysis.k_of_vc": "analysis.k_of_vc_busy_s",
    "analysis.optimal_coarse_space": "analysis.optimal_coarse_space_busy_s",
    "analysis.materialize": "analysis.materialize_busy_s",
    "adaptive.ls_fit": "adaptive.ls_fit_busy_s",
}
# group -> metric that counts the group's calls (nested ones included)
_CALLS_OF_GROUP = {
    "sparse.spmv": "sparse.spmv_calls",
    "sparse.matvec": "sparse.matvec_calls",
    "smoothers.apply": "smoothers.apply_calls",
    "hierarchy.vcycle": "hierarchy.vcycles",
}
# group -> metric that sums self time
_SELF_OF_GROUP = {
    "hierarchy.setup": "hierarchy.setup_self_s",
    "hierarchy.pcg": "hierarchy.pcg_self_s",
}
_LEVELLED = set(LEVELLED_METRICS)


def layer_metrics(spans):
    """Per-layer metrics of one pass from its spans."""
    table = _level_table(spans)
    sums = {}
    peaks = {}

    def add(key, value, level):
        sums[key] = sums.get(key, 0.0) + value
        if level is not None and key in _LEVELLED:
            lk = f"{key}.{level}"
            sums[lk] = sums.get(lk, 0.0) + value

    def add_ratio(key, num, den, level):
        # a ratio metric is the sum of numerators over the sum of denominators
        for suffix in ("", f".{level}") if level is not None else ("",):
            ratios.setdefault(key + suffix, [0.0, 0.0])
            ratios[key + suffix][0] += num
            ratios[key + suffix][1] += den

    ratios = {}

    for s in spans:
        level = _level_name(s.size, table)
        group = s.group
        if group.startswith("smoothers.action."):
            cls = group.rsplit(".", 1)[1]
            add(f"smoothers.action_calls.{cls}", 1, None)
            if s.outer_group:
                add(f"smoothers.action_busy_s.{cls}", s.duration, None)
        if s.outer_group and group in _BUSY_OF_GROUP:
            add(_BUSY_OF_GROUP[group], s.duration, level)
        if group in _CALLS_OF_GROUP:
            add(_CALLS_OF_GROUP[group], 1, level)
        if group in _SELF_OF_GROUP:
            add(_SELF_OF_GROUP[group], s.self_time, None)
        if s.layer == "adaptive":
            add("adaptive.self_s", s.self_time, None)
            if s.outer_layer:
                add("adaptive.busy_s", s.duration, None)
        if group == "linalg.coarsest_factor":
            peaks["linalg.coarsest_n"] = max(peaks.get("linalg.coarsest_n", 0),
                                             s.size or 0)
        if group == "analysis.error_norm":
            # propagator applications over error_norm's default block of 4
            peaks["analysis.error_norm_steps"] = max(
                peaks.get("analysis.error_norm_steps", 0), s.count / 4.0)
        info = s.info
        if info and s.outer_group:
            if "edges" in info:
                add("strength.strong_edges", info["edges"], level)
            if "coarse" in info:
                add_ratio("coarsening.coarse_ratio", info["coarse"], info["rows"], level)
            if "nnz" in info:
                add_ratio("interpolation.p_nnz_per_row", info["nnz"], info["rows"], level)
            if "columns" in info:
                add("analysis.materialize_columns", info["columns"], None)

    out = {}
    for name in metric_names():
        if name == OVERHEAD_METRIC:
            continue
        if name in peaks:
            out[name] = float(peaks[name])
        elif name in ratios:
            num, den = ratios[name]
            out[name] = num / den if den else 0.0
        else:
            out[name] = float(sums.get(name, 0.0))
    return out
