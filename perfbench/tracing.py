"""Span tracer for the traced benchmark run.

The tracer wraps the entry points of each ``peierls_lab`` layer in every
namespace where a caller looks them up (``quantum`` binds its own
``_rk4_run`` and ``quantize``; the CLI runners import lazily from the module
attributes).  Each call becomes one span: name, start, end, parent span and
thread.  Spans stay in memory until the run ends.  Counters are taken at the
same call boundaries, so ratios are measured where the work happens.

Span names are ``<layer>.<call>``; a layer's self time is the summed duration
of its spans minus the part of each interval covered by child spans.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from collections import defaultdict
from functools import wraps

PACKAGE = "peierls_lab"


class TraceError(RuntimeError):
    pass


class Tracer:
    """In-memory span store; one call stack per thread.

    A span opened in a worker thread whose own stack is empty takes the main
    thread's innermost open span as its parent (the pool's submitter).
    """

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value):
        with self._lock:
            self.counters[key] += value

    def peak(self, key, value):
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    def wrap(self, fn, name, count=None):
        """Traced version of fn.  name is a span name, or a callable taking
        the parent span's name (None at top level) and returning one.
        count(tracer, span_name, args, kwargs, result) records counters."""
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else -1)
            span = name if isinstance(name, str) else name(
                tracer.names[parent] if parent >= 0 else None)
            with tracer._lock:
                idx = len(tracer.names)
                tracer.names.append(span)
                tracer.parents.append(parent)
                tracer.starts.append(0.0)
                tracer.ends.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if count is not None:
                count(tracer, span, args, kwargs, result)
            return result

        return traced

    # -- analysis -----------------------------------------------------------

    def inclusive(self):
        """Summed span durations per span name."""
        out = defaultdict(float)
        for name, t0, t1 in zip(self.names, self.starts, self.ends):
            out[name] += t1 - t0
        return out

    def self_times(self):
        """Per span: duration minus the union of its children's intervals
        (children from pool threads may overlap each other)."""
        children = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx, (t0, t1) in enumerate(zip(self.starts, self.ends)):
            covered = 0.0
            kids = children.get(idx)
            if kids:
                ivals = sorted((max(self.starts[c], t0), min(self.ends[c], t1))
                               for c in kids)
                lo, hi = ivals[0]
                for a, b in ivals[1:]:
                    if a > hi:
                        covered += max(0.0, hi - lo)
                        lo, hi = a, b
                    else:
                        hi = max(hi, b)
                covered += max(0.0, hi - lo)
            out.append((t1 - t0) - covered)
        return out

    def write(self, path):
        """Spans as JSON: a name table and [name, start, end, parent] rows."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        base = min(self.starts) if self.starts else 0.0
        rows = [[index[n], round(t0 - base, 9), round(t1 - base, 9), p]
                for n, t0, t1, p in zip(self.names, self.starts, self.ends,
                                        self.parents)]
        with open(path, "w") as fh:
            json.dump({"names": table, "spans": rows}, fh, separators=(",", ":"))


# -- counters taken at the call boundaries ----------------------------------


def _count_fiber(tr, span, args, kwargs, bands):
    tr.add("fiber.matrices", bands.kgrid.n_points)
    tr.peak("fiber.basis_dim", bands.basis.size)


def _count_symbol(tr, span, args, kwargs, values):
    if span == "effective.symbol":
        tr.add("effective.symbol_points", getattr(values, "size", 1))


def _count_spline(tr, span, args, kwargs, result):
    tr.add("interp.eval_calls", 1)
    tr.add("interp.point_evals", getattr(result, "size", 1))


def _count_rhs(tr, span, args, kwargs, result):
    tr.add("flow.rhs_calls", 1)
    tr.add("flow.rhs_points", math.prod(args[0].shape[:-1]))  # k is (..., d)


def _count_quantize(tr, span, args, kwargs, op):
    tr.add("weyl.quantize_calls", 1)
    tr.peak("weyl.matrix_dim", op.matrix.shape[0])


def _count_eigh(tr, span, args, kwargs, prop):
    tr.add("quantum.eigh_calls", 1)
    tr.peak("quantum.eigh_dim", prop.w.shape[0])


def _count_butterfly(tr, span, args, kwargs, data):
    tr.peak("hofstadter.workers", kwargs.get("n_workers", 1))


def _count_bloch(tr, span, args, kwargs, result):
    H = result[1]
    tr.add("hofstadter.bloch_matrices", math.prod(H.shape[:-2]))


def _value_span(parent):
    """Symbol evaluations inside a trajectory integration are the energy
    monitor; everywhere else they sample the effective symbol."""
    return "flow.monitor" if parent == "flow.integrate" else "effective.symbol"


# (module, attribute or Class.method, span name, counter)
ENTRY_POINTS = [
    ("config", "parse_config", "config.parse", None),
    ("cli", "run", "cli.run", None),
    ("cli", "write_csv", "cli.io", None),
    ("cli", "emit_plotdata", "cli.io", None),
    ("fiber", "solve_bands", "fiber.solve", _count_fiber),
    ("fiber", "fiber_on_cell_grid", "fiber.cells", None),
    ("geometry", "geometric_tensors", "geometry.tensors", None),
    ("geometry", "fix_gauge", "geometry.gauge", None),
    ("geometry", "rammal_wilkinson", "geometry.rw", None),
    ("effective", "BandData.__post_init__", "effective.banddata", None),
    ("effective", "EffectiveHamiltonian.value", _value_span, _count_symbol),
    ("effective", "SemiclassicalHamiltonian.value", _value_span, _count_symbol),
    ("effective", "EffectiveHamiltonian.grad_pair", "effective.grad", None),
    ("effective", "SemiclassicalHamiltonian.grad_pair", "effective.grad", None),
    ("effective", "t_eff", "effective.map", None),
    ("effective", "t_eff_inverse", "effective.map", None),
    ("interp", "PeriodicSpline.prep", "interp.prep", None),
    ("interp", "PeriodicSpline.eval_prepped", "interp.eval", _count_spline),
    ("flow", "_rhs", "flow.rhs", _count_rhs),
    ("flow", "_rk4_run", "flow.rk4", None),
    ("flow", "integrate", "flow.integrate", None),
    ("flow", "compare_flows", "flow.compare", None),
    ("flow", "structure_factor", "flow.monitor", None),
    ("weyl", "sample_symbol", "weyl.sample", None),
    ("weyl", "quantize", "weyl.quantize", _count_quantize),
    ("weyl", "operator_norm", "weyl.opnorm", None),
    ("weyl", "resample_periodic", "weyl.resample", None),
    ("quantum", "egorov_error", "quantum.egorov", None),
    ("quantum", "flowed_symbol", "quantum.flowed", None),
    ("quantum", "semiclassical_limit_check", "quantum.limit", None),
    ("quantum", "Propagator.of", "quantum.eigh", _count_eigh),
    ("quantum", "Propagator.conjugate", "quantum.conjugate", None),
    ("quantum", "Propagator.apply", "quantum.apply", None),
    ("quantum", "realspace_hamiltonian", "quantum.realspace", None),
    ("quantum", "band_packet", "quantum.packet", None),
    ("hofstadter", "butterfly", "hofstadter.butterfly", _count_butterfly),
    ("hofstadter", "spectrum_at_flux", "hofstadter.spectrum", None),
    ("hofstadter", "_bloch_family", "hofstadter.bloch", _count_bloch),
]


def rebind(module_name, attr, make):
    """Replace a package function or method by make(original).

    A module-level function is replaced in every loaded package module that
    binds the same object, so callers that imported the name directly see
    the replacement too.
    """
    module = sys.modules[f"{PACKAGE}.{module_name}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__.get(meth)
        if raw is None:
            raise TraceError(f"{module_name}.{attr} not found")
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
        return
    original = getattr(module, attr, None)
    if original is None:
        raise TraceError(f"{module_name}.{attr} not found")
    replacement = make(original)
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer):
    """Wrap every entry point in ENTRY_POINTS; the package must be imported."""
    for module_name, attr, span, count in ENTRY_POINTS:
        rebind(module_name, attr, lambda fn: tracer.wrap(fn, span, count))


# -- per-layer metrics --------------------------------------------------------

LAYERS_WITH_SELF_TIME = ("fiber", "geometry", "effective", "flow", "weyl",
                         "quantum", "hofstadter", "cli")

RK4_STAGES = 4


def layer_metrics(tracer):
    """Per-layer metric values (without units) from the spans and counters."""
    inc = tracer.inclusive()
    c = tracer.counters
    self_by_layer = defaultdict(float)
    realspace = 0.0
    for name, s in zip(tracer.names, tracer.self_times()):
        self_by_layer[name.split(".")[0]] += s
        if name in ("quantum.realspace", "quantum.packet", "quantum.apply"):
            realspace += s
    bfly_wall = inc["hofstadter.butterfly"]
    workers = c["hofstadter.workers"]
    traj_steps = c["flow.rhs_points"] / RK4_STAGES
    interp_s = inc["interp.prep"] + inc["interp.eval"]
    m = {
        "fiber.solve_s": inc["fiber.solve"],
        "fiber.matrices": c["fiber.matrices"],
        "fiber.basis_dim": c["fiber.basis_dim"],
        "fiber.ms_per_matrix": _ratio(1e3 * inc["fiber.solve"], c["fiber.matrices"]),
        "geometry.tensors_s": inc["geometry.tensors"],
        "geometry.gauge_s": inc["geometry.gauge"],
        "geometry.rw_s": inc["geometry.rw"],
        "effective.banddata_s": inc["effective.banddata"],
        "effective.symbol_s": inc["effective.symbol"],
        "effective.symbol_points": c["effective.symbol_points"],
        "interp.s": interp_s,
        "interp.eval_calls": c["interp.eval_calls"],
        "interp.point_evals": c["interp.point_evals"],
        "interp.ns_per_point_eval": _ratio(1e9 * interp_s, c["interp.point_evals"]),
        "flow.rhs_s": inc["flow.rhs"],
        "flow.rhs_calls": c["flow.rhs_calls"],
        "flow.traj_steps": traj_steps,
        "flow.us_per_traj_step": _ratio(1e6 * inc["flow.rhs"], traj_steps),
        "flow.monitor_s": inc["flow.monitor"],
        "weyl.quantize_s": inc["weyl.quantize"],
        "weyl.quantize_calls": c["weyl.quantize_calls"],
        "weyl.matrix_dim": c["weyl.matrix_dim"],
        "weyl.opnorm_s": inc["weyl.opnorm"],
        "weyl.resample_s": inc["weyl.resample"],
        "quantum.eigh_s": inc["quantum.eigh"],
        "quantum.eigh_calls": c["quantum.eigh_calls"],
        "quantum.eigh_dim": c["quantum.eigh_dim"],
        "quantum.conjugate_s": inc["quantum.conjugate"],
        "quantum.realspace_s": realspace,
        "hofstadter.spectrum_s": inc["hofstadter.spectrum"],
        "hofstadter.fluxes": sum(1 for n in tracer.names if n == "hofstadter.spectrum"),
        "hofstadter.bloch_matrices": c["hofstadter.bloch_matrices"],
        "hofstadter.pool_busy_frac": _ratio(inc["hofstadter.spectrum"],
                                            bfly_wall * workers),
        "config.parse_s": inc["config.parse"],
        "cli.io_s": inc["cli.io"],
        "trace.spans": len(tracer.names),
    }
    for layer in LAYERS_WITH_SELF_TIME:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return {k: float(v) for k, v in m.items()}


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics that must be non-zero on each workload: the layer table in
# perfbench/README.md.  A zero here means a wrapper missed the calls.
_ALL = ("egorov-2d", "flow-2d", "butterfly", "propagate-1d")
_EG, _FL, _BF, _PR = _ALL
DRIVEN_ON = {
    "fiber.solve_s": (_FL, _EG, _PR),
    "fiber.matrices": (_FL, _EG, _PR),
    "fiber.basis_dim": (_FL, _EG, _PR),
    "fiber.ms_per_matrix": (_FL, _EG, _PR),
    "fiber.self_s": (_FL, _EG, _PR),
    "geometry.tensors_s": (_FL, _EG),
    "geometry.gauge_s": (_FL, _EG),
    "geometry.rw_s": (_FL, _EG),
    "geometry.self_s": (_FL, _EG),
    "effective.banddata_s": (_EG, _FL),
    "effective.symbol_s": (_EG,),
    "effective.symbol_points": (_EG,),
    "effective.self_s": (_EG, _FL),
    "interp.s": (_EG, _FL),
    "interp.eval_calls": (_EG, _FL),
    "interp.point_evals": (_EG, _FL),
    "interp.ns_per_point_eval": (_EG, _FL),
    "flow.rhs_s": (_FL, _EG, _PR),
    "flow.rhs_calls": (_FL, _EG, _PR),
    "flow.traj_steps": (_FL, _EG, _PR),
    "flow.us_per_traj_step": (_FL, _EG, _PR),
    "flow.monitor_s": (_FL,),
    "flow.self_s": (_FL, _EG),
    "weyl.quantize_s": (_EG,),
    "weyl.quantize_calls": (_EG,),
    "weyl.matrix_dim": (_EG,),
    "weyl.opnorm_s": (_EG,),
    "weyl.resample_s": (_EG,),
    "weyl.self_s": (_EG,),
    "quantum.eigh_s": (_PR, _EG),
    "quantum.eigh_calls": (_PR, _EG),
    "quantum.eigh_dim": (_PR, _EG),
    "quantum.conjugate_s": (_EG,),
    "quantum.realspace_s": (_PR,),
    "quantum.self_s": (_PR, _EG),
    "hofstadter.spectrum_s": (_BF,),
    "hofstadter.fluxes": (_BF,),
    "hofstadter.bloch_matrices": (_BF,),
    "hofstadter.pool_busy_frac": (_BF,),
    "hofstadter.self_s": (_BF,),
    "config.parse_s": _ALL,
    "cli.io_s": _ALL,
    "cli.self_s": _ALL,
    "trace.spans": _ALL,
}


def missing_coverage(workload, metrics):
    """Names of metrics the layer table says this workload drives but that
    came out zero (or were not emitted)."""
    return sorted(name for name, drivers in DRIVEN_ON.items()
                  if workload in drivers and not metrics.get(name))
