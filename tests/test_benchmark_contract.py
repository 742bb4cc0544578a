"""The benchmark tracer's entry points still exist in the package.

perfbench/tracing.py wraps package functions and methods by name; a rename
would otherwise surface only when the traced benchmark runs.  The tracer
module is loaded from its file and its own lookup (rebind, with an identity
wrapper) is applied to every entry point.  Its right-hand side counter reads
the momentum from the first positional argument of flow._rhs, which an RK4
step is run to confirm.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_entry_points_resolve():
    tracing = _load_tracing()
    for module_name, *_ in tracing.ENTRY_POINTS:
        importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    resolved = []

    def identity(fn):
        resolved.append(fn)
        return fn

    for module_name, attr, *_ in tracing.ENTRY_POINTS:
        tracing.rebind(module_name, attr, identity)     # raises TraceError if gone
    assert len(resolved) == len(tracing.ENTRY_POINTS)
    assert all(callable(fn) for fn in resolved)


def test_rhs_receives_the_state_momentum_first():
    from peierls_lab import flow
    from peierls_lab.fields import EMFieldConfig
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    free = flow.AnalyticHamiltonian(f=lambda k, r: 0.5 * np.sum(k ** 2, -1),
                                    fk=lambda k, r: k,
                                    fr=lambda k, r: np.zeros_like(r))
    fld = EMFieldConfig.constant(2, b=0.9, eps=0.1, lam=0.7)
    state = flow.FlowState.of([0.4, 0.1], [0.2, -0.3])
    seen = []

    def record(fn):
        def recording(*args, **kwargs):
            seen.append(args)
            tracing._count_rhs(tracer, "flow.rhs", args, kwargs, None)
            return fn(*args, **kwargs)
        return recording

    original = flow._rhs
    tracing.rebind("flow", "_rhs", record)
    try:
        flow.integrate(state, free, fld, 0.01, 0.01, halving_budget=None)
    finally:
        tracing.rebind("flow", "_rhs", lambda fn: original)
    assert flow._rhs is original and flow.vector_field is original
    # one RK4 step: four stages, the first at the state's own k
    assert len(seen) == 4
    assert np.array_equal(seen[0][0], state.k)
    assert all(np.shape(args[0]) == state.k.shape == (2,) for args in seen)
    assert tracer.counters["flow.rhs_calls"] == 4
    assert tracer.counters["flow.rhs_points"] == 4
