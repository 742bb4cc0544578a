"""The benchmark's uses of the package still resolve.

perfbench/tracing.py wraps package functions and methods by name; a rename
would otherwise surface only when the traced benchmark runs.  The tracer
module is loaded from its file and its own lookup (rebind, with an identity
wrapper) is applied to every entry point.  Its right-hand side counter reads
the momentum from the first positional argument of flow._rhs, which an RK4
step is run to confirm.  perfbench/workloads.py runs egorov-2d through
private CLI builders and quantum.egorov_error, and flow-2d through cli.run;
both run here on their smoke configs, and the smoke egorov-2d still
resamples its flow grid, which the benchmark's coverage gate requires.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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
    from oracles import AnalyticHamiltonian
    from peierls_lab import flow
    from peierls_lab.fields import EMFieldConfig
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    free = AnalyticHamiltonian(f=lambda k, r: 0.5 * np.sum(k ** 2, -1),
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
        flow.integrate(state, free, fld, 0.01, 0.01)
    finally:
        tracing.rebind("flow", "_rhs", lambda fn: original)
    assert flow._rhs is original and flow.vector_field is original
    # one RK4 step: four stages, the first at the state's own k
    assert len(seen) == 4
    assert np.array_equal(seen[0][0], state.k)
    assert all(np.shape(args[0]) == state.k.shape == (2,) for args in seen)
    assert tracer.counters["flow.rhs_calls"] == 4
    assert tracer.counters["flow.rhs_points"] == 4


def _perfbench_files():
    """Modification time of every file under perfbench/ but its out/ tree,
    which benchmark runs own."""
    return {p: p.stat().st_mtime_ns for p in PERFBENCH.rglob("*")
            if p.relative_to(PERFBENCH).parts[0] != "out"}


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported as the benchmark child imports it;
    the test errors if it leaves a file under perfbench/ changed."""
    before = _perfbench_files()
    # workloads imports its sibling tracing as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        import workloads
        yield workloads
    finally:
        for name in ("workloads", "tracing"):
            sys.modules.pop(name, None)
    assert _perfbench_files() == before


def test_egorov_2d_workload_runs_on_its_smoke_config(tmp_path, workloads):
    assert workloads.config_path("egorov-2d", smoke=True) == \
        PERFBENCH / "configs" / "smoke" / "egorov_2d.json"
    cfg = workloads.load_config("egorov-2d", smoke=True)
    report = workloads.run_egorov_2d(cfg, workloads.REFERENCE_SEED, tmp_path)
    figures = workloads.figures("egorov-2d", tmp_path)
    assert report["metrics"]["phases"] == [0.0, 0.0]
    assert report["passed"] and np.isfinite(figures["error"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["egorov.csv", "egorov_report.json"]


def test_egorov_2d_smoke_still_resamples_its_flow_grid(tmp_path, workloads):
    """The smoke egorov-2d (n = 7) passes an explicit 7 x 7 flow grid, the
    grid itself.  An explicit flow grid is always resampled, so the run
    still drives weyl.resample_s, which the smoke coverage gate requires on
    egorov-2d."""
    from peierls_lab import weyl
    calls = []

    def count(fn):
        def counting(*args, **kwargs):
            calls.append(args[1])
            return fn(*args, **kwargs)
        return counting

    original = weyl.resample_periodic
    workloads.tracing.rebind("weyl", "resample_periodic", count)
    try:
        workloads.run_egorov_2d(workloads.load_config("egorov-2d", smoke=True),
                                workloads.REFERENCE_SEED, tmp_path)
    finally:
        workloads.tracing.rebind("weyl", "resample_periodic", lambda fn: original)
    assert weyl.resample_periodic is original
    assert calls == [(7,) * 4]
    assert "weyl.resample_s" in workloads.tracing.DRIVEN_ON
    assert "egorov-2d" in workloads.tracing.DRIVEN_ON["weyl.resample_s"]


def test_flow_2d_workload_runs_on_its_smoke_config(tmp_path, workloads):
    assert workloads.RUNNERS["flow-2d"] is workloads.run_cli
    assert workloads.config_path("flow-2d", smoke=True) == \
        PERFBENCH / "configs" / "smoke" / "flow_2d.json"
    cfg = workloads.load_config("flow-2d", smoke=True)
    report = workloads.run_cli(cfg, workloads.REFERENCE_SEED, tmp_path)
    figures = workloads.figures("flow-2d", tmp_path)
    assert report["passed"]
    assert len(figures["distance"]) == len(cfg.numerics.eps_list)
    assert np.all(np.isfinite(figures["distance"]))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flow.csv", "flow.dat",
                                                          "flow_report.json"]
