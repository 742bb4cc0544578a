"""The benchmark tracer's entry points still exist in the package.

perfbench/tracing.py wraps package functions and methods by name; a rename
would otherwise surface only when the traced benchmark runs.  The tracer
module is loaded from its file and its own lookup (rebind, with an identity
wrapper) is applied to every entry point.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
