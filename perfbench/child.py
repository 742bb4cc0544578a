"""Run one benchmark experiment in a fresh interpreter and print its record.

    python3 perfbench/child.py WORKLOAD SEED TRACE SPAWN_TIME OUT_DIR [smoke]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so setup_wall_s covers interpreter
start, the numpy and peierls_lab imports and config parsing.  run_wall_s
runs from entering the experiment to its verdict with CSVs and report
written; the host-speed probe (calibrate.py) samples while the experiment
runs.  The last line of stdout is one JSON record; exit status 3 means the
program is missing.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MISSING_PROGRAM = 3


def main(argv):
    name, seed, traced, spawn, out = argv[:5]
    seed, traced, spawn, out = int(seed), traced == "1", float(spawn), Path(out)
    smoke = len(argv) > 5 and argv[5] == "smoke"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import peierls_lab
        for mod in pkgutil.iter_modules(peierls_lab.__path__):
            importlib.import_module(f"peierls_lab.{mod.name}")
    except ImportError as exc:
        print(json.dumps({"fatal": f"cannot import the program: {exc}"}))
        return MISSING_PROGRAM
    import calibrate
    import tracing
    import workloads

    if seed != workloads.REFERENCE_SEED:
        workloads.randomize_gauge(seed)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    cfg = workloads.load_config(name, smoke)
    out.mkdir(parents=True, exist_ok=True)

    t_enter = time.monotonic()
    record = {"setup_wall_s": t_enter - spawn}
    probe = calibrate.Probe()
    try:
        with probe:
            report = workloads.RUNNERS[name](cfg, seed, out)
        record["run_wall_s"] = time.monotonic() - t_enter
        record["checks"] = report["checks"]
        record["figures"] = workloads.figures(name, out)
    except Exception:
        record["run_wall_s"] = time.monotonic() - t_enter
        record["error"] = traceback.format_exc(limit=4)
    record.update(probe.summary())

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
        tracer.write(out / "spans.json")
    record["env"] = _environment()
    print(json.dumps(record))
    return 0


def _environment():
    import importlib.metadata
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy_version,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
