"""peierls-lab benchmark: four experiments, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  Each experiment runs in a fresh interpreter
(perfbench/child.py), one after another, until the next one would likely
end after S seconds; the metrics are medians over those runs.  With
--trace 0 the last stdout line reports run_s, setup_s and peak_rss_mb, the
times rescaled by the host-speed probe (calibrate.py); with --trace 1 it
alternates untraced and traced runs and reports the per-layer metrics of
the traced ones plus trace.overhead_s.  Every run passes the correctness
gate or is counted in "failed": it must not raise, every declared check
must hold, and every reference figure must match perfbench/references.json.

--smoke is the self-test: tiny sizes, every metric emitted with its unit,
declared checks and the layer coverage gate applied to every run, a
full-size run on a non-reference seed passing the whole gate, and a
deliberately corrupted reference value counted as a failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("egorov-2d", "flow-2d", "butterfly", "propagate-1d")
MISSING_PROGRAM = 3
# Whole run, set-up included, stays well inside 180 s.
DEADLINE_S = 165.0
# One BLAS thread everywhere; the butterfly sweep pool gets the cores, so
# pool workers x BLAS threads <= nproc.
BLAS_THREADS = 1
POOL_WORKERS_MAX = 2


class Fatal(RuntimeError):
    """The benchmark cannot run at all (no program, unreadable files)."""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PEIERLS_LAB_THREADS"] = str(max(1, min(POOL_WORKERS_MAX, nproc() // BLAS_THREADS)))
    env.pop("PYTHONPATH", None)
    return env


def run_child(name, seed, traced, deadline, smoke=False):
    """One experiment in a fresh interpreter; returns its record."""
    out = OUT / "runs" / name
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed),
           "1" if traced else "0", repr(time.monotonic()), str(out)]
    if smoke:
        cmd.append("smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "timed_out": True,
                "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode == MISSING_PROGRAM:
        raise Fatal(proc.stdout.strip() or "program missing")
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    record["traced"] = traced
    return record


def judge(name, seed, record, references):
    """Reasons a run fails the correctness gate; empty when it passes.
    references=None skips the reference figures (smoke sizes have none)."""
    if "error" in record:
        return [f"raised: {record['error'].strip().splitlines()[-1]}"]
    reasons = [f"declared check {k} failed" for k, ok in record["checks"].items()
               if not ok]
    ref = references["workloads"][name] if references else {"figures": {}}
    for fig, spec in ref["figures"].items():
        if seed != references["reference_seed"] and fig in ref["seed_dependent"]:
            continue
        got, want = record["figures"].get(fig), spec["value"]
        if got is None:
            reasons.append(f"figure {fig} missing")
            continue
        got = got if isinstance(got, list) else [got]
        want = want if isinstance(want, list) else [want]
        if len(got) != len(want):
            reasons.append(f"figure {fig}: {len(got)} values, reference has {len(want)}")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if g is None or not abs(g - w) <= spec["atol"] + spec["rtol"] * abs(w):
                reasons.append(f"figure {fig}[{i}] = {g!r}, reference {w!r} "
                               f"(rtol {spec['rtol']}, atol {spec['atol']})")
                break
    if record.get("traced") and "layers" in record:
        zero = tracing.missing_coverage(name, record["layers"])
        if zero:
            reasons.append("layer metrics zero where driven: " + ", ".join(zero))
    return reasons


def slowdown(record):
    return record["probe_kernel_s"] / calibrate.REF_KERNEL_S


def rescaled(record):
    """(run_s, setup_s) of one experiment: its wall times, without the
    probe's own time, divided by the host slowdown the probe measured."""
    return ((record["run_wall_s"] - record["probe_wall_s"]) / slowdown(record),
            record["setup_wall_s"] / slowdown(record))


def end_to_end(records):
    """Medians over the passing experiments (over all that finished if none
    passed)."""
    done = [r for r in records if "run_wall_s" in r and "peak_rss_mb" in r]
    ok = [r for r in done if not r["reasons"]] or done
    if not ok:
        raise Fatal("no experiment finished")
    return {"run_s": statistics.median(rescaled(r)[0] for r in ok),
            "setup_s": statistics.median(rescaled(r)[1] for r in ok),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok)}


def per_layer(untraced, traced, names):
    """Medians over the traced experiments, plus the tracing overhead."""
    done = [r for r in traced if "layers" in r]
    ok = [r for r in done if not r["reasons"]] or done
    if not ok:
        raise Fatal("no traced experiment finished")
    names = [n for n in names if n != "trace.overhead_s"]
    missing = sorted(set(names) - set(ok[0]["layers"]))
    if missing:
        raise Fatal(f"tracing emits no value for {missing}")
    metrics = {n: statistics.median(r["layers"][n] for r in ok) for n in names}
    metrics["trace.overhead_s"] = (statistics.median(rescaled(r)[0] for r in ok)
                                   - end_to_end(untraced)["run_s"])
    return metrics


def measure(name, seed, seconds, trace, references, smoke=False):
    """Run experiments back to back and stop when the next would likely end
    after `seconds`; returns the records."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    records, took = [], []
    while True:
        traced = bool(trace) and len(records) % 2 == 1
        t0 = time.monotonic()
        record = run_child(name, seed, traced, deadline, smoke)
        if record is None:
            break
        record["reasons"] = judge(name, seed, record, None if smoke else references)
        records.append(record)
        took.append(time.monotonic() - t0)
        if record.get("timed_out"):
            break
        kinds = {r["traced"] for r in records}
        if (time.monotonic() - start + statistics.median(took) > seconds
                and (not trace or len(kinds) == 2)):
            break
    return records


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise Fatal(f"cannot read {path}: {exc}")


def check_program():
    if not (ROOT / "src" / "peierls_lab" / "__init__.py").is_file():
        raise Fatal(f"no program: {ROOT / 'src' / 'peierls_lab'} is missing")


def result_line(records, metrics, units):
    failed = sum(1 for r in records if r["reasons"])
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}


def benchmark(args):
    spec = load_json(ROOT / "BENCHMARK.json")
    references = load_json(HERE / "references.json")
    check_program()
    load0 = os.getloadavg()
    records = measure(args.workload, args.seed, args.seconds, args.trace, references)
    load1 = os.getloadavg()
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(untraced, traced, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = end_to_end(untraced)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise Fatal(f"no value for {missing}")
    line = result_line(records, metrics, units)
    env = next((r["env"] for r in records if "env" in r), {})
    run_env = {"nproc": nproc(), "cpu_count": os.cpu_count(),
               **{k: v for k, v in child_env().items()
                  if k.endswith("_THREADS")},
               "loadavg_start": load0, "loadavg_end": load1, **env}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "records").mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / "records" / f"{tag}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": run_env, "result": line, "runs": records},
                  fh, indent=1, default=str)
    print("environment: " + json.dumps(run_env))
    for r in records:
        kind = "traced" if r["traced"] else "untraced"
        verdict = "pass" if not r["reasons"] else "FAIL: " + "; ".join(r["reasons"])
        times = (f"wall run {r['run_wall_s']:.3f} s, setup {r['setup_wall_s']:.3f} s, "
                 f"host slowdown {slowdown(r):.2f}" if "run_wall_s" in r else "no times")
        print(f"run {kind}: {times}, {verdict}")
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced runs; "
          f"fail_rate {line['failed']}/{line['attempted']} = "
          f"{line['failed'] / line['attempted']:.3g}")
    for n, m in line["metrics"].items():
        print(f"  {n} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


def smoke():
    """Self-test of the benchmark; prints PASS or the problems, exit 0 or 1."""
    spec = load_json(ROOT / "BENCHMARK.json")
    references = load_json(HERE / "references.json")
    check_program()
    problems = []
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        # seed 1 also exercises the gauge-phase and observable-phase inputs
        records = measure(name, 1, 0, 1, references, smoke=True)
        untraced = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        failures = [f"{name}: {why}" for r in records for why in r["reasons"]]
        if failures or not traced:
            problems += failures or [f"{name}: no traced run finished"]
            continue
        try:
            for units, metrics in ((e2e_units, end_to_end(untraced)),
                                   (layer_units, per_layer(untraced, traced, layer_units))):
                for n, m in result_line(records, metrics, units)["metrics"].items():
                    if not isinstance(m["value"], float):
                        problems.append(f"{name}: metric {n} has no numeric value")
        except (Fatal, KeyError) as exc:
            problems.append(f"{name}: metrics not emitted: {exc}")
            continue
        print(f"smoke {name}: {len(records)} runs, metrics and units emitted")
    # A full-size run on a seed other than the reference seed must pass the
    # whole gate, and the same run must fail against a corrupted reference.
    seed = references["reference_seed"] + 1
    record = measure("butterfly", seed, 0, 0, references)[0]
    problems += [f"full-size butterfly, seed {seed}: {why}" for why in record["reasons"]]
    corrupted = json.loads(json.dumps(references))
    edges = corrupted["workloads"]["butterfly"]["figures"]["edges"]["value"]
    edges[len(edges) // 2] += 1e-6
    runs = [dict(record, reasons=judge("butterfly", seed, record, refs))
            for refs in (references, corrupted)]
    line = result_line(runs, end_to_end(runs), e2e_units)
    if (line["attempted"], line["failed"], bool(runs[0]["reasons"])) != (2, 1, False):
        problems.append(f"corrupted reference not counted as one failed run: {line}, "
                        f"reasons {[r['reasons'] for r in runs]}")
    else:
        print("smoke reference gate: true reference passes, corrupted one fails "
              f"({runs[1]['reasons'][0]})")
    for p in problems:
        print("PROBLEM " + p)
    print("smoke: " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        return benchmark(args)
    except Fatal as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
