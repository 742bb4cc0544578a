"""Command-line driver: `peierls-lab <command> --config <path> [--out DIR] [--seed N]`.

Commands map one-to-one onto experiment kinds (bands, geometry, butterfly,
egorov, flow, propagate).  Every run writes a CSV per result series plus a
JSON report mirroring the config, the metrics, and the pass/fail verdicts
against the tolerances set, each checked as config.EXPERIMENTS declares.
Exit status: 0 when all checks hold, 1 on a violation or when the library
refuses the run (the report then carries "refused"), 2 on config errors.

The environment variable PEIERLS_LAB_THREADS (a positive integer; default
the CPUs this process may run on, and anything else exits 2) sets the
worker threads of the butterfly's Chern-torus pool.  Pin the BLAS threads
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS) so that workers x
BLAS threads <= nproc.  Each report records both under "threads"; the
CSVs do not depend on them.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import PeierlsError
from .config import EXPERIMENTS, ConfigError, RunConfig, parse_config, serialize_config

FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return FLOAT_FMT % x
    return str(x)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def emit_plotdata(path: Path, columns: dict) -> None:
    """Whitespace-delimited columns, one file per figure, deterministic order."""
    names = list(columns)
    data = [np.asarray(columns[n]).ravel() for n in names]
    n = len(data[0])
    if any(len(c) != n for c in data):
        raise ValueError("plot columns must share a length")
    with open(path, "w", newline="") as fh:
        fh.write("# " + " ".join(names) + "\n")
        for i in range(n):
            fh.write(" ".join(_fmt(c[i]) for c in data) + "\n")


THREADS_VAR = "PEIERLS_LAB_THREADS"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def n_workers() -> int:
    """Worker count from PEIERLS_LAB_THREADS (a positive integer), or, when
    it is unset or empty, the CPUs this process may run on (its affinity
    mask where the platform has one, else the CPU count); anything else is
    a ConfigError."""
    env = os.environ.get(THREADS_VAR)
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return max(1, os.cpu_count() or 1)
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError([f"{THREADS_VAR}: expected a positive integer, got {env!r}"])
    return n


def thread_report() -> dict:
    """Resolved workers and the BLAS/OpenMP thread variables (None: unset)."""
    return {"workers": n_workers(),
            **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def _build_lattice(cfg: RunConfig):
    from .lattice import Lattice
    if cfg.lattice.basis is not None:
        return Lattice.from_basis(cfg.lattice.basis)
    return Lattice.cubic(cfg.lattice.dim)


def _build_potential(cfg: RunConfig, lattice):
    from .fiber import FourierPotential, mathieu_potential, potential_2d
    p = cfg.potential
    if p.coefficients:
        coeffs = {tuple(int(c) for c in entry["n"]):
                  complex(entry.get("re", 0.0), entry.get("im", 0.0))
                  for entry in p.coefficients}
        return FourierPotential(lattice, coeffs)
    if p.preset == "mathieu":
        return mathieu_potential(p.v, lattice)
    if p.preset == "cosine2d":
        return potential_2d(p.v, p.w, lattice)
    return FourierPotential(lattice, {})        # "free"


def _phi_callables(cfg: RunConfig, dim: int) -> dict:
    """The field keywords of the configured potential preset (phi, grad_phi
    and grad_hess_phi; none for "zero"), each with at most one sine and one
    cosine evaluation per call."""
    spec = cfg.field.phi
    amp, L = spec.amplitude, spec.period
    w = 2 * np.pi / L
    if spec.preset == "zero" or amp == 0.0:
        return {}
    if spec.preset == "cosine":
        # phi = amp prod_l c_l with s_l, c_l = sin, cos(w r_l): each derivative
        # d_l turns the factor c_l into -w s_l.  c[..., shift] over the cyclic
        # shifts of the axes (in 2D the reversal, a view) multiplies axis l by
        # every c_m with m != l, and an off-diagonal Hessian entry of a 3-D
        # pair keeps the third axis's c.  The scales are 0-d arrays, which
        # numpy multiplies faster than floats, to the same bits
        shifts = [np.s_[::-1]] if dim == 2 else [np.roll(np.arange(dim), -j) for j in range(1, dim)]
        thirds = [(l, m, n) for l, m in itertools.combinations(range(dim), 2)
                  for n in range(dim) if n not in (l, m)]
        w0, g_scale, h_scale = map(np.array, (w, -amp * w, amp * w * w))

        def phi(r):
            r = np.asarray(r, float)
            out = amp * np.cos(w * r[..., 0])
            for ax in range(1, dim):
                out = out * np.cos(w * r[..., ax])
            return out

        def sincos(r):
            wr = w0 * np.asarray(r, float)
            return np.sin(wr), np.cos(wr)

        def grad(s, c):
            g = g_scale * s
            for shift in shifts:
                g = g * c[..., shift]
            return g

        def hess(s, c):
            h = s[..., :, None] * s[..., None, :]
            for l, m, n in thirds:
                h[..., l, m] *= c[..., n]
                h[..., m, l] = h[..., l, m]
            full = c[..., 0]
            for ax in range(1, dim):
                full = full * c[..., ax]
            # the diagonal of the fresh (..., d, d) array, as one strided view
            h.reshape(h.shape[:-2] + (dim * dim,))[..., ::dim + 1] = -full[..., None]
            h *= h_scale
            return h

        def grad_hess(r):
            s, c = sincos(r)
            return grad(s, c), hess(s, c)
        return {"phi": phi, "grad_phi": lambda r: grad(*sincos(r)),
                "grad_hess_phi": grad_hess}

    # "sine_ramp": nearly linear around the origin, periodic over the box
    def phi(r):
        r = np.asarray(r, float)
        return -amp * (L / (2 * np.pi)) * np.sin(w * r[..., 0])

    def gphi(r):
        r = np.asarray(r, float)
        out = np.zeros(r.shape)
        out[..., 0] = -amp * np.cos(w * r[..., 0])
        return out

    def grad_hess(r):
        r = np.asarray(r, float)
        out = np.zeros(r.shape + r.shape[-1:])
        out[..., 0, 0] = amp * w * np.sin(w * r[..., 0])
        return gphi(r), out
    return {"phi": phi, "grad_phi": gphi, "grad_hess_phi": grad_hess}


def _build_field(cfg: RunConfig, dim: int, eps: float):
    from .fields import EMFieldConfig
    potential = _phi_callables(cfg, dim)
    fs = cfg.field
    if fs.b == 0.0 and fs.lam == 0.0:
        return EMFieldConfig.zero(dim, eps, **potential)
    return EMFieldConfig.constant(dim, b=fs.b, eps=eps, lam=fs.lam,
                                  gauge=fs.gauge, **potential)


# -- experiment runners ------------------------------------------------------


def _solve_configured_bands(cfg: RunConfig, vector_bands: tuple):
    """Bands of the configured potential on the configured k-grid, with the
    vectors of vector_bands only (the bands the run reads)."""
    # imported at call time, so a rebound fiber.solve_bands is the one used
    from .fiber import solve_bands
    from .lattice import make_kgrid
    lat = _build_lattice(cfg)
    grid = make_kgrid(lat, tuple(cfg.numerics.kgrid))
    return solve_bands(_build_potential(cfg, lat), grid, cfg.numerics.cutoff,
                       cfg.numerics.n_bands, vector_bands)


def run_bands(cfg: RunConfig, out: Path) -> tuple:
    from .fiber import check_gap
    bands = _solve_configured_bands(cfg, ())
    grid, d = bands.kgrid, bands.kgrid.dim
    header = [f"k{i+1}_inv_length" for i in range(d)] + \
        [f"E{n}_energy" for n in range(bands.n_bands)]
    rows = [list(grid.points[p]) + list(bands.energies[:, p])
            for p in range(grid.n_points)]
    write_csv(out / "bands.csv", header, rows)
    emit_plotdata(out / "bands.dat", {
        **{f"k{i+1}": grid.points[:, i] for i in range(d)},
        **{f"E{n}": bands.energies[n] for n in range(bands.n_bands)}})
    return {"gap": check_gap(bands, [cfg.numerics.band_index])}, {}


def run_geometry(cfg: RunConfig, out: Path) -> tuple:
    import dataclasses as dc
    from .geometry import geometric_tensors, wilson_loop
    bands = _solve_configured_bands(cfg, (cfg.numerics.band_index,))
    grid, d = bands.kgrid, bands.kgrid.dim
    geom = geometric_tensors(bands, cfg.numerics.band_index)
    planes = list(itertools.combinations(range(d), 2))
    header = [f"k{i+1}_inv_length" for i in range(d)] + \
        [f"A{i+1}_length" for i in range(d)] + \
        [f"M{i+1}{j+1}_energy_length2" for i in range(d) for j in range(d)] + \
        [f"Omega{a+1}{b+1}_length2" for a, b in planes]
    A = geom.connection.reshape(-1, d)
    M = geom.rw.reshape(-1, d, d)
    Om = geom.curvature.reshape(-1, d, d)
    rows = [list(grid.points[p]) + list(A[p]) + list(M[p].ravel()) +
            [Om[p, a, b] for a, b in planes] for p in range(grid.n_points)]
    write_csv(out / "geometry.csv", header, rows)
    metrics = dict(geom.diagnostics)
    # gauge invariance under re-randomized input phases
    rng = np.random.default_rng(cfg.seed)
    vecs = bands.vectors.copy()
    row = bands.row(cfg.numerics.band_index)
    vecs[row] = vecs[row] * np.exp(1j * rng.uniform(0, 2 * np.pi, vecs.shape[1]))[:, None]
    geom2 = geometric_tensors(dc.replace(bands, vectors=vecs), cfg.numerics.band_index)
    inv_dev = max(float(np.abs(geom.curvature - geom2.curvature).max()),
                  float(np.abs(geom.rw - geom2.rw).max()))
    metrics["gauge_invariance_dev"] = inv_dev
    if geom.chern is not None:
        metrics["chern"] = geom.chern
        metrics["chern_integrality"] = abs(geom.chern - round(geom.chern))
    else:
        zak = float(wilson_loop(geom.frame))
        metrics["zak_phase"] = zak
        metrics["zak_dist_to_0_pi"] = min(
            abs(zak) % (2 * np.pi), abs(abs(zak) % (2 * np.pi) - np.pi),
            abs(abs(zak) % (2 * np.pi) - 2 * np.pi))
    return metrics, {}


def run_butterfly(cfg: RunConfig, out: Path) -> tuple:
    from .hofstadter import butterfly
    table = butterfly(cfg.numerics.q_max, chern_labels=cfg.numerics.chern_labels,
                      n_workers=n_workers())
    rows = [[float(fr), j, lo, hi, "" if c is None else c]
            for fr, bands in table.items() for j, (lo, hi, c) in enumerate(bands)]
    write_csv(out / "butterfly.csv",
              ["alpha_dimensionless", "band_index", "E_min_energy",
               "E_max_energy", "chern"], rows)
    emit_plotdata(out / "butterfly.dat", {
        "alpha": [r[0] for r in rows], "E_min": [r[2] for r in rows],
        "E_max": [r[3] for r in rows]})
    # q subbands at flux p/q, and the spectrum at 1 - alpha mirrors alpha
    edges = {fr: np.sort(np.array([b[:2] for b in bands]).ravel())
             for fr, bands in table.items()}
    sym_dev = max(float(np.abs(e - edges[1 - fr]).max()) for fr, e in edges.items())
    subband_ok = all(len(bands) == fr.denominator for fr, bands in table.items())
    return ({"n_fluxes": len(table), "alpha_symmetry_dev": sym_dev},
            {"subband_count": subband_ok})


def _pipeline_band(cfg: RunConfig):
    from .effective import BandData
    from .geometry import geometric_tensors
    bands = _solve_configured_bands(cfg, (cfg.numerics.band_index,))
    return BandData.from_geometry(geometric_tensors(bands, cfg.numerics.band_index))


def _egorov_grids(cfg: RunConfig) -> list:
    """(grid, field) per eps_list entry: the n^d grid with n =
    quantum.odd_points(macro_box, eps), and the field at the eps =
    macro_box / n it realizes.  Two entries that realize one grid are refused
    (QuantumError): the slope fit would count that grid twice (and with two
    entries, fit a line through one point)."""
    from .quantum import QuantumError, odd_points
    from .weyl import PhaseSpaceGrid
    d, L, eps_list = cfg.lattice.dim, cfg.numerics.macro_box, cfg.numerics.eps_list
    ns = [odd_points(L, eps) for eps in eps_list]
    # eps_list decreases, so equal grids are neighbors
    for a, b, n, m in zip(eps_list, eps_list[1:], ns, ns[1:]):
        if n == m:
            raise QuantumError(f"eps {a!r} and {b!r} both realize the {n}-point grid "
                               f"at macro_box {L!r}")
    return [(PhaseSpaceGrid.build((n,) * d, 1.0, eps=L / n), _build_field(cfg, d, L / n))
            for n in ns]


def run_egorov(cfg: RunConfig, out: Path) -> tuple:
    from .effective import EffectiveHamiltonian
    from .flow import loglog_slope
    from .quantum import egorov_error
    band = _pipeline_band(cfg)
    L = cfg.numerics.macro_box

    def f_obs(k, r):
        return np.sin(k[..., 0]) + 0.3 * np.cos(2 * np.pi * r[..., 0] / L)
    grids = _egorov_grids(cfg)
    ns = [grid.ns[0] for grid, _ in grids]
    eps_used = [grid.eps for grid, _ in grids]
    errors = [egorov_error(f_obs, EffectiveHamiltonian(band, fld), grid, fld,
                           t=cfg.numerics.t_final, dt=cfg.numerics.dt)
              for grid, fld in grids]
    slope = loglog_slope(eps_used, errors)
    write_csv(out / "egorov.csv",
              ["eps_dimensionless", "grid_points", "error_opnorm", "slope_fit"],
              [row + (slope,) for row in zip(eps_used, ns, errors)])
    emit_plotdata(out / "egorov.dat", {"eps": eps_used, "error": errors})
    return {"errors": errors, "eps": eps_used, "slope": slope,
            "error_per_eps2": max(e / h ** 2 for e, h in zip(errors, eps_used))}, {}


def run_flow(cfg: RunConfig, out: Path) -> tuple:
    from .effective import SemiclassicalHamiltonian
    from .flow import FlowState, compare_flows, integrate
    band = _pipeline_band(cfg)
    d = band.lattice.dim
    fld = _build_field(cfg, d, cfg.numerics.eps_list[0])
    st = FlowState.of(np.full(d, 0.7), np.full(d, 0.1))
    rep = compare_flows(st, band, fld, cfg.numerics.eps_list,
                        t_final=cfg.numerics.t_final, dt=cfg.numerics.dt)
    hsc = SemiclassicalHamiltonian(band, fld)
    traj = integrate(st, hsc, fld, 10.0, cfg.numerics.dt, band=band)
    drift = traj.energy_drift()
    write_csv(out / "flow.csv", ["eps_dimensionless", "distance_phase_space"],
              zip(rep["eps"], rep["distance"]))
    emit_plotdata(out / "flow.dat", {"eps": rep["eps"], "distance": rep["distance"]})
    return {"slope": rep["slope"], "energy_drift": drift}, {}


def run_propagate(cfg: RunConfig, out: Path) -> tuple:
    from .quantum import SPLIT_PROBE_TOL, semiclassical_limit_check
    lat = _build_lattice(cfg)
    pot = _build_potential(cfg, lat)
    fld = _build_field(cfg, lat.dim, cfg.numerics.eps_list[0])
    rep = semiclassical_limit_check(
        pot, fld, cfg.numerics.band_index, cfg.numerics.eps_list,
        t=cfg.numerics.t_final, macro_box=cfg.numerics.macro_box,
        cutoff=cfg.numerics.cutoff)
    write_csv(out / "propagate.csv", ["eps_dimensionless", "error_point", "error_avg"],
              zip(rep["eps"], rep["error_point"], rep["error_avg"]))
    emit_plotdata(out / "propagate.dat", {
        "eps": rep["eps"], "error_point": rep["error_point"],
        "error_avg": rep["error_avg"]})
    # each eps's split-step probe is a health figure: the report JSON only
    return {"slope_point": rep["slope_point"], "slope_avg": rep["slope_avg"],
            "details": rep["details"], "split_probe_tol": SPLIT_PROBE_TOL}, {}


# each runner returns its metrics and its structural checks (no tolerance read)
_RUNNERS = {"bands": run_bands, "geometry": run_geometry, "butterfly": run_butterfly,
            "egorov": run_egorov, "flow": run_flow, "propagate": run_propagate}
_COMPARE = {">=": operator.ge, "<=": operator.le, "<": operator.lt}


def _egorov_memory(cfg: RunConfig, potential) -> None:
    from .quantum import check_egorov_memory
    for grid, fld in _egorov_grids(cfg):
        check_egorov_memory(grid, fld)


def _propagate_memory(cfg: RunConfig, potential) -> None:
    from .quantum import check_limit_memory
    check_limit_memory(potential, cfg.numerics.cutoff, cfg.numerics.eps_list,
                       cfg.numerics.macro_box)


# the whole-run estimates of the experiments that read macro_box, from the
# config and its potential: dense N x N steps on n^d grids, n ~ macro_box / eps
_MEMORY_CHECKS = {"egorov": _egorov_memory, "propagate": _propagate_memory}


def run(cfg: RunConfig, out_dir=None) -> dict:
    """Run one experiment, make every declared check whose tolerance is set
    and write the report; returns it.  A refusal (a PeierlsError) is written
    as "refused" and raised again."""
    report = {"threads": thread_report(), "config": json.loads(serialize_config(cfg))}
    out = Path(out_dir if out_dir is not None else cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg.experiment}_report.json"
    t0 = time.time()
    try:
        metrics, checks = _RUNNERS[cfg.experiment](cfg, out)
    except PeierlsError as exc:
        report.update(refused={"error": type(exc).__name__, "message": str(exc)},
                      passed=False)
        path.write_text(json.dumps(report, indent=2, sort_keys=True))
        raise
    tol = cfg.numerics.tolerances
    for c in EXPERIMENTS[cfg.experiment].checks:
        if c.key in tol:
            ok = bool(_COMPARE[c.op](metrics[c.metric], tol[c.key]))
            checks[c.name] = checks.get(c.name, True) and ok
    report.update(
        metrics={k: (v.tolist() if isinstance(v, np.ndarray) else v)
                 for k, v in metrics.items()},
        checks=checks, passed=all(checks.values()),
        elapsed_seconds=round(time.time() - t0, 3))
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=float))
    return report


def _preflight(cfg: RunConfig) -> None:
    """Build the lattice and the potential, then what the run builds first
    from the numerics keys its experiment reads: for kgrid, the band solve's
    memory estimate (before anything grid- or basis-sized exists) and the
    k-grid; for cutoff and n_bands, the plane-wave basis; for eps_list, the
    field; for macro_box, the dense run's memory estimate at every eps.  A
    config the library refuses then raises a ConfigError naming the config
    path before any output exists."""
    from .fiber import check_band_memory, fiber_basis
    from .lattice import make_kgrid
    num, reads = cfg.numerics, EXPERIMENTS[cfg.experiment].reads
    path = "lattice.basis"      # parse_config keeps lattice.dim in {1, 2, 3}
    try:
        lat = _build_lattice(cfg)
        path = "potential.coefficients" if cfg.potential.coefficients else "potential.preset"
        pot = _build_potential(cfg, lat)
        if "kgrid" in reads:
            path = "numerics.kgrid"
            # the most vectors a run on numerics.kgrid stores: its band's
            check_band_memory(pot, num.kgrid, num.cutoff, num.n_bands, (num.band_index,))
            make_kgrid(lat, tuple(num.kgrid))
        if "cutoff" in reads:
            path = "numerics.cutoff"
            fiber_basis(pot, num.cutoff)
        if "n_bands" in reads:
            path = "numerics.n_bands"
            fiber_basis(pot, num.cutoff, num.n_bands)
        if "eps_list" in reads:
            path = "field"
            _build_field(cfg, lat.dim, num.eps_list[0])
        if "macro_box" in reads:
            path = "numerics.eps_list"
            _MEMORY_CHECKS[cfg.experiment](cfg, pot)
    except PeierlsError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    except OverflowError as exc:    # macro_box / eps beyond any grid size
        raise ConfigError([f"numerics.macro_box: {exc}"]) from exc


def main(argv=None) -> int:
    import argparse     # only the command line needs it, not the library runs
    parser = argparse.ArgumentParser(
        prog="peierls-lab",
        description="Band structure, band geometry, effective dynamics and "
                    "Hofstadter experiments at desk scale.")
    parser.add_argument("command", choices=sorted(_RUNNERS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="rng seed override")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(Path(args.config).read_text())
        n_workers()     # a bad PEIERLS_LAB_THREADS fails before any output
        _preflight(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.experiment != args.command:
        print(f"config error: config describes {cfg.experiment!r}, "
              f"command is {args.command!r}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    try:
        report = run(cfg, args.out)
    except PeierlsError as exc:
        print(f"{cfg.experiment}: refused: {type(exc).__name__}: {exc}")
        return 1
    for name, ok in report["checks"].items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    print(f"{cfg.experiment}: {'pass' if report['passed'] else 'FAIL'} "
          f"({report['elapsed_seconds']} s)")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
