"""Command-line driver: `peierls-lab <command> --config <path> [--out DIR] [--seed N]`.

Commands map one-to-one onto experiment kinds (bands, geometry, butterfly,
egorov, flow, propagate).  Every run writes a CSV per result series plus a
JSON report mirroring the config, the metrics, and the pass/fail verdicts
against the declared tolerances.  Exit status: 0 when all declared
tolerances hold, 1 on a violation, 2 on config errors.

The environment variable PEIERLS_LAB_THREADS (a positive integer; default
the CPU count, and anything else exits 2) sets the worker threads: the
butterfly's Chern-torus pool, and in `propagate` whether the flow oracle
runs on a background thread beside the dense eigendecompositions (any
value above 1) or inline.  Pin the BLAS threads (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS, MKL_NUM_THREADS) so that workers x BLAS threads <= nproc.
Each report records both under "threads"; the CSVs do not depend on them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config, serialize_config

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
    """Worker count from PEIERLS_LAB_THREADS (a positive integer), or the
    CPU count when it is unset or empty; anything else is a ConfigError."""
    env = os.environ.get(THREADS_VAR)
    if not env:
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


def _phi_callables(cfg: RunConfig, dim: int):
    """phi and its gradient and Hessian for the configured preset, each with
    at most one sine and one cosine evaluation per call ("cosine" in
    d <= 2, which parse_config enforces; "sine_ramp" in any d)."""
    fs = cfg.fieldspec
    amp, L = fs.phi_amplitude, fs.phi_period
    w = 2 * np.pi / L
    if fs.phi_preset == "zero" or amp == 0.0:
        return None, None, None
    if fs.phi_preset == "cosine":
        # phi = amp prod_l cos(w r_l)
        def phi(r):
            r = np.asarray(r, float)
            out = amp * np.cos(w * r[..., 0])
            for ax in range(1, dim):
                out = out * np.cos(w * r[..., ax])
            return out

        if dim == 1:
            def gphi(r):
                return (-amp * w) * np.sin(w * np.asarray(r, float))

            def hphi(r):
                return (-amp * w * w) * np.cos(w * np.asarray(r, float))[..., None]
        else:
            def sincos(r):
                wr = w * np.asarray(r, float)
                return np.sin(wr), np.cos(wr)

            def gphi(r):
                # d_l phi = -amp w sin(w r_l) cos(w r_other)
                s, c = sincos(r)
                return (-amp * w) * s * c[..., ::-1]

            def hphi(r):
                # off-diagonal amp w^2 s_1 s_2, diagonal -amp w^2 c_1 c_2
                s, c = sincos(r)
                h = s[..., :, None] * s[..., None, :]
                h[..., _DIAG2, _DIAG2] = -(c[..., 0] * c[..., 1])[..., None]
                return (amp * w * w) * h
        return phi, gphi, hphi

    # "sine_ramp": nearly linear around the origin, periodic over the box
    def phi(r):
        r = np.asarray(r, float)
        return -amp * (L / (2 * np.pi)) * np.sin(w * r[..., 0])

    def gphi(r):
        r = np.asarray(r, float)
        out = np.zeros(r.shape)
        out[..., 0] = -amp * np.cos(w * r[..., 0])
        return out

    def hphi(r):
        r = np.asarray(r, float)
        out = np.zeros(r.shape + r.shape[-1:])
        out[..., 0, 0] = amp * w * np.sin(w * r[..., 0])
        return out
    return phi, gphi, hphi


_DIAG2 = np.arange(2)


def _build_field(cfg: RunConfig, dim: int, eps: float):
    from .fields import EMFieldConfig
    phi, gphi, hphi = _phi_callables(cfg, dim)
    fs = cfg.fieldspec
    if dim == 1 or (fs.b == 0.0 and fs.lam == 0.0):
        return EMFieldConfig.zero(dim, eps, phi=phi, grad_phi=gphi, hess_phi=hphi)
    return EMFieldConfig.constant(dim, b=fs.b, eps=eps, lam=fs.lam,
                                  gauge=fs.gauge, phi=phi, grad_phi=gphi,
                                  hess_phi=hphi)


# -- experiment runners ------------------------------------------------------


def _solve_configured_bands(cfg: RunConfig):
    """Bands of the configured potential on the configured k-grid."""
    # imported at call time, so a rebound fiber.solve_bands is the one used
    from .fiber import solve_bands
    from .lattice import make_kgrid
    lat = _build_lattice(cfg)
    grid = make_kgrid(lat, tuple(cfg.numerics.kgrid))
    return solve_bands(_build_potential(cfg, lat), grid, cfg.numerics.cutoff,
                       cfg.numerics.n_bands)


def run_bands(cfg: RunConfig, out: Path) -> dict:
    from .fiber import check_gap
    bands = _solve_configured_bands(cfg)
    grid = bands.kgrid
    d = grid.dim
    header = [f"k{i+1}_inv_length" for i in range(d)] + \
        [f"E{n}_energy" for n in range(bands.n_bands)]
    rows = [list(grid.points[p]) + list(bands.energies[:, p])
            for p in range(grid.n_points)]
    write_csv(out / "bands.csv", header, rows)
    emit_plotdata(out / "bands.dat", {
        **{f"k{i+1}": grid.points[:, i] for i in range(d)},
        **{f"E{n}": bands.energies[n] for n in range(bands.n_bands)}})
    gap = check_gap(bands, [cfg.numerics.band_index])
    metrics = {"gap": gap}
    checks = {}
    if "min_gap" in cfg.numerics.tolerances:
        checks["gap_above_min"] = bool(gap >= cfg.numerics.tolerances["min_gap"])
    return {"metrics": metrics, "checks": checks}


def run_geometry(cfg: RunConfig, out: Path) -> dict:
    import dataclasses as dc
    from .geometry import geometric_tensors, wilson_loop
    bands = _solve_configured_bands(cfg)
    grid = bands.kgrid
    geom = geometric_tensors(bands, cfg.numerics.band_index)
    d = grid.dim
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
    vecs[cfg.numerics.band_index] = vecs[cfg.numerics.band_index] * np.exp(
        1j * rng.uniform(0, 2 * np.pi, vecs.shape[1]))[:, None]
    geom2 = geometric_tensors(dc.replace(bands, vectors=vecs), cfg.numerics.band_index)
    inv_dev = max(float(np.abs(geom.curvature - geom2.curvature).max()),
                  float(np.abs(geom.rw - geom2.rw).max()))
    metrics["gauge_invariance_dev"] = inv_dev
    checks = {}
    if geom.chern is not None:
        metrics["chern"] = geom.chern
        metrics["chern_integrality"] = abs(geom.chern - round(geom.chern))
        if "chern_tol" in cfg.numerics.tolerances:
            checks["chern_integral"] = bool(
                metrics["chern_integrality"] < cfg.numerics.tolerances["chern_tol"])
    else:
        zak = float(wilson_loop(geom.frame))
        metrics["zak_phase"] = zak
        dist = min(abs(zak) % (2 * np.pi), abs(abs(zak) % (2 * np.pi) - np.pi),
                   abs(abs(zak) % (2 * np.pi) - 2 * np.pi))
        metrics["zak_dist_to_0_pi"] = dist
        if "zak_tol" in cfg.numerics.tolerances:
            checks["zak_quantized"] = bool(dist < cfg.numerics.tolerances["zak_tol"])
    if "gauge_tol" in cfg.numerics.tolerances:
        checks["gauge_invariant"] = bool(inv_dev < cfg.numerics.tolerances["gauge_tol"])
    return {"metrics": metrics, "checks": checks}


def run_butterfly(cfg: RunConfig, out: Path) -> dict:
    from .hofstadter import butterfly
    data = butterfly(cfg.numerics.q_max, chern_labels=cfg.numerics.chern_labels,
                     n_workers=n_workers())
    rows = [[float(e[0]), e[1], e[2], e[3], "" if e[4] is None else e[4]]
            for e in data.entries]
    write_csv(out / "butterfly.csv",
              ["alpha_dimensionless", "band_index", "E_min_energy",
               "E_max_energy", "chern"], rows)
    emit_plotdata(out / "butterfly.dat", {
        "alpha": [float(e[0]) for e in data.entries],
        "E_min": [e[2] for e in data.entries],
        "E_max": [e[3] for e in data.entries]})
    # structural checks
    subband_ok = True
    for fr in data.fluxes():
        if len(data.intervals(fr)) != fr.denominator:
            subband_ok = False
    sym_dev = 0.0
    from fractions import Fraction
    for fr in data.fluxes():
        other = Fraction(1) - fr
        iv1 = np.sort(np.array(data.intervals(fr)).ravel())
        iv2 = np.sort(np.array(data.intervals(other)).ravel())
        if iv2.size:
            sym_dev = max(sym_dev, float(np.abs(iv1 - iv2).max()))
    metrics = {"n_fluxes": len(data.fluxes()), "alpha_symmetry_dev": sym_dev}
    checks = {"subband_count": subband_ok}
    if "symmetry_tol" in cfg.numerics.tolerances:
        checks["alpha_symmetry"] = bool(sym_dev < cfg.numerics.tolerances["symmetry_tol"])
    return {"metrics": metrics, "checks": checks}


def _pipeline_band(cfg: RunConfig):
    from .effective import BandData
    from .geometry import geometric_tensors
    bands = _solve_configured_bands(cfg)
    return BandData.from_geometry(geometric_tensors(bands, cfg.numerics.band_index))


def run_egorov(cfg: RunConfig, out: Path) -> dict:
    import dataclasses as dc
    from .effective import EffectiveHamiltonian
    from .quantum import egorov_error
    from .weyl import PhaseSpaceGrid
    band = _pipeline_band(cfg)
    d = band.lattice.dim
    rows = []
    errors = []
    eps_used = []
    for eps in cfg.numerics.eps_list:
        n = int(round(cfg.numerics.macro_box / eps))
        if n % 2 == 0:
            n += 1
        eps_eff = cfg.numerics.macro_box / n
        fld = _build_field(cfg, d, eps_eff)
        heff = EffectiveHamiltonian(band, fld)
        grid = PhaseSpaceGrid.build((n,) * d, 1.0, eps=eps_eff)
        L = cfg.numerics.macro_box
        def f_obs(k, r, L=L):
            return np.sin(k[..., 0]) + 0.3 * np.cos(2 * np.pi * r[..., 0] / L)
        err = egorov_error(f_obs, heff, grid, fld, t=cfg.numerics.t_final,
                           dt=cfg.numerics.dt,
                           flow_shape=(17,) * d if n > 33 and d == 2 else None)
        errors.append(err)
        eps_used.append(eps_eff)
        rows.append([eps_eff, n, err])
    slope = float(np.polyfit(np.log(eps_used), np.log(errors), 1)[0])
    rows = [row + [slope] for row in rows]
    write_csv(out / "egorov.csv",
              ["eps_dimensionless", "grid_points", "error_opnorm", "slope_fit"],
              rows)
    emit_plotdata(out / "egorov.dat", {"eps": eps_used, "error": errors})
    metrics = {"errors": errors, "eps": eps_used, "slope": slope}
    checks = {}
    if "slope_min" in cfg.numerics.tolerances:
        checks["slope"] = bool(slope >= cfg.numerics.tolerances["slope_min"])
    return {"metrics": metrics, "checks": checks}


def run_flow(cfg: RunConfig, out: Path) -> dict:
    from .effective import SemiclassicalHamiltonian
    from .flow import FlowState, compare_flows, integrate
    band = _pipeline_band(cfg)
    d = band.lattice.dim
    fld = _build_field(cfg, d, cfg.numerics.eps_list[0])
    k0 = np.full(d, 0.7)
    r0 = np.full(d, 0.1)
    st = FlowState.of(k0, r0)
    rep = compare_flows(st, band, fld, cfg.numerics.eps_list,
                        t_final=cfg.numerics.t_final, dt=cfg.numerics.dt)
    hsc = SemiclassicalHamiltonian(band, fld)
    traj = integrate(st, hsc, fld, 10.0, cfg.numerics.dt, band=band,
                     halving_budget=None)
    drift = traj.energy_drift()
    rows = [[e, dist] for e, dist in zip(rep["eps"], rep["distance"])]
    write_csv(out / "flow.csv", ["eps_dimensionless", "distance_phase_space"], rows)
    emit_plotdata(out / "flow.dat", {"eps": rep["eps"], "distance": rep["distance"]})
    metrics = {"slope": rep["slope"], "energy_drift": drift}
    checks = {}
    tol = cfg.numerics.tolerances
    if "slope_min" in tol and "slope_max" in tol:
        checks["slope"] = bool(tol["slope_min"] <= rep["slope"] <= tol["slope_max"])
    if "drift_tol" in tol:
        checks["energy_drift"] = bool(drift < tol["drift_tol"])
    return {"metrics": metrics, "checks": checks}


def run_propagate(cfg: RunConfig, out: Path) -> dict:
    from .quantum import semiclassical_limit_check
    lat = _build_lattice(cfg)
    pot = _build_potential(cfg, lat)
    fld = _build_field(cfg, lat.dim, cfg.numerics.eps_list[0])
    rep = semiclassical_limit_check(
        pot, fld, cfg.numerics.band_index, cfg.numerics.eps_list,
        t=cfg.numerics.t_final, macro_box=cfg.numerics.macro_box,
        cutoff=cfg.numerics.cutoff, n_workers=n_workers())
    rows = [[e, ep, ea] for e, ep, ea in
            zip(rep["eps"], rep["error_point"], rep["error_avg"])]
    write_csv(out / "propagate.csv",
              ["eps_dimensionless", "error_point", "error_avg"], rows)
    emit_plotdata(out / "propagate.dat", {
        "eps": rep["eps"], "error_point": rep["error_point"],
        "error_avg": rep["error_avg"]})
    metrics = {"slope_point": rep["slope_point"], "slope_avg": rep["slope_avg"]}
    checks = {}
    if "slope_min" in cfg.numerics.tolerances:
        checks["slope_point"] = bool(
            rep["slope_point"] >= cfg.numerics.tolerances["slope_min"])
    return {"metrics": metrics, "checks": checks}


_RUNNERS = {
    "bands": run_bands,
    "geometry": run_geometry,
    "butterfly": run_butterfly,
    "egorov": run_egorov,
    "flow": run_flow,
    "propagate": run_propagate,
}


def run(cfg: RunConfig, out_dir=None) -> dict:
    """Dispatch one experiment; returns the report dictionary."""
    threads = thread_report()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    result = _RUNNERS[cfg.experiment](cfg, out)
    report = {
        "threads": threads,
        "config": json.loads(serialize_config(cfg)),
        "metrics": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                    for k, v in result["metrics"].items()},
        "checks": result["checks"],
        "passed": all(result["checks"].values()) if result["checks"] else True,
        "elapsed_seconds": round(time.time() - t0, 3),
    }
    with open(out / f"{cfg.experiment}_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
    return report


def main(argv=None) -> int:
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
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.experiment != args.command:
        print(f"config error: config describes {cfg.experiment!r}, "
              f"command is {args.command!r}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    report = run(cfg, args.out)
    for name, ok in report["checks"].items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    print(f"{cfg.experiment}: {'pass' if report['passed'] else 'FAIL'} "
          f"({report['elapsed_seconds']} s)")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
