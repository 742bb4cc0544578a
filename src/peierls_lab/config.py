"""Run configuration: strict JSON parsing, validation and serialization.

Configs are plain JSON objects with nested sections.  Validation is strict:
unknown keys are fatal (silent typos corrupt sweeps), missing required keys
and value violations are collected and reported with their field paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["RunConfig", "ConfigError", "parse_config", "serialize_config"]

EXPERIMENTS = ("bands", "geometry", "butterfly", "egorov", "flow", "propagate")
POTENTIAL_PRESETS = ("mathieu", "cosine2d", "free")
PHI_PRESETS = ("zero", "cosine", "sine_ramp")
GAUGES = ("symmetric", "landau")


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class LatticeSpec:
    dim: int = 1
    basis: list = None  # rows; identity when omitted


@dataclass
class PotentialSpec:
    preset: str = "mathieu"       # one of POTENTIAL_PRESETS
    v: float = 1.0
    w: float = 0.0
    coefficients: list = None     # [{"n": [..], "re": .., "im": ..}]


@dataclass
class FieldSpec:
    b: float = 0.0
    lam: float = 0.0
    gauge: str = "symmetric"      # one of GAUGES
    phi_preset: str = "zero"      # one of PHI_PRESETS
    phi_amplitude: float = 0.0
    phi_period: float = 1.0


@dataclass
class NumericsSpec:
    cutoff: int = 8
    kgrid: list = field(default_factory=lambda: [64])
    n_bands: int = 4
    band_index: int = 0
    eps_list: list = field(default_factory=lambda: [0.1, 0.05, 0.025])
    dt: float = 0.02
    t_final: float = 1.0
    # unused: butterfly edges are exact and Chern labels pick their own
    # grid; kept so configs that set it still parse
    theta_resolution: int = 64
    q_max: int = 12
    chern_labels: bool = False
    macro_box: float = 4.0
    tolerances: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    experiment: str
    lattice: LatticeSpec
    potential: PotentialSpec
    fieldspec: FieldSpec
    numerics: NumericsSpec
    out_dir: str = "out"
    seed: int = 0


_SCHEMA = {
    "experiment": str,
    "lattice": {"dim": int, "basis": list},
    "potential": {"preset": str, "v": (int, float), "w": (int, float),
                  "coefficients": list},
    "field": {"b": (int, float), "lam": (int, float), "gauge": str,
              "phi": {"preset": str, "amplitude": (int, float),
                      "period": (int, float)}},
    "numerics": {"cutoff": int, "kgrid": list, "n_bands": int,
                 "band_index": int, "eps_list": list, "dt": (int, float),
                 "t_final": (int, float), "theta_resolution": int,
                 "q_max": int, "chern_labels": bool,
                 "macro_box": (int, float), "tolerances": dict},
    "output": {"dir": str},
    "seed": int,
}

_REQUIRED = ("experiment",)


def _is_a(value, spec) -> bool:
    """isinstance for schema types that keeps JSON true/false out of int and
    float fields (bool subclasses int)."""
    return isinstance(value, spec) and (spec is bool or not isinstance(value, bool))


def _walk(node, schema, path, problems):
    if not isinstance(node, dict):
        problems.append(f"{path or '<root>'}: expected an object")
        return
    for key, val in node.items():
        if key not in schema:
            problems.append(f"unknown key: {path}{key}")
            continue
        spec = schema[key]
        if isinstance(spec, dict):
            _walk(val, spec, f"{path}{key}.", problems)
        elif not _is_a(val, spec):
            problems.append(f"{path}{key}: expected {spec}, got {type(val).__name__}")


def _nonfinite(node, path, problems):
    """Report every Infinity or NaN (which json.loads accepts) by its path;
    a list is reported once, under its own path."""
    if isinstance(node, dict):
        for key, val in node.items():
            _nonfinite(val, f"{path}.{key}" if path else key, problems)
    elif isinstance(node, list):
        if any(isinstance(v, float) and not math.isfinite(v) for v in node):
            problems.append(f"{path}: must be finite")
        for val in node:
            if isinstance(val, (dict, list)):
                _nonfinite(val, path, problems)
    elif isinstance(node, float) and not math.isfinite(node):
        problems.append(f"{path}: must be finite")


def _section(node: dict, key: str) -> dict:
    """node[key] when it is an object, else {} (_walk reports the rest)."""
    value = node.get(key, {})
    return value if isinstance(value, dict) else {}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; raises ConfigError listing every
    violation with its field path."""
    problems = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError(["<root>: expected an object"])
    _walk(raw, _SCHEMA, "", problems)
    _nonfinite(raw, "", problems)
    for key in _REQUIRED:
        if key not in raw:
            problems.append(f"missing required key: {key}")
    exp = raw.get("experiment")
    if exp is not None and exp not in EXPERIMENTS:
        problems.append(f"experiment: must be one of {EXPERIMENTS}")
    pot_raw, field_raw, num_raw = (_section(raw, key)
                                   for key in ("potential", "field", "numerics"))
    phi_raw = _section(field_raw, "phi")
    for path, node, key, names in (
            ("potential.preset", pot_raw, "preset", POTENTIAL_PRESETS),
            ("field.gauge", field_raw, "gauge", GAUGES),
            ("field.phi.preset", phi_raw, "preset", PHI_PRESETS)):
        value = node.get(key)
        if isinstance(value, str) and value not in names:
            problems.append(f"{path}: unknown value {value!r}, must be one of {names}")
    dim = _section(raw, "lattice").get("dim", 1)
    if phi_raw.get("preset") == "cosine" and _is_a(dim, int) and dim > 2:
        # phi = prod_l cos(w r_l) has closed-form derivatives for d <= 2 only
        problems.append("field.phi.preset: 'cosine' needs lattice.dim <= 2")
    if exp == "egorov" and _is_a(dim, int) and dim > 2:
        # dense N x N operators on the n^d position grid (n ~ macro_box / eps):
        # a 3-D run at n = 9, then 13, was still going after 5 minutes at
        # 1.8 GB peak RSS on a 2-vCPU machine
        problems.append("lattice.dim: experiment 'egorov' needs lattice.dim <= 2, "
                        "the limit of its dense n^d x n^d operators")
    if exp == "propagate" and _is_a(dim, int) and dim != 1:
        # quantum.semiclassical_limit_check is one-dimensional
        problems.append("lattice.dim: experiment 'propagate' needs lattice.dim == 1")
    period = phi_raw.get("period")
    if _is_a(period, (int, float)) and period <= 0:
        problems.append("field.phi.period: must be a positive number")
    tols = num_raw.get("tolerances", {})
    if isinstance(tols, dict):
        for name, value in tols.items():
            if not _is_a(value, (int, float)) or value <= 0:
                problems.append(f"numerics.tolerances.{name}: must be a positive number")
    n_bands = num_raw.get("n_bands")
    if _is_a(n_bands, int) and n_bands < 1:
        problems.append("numerics.n_bands: must be >= 1")
    q_max = num_raw.get("q_max")
    if _is_a(q_max, int) and q_max < 1:
        problems.append("numerics.q_max: must be >= 1")
    theta_resolution = num_raw.get("theta_resolution")
    if _is_a(theta_resolution, int) and theta_resolution < 2:
        problems.append("numerics.theta_resolution: must be >= 2")
    eps_list = num_raw.get("eps_list")
    if isinstance(eps_list, list) and exp in ("egorov", "propagate", "flow"):
        if any(not _is_a(e, (int, float)) or e <= 0 for e in eps_list):
            problems.append("numerics.eps_list: entries must be positive numbers")
        elif any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            problems.append("numerics.eps_list: must be strictly decreasing")
    if problems:
        raise ConfigError(problems)

    lat = LatticeSpec(**raw.get("lattice", {}))
    pot = PotentialSpec(**raw.get("potential", {}))
    fr = dict(raw.get("field", {}))
    phi = fr.pop("phi", {})
    fs = FieldSpec(
        b=fr.get("b", 0.0), lam=fr.get("lam", 0.0),
        gauge=fr.get("gauge", "symmetric"),
        phi_preset=phi.get("preset", "zero"),
        phi_amplitude=phi.get("amplitude", 0.0),
        phi_period=phi.get("period", 1.0))
    num = NumericsSpec(**num_raw)
    out = raw.get("output", {}).get("dir", "out")
    return RunConfig(experiment=exp, lattice=lat, potential=pot, fieldspec=fs,
                     numerics=num, out_dir=out, seed=raw.get("seed", 0))


def serialize_config(cfg: RunConfig) -> str:
    obj = {
        "experiment": cfg.experiment,
        "lattice": {"dim": cfg.lattice.dim,
                    **({"basis": cfg.lattice.basis} if cfg.lattice.basis else {})},
        "potential": {"preset": cfg.potential.preset, "v": cfg.potential.v,
                      "w": cfg.potential.w,
                      **({"coefficients": cfg.potential.coefficients}
                         if cfg.potential.coefficients else {})},
        "field": {"b": cfg.fieldspec.b, "lam": cfg.fieldspec.lam,
                  "gauge": cfg.fieldspec.gauge,
                  "phi": {"preset": cfg.fieldspec.phi_preset,
                          "amplitude": cfg.fieldspec.phi_amplitude,
                          "period": cfg.fieldspec.phi_period}},
        "numerics": {"cutoff": cfg.numerics.cutoff, "kgrid": cfg.numerics.kgrid,
                     "n_bands": cfg.numerics.n_bands,
                     "band_index": cfg.numerics.band_index,
                     "eps_list": cfg.numerics.eps_list, "dt": cfg.numerics.dt,
                     "t_final": cfg.numerics.t_final,
                     "theta_resolution": cfg.numerics.theta_resolution,
                     "q_max": cfg.numerics.q_max,
                     "chern_labels": cfg.numerics.chern_labels,
                     "macro_box": cfg.numerics.macro_box,
                     "tolerances": cfg.numerics.tolerances},
        "output": {"dir": cfg.out_dir},
        "seed": cfg.seed,
    }
    return json.dumps(obj, indent=2, sort_keys=True)
