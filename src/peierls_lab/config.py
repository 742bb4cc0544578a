"""Run configuration: strict JSON parsing, validation and serialization.

Configs are plain JSON objects with nested sections.  The spec dataclasses
below are the schema: a field's name is its JSON key, its annotation the
JSON type (a float field also takes a JSON integer, no number field takes
true or false), its default the value of an omitted key, and a field with
no default is required.  A nested spec is a nested object, so every
attribute path is the JSON path (`cfg.field.phi.amplitude` reads
`field.phi.amplitude`).  `parse_config` builds a RunConfig from these
declarations and `serialize_config` writes one back with
`dataclasses.asdict`; no key is listed anywhere else.

Validation is strict: unknown keys are fatal (silent typos corrupt sweeps),
missing required keys, wrong types and value violations are collected and
reported with their field paths.
"""

import collections
import dataclasses
import json
import math
from dataclasses import MISSING, dataclass

__all__ = ["RunConfig", "ConfigError", "parse_config", "serialize_config"]

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
    basis: list = None  # dim rows of dim numbers; identity when omitted


@dataclass
class PotentialSpec:
    preset: str = "mathieu"       # one of POTENTIAL_PRESETS
    v: float = 1.0
    w: float = 0.0
    coefficients: list = None     # [{"n": [..], "re": .., "im": ..}]


@dataclass
class PhiSpec:
    preset: str = "zero"          # one of PHI_PRESETS
    amplitude: float = 0.0
    period: float = 1.0


@dataclass
class FieldSpec:
    b: float = 0.0
    lam: float = 0.0
    gauge: str = "symmetric"      # one of GAUGES
    phi: PhiSpec = dataclasses.field(default_factory=PhiSpec)


@dataclass
class NumericsSpec:
    cutoff: int = 8
    kgrid: list = dataclasses.field(default_factory=lambda: [64])
    n_bands: int = 4
    band_index: int = 0
    eps_list: list = dataclasses.field(default_factory=lambda: [0.1, 0.05, 0.025])
    dt: float = 0.02
    t_final: float = 1.0
    # unused: butterfly edges are exact and Chern labels pick their own
    # grid; kept so configs that set it still parse
    theta_resolution: int = 64
    q_max: int = 12
    chern_labels: bool = False
    macro_box: float = 4.0
    tolerances: dict = dataclasses.field(default_factory=dict)


@dataclass
class OutputSpec:
    dir: str = "out"


@dataclass
class RunConfig:
    experiment: str               # required; a key of EXPERIMENTS
    lattice: LatticeSpec = dataclasses.field(default_factory=LatticeSpec)
    potential: PotentialSpec = dataclasses.field(default_factory=PotentialSpec)
    field: FieldSpec = dataclasses.field(default_factory=FieldSpec)
    numerics: NumericsSpec = dataclasses.field(default_factory=NumericsSpec)
    output: OutputSpec = dataclasses.field(default_factory=OutputSpec)
    seed: int = 0


ALL_DIMS = (1, 2, 3)
# made when numerics.tolerances sets `key`, and holds when `metric op tolerance`
Check = collections.namedtuple("Check", "name metric key op dims", defaults=[ALL_DIMS])


@dataclass(frozen=True)
class Experiment:
    """What an experiment reads and checks: its Checks (two under one name
    must both hold); the lattice.dim values it runs in, and why no other;
    the bound on numerics.band_index: "n_bands" (n_bands bands are solved
    on numerics.kgrid, which the CLI builds first), a number (that many are
    solved on a grid of its own) or None (no band is solved, band_index and
    cutoff are not read); how many eps_list entries it needs, 0 meaning
    eps_list, dt and t_final are not read (a slope check needs two)."""
    checks: tuple
    dims: tuple = ALL_DIMS
    dims_reason: str = ""
    band_bound: object = "n_bands"
    n_eps: int = 0


EXPERIMENTS = {
    "bands": Experiment((Check("gap_above_min", "gap", "min_gap", ">="),)),
    "geometry": Experiment((
        Check("chern_integral", "chern_integrality", "chern_tol", "<", (2, 3)),
        Check("zak_quantized", "zak_dist_to_0_pi", "zak_tol", "<", (1,)),
        Check("gauge_invariant", "gauge_invariance_dev", "gauge_tol", "<"))),
    "butterfly": Experiment((
        Check("alpha_symmetry", "alpha_symmetry_dev", "symmetry_tol", "<"),),
        band_bound=None),
    # dense N x N operators on the n^d position grid (n ~ macro_box / eps):
    # a 3-D run at n = 9, then 13, was still going after 5 minutes at
    # 1.8 GB peak RSS on a 2-vCPU machine
    "egorov": Experiment((
        Check("slope", "slope", "slope_min", ">="),
        Check("error_within_eps2_budget", "error_per_eps2", "error_per_eps2", "<=")),
        dims=(1, 2), n_eps=1,
        dims_reason="needs lattice.dim <= 2, the limit of its dense n^d x n^d operators"),
    "flow": Experiment((
        Check("slope", "slope", "slope_min", ">="),
        Check("slope", "slope", "slope_max", "<="),
        Check("energy_drift", "energy_drift", "drift_tol", "<")), n_eps=2),
    # quantum.semiclassical_limit_check is 1-D and solves quantum.LIMIT_BANDS = 3 bands
    "propagate": Experiment((Check("slope_point", "slope_point", "slope_min", ">="),),
                            dims=(1,), dims_reason="needs lattice.dim == 1",
                            band_bound=3, n_eps=2),
}


def _is_a(value, spec) -> bool:
    """isinstance for schema types that keeps JSON true/false out of int and
    float fields (bool subclasses int)."""
    return isinstance(value, spec) and (spec is bool or not isinstance(value, bool))


def _build(cls, node, path, problems):
    """An instance of the spec dataclass cls from the JSON object node,
    path being the prefix of its keys.  Unknown keys and values of the
    wrong type are reported and leave the field at its default; a missing
    required field is reported and set to None.  Field types are read as
    classes, so this module must not postpone its annotations."""
    if not isinstance(node, dict):
        problems.append(f"{path or '<root>'}: expected an object")
        node = {}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values = {}
    for key, val in node.items():
        f = fields.get(key)
        if f is None:
            problems.append(f"unknown key: {path}{key}")
        elif dataclasses.is_dataclass(f.type):
            values[key] = _build(f.type, val, f"{path}{key}.", problems)
        else:
            spec = (int, float) if f.type is float else f.type
            if _is_a(val, spec):
                values[key] = val
            else:
                problems.append(f"{path}{key}: expected {spec}, got {type(val).__name__}")
    for f in fields.values():
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            if f.name not in node:
                problems.append(f"missing required key: {path}{f.name}")
            values[f.name] = None
    return cls(**values)


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


def _check(cfg: RunConfig, problems):
    """Value ranges and cross-field rules of a built config; what the
    experiment reads and checks comes from its EXPERIMENTS declaration."""
    exp, dim, num = EXPERIMENTS.get(cfg.experiment), cfg.lattice.dim, cfg.numerics
    if cfg.experiment is not None and exp is None:
        problems.append(f"experiment: must be one of {tuple(EXPERIMENTS)}")
    for path, value, names in (
            ("potential.preset", cfg.potential.preset, POTENTIAL_PRESETS),
            ("field.gauge", cfg.field.gauge, GAUGES),
            ("field.phi.preset", cfg.field.phi.preset, PHI_PRESETS)):
        if value not in names:
            problems.append(f"{path}: unknown value {value!r}, must be one of {names}")
    basis = cfg.lattice.basis
    if dim not in ALL_DIMS:
        problems.append("lattice.dim: must be 1, 2 or 3")
    elif basis is not None and not (len(basis) == dim and all(
            isinstance(row, list) and len(row) == dim
            and all(_is_a(x, (int, float)) for x in row) for row in basis)):
        problems.append(f"lattice.basis: must be lattice.dim ({dim}) rows of "
                        f"{dim} numbers")
    for i, entry in enumerate(cfg.potential.coefficients or []):
        path = f"potential.coefficients[{i}]"
        if not (isinstance(entry, dict) and set(entry) <= {"n", "re", "im"}):
            problems.append(f"{path}: must be an object with keys n, re, im")
            continue
        n = entry.get("n")
        if not (isinstance(n, list) and len(n) == dim and all(_is_a(c, int) for c in n)):
            problems.append(f"{path}.n: must be a list of lattice.dim ({dim}) integers")
        problems.extend(f"{path}.{key}: must be a number" for key in ("re", "im")
                        if key in entry and not _is_a(entry[key], (int, float)))
    if not all(_is_a(n, int) and n >= 1 for n in num.kgrid):
        problems.append("numerics.kgrid: entries must be positive integers")
    if dim == 1 and cfg.field.b != 0:
        problems.append("field.b: must be 0 at lattice.dim 1, which has no magnetic field")
    problems.extend(f"{path}: must be a positive number" for path, value in (
        ("field.phi.period", cfg.field.phi.period), ("numerics.macro_box", num.macro_box))
        if value <= 0)
    for key, low in (("n_bands", 1), ("cutoff", 1), ("q_max", 1), ("theta_resolution", 2)):
        if getattr(num, key) < low:
            problems.append(f"numerics.{key}: must be >= {low}")
    for name, value in num.tolerances.items():
        if not _is_a(value, (int, float)) or value <= 0:
            problems.append(f"numerics.tolerances.{name}: must be a positive number")
    if exp is None:
        return
    if dim in ALL_DIMS and dim not in exp.dims:
        problems.append(f"lattice.dim: experiment '{cfg.experiment}' {exp.dims_reason}")
    read = [c.key for c in exp.checks if dim in c.dims]
    problems.extend(f"numerics.tolerances.{name}: no check of experiment "
                    f"'{cfg.experiment}' reads it at lattice.dim {dim}; declared: {read}"
                    for name in num.tolerances if dim in ALL_DIMS and name not in read)
    bound = num.n_bands if exp.band_bound == "n_bands" else exp.band_bound
    if bound is not None and not 0 <= num.band_index < bound:
        problems.append("numerics.band_index: must satisfy 0 <= band_index < " + (
            f"numerics.n_bands ({bound})" if exp.band_bound == "n_bands" else str(bound)))
    # a slope is fit to two points or more
    need = max([exp.n_eps] + [2 for c in exp.checks
                              if c.key in num.tolerances and c.metric.startswith("slope")])
    if need:
        problems.extend(f"numerics.{key}: must be a positive number"
                        for key in ("dt", "t_final") if getattr(num, key) <= 0)
        eps_list = num.eps_list
        if any(not _is_a(e, (int, float)) or e <= 0 for e in eps_list):
            problems.append("numerics.eps_list: entries must be positive numbers")
        elif any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            problems.append("numerics.eps_list: must be strictly decreasing")
        if len(eps_list) < need:
            problems.append("numerics.eps_list: " + (
                "needs an entry" if need == 1 else "needs two or more entries to fit a slope"))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; raises ConfigError listing every
    violation with its field path."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError(["<root>: expected an object"])
    problems = []
    cfg = _build(RunConfig, raw, "", problems)
    _nonfinite(raw, "", problems)
    _check(cfg, problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """The config as sorted, indented JSON, with every field written out
    except an unset lattice basis or potential coefficient list."""
    obj = dataclasses.asdict(cfg)
    for section, key in (("lattice", "basis"), ("potential", "coefficients")):
        if not obj[section][key]:
            del obj[section][key]
    return json.dumps(obj, indent=2, sort_keys=True)
