"""Run configuration: strict JSON parsing, validation and serialization.

Configs are plain JSON objects with nested sections.  The spec dataclasses
below are the schema: a field's name is its JSON key, its annotation the
JSON type (a float field also takes a JSON integer, no number field takes
true or false), its default the value of an omitted key, and a field with
no default is required.  A nested spec is a nested object, so every
attribute path is the JSON path (`cfg.field.phi.amplitude` reads
`field.phi.amplitude`).  `parse_config` builds a RunConfig from these
declarations and `serialize_config` writes one back with
`dataclasses.asdict`; no key is listed anywhere else, save the numerics
keys each experiment reads, which EXPERIMENTS declares.

Validation is strict: unknown keys are fatal (silent typos corrupt sweeps),
and so is a numerics key the experiment does not read (EXPERIMENTS declares
what each reads); missing required keys, wrong types and value violations
are collected and reported with their field paths.
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
    # retired: butterfly edges are exact and Chern labels pick their own
    # grid, so no experiment reads it; kept, never checked, so that configs
    # that set it still parse
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
    must both hold); the numerics keys its run reads, tolerances aside (the
    checks declare those): parse_config range-checks these and refuses any
    other that a config sets, and the CLI preflight builds from these only;
    the lattice.dim values it runs in, and why no other; how many bands it
    solves on a grid of its own, the bound on band_index when it reads
    band_index but not n_bands; and the fewest eps_list entries it needs (a
    slope check needs two)."""
    checks: tuple
    reads: tuple
    dims: tuple = ALL_DIMS
    dims_reason: str = ""
    own_bands: int = 0
    n_eps: int = 0


# a band solve on numerics.kgrid, and the flows over eps_list that follow one
_BAND_KEYS = ("cutoff", "kgrid", "n_bands", "band_index")
_FLOW_KEYS = _BAND_KEYS + ("eps_list", "dt", "t_final")

EXPERIMENTS = {
    "bands": Experiment((Check("gap_above_min", "gap", "min_gap", ">="),), _BAND_KEYS),
    "geometry": Experiment((
        Check("chern_integral", "chern_integrality", "chern_tol", "<", (2, 3)),
        Check("zak_quantized", "zak_dist_to_0_pi", "zak_tol", "<", (1,)),
        Check("gauge_invariant", "gauge_invariance_dev", "gauge_tol", "<")), _BAND_KEYS),
    "butterfly": Experiment((
        Check("alpha_symmetry", "alpha_symmetry_dev", "symmetry_tol", "<"),),
        ("q_max", "chern_labels")),
    # dense N x N operators on the n^d position grid (n ~ macro_box / eps):
    # a 3-D run at n = 9, then 13, was still going after 5 minutes at
    # 1.8 GB peak RSS on a 2-vCPU machine
    "egorov": Experiment((
        Check("slope", "slope", "slope_min", ">="),
        Check("error_within_eps2_budget", "error_per_eps2", "error_per_eps2", "<=")),
        _FLOW_KEYS + ("macro_box",), dims=(1, 2), n_eps=1,
        dims_reason="needs lattice.dim <= 2, the limit of its dense n^d x n^d operators"),
    "flow": Experiment((
        Check("slope", "slope", "slope_min", ">="),
        Check("slope", "slope", "slope_max", "<="),
        Check("energy_drift", "energy_drift", "drift_tol", "<")), _FLOW_KEYS, n_eps=2),
    # quantum.semiclassical_limit_check is 1-D, solves quantum.LIMIT_BANDS = 3
    # bands on the fiber grid of each box, samples each cell at
    # 2 max(cutoff, reach of V) + 1 points (so every cutoff fits its box) and
    # steps its flow oracle by a dt of its own
    "propagate": Experiment((Check("slope_point", "slope_point", "slope_min", ">="),),
                            ("cutoff", "band_index", "eps_list", "t_final", "macro_box"),
                            dims=(1,), dims_reason="needs lattice.dim == 1",
                            own_bands=3, n_eps=2),
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


def _at_least_one(value, num, exp):
    return [] if value >= 1 else ["must be >= 1"]


def _positive(value, num, exp):
    return [] if value > 0 else ["must be a positive number"]


def _kgrid(value, num, exp):
    return [] if all(_is_a(n, int) and n >= 1 for n in value) else [
        "entries must be positive integers"]


def _band_index(value, num, exp):
    own = "n_bands" not in exp.reads
    bound = exp.own_bands if own else num.n_bands
    return [] if 0 <= value < bound else ["must satisfy 0 <= band_index < " + (
        str(bound) if own else f"numerics.n_bands ({bound})")]


def _eps_list(value, num, exp):
    # a slope is fit to two points or more
    need = max([exp.n_eps] + [2 for c in exp.checks
                              if c.key in num.tolerances and c.metric.startswith("slope")])
    problems = []
    if any(not _is_a(e, (int, float)) or e <= 0 for e in value):
        problems.append("entries must be positive numbers")
    elif any(b >= a for a, b in zip(value, value[1:])):
        problems.append("must be strictly decreasing")
    if len(value) < need:
        problems.append("needs an entry" if need == 1 else
                        "needs two or more entries to fit a slope")
    return problems


# the range rule of every numerics key an experiment can read, made when it
# reads the key: rule(value, numerics, experiment) -> the value's problems
_RULES = {"cutoff": _at_least_one, "kgrid": _kgrid, "n_bands": _at_least_one,
          "band_index": _band_index, "eps_list": _eps_list, "dt": _positive,
          "t_final": _positive, "q_max": _at_least_one,
          "chern_labels": lambda value, num, exp: [], "macro_box": _positive}


def _check(cfg: RunConfig, numerics_keys, problems):
    """Value ranges and cross-field rules of a built config, numerics_keys
    being the numerics keys its JSON sets; what the experiment reads and
    checks comes from its EXPERIMENTS declaration."""
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
    if dim == 1 and cfg.field.b != 0:
        problems.append("field.b: must be 0 at lattice.dim 1, which has no magnetic field")
    if cfg.field.phi.period <= 0:
        problems.append("field.phi.period: must be a positive number")
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
    for key in exp.reads:
        problems.extend(f"numerics.{key}: {problem}"
                        for problem in _RULES[key](getattr(num, key), num, exp))
    problems.extend(f"numerics.{key}: experiment '{cfg.experiment}' does not read it; "
                    f"reads: {list(exp.reads)}"
                    for key in numerics_keys if key in _RULES and key not in exp.reads)


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
    numerics = raw.get("numerics")
    _check(cfg, list(numerics) if isinstance(numerics, dict) else [], problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """The config as sorted, indented JSON, with every field written out
    except an unset lattice basis or potential coefficient list and the
    numerics keys the experiment does not read (which parse_config refuses)."""
    obj = dataclasses.asdict(cfg)
    for section, key in (("lattice", "basis"), ("potential", "coefficients")):
        if not obj[section][key]:
            del obj[section][key]
    reads = EXPERIMENTS[cfg.experiment].reads + ("tolerances",)
    obj["numerics"] = {key: obj["numerics"][key] for key in reads}
    return json.dumps(obj, indent=2, sort_keys=True)
