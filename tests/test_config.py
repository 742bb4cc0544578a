"""The experiment declaration in peierls_lab.config: the shipped configs
against it, the README tables against it, the numerics keys each runner
reads against it, and one-field mutations of every shipped config, which
parse_config and the CLI preflight must either accept or refuse with a
ConfigError."""

import copy
import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls_lab import cli, quantum
from peierls_lab.cli import _preflight
from peierls_lab.config import EXPERIMENTS, ConfigError, NumericsSpec, parse_config

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("perfbench/configs/**/*.json"))


@pytest.mark.parametrize("path", SHIPPED, ids=[str(p.relative_to(ROOT)) for p in SHIPPED])
def test_shipped_tolerances_map_to_declared_checks(path):
    cfg = parse_config(path.read_text())
    _preflight(cfg)
    checks = EXPERIMENTS[cfg.experiment].checks
    for key in cfg.numerics.tolerances:
        assert [c for c in checks if c.key == key and cfg.lattice.dim in c.dims], key


def test_propagate_bound_is_the_limit_check_band_count():
    # propagate reads band_index but not n_bands: the bound is its own band count
    propagate = EXPERIMENTS["propagate"]
    assert "band_index" in propagate.reads and "n_bands" not in propagate.reads
    assert propagate.own_bands == quantum.LIMIT_BANDS


NUMERICS_KEYS = [f.name for f in dataclasses.fields(NumericsSpec)]


def test_every_numerics_key_is_read_by_some_experiment():
    # tolerances are declared by the checks; theta_resolution is retired
    read = {key for exp in EXPERIMENTS.values() for key in exp.reads}
    assert read == set(NUMERICS_KEYS) - {"tolerances", "theta_resolution"}
    for name, exp in EXPERIMENTS.items():
        assert list(exp.reads) == [k for k in NUMERICS_KEYS if k in exp.reads], name
        # band_index has a bound, and eps_list an entry count, only where read
        assert (exp.own_bands > 0) == ("band_index" in exp.reads
                                       and "n_bands" not in exp.reads), name
        assert (exp.n_eps > 0) == ("eps_list" in exp.reads), name


class RecordingNumerics(NumericsSpec):
    """A NumericsSpec that notes the name of every field read from it."""

    def __getattribute__(self, name):
        if name in NUMERICS_KEYS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


def _recording(numerics):
    """A RecordingNumerics holding the values of numerics, nothing read yet."""
    num = RecordingNumerics(**dataclasses.asdict(numerics))
    num.read = set()
    return num


# a small run of every experiment, each setting every key it reads
SMALL_RUNS = {
    "bands": {"numerics": {"cutoff": 4, "kgrid": [16], "n_bands": 2, "band_index": 0}},
    "geometry": {"numerics": {"cutoff": 4, "kgrid": [16], "n_bands": 2, "band_index": 1}},
    "butterfly": {"numerics": {"q_max": 3, "chern_labels": True}},
    "egorov": {"numerics": {"cutoff": 6, "kgrid": [32], "n_bands": 2, "band_index": 0,
                            "eps_list": [0.2, 0.1], "dt": 0.05, "t_final": 0.2,
                            "macro_box": 2.6}},
    "flow": {"field": {"phi": {"preset": "sine_ramp", "amplitude": 0.4, "period": 3.6}},
             "numerics": {"cutoff": 6, "kgrid": [32], "n_bands": 2, "band_index": 0,
                          "eps_list": [0.1, 0.05], "dt": 0.05, "t_final": 0.2}},
    "propagate": {"potential": {"preset": "mathieu", "v": 3.0},
                  "field": {"phi": {"preset": "sine_ramp", "amplitude": 0.4,
                                    "period": 3.6}},
                  "numerics": {"cutoff": 6, "band_index": 0, "eps_list": [0.12, 0.06],
                               "t_final": 0.4, "macro_box": 3.6}},
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_runners_read_exactly_the_declared_keys(tmp_path, monkeypatch, name):
    # the declaration cannot drift from the runners: a key a runner reads
    # but does not declare would go unchecked, and a declared key it does
    # not read would be accepted and ignored
    monkeypatch.setenv("PEIERLS_LAB_THREADS", "1")
    text = json.dumps({"experiment": name, **SMALL_RUNS[name]})
    reads = EXPERIMENTS[name].reads
    assert set(json.loads(text)["numerics"]) == set(reads)
    cfg = parse_config(text)
    parsed = cfg.numerics
    cfg.numerics = preflight = _recording(parsed)
    _preflight(cfg)
    assert preflight.read <= set(reads)
    cfg.numerics = runner = _recording(parsed)
    cli._RUNNERS[name](cfg, tmp_path)
    assert runner.read - {"tolerances"} == set(reads)


HEADER = re.compile(r"^\*\*`(\w+)`\*\*: lattice\.dim ([\d, ]+); reads (.+)\.$")
# a numerics key, with band_index's bound or eps_list's fewest entries
ITEM = re.compile(r"`(\w+)`(?: \(< (\w+)\)| \(≥ (\d) entr(?:y|ies)\))?")
ROW = re.compile(r"^\| `(\w+)` \| `(\w+)` \| `(\w+) (>=|<=|<) (\w+)` \| ([\d, ]+) \|$")


def _dims(text):
    return tuple(int(d) for d in text.split(", "))


def test_readme_tables_match_the_declaration():
    documented, exp = {}, None
    for line in (ROOT / "README.md").read_text().splitlines():
        if m := HEADER.match(line):
            exp = m[1]
            items = [ITEM.fullmatch(item) for item in m[3].split(", ")]
            assert all(items), line
            reads = tuple((i[1], i[2], int(i[3] or 0)) for i in items)
            documented[exp] = (_dims(m[2]), reads, [])
        elif (m := ROW.match(line)) and exp is not None:
            key, name, metric, op, key_again, dims = m.groups()
            assert key_again == key, line
            documented[exp][2].append((name, metric, key, op, _dims(dims)))

    def annotated(e, key):
        bound = "n_bands" if "n_bands" in e.reads else str(e.own_bands)
        return (key, bound if key == "band_index" else None,
                e.n_eps if key == "eps_list" else 0)
    declared = {
        name: (e.dims, tuple(annotated(e, key) for key in e.reads),
               [(c.name, c.metric, c.key, c.op, tuple(d for d in c.dims if d in e.dims))
                for c in e.checks])
        for name, e in EXPERIMENTS.items()}
    assert documented == declared


# one-field mutations: wrong types, edge numbers, containers; no large
# integers, which would make the preflight allocate
VALUES = st.sampled_from(["x", "", None, True, False, 0, -1, 1, 2, 3, 0.5, -0.5, 1e308,
                          -1e308, [], {}, [[]], [{}], {"a": {}}, [1, [2]], {"n": [1]}])


def _leaves(node, path=()):
    """Every key and index path below the root, containers included."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, val in items:
        yield path + (key,)
        yield from _leaves(val, path + (key,))


def _setdefault(raw, *keys):
    node = raw
    for key in keys:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    return node


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_configs_raise_only_config_errors(data):
    raw = json.loads(data.draw(st.sampled_from(SHIPPED)).read_text())
    raw = copy.deepcopy(raw)
    kind = data.draw(st.sampled_from(["replace", "delete", "tolerance", "band_index",
                                      "experiment"]))
    if kind in ("replace", "delete"):
        path = data.draw(st.sampled_from(list(_leaves(raw))))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if kind == "replace":
            parent[path[-1]] = data.draw(VALUES)
        else:
            del parent[path[-1]]
    elif kind == "tolerance":
        name = data.draw(st.sampled_from(["min_gapp", "chern_tol", "zak_tol", "slope_max",
                                          "error_per_eps2", "symmetry_tol", ""]))
        _setdefault(raw, "numerics", "tolerances")[name] = data.draw(VALUES | st.just(1.0))
    elif kind == "band_index":
        numerics = _setdefault(raw, "numerics")
        numerics["band_index"] = data.draw(st.sampled_from(
            [-1, 3, 4, numerics.get("n_bands", 4), numerics.get("n_bands", 4) + 1]))
    else:
        raw["experiment"] = data.draw(st.sampled_from([*EXPERIMENTS, "band", 0]))
    try:
        _preflight(parse_config(json.dumps(raw)))
    except ConfigError:
        pass
