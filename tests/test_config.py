"""The experiment declaration in peierls_lab.config: the shipped configs
against it, the README tables against it, and one-field mutations of every
shipped config, which parse_config and the CLI preflight must either accept
or refuse with a ConfigError."""

import copy
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls_lab import quantum
from peierls_lab.cli import _preflight
from peierls_lab.config import EXPERIMENTS, ConfigError, parse_config

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
    assert EXPERIMENTS["propagate"].band_bound == quantum.LIMIT_BANDS


HEADER = re.compile(r"^\*\*`(\w+)`\*\*: lattice\.dim ([\d, ]+); band_index "
                    r"(?:< (\w+)|not read); eps_list (?:≥ (\d) entr(?:y|ies)|not read)\.$")
ROW = re.compile(r"^\| `(\w+)` \| `(\w+)` \| `(\w+) (>=|<=|<) (\w+)` \| ([\d, ]+) \|$")


def _dims(text):
    return tuple(int(d) for d in text.split(", "))


def test_readme_tables_match_the_declaration():
    documented, exp = {}, None
    for line in (ROOT / "README.md").read_text().splitlines():
        if m := HEADER.match(line):
            exp = m[1]
            bound = None if m[3] is None else int(m[3]) if m[3].isdigit() else m[3]
            documented[exp] = (_dims(m[2]), bound, int(m[4] or 0), [])
        elif (m := ROW.match(line)) and exp is not None:
            key, name, metric, op, key_again, dims = m.groups()
            assert key_again == key, line
            documented[exp][3].append((name, metric, key, op, _dims(dims)))
    declared = {
        name: (e.dims, e.band_bound, e.n_eps,
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
