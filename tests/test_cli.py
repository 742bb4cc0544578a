import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import peierls_lab
from peierls_lab import cli
from peierls_lab.cli import emit_plotdata, main, n_workers, run, write_csv
from peierls_lab.config import (EXPERIMENTS, ConfigError, NumericsSpec, RunConfig,
                                parse_config, serialize_config)

MINIMAL_BANDS = """
{
  "experiment": "bands",
  "lattice": {"dim": 1},
  "potential": {"preset": "mathieu", "v": 1.0},
  "numerics": {"cutoff": 8, "kgrid": [64], "n_bands": 4,
               "tolerances": {"min_gap": 1.0}}
}
"""


def test_every_experiment_has_one_runner():
    assert set(cli._RUNNERS) == set(EXPERIMENTS)


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL_BANDS)
    assert cfg.experiment == "bands"
    assert cfg.numerics.cutoff == 8
    assert cfg.numerics.kgrid == [64]


def test_roundtrip_serialize_parse():
    cfg = parse_config(MINIMAL_BANDS)
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert serialize_config(cfg2) == text


@pytest.mark.parametrize("key", ["cutof", "grid_points"])
def test_unknown_key_rejected_with_path(key):
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "bands", "numerics": {"%s": 8}}' % key)
    assert any(f"numerics.{key}" in p for p in exc.value.problems)


def test_negative_tolerance_rejected_with_path():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "bands", '
                     '"numerics": {"tolerances": {"min_gap": -1.0}}}')
    assert any("tolerances.min_gap" in p for p in exc.value.problems)


@pytest.mark.parametrize("n_bands", [0, -1])
def test_n_bands_below_one_rejected_with_path(n_bands):
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "bands", '
                     f'"numerics": {{"n_bands": {n_bands}}}}}')
    assert "numerics.n_bands: must be >= 1" in exc.value.problems


def test_empty_butterfly_sweep_rejected_with_paths():
    # theta_resolution is retired: accepted whatever its value, never checked
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "butterfly", '
                     '"numerics": {"q_max": 0, "theta_resolution": -4}}')
    assert exc.value.problems == ["numerics.q_max: must be >= 1"]


@pytest.mark.parametrize("experiment", ["bands", "butterfly", "propagate"])
def test_retired_theta_resolution_still_parses(experiment):
    cfg = parse_config('{"experiment": "%s", "numerics": {"theta_resolution": 1}}'
                       % experiment)
    assert cfg.numerics.theta_resolution == 1


@pytest.mark.parametrize("path,numerics", [
    ("numerics.q_max", '"q_max": true'),
    ("numerics.cutoff", '"cutoff": false'),
    ("numerics.tolerances.slope_min", '"tolerances": {"slope_min": true}'),
    ("numerics.eps_list", '"eps_list": [true]'),
])
def test_json_booleans_rejected_as_numbers(path, numerics):
    # bool subclasses int in Python, so true would otherwise parse as 1
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "egorov", "numerics": {%s}}' % numerics)
    assert any(p.startswith(path) for p in exc.value.problems), exc.value.problems


def test_eps_list_must_decrease_for_sweeps():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "egorov", '
                     '"numerics": {"eps_list": [0.05, 0.1]}}')
    assert any("eps_list" in p for p in exc.value.problems)


def test_missing_experiment_listed():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"numerics": {"cutoff": 4}}')
    assert any("missing required key: experiment" in p for p in exc.value.problems)


def test_bands_run_emits_csv_with_units(tmp_path):
    cfg = parse_config(MINIMAL_BANDS)
    report = run(cfg, tmp_path)
    assert report["passed"]
    header = (tmp_path / "bands.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "k1_inv_length"
    assert "E0_energy" in header
    data = json.loads((tmp_path / "bands_report.json").read_text())
    assert data["checks"]["gap_above_min"] is True


def test_bands_run_solves_no_vectors(tmp_path, monkeypatch):
    from peierls_lab import fiber

    def no_vectors(*args):
        raise AssertionError("the bands experiment ran inverse iteration")
    monkeypatch.setattr(fiber, "_band_vectors", no_vectors)
    assert run(parse_config(MINIMAL_BANDS), tmp_path)["passed"]


def test_geometry_run_solves_only_its_band_vectors(tmp_path, monkeypatch):
    from peierls_lab import fiber
    solved = []
    solve = fiber.solve_bands

    def spy(*args):
        bands = solve(*args)
        solved.append(bands.vector_bands)
        return bands
    monkeypatch.setattr(fiber, "solve_bands", spy)
    cfg = parse_config('{"experiment": "geometry", "lattice": {"dim": 1}, '
                       '"potential": {"preset": "mathieu", "v": 1.0}, '
                       '"numerics": {"cutoff": 8, "kgrid": [64], "n_bands": 3, '
                       '"band_index": 1, "tolerances": {"gauge_tol": 1e-10}}}')
    assert run(cfg, tmp_path)["passed"]
    assert solved == [(1,)]


def test_run_determinism_byte_identical(tmp_path):
    cfg = parse_config(MINIMAL_BANDS)
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "bands.csv").read_bytes() == \
        (tmp_path / "b" / "bands.csv").read_bytes()


def test_butterfly_run_schema(tmp_path):
    cfg = parse_config('{"experiment": "butterfly", '
                       '"numerics": {"q_max": 6, "theta_resolution": 32, '
                       '"tolerances": {"symmetry_tol": 1e-10}}}')
    report = run(cfg, tmp_path)
    assert report["passed"]
    lines = (tmp_path / "butterfly.csv").read_text().splitlines()
    assert lines[0] == ("alpha_dimensionless,band_index,E_min_energy,"
                       "E_max_energy,chern")
    # q subbands per flux and LF endings
    raw = (tmp_path / "butterfly.csv").read_bytes()
    assert b"\r" not in raw


def test_butterfly_chern_labels_ignore_theta_resolution(tmp_path):
    # a coarse theta_resolution must not reach the Chern torus grid
    cfg = parse_config('{"experiment": "butterfly", '
                       '"numerics": {"q_max": 3, "theta_resolution": 2, '
                       '"chern_labels": true}}')
    run(cfg, tmp_path)
    rows = [line.split(",") for line in
            (tmp_path / "butterfly.csv").read_text().splitlines()[1:]]
    third = [int(r[4]) for r in rows if abs(float(r[0]) - 1 / 3) < 1e-12]
    assert third == [1, -2, 1]


def test_geometry_run_1d(tmp_path):
    cfg = parse_config('{"experiment": "geometry", "lattice": {"dim": 1}, '
                       '"potential": {"preset": "mathieu", "v": 1.0}, '
                       '"numerics": {"cutoff": 8, "kgrid": [64], "n_bands": 3, '
                       '"tolerances": {"zak_tol": 1e-4, "gauge_tol": 1e-10}}}')
    report = run(cfg, tmp_path)
    assert report["passed"]
    assert abs(report["metrics"]["zak_dist_to_0_pi"]) < 1e-4


def test_emit_plotdata_format(tmp_path):
    path = tmp_path / "series.dat"
    emit_plotdata(path, {"x": [1.0, 2.0], "y": [3.0, 4.0]})
    lines = path.read_text().splitlines()
    assert lines[0] == "# x y"
    assert lines[1].split() == ["1", "2"] or lines[1].split() == ["1", "3"]


def test_emit_plotdata_rejects_ragged(tmp_path):
    with pytest.raises(ValueError):
        emit_plotdata(tmp_path / "bad.dat", {"x": [1.0], "y": [1.0, 2.0]})


def test_csv_float_precision(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["v"], [[np.pi]])
    val = path.read_text().splitlines()[1]
    assert float(val) == np.pi  # 17 significant digits round-trip


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(MINIMAL_BANDS)
    assert main(["bands", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "bands", "unknown": 1}')
    assert main(["bands", "--config", str(bad)]) == 2
    # command / config mismatch
    assert main(["butterfly", "--config", str(cfg_path)]) == 2
    # tolerance violation -> exit 1
    strict = tmp_path / "strict.json"
    strict.write_text(MINIMAL_BANDS.replace('"min_gap": 1.0', '"min_gap": 99.0'))
    assert main(["bands", "--config", str(strict),
                 "--out", str(tmp_path / "o2")]) == 1


UNBUILDABLE = {
    "potential.preset": '"potential": {"preset": "mathieux"}',
    "field.phi.preset": '"field": {"phi": {"preset": "wobble", "amplitude": 0.1}}',
    "field.gauge": '"field": {"b": 1.0, "lam": 0.5, "gauge": "coulomb"}',
    "field.phi.period": '"field": {"phi": {"preset": "cosine", "amplitude": 0.1, '
                        '"period": 0}}',
    "numerics.dt": '"numerics": {"dt": 0}',
    "numerics.t_final": '"numerics": {"t_final": -1}',
    "numerics.cutoff": '"numerics": {"cutoff": 0}',
    "numerics.band_index": '"numerics": {"band_index": 5, "n_bands": 3}',
    # json.loads keeps the last of two equal keys: this lattice replaces the 2-D one
    "lattice.dim": '"lattice": {"dim": 4}',
    "lattice.basis": '"lattice": {"dim": 1, "basis": [[1, 0], [0, 1]]}',
}


@pytest.mark.parametrize("experiment", ["egorov"])
def test_three_dimensional_gauge_fixed_experiments_exit_2(tmp_path, capsys, experiment):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"experiment": "%s", "lattice": {"dim": 3}, '
                        '"field": {"phi": {"preset": "sine_ramp", "amplitude": 0.1}}}'
                        % experiment)
    out = tmp_path / "o"
    assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "lattice.dim" in err and "dense n^d x n^d operators" in err
    assert not out.exists()


def test_two_dimensional_propagate_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"experiment": "propagate", "lattice": {"dim": 2}, '
                        '"potential": {"preset": "free"}}')
    out = tmp_path / "o"
    assert main(["propagate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "lattice.dim: experiment 'propagate' needs lattice.dim == 1" \
        in capsys.readouterr().err
    assert not out.exists()


ROOT = Path(__file__).parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
BENCH_CONFIGS = sorted((ROOT / "perfbench" / "configs").glob("*.json")) + \
    sorted((ROOT / "perfbench" / "configs" / "smoke").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS + BENCH_CONFIGS,
                         ids=[p.stem for p in CONFIGS] +
                         [str(p.relative_to(ROOT)) for p in BENCH_CONFIGS])
def test_shipped_configs_parse(path):
    cfg = parse_config(path.read_text())
    assert cfg.experiment in path.stem
    text = serialize_config(cfg)
    assert serialize_config(parse_config(text)) == text


def test_serialized_defaults_cover_every_spec_field():
    # each spec field appears under its JSON path with its declared default,
    # so no second key list can drift from the dataclasses; of the numerics,
    # the keys the experiment reads and the tolerances
    def walk(cls, node, path, experiment):
        fields = dataclasses.fields(cls)
        names = {f.name for f in fields} - {"basis", "coefficients"}
        if cls is NumericsSpec:
            names = set(EXPERIMENTS[experiment].reads) | {"tolerances"}
        assert set(node) == names, path
        for f in fields:
            if dataclasses.is_dataclass(f.type):
                walk(f.type, node[f.name], f"{path}{f.name}.", experiment)
            elif f.name in node and f.name != "experiment":
                default = (f.default if f.default_factory is dataclasses.MISSING
                           else f.default_factory())
                assert node[f.name] == default, path + f.name

    for experiment in EXPERIMENTS:
        cfg = parse_config('{"experiment": "%s"}' % experiment)
        obj = json.loads(serialize_config(cfg))
        assert obj["experiment"] == experiment
        walk(RunConfig, obj, "", experiment)


@pytest.mark.parametrize("name", ["geometry_3d", "flow_3d"])
def test_three_dimensional_configs_run(tmp_path, name):
    path = Path(__file__).parent.parent / "configs" / f"{name}.json"
    experiment = parse_config(path.read_text()).experiment
    out = tmp_path / "o"
    assert main([experiment, "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / f"{experiment}_report.json").read_text())
    assert report["passed"] and report["checks"]
    if experiment == "geometry":
        header = (out / "geometry.csv").read_text().splitlines()[0].split(",")
        assert header[-3:] == ["Omega12_length2", "Omega13_length2", "Omega23_length2"]
        assert "zak_phase" not in report["metrics"]


@pytest.mark.parametrize("path", list(UNBUILDABLE))
def test_unbuildable_config_values_exit_2_before_running(tmp_path, capsys, path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"experiment": "flow", "lattice": {"dim": 2}, %s}'
                        % UNBUILDABLE[path])
    out = tmp_path / "o"
    assert main(["flow", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert path in capsys.readouterr().err
    assert not out.exists()


REFUSED_BEFORE_OUTPUT = [
    # the library refuses these builds; main names the config path
    ("bands", '"lattice": {"dim": 2, "basis": [[1, 0], [1, 0]]}', "lattice.basis"),
    ("propagate", '"potential": {"coefficients": [{"n": [1], "re": 0.5}]}',
     "potential.coefficients"),
    ("geometry", '"lattice": {"dim": 2}, "potential": {"preset": "mathieu"}',
     "potential.preset"),
    *((experiment, '"lattice": {"dim": 2}, "potential": {"preset": "cosine2d"}, '
       '"numerics": {"kgrid": [8]}', "numerics.kgrid")
      for experiment in ("bands", "geometry", "egorov", "flow")),
    # the plane-wave basis must hold the potential's support and n_bands
    ("bands", '"numerics": {"n_bands": 500}', "numerics.n_bands"),
    *((experiment, '"potential": {"coefficients": [{"n": [3], "re": 0.2}, '
       '{"n": [-3], "re": 0.2}]}, "numerics": {"cutoff": 1}', "numerics.cutoff")
      for experiment in ("bands", "propagate")),
    # coefficient entries and kgrid entries are checked by parse_config
    ("bands", '"potential": {"coefficients": [{"re": 0.5}]}',
     "potential.coefficients[0].n"),
    # or refused where the experiment does not read them
    ("butterfly", '"numerics": {"kgrid": [8.7]}', "numerics.kgrid"),
    ("propagate", '"numerics": {"kgrid": ["a"]}', "numerics.kgrid"),
    # a slope fit needs two points
    ("flow", '"numerics": {"eps_list": [0.1]}', "numerics.eps_list"),
    ("propagate", '"numerics": {"eps_list": [0.1]}', "numerics.eps_list"),
    ("egorov", '"numerics": {"eps_list": [0.2], "tolerances": {"slope_min": 1.5}}',
     "numerics.eps_list"),
    # quantum.semiclassical_limit_check solves 3 bands
    *(("propagate", '"numerics": {"band_index": %d}' % i, "numerics.band_index")
      for i in (3, -1)),
    # a tolerance that no check reads there: a typo, or a quantity of another dim
    ("bands", '"numerics": {"kgrid": [16], "tolerances": {"min_gapp": 100.0}}',
     "numerics.tolerances.min_gapp"),
    ("geometry", '"numerics": {"kgrid": [16], "tolerances": {"chern_tol": 1e-30}}',
     "numerics.tolerances.chern_tol"),
    ("geometry", '"lattice": {"dim": 2}, "potential": {"preset": "cosine2d"}, '
     '"numerics": {"kgrid": [8, 8], "tolerances": {"zak_tol": 1e-4}}',
     "numerics.tolerances.zak_tol"),
    # one dimension has no magnetic field: b would be dropped, not applied
    ("flow", '"field": {"b": 0.8, "lam": 0.7}', "field.b"),
    # the field the run builds first: lam outside [0, 1]
    ("flow", '"lattice": {"dim": 2}, "potential": {"preset": "cosine2d"}, '
     '"field": {"b": 0.8, "lam": 1.5}, "numerics": {"kgrid": [8, 8]}', "field"),
]


@pytest.mark.parametrize("experiment,section,path", REFUSED_BEFORE_OUTPUT,
                         ids=[f"{e}-{p}" for e, _, p in REFUSED_BEFORE_OUTPUT])
def test_refused_configs_exit_2_before_output(tmp_path, capsys, experiment, section, path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"experiment": "%s", %s}' % (experiment, section))
    out = tmp_path / "o"
    assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"config error: {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment,numerics,path", [
    ("flow", '"dt": -0.004', "numerics.dt"),
    ("egorov", '"t_final": 0', "numerics.t_final"),
    ("geometry", '"band_index": -1', "numerics.band_index"),
    ("bands", '"band_index": 4', "numerics.band_index"),
    ("bands", '"kgrid": [8.7]', "numerics.kgrid"),
    ("egorov", '"eps_list": []', "numerics.eps_list"),
    ("egorov", '"macro_box": -1', "numerics.macro_box"),
    ("propagate", '"macro_box": 0', "numerics.macro_box")])
def test_numerics_out_of_range_rejected(experiment, numerics, path):
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "%s", "numerics": {%s}}' % (experiment, numerics))
    assert [p for p in exc.value.problems if p.startswith(path + ":")]


@pytest.mark.parametrize("experiment,numerics,path", [
    ("butterfly", '"cutoff": 0', "numerics.cutoff"),
    ("propagate", '"dt": 0', "numerics.dt"),
    ("flow", '"macro_box": 4.0', "numerics.macro_box"),
    ("propagate", '"kgrid": [64]', "numerics.kgrid"),
    ("propagate", '"n_bands": 3', "numerics.n_bands"),
    ("butterfly", '"band_index": 0', "numerics.band_index")])
def test_unread_numerics_keys_rejected(experiment, numerics, path):
    # refused whatever the value, which is not range-checked
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "%s", "numerics": {%s}}' % (experiment, numerics))
    assert exc.value.problems == [
        f"{path}: experiment '{experiment}' does not read it; "
        f"reads: {list(EXPERIMENTS[experiment].reads)}"]


def test_potential_coefficient_entries_checked():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "bands", "lattice": {"dim": 2}, "potential": '
                     '{"coefficients": [{"n": [1, 0.5], "re": "x"}, 3, '
                     '{"n": [1, 0], "im": 0.1, "w": 1}, {"n": [0], "re": 1}]}}')
    assert exc.value.problems == [
        "potential.coefficients[0].n: must be a list of lattice.dim (2) integers",
        "potential.coefficients[0].re: must be a number",
        "potential.coefficients[1]: must be an object with keys n, re, im",
        "potential.coefficients[2]: must be an object with keys n, re, im",
        "potential.coefficients[3].n: must be a list of lattice.dim (2) integers"]


def test_non_object_config_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config('["bands"]')
    assert exc.value.problems == ["<root>: expected an object"]


def test_egorov_run_small(tmp_path):
    cfg = parse_config(
        '{"experiment": "egorov", "lattice": {"dim": 1}, '
        '"potential": {"preset": "mathieu", "v": 1.0}, '
        '"numerics": {"cutoff": 6, "kgrid": [32], "n_bands": 2, '
        '"eps_list": [0.2, 0.1], "dt": 0.02, "t_final": 0.5, '
        '"macro_box": 2.6, "tolerances": {"slope_min": 1.5}}}')
    report = run(cfg, tmp_path)
    assert report["passed"]
    assert (tmp_path / "egorov.csv").exists()


def test_egorov_single_eps_writes_no_slope(tmp_path):
    cfg = parse_config(
        '{"experiment": "egorov", "lattice": {"dim": 1}, '
        '"potential": {"preset": "mathieu", "v": 1.0}, '
        '"numerics": {"cutoff": 6, "kgrid": [32], "n_bands": 2, '
        '"eps_list": [0.2], "dt": 0.02, "t_final": 0.5, "macro_box": 2.6}}')
    report = run(cfg, tmp_path)
    assert report["passed"] and np.isnan(report["metrics"]["slope"])
    header, row = (tmp_path / "egorov.csv").read_text().splitlines()
    assert header.endswith(",slope_fit") and row.endswith(",nan")


def test_flow_run_small(tmp_path):
    cfg = parse_config(
        '{"experiment": "flow", "lattice": {"dim": 2}, '
        '"potential": {"preset": "cosine2d", "v": 12.0, "w": 2.0}, '
        '"field": {"b": 0.8, "lam": 0.7, '
        '"phi": {"preset": "cosine", "amplitude": 0.4, "period": 2.5}}, '
        '"numerics": {"cutoff": 5, "kgrid": [13, 13], "n_bands": 2, '
        '"eps_list": [0.1, 0.05], "dt": 0.005, "t_final": 0.5, '
        '"tolerances": {"slope_min": 1.7, "slope_max": 2.3, '
        '"drift_tol": 1e-06}}}')
    report = run(cfg, tmp_path)
    assert report["passed"], report["metrics"]
    assert (tmp_path / "flow.csv").exists()


def test_propagate_run_small(tmp_path):
    cfg = parse_config(
        '{"experiment": "propagate", "lattice": {"dim": 1}, '
        '"potential": {"preset": "mathieu", "v": 3.0}, '
        '"field": {"phi": {"preset": "sine_ramp", "amplitude": 0.4, '
        '"period": 3.6}}, '
        '"numerics": {"cutoff": 6, "eps_list": [0.12, 0.06], '
        '"t_final": 0.4, "macro_box": 3.6, '
        '"tolerances": {"slope_min": 0.8}}}')
    report = run(cfg, tmp_path)
    assert report["passed"], report["metrics"]
    assert (tmp_path / "propagate.csv").exists()
    # boxes of 31 and 61 cells: the oracle's band data is re-solved on 64
    # points, and one flow of 0.4 / LIMIT_DT_FLOW = 80 steps carries 1 + 64
    # starts per eps
    written = json.loads((tmp_path / "propagate_report.json").read_text())
    assert written["metrics"]["oracle"] == {"kgrid": 64, "trajectories": 130, "steps": 80}


SMALL_PROPAGATE = (
    '{"experiment": "propagate", "lattice": {"dim": 1}, '
    '"potential": {"preset": "mathieu", "v": 3.0}, '
    '"field": {"phi": {"preset": "sine_ramp", "amplitude": 0.4, '
    '"period": 3.6}}, '
    '"numerics": {"cutoff": 6, "eps_list": [0.12, 0.06], '
    '"t_final": 0.4, "macro_box": 3.6, '
    '"tolerances": {"slope_min": 0.8}}}')


def test_propagate_outputs_identical_across_thread_counts(tmp_path, monkeypatch):
    reports = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PEIERLS_LAB_THREADS", threads)
        reports[threads] = run(parse_config(SMALL_PROPAGATE), tmp_path / threads)
    for name in ("propagate.csv", "propagate.dat"):
        one, two = ((tmp_path / threads / name).read_bytes() for threads in ("1", "2"))
        assert one == two, name
    assert reports["1"]["metrics"] == reports["2"]["metrics"]
    for threads, report in reports.items():
        assert report["threads"] == {
            "workers": int(threads),
            **{var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
        written = json.loads((tmp_path / threads / "propagate_report.json").read_text())
        assert written["threads"] == report["threads"]
        assert "threads" not in (tmp_path / threads / "propagate.csv").read_text()


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_count_is_a_config_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("PEIERLS_LAB_THREADS", value)
    with pytest.raises(ConfigError, match="PEIERLS_LAB_THREADS"):
        n_workers()
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(MINIMAL_BANDS)
    out = tmp_path / "o"
    assert main(["bands", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "PEIERLS_LAB_THREADS" in capsys.readouterr().err
    assert not out.exists()


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return max(1, os.cpu_count() or 1)


def test_thread_count_defaults_to_cpu_count(monkeypatch):
    # the CPUs this process may run on
    monkeypatch.setenv("PEIERLS_LAB_THREADS", "3")
    assert n_workers() == 3
    for unset in ("", None):
        if unset is None:
            monkeypatch.delenv("PEIERLS_LAB_THREADS")
        else:
            monkeypatch.setenv("PEIERLS_LAB_THREADS", unset)
        assert n_workers() == _usable_cpus()


def test_thread_count_default_follows_cpu_affinity(monkeypatch):
    # a process pinned to one CPU of a larger machine gets one worker
    monkeypatch.delenv("PEIERLS_LAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert n_workers() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 7}, raising=False)
    assert n_workers() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert n_workers() == 8


def _fresh_interpreter_output(code):
    """The stripped stdout of code run in a fresh interpreter on this package."""
    src = str(Path(peierls_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_package_imports_load_no_scipy():
    # scipy is a test-only dependency: importing scipy.linalg alone costs
    # about 0.3 s and 27 MB of resident memory in every run; numpy.polynomial
    # and argparse are needed by no library run, only by the command line,
    # which imports argparse on use
    code = ("import importlib, pkgutil, sys, peierls_lab\n"
            "for m in pkgutil.iter_modules(peierls_lab.__path__):\n"
            "    importlib.import_module('peierls_lab.' + m.name)\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'\n"
            "             or n in ('numpy.polynomial', 'argparse')))\n")
    assert _fresh_interpreter_output(code) == "[]"


def test_propagate_run_loads_no_numpy_polynomial(tmp_path):
    # the Gauss-Hermite nodes of the quadrature oracle are written out, so a
    # whole semiclassical_limit_check leaves numpy.polynomial unloaded
    code = ("import sys\n"
            "from peierls_lab.cli import run\n"
            "from peierls_lab.config import parse_config\n"
            f"run(parse_config({SMALL_PROPAGATE!r}), {str(tmp_path)!r})\n"
            "print('numpy.polynomial' in sys.modules)\n")
    assert _fresh_interpreter_output(code) == "False"
    assert (tmp_path / "propagate.csv").exists()


@pytest.mark.parametrize("preset,dim", [("cosine", 1), ("cosine", 2), ("cosine", 3),
                                        ("sine_ramp", 1), ("sine_ramp", 2), ("sine_ramp", 3)])
def test_phi_presets_match_central_differences(preset, dim):
    from peierls_lab.cli import _phi_callables
    cfg = parse_config(
        '{"experiment": "bands", "lattice": {"dim": %d}, "field": {"phi": '
        '{"preset": "%s", "amplitude": 0.4, "period": 2.5}}}' % (dim, preset))
    potential = _phi_callables(cfg, dim)
    assert set(potential) == {"phi", "grad_phi", "grad_hess_phi"}
    phi, gphi, grad_hess = (potential[key] for key in ("phi", "grad_phi", "grad_hess_phi"))
    rng = np.random.default_rng(dim)
    h = 1e-5
    steps = h * np.eye(dim)
    for shape in [(dim,), (7, dim), (3, 4, dim)]:
        r = rng.uniform(-3, 3, shape)
        g, hess = grad_hess(r)
        assert phi(r).shape == shape[:-1]
        assert gphi(r).shape == shape
        assert hess.shape == shape + (dim,)
        fd_g = np.stack([(phi(r + e) - phi(r - e)) / (2 * h) for e in steps], -1)
        # column m of the Hessian is the derivative of grad phi along r_m
        fd_h = np.stack([(gphi(r + e) - gphi(r - e)) / (2 * h) for e in steps], -1)
        assert np.abs(gphi(r) - fd_g).max() < 1e-8
        assert np.abs(hess - fd_h).max() < 1e-8
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
        # the joint gradient is grad_phi's to the bit
        assert np.array_equal(g, gphi(r))


NONFINITE_PATHS = {
    "field.b": '"field": {"b": %s, "lam": 0.5}',
    "field.phi.amplitude": '"field": {"phi": {"preset": "cosine", "amplitude": %s}}',
    "numerics.dt": '"numerics": {"dt": %s}',
    "numerics.t_final": '"numerics": {"t_final": %s}',
    "numerics.eps_list": '"numerics": {"eps_list": [0.1, %s]}',
}


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("path", list(NONFINITE_PATHS))
def test_nonfinite_numbers_rejected_with_path(path, value):
    # json.loads accepts these literals, and NaN passes every comparison test
    text = '{"experiment": "flow", "lattice": {"dim": 2}, %s}' % (
        NONFINITE_PATHS[path] % value)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert f"{path}: must be finite" in exc.value.problems


def test_nonfinite_config_exits_2_before_running(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"experiment": "flow", "lattice": {"dim": 2}, '
                        '"field": {"b": NaN, "lam": 0.5}}')
    out = tmp_path / "o"
    assert main(["flow", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "field.b: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_unread_tolerance_lists_the_declared_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "geometry", "numerics": {"tolerances": '
                     '{"chern_tol": 1e-6, "gauge_tol": 1e-10}}}')
    assert exc.value.problems == [
        "numerics.tolerances.chern_tol: no check of experiment 'geometry' reads it "
        "at lattice.dim 1; declared: ['zak_tol', 'gauge_tol']"]


@pytest.mark.parametrize("tolerances,checks", [
    ({"slope_min": 50.0}, {"slope": False}),
    ({"slope_max": 1.0}, {"slope": False}),
    ({"slope_min": 1.8, "slope_max": 2.2}, {"slope": True}),
    ({"slope_min": 1.8, "slope_max": 2.0}, {"slope": False}),
    ({"slope_min": 50.0, "slope_max": 2.2}, {"slope": False}),
    ({"slope_min": 2.04}, {"slope": True}),
    ({"drift_tol": 1e-9}, {"energy_drift": False}),
    ({}, {}),
])
def test_each_bound_of_a_check_holds_when_set(tmp_path, monkeypatch, capsys,
                                              tolerances, checks):
    # each bound is checked on its own; two under one check name must both hold
    monkeypatch.setitem(cli._RUNNERS, "flow",
                        lambda cfg, out: ({"slope": 2.04, "energy_drift": 1e-9}, {}))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"experiment": "flow", "lattice": {"dim": 2},
                                    "potential": {"preset": "cosine2d"},
                                    "numerics": {"kgrid": [8, 8],
                                                 "tolerances": tolerances}}))
    code = main(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    report = json.loads((tmp_path / "o" / "flow_report.json").read_text())
    assert report["checks"] == checks
    assert code == (0 if all(checks.values()) else 1) and report["passed"] == (code == 0)


def test_egorov_error_per_eps2_budget(tmp_path):
    text = ('{"experiment": "egorov", "lattice": {"dim": 1}, '
            '"potential": {"preset": "mathieu", "v": 1.0}, '
            '"numerics": {"cutoff": 6, "kgrid": [32], "n_bands": 2, '
            '"eps_list": [0.2], "dt": 0.02, "t_final": 0.5, "macro_box": 2.6, '
            '"tolerances": {"error_per_eps2": %s}}}')
    report = run(parse_config(text % 1.0), tmp_path)
    (eps,), (error,) = report["metrics"]["eps"], report["metrics"]["errors"]
    per_eps2 = report["metrics"]["error_per_eps2"]
    assert per_eps2 == error / eps ** 2 > 0
    assert report["checks"] == {"error_within_eps2_budget": per_eps2 <= 1.0}
    assert run(parse_config(text % per_eps2), tmp_path)["passed"]
    tight = run(parse_config(text % (0.5 * per_eps2)), tmp_path)
    assert tight["checks"] == {"error_within_eps2_budget": False}


def test_refused_geometry_run_writes_a_report(tmp_path, capsys):
    # v = 0: the free band 1 turns too fast for parallel transport on 32 points
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"experiment": "geometry", "potential": {"preset": "mathieu", '
                        '"v": 0}, "numerics": {"kgrid": [32], "band_index": 1}}')
    out = tmp_path / "o"
    assert main(["geometry", "--config", str(cfg_path), "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "geometry: refused: GaugeError: parallel transport lost overlap at k = [")
    report = json.loads((out / "geometry_report.json").read_text())
    assert set(report) == {"config", "threads", "refused", "passed"}
    assert report["passed"] is False and report["refused"]["error"] == "GaugeError"
    assert report["config"]["numerics"]["band_index"] == 1


REFUSAL_CLASSES = [
    ("fiber", "FiberError"), ("geometry", "GaugeError"), ("effective", "EffectiveError"),
    ("flow", "FlowError"), ("weyl", "WeylError"), ("weyl", "DenseMemoryError"),
    ("quantum", "QuantumError"), ("hofstadter", "HofstadterError"),
    ("lattice", "LatticeError"), ("fields", "FieldError")]


@pytest.mark.parametrize("module,name", REFUSAL_CLASSES,
                         ids=[name for _, name in REFUSAL_CLASSES])
def test_library_refusals_exit_1_with_a_report(tmp_path, monkeypatch, capsys, module, name):
    import importlib
    error = getattr(importlib.import_module(f"peierls_lab.{module}"), name)

    def refuse(cfg, out):
        raise error("cannot do this")
    monkeypatch.setitem(cli._RUNNERS, "bands", refuse)
    with pytest.raises(error):      # run raises; main reports
        run(parse_config(MINIMAL_BANDS), tmp_path / "run")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(MINIMAL_BANDS)
    out = tmp_path / "o"
    assert main(["bands", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().out == f"bands: refused: {name}: cannot do this\n"
    for written in (tmp_path / "run", out):
        report = json.loads((written / "bands_report.json").read_text())
        assert report["refused"] == {"error": name, "message": "cannot do this"}
        assert report["passed"] is False and "threads" in report


def test_every_package_error_is_a_refusal():
    # a new error class that is not a PeierlsError would escape main as a traceback
    import importlib
    import inspect
    import pkgutil
    found = set()
    for info in pkgutil.iter_modules(peierls_lab.__path__):
        module = importlib.import_module(f"peierls_lab.{info.name}")
        found.update(obj for obj in vars(module).values()
                     if inspect.isclass(obj) and issubclass(obj, BaseException)
                     and obj.__module__ == module.__name__)
    assert ConfigError in found and not issubclass(ConfigError, peierls_lab.PeierlsError)
    refusals = found - {ConfigError}
    assert {cls.__name__ for cls in refusals} == {name for _, name in REFUSAL_CLASSES}
    for cls in refusals:
        assert issubclass(cls, peierls_lab.PeierlsError)
        assert issubclass(cls, (ValueError, RuntimeError, MemoryError))


@pytest.mark.parametrize("name, memory, key", [
    ("egorov_1d", 2**20, "numerics.eps_list"),
    ("propagate_bloch", 2**20, "numerics.eps_list"),
    # the band solve on numerics.kgrid: 4.5 MiB of vectors on flow_2d, and
    # 0.5 MiB of matrices and vectors on bands_mathieu
    ("flow_2d", 2**20, "numerics.kgrid"),
    ("bands_mathieu", 2**18, "numerics.kgrid"),
], ids=["egorov_1d", "propagate_bloch", "flow_2d", "bands_mathieu"])
def test_dense_runs_beyond_memory_exit_2_before_output(tmp_path, monkeypatch, capsys,
                                                        name, memory, key):
    # the memory figure is faked: the whole-run estimate is refused before any output
    from peierls_lab import weyl
    monkeypatch.setattr(weyl, "_memory_figures", lambda: {"available memory": memory})
    path = ROOT / "configs" / f"{name}.json"
    experiment = parse_config(path.read_text()).experiment
    out = tmp_path / "o"
    assert main([experiment, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")
    assert "GiB, more than the 0.0 GiB of available memory" in err
    assert not out.exists()


def _propagate_config(tmp_path, **numerics):
    """configs/propagate_bloch.json with numerics keys replaced, written to
    tmp_path; returns its path."""
    cfg = json.loads((ROOT / "configs" / "propagate_bloch.json").read_text())
    cfg["numerics"].update(numerics)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("cutoff, m", [(3, 7), (6, 13), (7, 15)])
def test_propagate_preflight_sizes_the_box_the_run_builds(tmp_path, monkeypatch, capsys,
                                                          cutoff, m):
    # the refusal names the run's own largest box: 201 cells at eps 0.02, of
    # 2 cutoff + 1 points each (Mathieu reaches |n| = 1 only)
    from peierls_lab import quantum, weyl
    monkeypatch.setattr(weyl, "_memory_figures", lambda: {"available memory": 2**20})
    path = _propagate_config(tmp_path, cutoff=cutoff)
    cfg = parse_config(path.read_text())
    box = quantum._limit_box(cli._build_potential(cfg, cli._build_lattice(cfg)), cutoff,
                             min(cfg.numerics.eps_list), cfg.numerics.macro_box)
    assert (box.n_cells, box.m) == (201, m)
    assert main(["propagate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert (f"numerics.eps_list: semiclassical_limit_check on grid ({box.n_points},)"
            in capsys.readouterr().err)


def test_propagate_above_cutoff_6_runs(tmp_path):
    # a cutoff-7 band has 15 plane waves, so its box samples each cell at 15
    # points (fiber_on_cell_grid refuses fewer) and the run completes
    path = _propagate_config(tmp_path, cutoff=7, eps_list=[0.1, 0.05])
    out = tmp_path / "o"
    assert main(["propagate", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "propagate_report.json").read_text())
    assert report["passed"] and "refused" not in report


def test_band_memory_refused_before_the_basis_is_built(tmp_path, capsys):
    # at cutoff 40 in 3-D the plane-wave coefficient box alone is 24 MiB
    # (D = 81^3), and one fiber matrix 2 TB: the estimate comes first
    import tracemalloc
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"experiment": "bands", "lattice": {"dim": 3}, '
                        '"potential": {"preset": "free"}, '
                        '"numerics": {"cutoff": 40, "kgrid": [4, 4, 4]}}')
    out = tmp_path / "o"
    argv = ["bands", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 2      # imports everything the traced call needs
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("config error: numerics.kgrid: ")
    assert not out.exists()


def test_repeated_egorov_grids_exit_2_before_output(tmp_path, capsys):
    # both eps realize n = 129: two equal rows, and a slope fit to one point
    from peierls_lab.quantum import QuantumError
    text = ('{"experiment": "egorov", '
            '"numerics": {"eps_list": [0.1, 0.0999, 0.05], "macro_box": 12.9}}')
    message = "eps 0.1 and 0.0999 both realize the 129-point grid at macro_box 12.9"
    with pytest.raises(QuantumError, match=message):
        cli._egorov_grids(parse_config(text))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    assert main(["egorov", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: numerics.eps_list: {message}\n"
    assert not out.exists()


def test_other_errors_are_not_refusals(tmp_path, monkeypatch):
    def crash(cfg, out):
        raise KeyError("bug")
    monkeypatch.setitem(cli._RUNNERS, "bands", crash)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(MINIMAL_BANDS)
    with pytest.raises(KeyError):
        main(["bands", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o" / "bands_report.json").exists()
