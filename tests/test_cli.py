import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import peierls_lab
from peierls_lab.cli import emit_plotdata, main, n_workers, run, write_csv
from peierls_lab.config import ConfigError, parse_config, serialize_config

MINIMAL_BANDS = """
{
  "experiment": "bands",
  "lattice": {"dim": 1},
  "potential": {"preset": "mathieu", "v": 1.0},
  "numerics": {"cutoff": 8, "kgrid": [64], "n_bands": 4,
               "tolerances": {"min_gap": 1.0}}
}
"""


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
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "butterfly", '
                     '"numerics": {"q_max": 0, "theta_resolution": -4}}')
    assert "numerics.q_max: must be >= 1" in exc.value.problems
    assert "numerics.theta_resolution: must be >= 2" in exc.value.problems


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
}


def test_cosine_phi_needs_two_dimensions_at_most():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "flow", "lattice": {"dim": 3}, '
                     '"field": {"phi": {"preset": "cosine", "amplitude": 0.1}}}')
    assert "field.phi.preset: 'cosine' needs lattice.dim <= 2" in exc.value.problems
    parse_config('{"experiment": "bands", "lattice": {"dim": 3}, '
                 '"field": {"phi": {"preset": "sine_ramp", "amplitude": 0.1}}}')


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


CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_configs_parse(path):
    cfg = parse_config(path.read_text())
    assert cfg.experiment in path.stem


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


@pytest.mark.parametrize("experiment,numerics,path", [
    ("flow", '"dt": -0.004', "numerics.dt"),
    ("egorov", '"t_final": 0', "numerics.t_final"),
    ("propagate", '"dt": 0', "numerics.dt"),
    ("geometry", '"band_index": -1', "numerics.band_index"),
    ("bands", '"band_index": 4', "numerics.band_index"),
    ("butterfly", '"cutoff": 0', "numerics.cutoff")])
def test_numerics_out_of_range_rejected(experiment, numerics, path):
    with pytest.raises(ConfigError) as exc:
        parse_config('{"experiment": "%s", "numerics": {%s}}' % (experiment, numerics))
    assert [p for p in exc.value.problems if p.startswith(path + ":")]


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


def test_thread_count_defaults_to_cpu_count(monkeypatch):
    monkeypatch.setenv("PEIERLS_LAB_THREADS", "3")
    assert n_workers() == 3
    for unset in ("", None):
        if unset is None:
            monkeypatch.delenv("PEIERLS_LAB_THREADS")
        else:
            monkeypatch.setenv("PEIERLS_LAB_THREADS", unset)
        assert n_workers() == max(1, os.cpu_count() or 1)


def test_package_imports_load_no_scipy():
    # scipy is a test-only dependency: importing scipy.linalg alone costs
    # about 0.3 s and 27 MB of resident memory in every run
    code = ("import importlib, pkgutil, sys, peierls_lab\n"
            "for m in pkgutil.iter_modules(peierls_lab.__path__):\n"
            "    importlib.import_module('peierls_lab.' + m.name)\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n")
    src = str(Path(peierls_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("preset,dim", [("cosine", 1), ("cosine", 2), ("sine_ramp", 1),
                                        ("sine_ramp", 2), ("sine_ramp", 3)])
def test_phi_presets_match_central_differences(preset, dim):
    from peierls_lab.cli import _phi_callables
    cfg = parse_config(
        '{"experiment": "bands", "lattice": {"dim": %d}, "field": {"phi": '
        '{"preset": "%s", "amplitude": 0.4, "period": 2.5}}}' % (dim, preset))
    phi, gphi, hphi = _phi_callables(cfg, dim)
    rng = np.random.default_rng(dim)
    h = 1e-5
    steps = h * np.eye(dim)
    for shape in [(dim,), (7, dim), (3, 4, dim)]:
        r = rng.uniform(-3, 3, shape)
        assert phi(r).shape == shape[:-1]
        assert gphi(r).shape == shape
        assert hphi(r).shape == shape + (dim,)
        fd_g = np.stack([(phi(r + e) - phi(r - e)) / (2 * h) for e in steps], -1)
        # column m of the Hessian is the derivative of grad phi along r_m
        fd_h = np.stack([(gphi(r + e) - gphi(r - e)) / (2 * h) for e in steps], -1)
        assert np.abs(gphi(r) - fd_g).max() < 1e-8
        assert np.abs(hphi(r) - fd_h).max() < 1e-8
        assert np.array_equal(hphi(r), np.swapaxes(hphi(r), -1, -2))


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
