"""End-to-end pipeline runs, exit-code contract, determinism, audits."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charlab import geometry
from charlab.cli import _SCHEMA, main
from charlab.galerkin import ReductionOptions
from charlab.index import IndexComputer

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, name="cfg.json", **kw):
    cfg = {
        "surface": {"kind": "ellipsoid", "radii": [1.0]},
        "out_dir": str(tmp_path / "out"),
        "seed": 0,
        "tolerances": {"integrator": 1e-12, "closure": 1e-8, "identity": 1e-8},
        "index": {"m_max": 12, "alpha": 1.5},
        "galerkin": {"enable": False},
        "morse": {"enable": True, "N_list": [20, 40]},
    }
    cfg.update(kw)
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_circle_end_to_end(tmp_path):
    cfg_path = write_config(tmp_path)
    code = main(["run", str(cfg_path)])
    assert code == 0
    out = tmp_path / "out"
    for f in ("surface_check.json", "orbits.json", "index_report.json",
              "resonance_report.json", "morse_series.csv", "run_summary.json"):
        assert (out / f).exists()
    rep = json.loads((out / "resonance_report.json").read_text())
    assert rep["S_plus"]["exact"] == "1/2"
    assert rep["S_plus_residual"] <= 1e-8
    assert rep["S_zero"]["float"] == 0.0


def test_resonant_K_rejected_at_load(tmp_path):
    cfg_path = write_config(tmp_path, galerkin={
        "enable": True, "K": 2 * np.pi, "T": 1.0})
    code = main(["run", str(cfg_path)])
    assert code == 1


def test_malformed_config_is_usage_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    assert main(["run", str(p)]) == 1
    assert main(["run", str(tmp_path / "missing.json")]) == 1


def test_degenerate_without_table_exits_conditional(tmp_path):
    # rationally dependent squared radii force a degenerate iterate
    cfg_path = write_config(tmp_path, surface={
        "kind": "ellipsoid", "radii": [1.0, float(np.sqrt(2.0))]})
    with pytest.warns(UserWarning):
        code = main(["run", str(cfg_path)])
    assert code == 2
    rep = json.loads((tmp_path / "out" / "resonance_report.json").read_text())
    assert rep["conditional"] is True
    assert rep["excluded_orbits"]


def test_user_type_tables_unlock_degenerate_orbit(tmp_path):
    # valid user entries make the table complete; the orbit re-enters the sums
    tables = [{"orbit_id": "y1", "m": 2, "k": [0, 1, 0]},
              {"orbit_id": "y1", "m": 4, "k": [0, 1, 0]},
              {"orbit_id": "y2", "m": 1, "k": [0, 1, 0]},
              {"orbit_id": "y2", "m": 2, "k": [0, 1, 0]}]
    tpath = tmp_path / "ktables.json"
    tpath.write_text(json.dumps(tables))
    cfg_path = write_config(
        tmp_path,
        surface={"kind": "ellipsoid", "radii": [1.0, float(np.sqrt(2.0))]},
        k_tables=str(tpath),
        morse={"enable": False})
    with pytest.warns(UserWarning):
        code = main(["run", str(cfg_path)])
    rep = json.loads((tmp_path / "out" / "resonance_report.json").read_text())
    assert rep["conditional"] is False
    assert rep["excluded_orbits"] == []
    # the catalog is knowingly incomplete here, so the residual is honest
    assert code == 1


def test_determinism_byte_identical(tmp_path):
    cfg_a = write_config(tmp_path, name="a.json",
                         out_dir=str(tmp_path / "out_a"))
    cfg_b = write_config(tmp_path, name="b.json",
                         out_dir=str(tmp_path / "out_b"))
    assert main(["run", str(cfg_a)]) == 0
    assert main(["run", str(cfg_b)]) == 0
    for f in ("orbits.json", "index_report.json", "resonance_report.json",
              "morse_series.csv"):
        a = (tmp_path / "out_a" / f).read_bytes()
        b = (tmp_path / "out_b" / f).read_bytes()
        assert a == b, f"{f} differs between identical runs"


def test_stage_isolation(tmp_path):
    # a partial run leaves the files of the stages it skips untouched
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    cases = {
        "resonance": ("surface_check.json", "orbits.json", "index_report.json"),
        "index,resonance": ("surface_check.json", "orbits.json"),
    }

    def state(files):
        return {f: ((out / f).read_bytes(), (out / f).stat().st_mtime_ns)
                for f in files}

    for stages, untouched in cases.items():
        before = state(untouched)
        assert main(["run", str(cfg_path), "--stages", stages]) == 0
        assert state(untouched) == before, f"--stages {stages} rewrote a file"


@pytest.mark.parametrize("extra, key_path", [
    ({"tolerances": {"integrater": 1e-12}}, "tolerances.integrater"),
    ({"galerkin": {"mode_cutt": 12}}, "galerkin.mode_cutt"),
    ({"stage": ["geometry"]}, "stage"),
    ({"surface": {"kind": "ellipsoid", "radii": [1.0], "colour": "red"}},
     "surface.colour"),
])
def test_unknown_config_key_rejected(tmp_path, capsys, extra, key_path):
    cfg_path = write_config(tmp_path, **extra)
    assert main(["run", str(cfg_path)]) == 1
    assert f"'{key_path}'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "surface_check.json").exists()


PERTURBATION = {"type": "quartic", "coeffs": [0.3, -0.2], "magnitude": 1e-4}


@pytest.mark.parametrize("extra, key_path", [
    ({"galerkin": {"enable": True, "ratio": "0.7x"}}, "galerkin.ratio"),
    ({"index": {"m_max": "20", "alpha": 1.5}}, "index.m_max"),
    ({"out_dir": 5}, "out_dir"),
    ({"stages": 5}, "stages"),
    # ranges: a negative seed, alpha outside (1, 2), no iterate to scan
    ({"seed": -1}, "seed"),
    (["--seed", "-1"], "seed"),
    ({"index": {"m_max": 12, "alpha": 2.5}}, "index.alpha"),
    ({"index": {"m_max": 12, "alpha": 2.0}}, "index.alpha"),
    ({"index": {"m_max": 12, "alpha": 0.5}}, "index.alpha"),
    ({"index": {"m_max": 0, "alpha": 1.5}}, "index.m_max"),
    ({"stages": []}, "stages"),
    ({"stages": ["geometry", "orbit"]}, "stages"),
    (["--stages", "geometry,orbit"], "stages"),
    # tolerances are positive, flags are checked like the keys they replace
    ({"tolerances": {"closure": 0}}, "tolerances.closure"),
    ({"tolerances": {"integrator": float("nan")}},
     "tolerances.integrator"),
    (["--tol", "0"], "tolerances.integrator"),
    # values that ended in a traceback after the first reports were written
    ({"morse": {"enable": True, "N_list": "abc"}}, "morse.N_list"),
    ({"morse": {"enable": True, "N_list": []}}, "morse.N_list"),
    ({"morse": {"enable": True, "N_list": [50, 100, "x"]}}, "morse.N_list"),
    ({"morse": {"enable": True, "N_list": [50.5, 100]}}, "morse.N_list"),
    ({"surface": {"kind": "ellipsoid", "radii": "abc"}}, "surface.radii"),
    ({"surface": {"kind": "perturbed_ellipsoid", "radii": [1.0],
                  "perturbation": 5}}, "surface.perturbation"),
    ({"surface": {"kind": "perturbed_ellipsoid", "radii": [1.0],
                  "perturbation": {**PERTURBATION, "magnitude": "x"}}},
     "surface.perturbation.magnitude"),
])
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, extra,
                                             key_path):
    # extra: keys of the config, or a list of command-line flags
    flags = extra if isinstance(extra, list) else []
    cfg_path = write_config(tmp_path, **({} if flags else extra))
    assert main(["run", str(cfg_path), *flags]) == 1
    assert f"'{key_path}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("surface, N_list, C", [
    ({"kind": "ellipsoid", "radii": [1.0]}, [2], 2),
    ({"kind": "ellipsoid", "radii": [1.0, 2.0**0.25]}, [50, 8], 8),
])
def test_a_series_window_within_2n2_is_rejected_at_load(tmp_path, capsys,
                                                       surface, N_list, C):
    # the ladder counts coefficients over 2C < |h| <= 2N, C = 2n^2: a window
    # N <= C is named before any stage runs, not after the index stage
    cfg_path = write_config(tmp_path, surface=surface,
                            morse={"enable": True, "N_list": N_list})
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "'morse.N_list'" in err and f"2n^2 = {C}" in err, err
    assert not (tmp_path / "out").exists()
    cfg_path = write_config(tmp_path, surface=surface,
                            morse={"enable": False, "N_list": N_list})
    assert main(["run", str(cfg_path), "--stages", "geometry"]) == 0


# scalars of every JSON kind, with the words and numbers a config uses, and
# shallow lists and objects of them
SCALARS = (st.none() | st.booleans() | st.integers(-2, 300) | st.integers()
           | st.floats(-3.0, 3.0) | st.floats(allow_nan=False,
                                            allow_infinity=False)
           | st.text(max_size=4) | st.sampled_from(
               ["ellipsoid", "perturbed_ellipsoid", "quartic", "geometry"]))
JSON_VALUES = (SCALARS | st.lists(SCALARS, max_size=5)
               | st.dictionaries(st.text(max_size=4), SCALARS, max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config=st.sampled_from(sorted((ROOT / "configs").glob("*.json"))),
       key_path=st.sampled_from(sorted(_SCHEMA)), value=JSON_VALUES)
def test_any_value_at_any_key_path_is_run_or_named(config, key_path, value):
    # a shipped config with one key path set to an arbitrary JSON value
    # either runs or is rejected with a named cause, never a traceback
    cfg = json.loads(config.read_text())
    *blocks, key = key_path.split(".")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if blocks == ["k_tables[]"]:
            entry = {"orbit_id": "y1", "m": 2, "k": [0, 1, 0], key: value}
            (tmp / "tables.json").write_text(json.dumps([entry]))
            cfg["k_tables"] = "tables.json"
        else:
            block = cfg
            for name in blocks:
                if not isinstance(block.get(name), dict):
                    block[name] = {}
                block = block[name]
            block[key] = value
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        code = main(["run", str(tmp / "cfg.json"), "--stages", "geometry",
                     "--out-dir", str(tmp / "out")])
    assert code in (0, 1)


def test_readme_configuration_table_lists_every_schema_key():
    section = (ROOT / "README.md").read_text().split("### Configuration")[1]
    rows = re.findall(r"^\| `([^`]+)` \|", section.split("\n### ")[0], re.M)
    assert sorted(rows) == sorted(_SCHEMA)


def test_schema_galerkin_defaults_are_the_reduction_defaults(tmp_path):
    # a config without a galerkin band reduces with the schema's values,
    # the only defaults the band has
    from charlab.cli import RunConfig

    defaults = {path.split(".")[1]: entry[0] for path, entry in _SCHEMA.items()
                if path.startswith("galerkin.") and path != "galerkin.enable"}
    cfg = RunConfig.load(write_config(tmp_path))
    assert cfg.galerkin == ReductionOptions(**defaults)
    with pytest.raises(TypeError):
        ReductionOptions()


# config-backed parameters of the library functions the stages call; each
# takes its value from the config, so none may carry a default of its own
CONFIG_BACKED = {
    "flow.integrate_flow": ("tol",),
    "flow.integrate_linearized": ("tol",),
    "orbits.find_orbits": ("tol", "int_tol"),
    "orbits.shoot_for_orbit": ("tol", "int_tol"),
    "orbits.gate_orbit": ("closure_tol", "int_tol"),
    "index.compute_orbit_index_data": ("m_max", "q_max", "angle_tol"),
    "index.index_data_from_iteration": ("m_max", "q_max"),
    "index.mean_index": ("q_max",),
    "index.rational_turn": ("angle_tol", "q_max"),
    "index.minimal_period_K": ("angle_tol", "q_max"),
    "geometry.spec_for_period": ("period_T", "ratio", "theta", "alpha", "K",
                                 "rng_seed"),
    "resonance.series_ladder": ("N_list", "s_plus"),
    "galerkin.k_shift_audit": ("path_index", "path_nullity"),
}


@pytest.mark.parametrize("name", sorted(CONFIG_BACKED))
def test_config_backed_settings_default_only_in_the_schema(name):
    import inspect

    module, function = name.split(".")
    params = inspect.signature(
        getattr(importlib.import_module(f"charlab.{module}"), function)
    ).parameters
    for param in CONFIG_BACKED[name]:
        assert params[param].default is inspect.Parameter.empty, (name, param)
        assert params[param].kind is inspect.Parameter.KEYWORD_ONLY, \
            (name, param)


def test_galerkin_options_reach_every_reduction(tmp_path, monkeypatch):
    # every Hamiltonian that run and audit build sees the configured block
    calls = []

    def record(surface, tau, **kw):
        calls.append(kw)
        return original(surface, tau, **kw)

    original = geometry.spec_for_period
    for name, mod in list(sys.modules.items()):
        if name.startswith("charlab") and hasattr(mod, "spec_for_period"):
            monkeypatch.setattr(mod, "spec_for_period", record)
    cfg_path = write_config(tmp_path, galerkin={
        "enable": True, "ratio": 0.7, "theta": 0.1})
    for command in ("run", "audit"):
        calls.clear()
        assert main([command, str(cfg_path)]) == 0
        assert calls, f"{command} built no Hamiltonian"
        for kw in calls:
            assert (kw["ratio"], kw["theta"]) == (0.7, 0.1)
            assert (kw["period_T"], kw["alpha"]) == (1.0, 1.92)


def test_missing_k_tables_file_rejected_at_load(tmp_path, capsys):
    missing = tmp_path / "no_such_tables.json"
    cfg_path = write_config(tmp_path, k_tables=str(missing))
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "k_tables" in err and str(missing) in err
    assert not (tmp_path / "out" / "orbits.json").exists()


def test_k_tables_resolve_against_the_config_directory(tmp_path, monkeypatch):
    # like a surface file, k_tables is found next to the config whatever the
    # working directory is; out_dir stays relative to the working directory
    from charlab.cli import RunConfig

    cfg_dir, work = tmp_path / "configs", tmp_path / "work"
    cfg_dir.mkdir()
    work.mkdir()
    (cfg_dir / "t.json").write_text(
        json.dumps([{"orbit_id": "y1", "m": 2, "k": [0, 1, 0]}]))
    cfg_path = write_config(cfg_dir, k_tables="t.json", out_dir="out")
    monkeypatch.chdir(work)
    assert RunConfig.load(cfg_path).k_tables == {"y1": {2: [0, 1, 0]}}
    assert main(["run", str(cfg_path), "--stages", "geometry"]) == 0
    assert (work / "out" / "surface_check.json").exists()


@pytest.mark.parametrize("text, field", [
    ('[{"orbit_id": "y1"', "k_tables"),                    # cut-off JSON
    ('[{"orbit_id": "y1", "m": 2}]', "'k'"),                # entry without k
    ('[{"orbit_id": "y1", "m": 2.5, "k": [0]}]', "'m'"),    # m not an integer
    ('{"orbit_id": "y1", "m": 2, "k": [0]}', "JSON list"),  # not a list
])
def test_malformed_k_tables_rejected_before_any_stage(tmp_path, capsys, text,
                                                      field):
    tables = tmp_path / "ktables.json"
    tables.write_text(text)
    cfg_path = write_config(tmp_path, k_tables=str(tables))
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert str(tables) in err and field in err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


def test_seeds_key_rejected_by_name(tmp_path, capsys):
    # no config-built surface shoots from seeds; find_orbits takes them in code
    cfg_path = write_config(tmp_path, seeds="not a list")
    assert main(["run", str(cfg_path)]) == 1
    assert "'seeds'" in capsys.readouterr().err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


def test_surface_without_radii_rejected_at_load(tmp_path, capsys):
    cfg_path = write_config(tmp_path, surface={"kind": "ellipsoid"})
    assert main(["run", str(cfg_path)]) == 1
    assert "surface.radii" in capsys.readouterr().err


def test_numeric_failure_prints_its_diagnostics(tmp_path, capsys,
                                                monkeypatch):
    from charlab import cli
    from charlab.errors import NumericFailure

    def fail(cfg):
        raise NumericFailure("ambiguous near-crossing", window=(1.0, 2.0))

    monkeypatch.setattr(cli, "run", fail)
    assert main(["run", str(write_config(tmp_path))]) == 1
    err = capsys.readouterr().err
    assert "ambiguous near-crossing" in err and "window=(1.0, 2.0)" in err


def test_a_nullity_that_is_not_K_periodic_is_named(tmp_path, capsys,
                                                   monkeypatch):
    # a hand-built table with K(y) = 2 whose third iterate is degenerate
    # where the first is not
    from charlab import cli
    from charlab.index import IndexRecord, OrbitIndexData

    def not_periodic(orbit_id, comp, **settings):
        records = [IndexRecord(orbit_id, m, 2 * m - 2, 3 if m == 3 else 1)
                   for m in range(1, 9)]
        return OrbitIndexData(orbit_id=orbit_id, dim_n=1, records=records,
                              mean_index=2.0, mean_index_fraction=None,
                              mean_index_bar=0.0, slope_estimate=2.0,
                              K_of_y=2, iteration=None)

    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path), "--stages", "geometry,orbits"]) == 0
    monkeypatch.setattr(cli, "compute_orbit_index_data", not_periodic)
    capsys.readouterr()
    assert main(["run", str(cfg_path), "--stages", "index"]) == 1
    err = capsys.readouterr().err
    assert ("charlab: InvariantViolation: orbit y1: nullity not K-periodic "
            "at p=1") in err, err
    assert not (tmp_path / "out" / "index_report.json").exists()


def test_cli_overrides(tmp_path):
    cfg_path = write_config(tmp_path)
    alt = tmp_path / "alt"
    code = main(["run", str(cfg_path), "--out-dir", str(alt), "--seed", "3",
                 "--tol", "1e-11"])
    assert code == 0
    assert (alt / "resonance_report.json").exists()


def test_audit_requires_registry(tmp_path):
    cfg_path = write_config(tmp_path, out_dir=str(tmp_path / "empty"))
    assert main(["audit", str(cfg_path)]) == 1


def test_a_registry_without_orbits_is_named(tmp_path, capsys):
    # an empty registry leaves nothing to solve or audit: exit 1, named
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path), "--stages", "geometry,orbits"]) == 0
    reg = tmp_path / "out" / "orbits.json"
    reg.write_text(json.dumps({**json.loads(reg.read_text()), "orbits": []}))
    for argv in (["run", "--stages", "index"], ["audit"]):
        capsys.readouterr()
        assert main([argv[0], str(cfg_path), *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert "orbits.json lists no orbits" in err and "Traceback" not in err


def test_audit_circle(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    assert main(["audit", str(cfg_path)]) == 0
    out = tmp_path / "out"
    sym = json.loads((out / "audit_symplecticity.json").read_text())
    assert sym["pass"] and max(sym["max_defect_per_orbit"].values()) <= 1e-8
    ks = json.loads((out / "audit_k_shift.json").read_text())
    assert ks["pass"]
    blk = ks["orbits"]["y1"]
    assert max(blk["d_of_K"]) - min(blk["d_of_K"]) == 2  # 2n jump, n = 1
    assert blk["critical_value_constant"] and blk["critical_value_negative"]
    bott = json.loads((out / "audit_bott.json").read_text())
    assert bott["pass"]
    conv = json.loads((out / "audit_convexity.json").read_text())
    assert conv["pass"] and conv["pairs"] == 10000


def test_audit_defect_sees_an_injected_skew(tmp_path, monkeypatch):
    # a skew part -1e-8 J in the circle's Hessian puts a raw defect near
    # 1.8e-7 into its index path, under the solve's own defect gate; the
    # audit reads the integrated samples and fails its 1e-8 gate
    from dataclasses import replace

    from charlab import cli
    from charlab.sympl import standard_J

    def skewed(spec):
        surface = geometry.surface_from_spec(spec)
        J = standard_J(surface.dim_n)

        def jet(x):
            g, H = surface.jet(x)
            return g, H - 1e-8 * J
        return replace(surface, jet=jet)

    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path), "--stages",
                 "geometry,orbits,index"]) == 0
    monkeypatch.setattr(cli, "surface_from_spec", skewed)
    assert main(["audit", str(cfg_path)]) == 1
    out = tmp_path / "out"
    sym = json.loads((out / "audit_symplecticity.json").read_text())
    assert not sym["pass"]
    assert 1e-7 < sym["max_defect_per_orbit"]["y1"] < 1e-6
    for name in ("audit_bott.json", "audit_k_shift.json",
                 "audit_convexity.json"):
        assert json.loads((out / name).read_text())["pass"]


def test_audit_names_the_orbit_whose_path_fails(tmp_path, capsys,
                                                monkeypatch):
    # a skew part proportional to q1^2 + p1^2 breaks y1's path only; the
    # one solve of all paths fails naming y1
    from dataclasses import replace

    from charlab import cli
    from charlab.sympl import standard_J

    def skewed(spec):
        surface = geometry.surface_from_spec(spec)
        J = standard_J(surface.dim_n)

        def jet(x):
            g, H = surface.jet(x)
            r = x[..., 0]**2 + x[..., 2]**2
            return g, H + 1e-6 * r[..., None, None] * J
        return replace(surface, jet=jet)

    cfg_path = write_config(tmp_path, surface={
        "kind": "ellipsoid", "radii": [1.0, 2.0**0.25]})
    assert main(["run", str(cfg_path), "--stages",
                 "geometry,orbits,index"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "surface_from_spec", skewed)
    assert main(["audit", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "orbit y1: symplecticity defect" in err and "y2" not in err, err


def test_run_and_audit_solve_the_linearized_flow_once(tmp_path, monkeypatch):
    # one stacked solve holds every orbit's path: one per run, one per
    # audit, none for a resonance-only resume
    from charlab import cli

    calls = []

    def counted(surface, starts, *args, **kwargs):
        calls.append(list(starts))
        return solve(surface, starts, *args, **kwargs)

    solve = cli.integrate_linearized
    monkeypatch.setattr(cli, "integrate_linearized", counted)
    argv = [str(ROOT / "configs" / "ellipsoid_3d.json"),
            "--out-dir", str(tmp_path / "out")]
    assert main(["run", *argv]) == 0
    assert calls == [["y1", "y2", "y3"]]
    assert main(["audit", *argv]) == 0
    assert len(calls) == 2
    assert main(["run", *argv, "--stages", "resonance"]) == 0
    assert len(calls) == 2


AUDITS = ("audit_symplecticity.json", "audit_bott.json", "audit_k_shift.json",
          "audit_convexity.json")


def test_every_json_report_is_an_object(tmp_path):
    # readers of the reports (the audit, resume, the benchmark's checks)
    # call .get on every decoded file
    argv = [str(ROOT / "configs" / "circle.json"), "--out-dir", str(tmp_path)]
    for command in (["run"], ["run", "--stages", "resonance"], ["audit"]):
        assert main([command[0], *argv, *command[1:]]) == 0
        for path in tmp_path.glob("*.json"):
            assert isinstance(json.loads(path.read_text()), dict), path.name
    assert {p.name for p in tmp_path.glob("*.json")} >= set(AUDITS)


def test_audit_fails_a_tampered_index_report(tmp_path, capsys):
    # the audit checks the stored records, not a recomputation of its own
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    report = tmp_path / "out" / "index_report.json"
    data = json.loads(report.read_text())
    data["orbits"]["y1"]["records"][0] = [1, 99, 7]
    data["orbits"]["y1"]["mean_index_bar"] = 99.0
    report.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["audit", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "index_report.json" in err and "orbit y1" in err, err
    assert "'records'" in err, err


ELL2 = {"kind": "ellipsoid", "radii": [1.0, 2.0**0.25]}


def test_audit_fails_a_consistent_but_wrong_iteration_block(tmp_path, capsys):
    # i_omega lowered by 1 on every arc of y1, with the records and the mean
    # index fields rebuilt from it: the loader's cross-checks all hold, and
    # only the audit's witness sees that i(y^2) is one too low
    from charlab import cli
    from charlab.index import IterationData, index_data_from_iteration

    cfg_path = write_config(tmp_path, surface=ELL2, morse={"enable": False})
    assert main(["run", str(cfg_path)]) == 0
    report = tmp_path / "out" / "index_report.json"
    data = json.loads(report.read_text())
    block = data["orbits"]["y1"]
    it = block["iteration"]
    it["arc_table"] = [[lo, hi, i - 1] for lo, hi, i in it["arc_table"]]
    d = index_data_from_iteration("y1", IterationData.from_json(it, 2),
                                  m_max=len(block["records"]),
                                  q_max=_SCHEMA["tolerances.q_max"][0])
    block["records"] = [[r.iterate_m, r.index_i, r.nullity_nu]
                        for r in d.records]
    block.update(cli._index_summary(d))
    report.write_text(json.dumps(data))
    cfg = cli.RunConfig.load(cfg_path)
    surface = geometry.surface_from_spec(cfg.surface_spec)
    loaded = cli.stage_index_from_files(cfg, surface, cli._registry(cfg, surface))
    assert loaded["y1"].index(2) == block["records"][1][1]
    capsys.readouterr()
    assert main(["audit", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "orbit y1, iterate 2:" in err and "ekeland-closed-form" in err, err
    assert "orbit y2" not in err, err
    bott = json.loads((tmp_path / "out" / "audit_bott.json").read_text())
    assert not bott["pass"]
    assert bott["orbits"]["y1"]["witness_mismatches"][0][0] == 2
    assert bott["orbits"]["y2"]["witness_mismatches"] == []


def test_ellipsoid_audit_runs_no_segment_scan(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, surface=ELL2)
    assert main(["run", str(cfg_path)]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("the ellipsoid audit scanned m periods")

    monkeypatch.setattr(IndexComputer, "index_pair", forbidden)
    assert main(["audit", str(cfg_path)]) == 0
    bott = json.loads((tmp_path / "out" / "audit_bott.json").read_text())
    assert {o["witness"] for o in bott["orbits"].values()} \
        == {"ekeland-closed-form"}
    assert {o["witness_m_max"] for o in bott["orbits"].values()} == {100}


def _flipped_krein_sign(index):
    step = index._krein_step
    return "_krein_step", lambda *a: None if step(*a) is None else -step(*a)


def _third_iterate_off_by_two(index):
    # +2 keeps the index parity, so the run's K-periodicity gate passes
    records = index._records

    def shifted(orbit_id, it, m_from, m_upto):
        out = records(orbit_id, it, m_from, m_upto)
        for r in out:
            r.index_i += 2 * (r.iterate_m == 3)
        return out
    return "_records", shifted


@pytest.mark.parametrize("mutant, surface, first", [
    (_flipped_krein_sign, ELL2, "orbit y1, iterate 2:"),
    (_third_iterate_off_by_two, {"kind": "ellipsoid", "radii": [1.0]},
     "orbit y1, iterate 3:"),
])
def test_audit_fails_a_mutated_index_engine(tmp_path, capsys, monkeypatch,
                                            mutant, surface, first):
    # the mutant computes both the stored report and the audit's index data
    from charlab import index
    monkeypatch.setattr(index, *mutant(index))
    cfg_path = write_config(tmp_path, surface=surface, morse={"enable": False})
    main(["run", str(cfg_path), "--stages", "geometry,orbits,index"])
    capsys.readouterr()
    assert main(["audit", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"charlab audit: {first}"), err
    assert "ekeland-closed-form" in err.splitlines()[0], err


def test_audit_names_an_ellipsoid_orbit_on_no_axis(tmp_path, capsys):
    # y1 stays on the surface, but its stored period, moved 1e-6 off 2 pi
    # in the registry and the index report alike, is no axis period
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    off_axis = 2 * np.pi + 1e-6
    registry = tmp_path / "out" / "orbits.json"
    payload = json.loads(registry.read_text())
    payload["orbits"][0]["prime_period"] = off_axis
    registry.write_text(json.dumps(payload))
    report = tmp_path / "out" / "index_report.json"
    payload = json.loads(report.read_text())
    payload["orbits"]["y1"]["iteration"]["prime_period"] = off_axis
    report.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["audit", str(cfg_path)]) == 1
    assert "orbit y1: prime period" in capsys.readouterr().err
    bott = json.loads((tmp_path / "out" / "audit_bott.json").read_text())
    assert bott["pass"] is False
    assert "no axis period" in bott["orbits"]["y1"]["witness_failure"]


@pytest.mark.parametrize("argv", [["audit"], ["run", "--stages", "resonance"]])
def test_an_orbit_off_the_configured_surface_is_named(tmp_path, capsys, argv):
    # orbits found on radius 1 read back on radius 1.001: |j(x) - 1| ~ 1e-3
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    cfg_path = write_config(tmp_path, surface={"kind": "ellipsoid",
                                               "radii": [1.001]})
    capsys.readouterr()
    assert main([argv[0], str(cfg_path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "ConsistencyFailure: orbits.json, orbit y1" in err, err
    assert repr(1.0 - 1.0 / 1.001)[:6] in err, err
    assert not (tmp_path / "out" / "audit_bott.json").exists()


def test_audit_builds_each_hamiltonian_once_and_solves_each_loop_once(
        tmp_path, monkeypatch):
    # one cloud Hessian per audited orbit; one Fenchel solve per distinct
    # loop, and one per dual modulus estimate
    from charlab import galerkin
    cfg_path = write_config(tmp_path, surface=ELL2)
    assert main(["run", str(cfg_path)]) == 0
    Spec = geometry.HamiltonianSpec
    sample, hess, fenchel = Spec._sample_cloud, Spec.hess, Spec.fenchel_batch
    modulus = galerkin.estimate_dual_modulus
    clouds, cloud_hess, solves, moduli = [], [], [], []

    def sample_cloud(self, rng):
        clouds.append(sample(self, rng))
        return clouds[-1]

    def counted_hess(self, x):
        cloud_hess.extend(x is c for c in clouds)
        return hess(self, x)

    def counted_fenchel(self, Y, **kw):
        solves.append((bool(moduli) and moduli[-1] == "open",
                       np.asarray(Y).tobytes()))
        return fenchel(self, Y, **kw)

    def counted_modulus(spec, rng):
        moduli.append("open")
        try:
            return modulus(spec, rng)
        finally:
            moduli[-1] = "done"

    monkeypatch.setattr(Spec, "_sample_cloud", sample_cloud)
    monkeypatch.setattr(Spec, "hess", counted_hess)
    monkeypatch.setattr(Spec, "fenchel_batch", counted_fenchel)
    monkeypatch.setattr(galerkin, "estimate_dual_modulus", counted_modulus)
    assert main(["audit", str(cfg_path)]) == 0
    ks = json.loads((tmp_path / "out" / "audit_k_shift.json").read_text())
    n_orbits, n_loops = len(ks["orbits"]), 5 * len(ks["orbits"])
    assert n_orbits == 2
    assert len(clouds) == sum(cloud_hess) == n_orbits
    assert len(moduli) == n_loops
    assert sum(in_modulus for in_modulus, _ in solves) == n_loops
    loops = [Y for in_modulus, Y in solves if not in_modulus]
    assert len(loops) == len(set(loops)) >= n_loops


def test_perturbed_audit_keeps_the_segment_scanner(tmp_path):
    cfg = json.loads((ROOT / "configs" / "perturbed_2d.json").read_text())
    cfg_path = write_config(tmp_path, surface=cfg["surface"],
                            index={"m_max": 6, "alpha": 1.5})
    assert main(["run", str(cfg_path), "--stages",
                 "geometry,orbits,index"]) == 0
    assert main(["audit", str(cfg_path)]) == 0
    bott = json.loads((tmp_path / "out" / "audit_bott.json").read_text())
    for orbit in bott["orbits"].values():
        assert orbit["witness"] == "segment-scanner"
        assert orbit["witness_m_max"] == 6
        assert orbit["witness_mismatches"] == []


def test_audit_requires_the_index_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path), "--stages", "geometry,orbits"]) == 0
    capsys.readouterr()
    assert main(["audit", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "index_report.json" in err and "index stage" in err, err


def test_audit_reads_the_index_data_it_checks(tmp_path, monkeypatch):
    # after a full run the audit's index data comes from index_report.json
    # alone: with the index computer gone its reports stay the same
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    assert main(["audit", str(cfg_path)]) == 0
    out = tmp_path / "out"
    first = {f: (out / f).read_bytes() for f in AUDITS}

    def forbidden(*args, **kwargs):
        raise AssertionError("the audit recomputed the index data")

    for name, mod in list(sys.modules.items()):
        if name.startswith("charlab") and hasattr(mod,
                                                  "compute_orbit_index_data"):
            monkeypatch.setattr(mod, "compute_orbit_index_data", forbidden)
    assert main(["audit", str(cfg_path)]) == 0
    assert {f: (out / f).read_bytes() for f in AUDITS} == first


def test_full_run_reads_the_index_report_once(tmp_path, monkeypatch):
    # the resonance stage takes its index data from the file the index
    # stage wrote, through the one checked loader
    from charlab import cli

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return loader(*args, **kwargs)

    loader = cli.stage_index_from_files
    monkeypatch.setattr(cli, "stage_index_from_files", counted)
    assert main(["run", str(write_config(tmp_path))]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("galerkin, cause", [
    ({"T": 0}, "'galerkin.T'"),
    ({"T": 1e-300}, "dual modulus"),
    ({"T": 1e300}, "K*T"),
    ({"T": 1e200, "K": 1e200}, "K*T"),
    ({"K": 1e9}, "MAX_MODE_CUT = 4096"),    # a mode cut near 6e8
])
def test_degenerate_galerkin_block_is_named(tmp_path, capsys, galerkin,
                                            cause):
    # each of these ended in a traceback from the reduction's arithmetic
    cfg_path = write_config(tmp_path, galerkin={"enable": True, **galerkin})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # overflow on the way
        code = main(["run", str(cfg_path), "--stages", "geometry,orbits"])
    assert code == 1
    err = capsys.readouterr().err
    assert cause in err and "Traceback" not in err, err


RESUMED = ("resonance_report.json", "morse_series.csv", "run_summary.json")


def test_resume_neither_integrates_nor_scans(tmp_path, monkeypatch):
    # a resonance-only run rebuilds the index data from index_report.json
    cfg_path = write_config(tmp_path, surface={
        "kind": "ellipsoid", "radii": [1.0, 2.0**0.25]})
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    full = {f: (out / f).read_bytes() for f in RESUMED}
    for f in RESUMED:
        (out / f).unlink()

    def forbidden(*args, **kwargs):
        raise AssertionError("the resume integrated or scanned")

    for name, mod in list(sys.modules.items()):
        if name.startswith("charlab") and hasattr(mod, "integrate_linearized"):
            monkeypatch.setattr(mod, "integrate_linearized", forbidden)
    monkeypatch.setattr(IndexComputer, "__init__", forbidden)
    assert main(["run", str(cfg_path), "--stages", "resonance"]) == 0
    assert {f: (out / f).read_bytes() for f in RESUMED} == full


BLOCK_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked: " + name)
sys.meta_path.insert(0, NoScipy())
"""


def test_benchmark_traces_only_functions_charlab_has():
    # perfbench/trace_child.py times the functions its LAYER_FUNCTIONS table
    # names; one renamed here would silently drop out of its per-layer view
    source = (Path(__file__).resolve().parent.parent / "perfbench"
              / "trace_child.py").read_text()
    table, = [ast.literal_eval(node.value) for node in ast.parse(source).body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) == "LAYER_FUNCTIONS"]
    for layer, names in table.items():
        module = importlib.import_module(f"charlab.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            assert callable(obj), f"charlab.{layer}.{name} is gone"


def run_without_scipy(code):
    import charlab
    src = str(Path(charlab.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", BLOCK_SCIPY + code],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})


def test_import_loads_no_scipy():
    proc = run_without_scipy(
        "import charlab.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_run_and_audit_need_no_scipy(tmp_path):
    # run and audit on the circle, and the geometry and orbits stages on the
    # perturbed surface (the brentq sites, shooting's variational solve)
    circle = write_config(tmp_path)
    perturbed = tmp_path / "perturbed.json"
    cfg = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "perturbed_2d.json").read_text())
    perturbed.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "p")}))
    proc = run_without_scipy(
        "from charlab.cli import main\n"
        f"codes = [main(['run', {str(circle)!r}]),\n"
        f"         main(['audit', {str(circle)!r}]),\n"
        f"         main(['run', {str(perturbed)!r}, '--stages',\n"
        f"               'geometry,orbits'])]\n"
        "assert codes == [0, 0, 0], codes\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "p" / "orbits.json").exists()


def _tamper_records(orbit):
    orbit["records"][3][1] += 2


def _stale_period(orbit):
    orbit["iteration"]["prime_period"] += 1e-12


def _old_report(orbit):
    del orbit["iteration"]


def _wrong_exact_mean(orbit):
    orbit["mean_index_exact"] = "7/3"


def _wrong_mean_bar(orbit):
    orbit["mean_index_bar"] = 99.0


def _wrong_slope(orbit):
    orbit["slope_estimate"] = 99.0


def _truncated_records(orbit):
    orbit["records"] = orbit["records"][:3]


def _no_records(orbit):
    orbit["records"] = []


def _dropped_arc(orbit):
    del orbit["iteration"]["arc_table"][-1]


def _unsorted_angles(orbit):
    two_pi = orbit["iteration"]["arc_table"][-1][1]
    orbit["iteration"]["eigen_angles"] = [0.0, 4.0, 2.0]
    orbit["iteration"]["arc_table"] = [[0.0, 4.0, 2], [4.0, 2.0, 2],
                                       [2.0, two_pi, 2]]


def _foreign_on_point(orbit):
    orbit["iteration"]["on_point"].append([1.0, 2, 1])


@pytest.mark.parametrize("tamper, field", [
    (_tamper_records, "'records'"),
    (_stale_period, "'iteration.prime_period'"),
    (_old_report, "'iteration'"),
    (_wrong_exact_mean, "'mean_index_exact'"),
    (_wrong_mean_bar, "'mean_index_bar'"),
    (_wrong_slope, "'slope_estimate'"),
    (_truncated_records, "'records'"),
    (_no_records, "'records'"),
    (_dropped_arc, "'iteration'"),
    (_unsorted_angles, "'iteration'"),
    (_foreign_on_point, "'iteration'"),
])
def test_resume_rejects_a_report_it_cannot_trust(tmp_path, capsys, tamper,
                                                 field):
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    report = tmp_path / "out" / "index_report.json"
    data = json.loads(report.read_text())
    tamper(data["orbits"]["y1"])
    report.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["run", str(cfg_path), "--stages", "resonance"]) == 1
    err = capsys.readouterr().err
    assert "orbit y1" in err and field in err, err
    assert "Traceback" not in err, err


def _orbits_as_a_list(report):
    report["orbits"] = list(report["orbits"].values())


def _orbit_as_a_list(report):
    report["orbits"]["y1"] = list(report["orbits"]["y1"].values())


def _arc_dropped_from_y1(report):
    _dropped_arc(report["orbits"]["y1"])


@pytest.mark.parametrize("tamper, named", [
    (_orbits_as_a_list, "index_report.json: 'orbits' is not an object"),
    (_orbit_as_a_list, "index_report.json, orbit y1: not an object"),
    (_arc_dropped_from_y1,
     "index_report.json, orbit y1, field 'iteration': malformed"),
])
@pytest.mark.parametrize("argv", [["run", "--stages", "resonance"], ["audit"]])
def test_a_report_of_the_wrong_shape_is_named(tmp_path, capsys, argv, tamper,
                                              named):
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    report = tmp_path / "out" / "index_report.json"
    data = json.loads(report.read_text())
    tamper(data)
    report.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([argv[0], str(cfg_path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert f"ConsistencyFailure: {named}" in err, err
    assert "Traceback" not in err, err


def _truncated_registry(text):
    return text[:5]


def _period_as_string(text):
    payload = json.loads(text)
    payload["orbits"][0]["prime_period"] = "6.283"
    return json.dumps(payload)


@pytest.mark.parametrize("damage", [_truncated_registry, _period_as_string])
@pytest.mark.parametrize("argv", [["run", "--stages", "resonance"],
                                  ["run", "--stages", "index,resonance"],
                                  ["audit"]])
def test_malformed_registry_is_named(tmp_path, capsys, argv, damage):
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    registry = tmp_path / "out" / "orbits.json"
    registry.write_text(damage(registry.read_text()))
    capsys.readouterr()
    assert main([argv[0], str(cfg_path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "orbits.json" in err and "Traceback" not in err, err
