"""Tests of the benchmark itself (not part of the tier-1 suite).

    python -m pytest -q perfbench/tests

The traced-count tests run every workload's cycle twice (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import run as bench  # noqa: E402
from probe import SpeedProbe  # noqa: E402

ROOT = bench.ROOT
TOL = {"closure": 1e-8, "identity": 1e-6}


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    with SpeedProbe(tmp_path_factory.mktemp("probe") / "probe.shm",
                    bench.child_env(bench.WORK)) as p:
        yield p
    assert p.proc.poll() is not None


def _copy_reference(tmp_path, name):
    dst = tmp_path / name
    shutil.copytree(ROOT / "out" / name, dst)
    return dst


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", ["circle", "ellipsoid_2d", "ellipsoid_3d",
                                  "perturbed_2d"])
def test_committed_reports_pass_against_themselves(tmp_path, name):
    ref = ROOT / "out" / name
    fresh = _copy_reference(tmp_path, name)
    tol = check.tolerances(json.loads((ROOT / "configs" / f"{name}.json").read_text()))
    assert check.check_run_outputs(ref, fresh, tol, bench.ALL_STAGES,
                                   galerkin=False) == []


@pytest.mark.parametrize("file, edit, expect", [
    ("index_report.json",
     lambda d: d["orbits"]["y2"]["records"][7].__setitem__(1, 99), "records"),
    ("resonance_report.json",
     lambda d: d["series"]["rungs"][0].__setitem__("eval_plus", 1), "eval_plus"),
    ("orbits.json",
     lambda d: d["orbits"][0]["samples"][3].__setitem__(1, 0.5), "samples"),
    ("surface_check.json",
     lambda d: d["checks"].__setitem__("euler", 1e-3), "euler"),
    ("run_summary.json",
     lambda d: d.__setitem__("identity_residual", 1.0), "identity_residual"),
])
def test_tampered_report_is_rejected(tmp_path, file, edit, expect):
    ref = ROOT / "out" / "ellipsoid_3d"
    fresh = _copy_reference(tmp_path, "ellipsoid_3d")
    _edit_json(fresh / file, edit)
    problems = check.check_run_outputs(ref, fresh, TOL, bench.ALL_STAGES,
                                       galerkin=False)
    assert problems and all(expect in p for p in problems), problems


def test_float_within_its_bar_is_accepted(tmp_path):
    ref = ROOT / "out" / "ellipsoid_3d"
    fresh = _copy_reference(tmp_path, "ellipsoid_3d")
    _edit_json(fresh / "orbits.json",
               lambda d: d["orbits"][0]["samples"][3].__setitem__(
                   1, d["orbits"][0]["samples"][3][1] + 1e-10))
    assert check.check_run_outputs(ref, fresh, TOL, bench.ALL_STAGES,
                                   galerkin=False) == []


def test_galerkin_block_gates():
    orbits = {"orbits": [{"id": "y1", "rho": 2.0, "critical_value": -1.0}],
              "galerkin": {"y1": {"distance": 1e-12, "period_diff": 0.0,
                                  "critical_value": -1.0,
                                  "critical_value_formula": -1.0 + 1e-12,
                                  "critical_value_negative": True, "rho": 2.0}}}
    assert check.check_galerkin_block(orbits, TOL) == []
    orbits["galerkin"]["y1"]["distance"] = 1e-6
    assert check.check_galerkin_block(orbits, TOL)


def test_span_self_time_excludes_children():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0],
             ["b", 0, 5.0, 6.0], ["a", -1, 11.0, 12.0]]
    totals, root = bench.span_totals(spans)
    assert totals == {"a": (2, 7.0), "b": (2, 3.0), "c": (1, 1.0)}
    assert root == 11.0


def test_tampered_reference_counts_as_failed_invocation(tmp_path, probe):
    wl = bench.WORKLOADS["perturbed_orbits"]
    b = bench.Bench(wl, seed=3, run_dir=tmp_path, deadline=time.perf_counter() + 120,
                    probe=probe)
    b.ref_dir = _copy_reference(tmp_path, "perturbed_2d")
    _edit_json(b.ref_dir / "orbits.json",
               lambda d: d["orbits"][1].__setitem__("prime_period", 1.0))
    b.prepare()
    cycle = b.cycle(traced=False)
    assert cycle["norm_s"] > 0 and cycle["steps"][0]["speed"] > 0
    assert b.attempted == 1
    assert len(b.failures) == 1 and "prime_period" in b.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "ell3_full", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _traced_cycle_counts(b):
    cycle = b.cycle(traced=True)
    calls = {}
    for step in cycle["steps"]:
        for name, (n, _) in step["totals"].items():
            calls[name] = calls.get(name, 0) + n
    iterates = sum(s["index_iterates"] for s in cycle["steps"])
    return cycle, calls, iterates


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def traced_twice(request, tmp_path_factory, probe):
    wl = bench.WORKLOADS[request.param]
    b = bench.Bench(wl, seed=11, run_dir=tmp_path_factory.mktemp(wl.name),
                    deadline=time.perf_counter() + 170, probe=probe)
    b.prepare()
    first = _traced_cycle_counts(b)
    second = _traced_cycle_counts(b)
    return wl.name, b, first, second


def test_traced_counts_repeat_exactly(traced_twice):
    _, b, (_, calls1, it1), (_, calls2, it2) = traced_twice
    assert b.failures == []
    assert calls1 == calls2
    assert it1 == it2


def test_each_workload_loads_its_layer(traced_twice):
    name, _, (cycle, calls, _), _ = traced_twice
    run_step = next(s for s in cycle["steps"] if s["command"] == "run")
    if name == "ell3_full":
        index_s = sum(t for fn, (_, t) in run_step["totals"].items()
                      if fn.startswith("index."))
        assert index_s > 0.5 * run_step["wall_s"]
    elif name == "perturbed_orbits":
        assert not any(fn.startswith("index.") for fn in calls)
        assert calls["galerkin.GalerkinSystem.newton_critical"] > 0
    else:
        assert calls["cli.stage_index_from_files"] > 0
        assert run_step["upstream_rewritten"] == ["index_report.json"]
