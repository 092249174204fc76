"""Golden outputs: fresh runs reproduce the committed ``out/*`` reports.

Integers, strings, booleans and nulls must match exactly.  Orbit samples and
prime periods come from the integrator and must match within the config's
closure tolerance.  Values the seed moves (the sampled surface probes) and
integration residuals must pass the program's own gate instead.  Every other
float is a function of the data above and must match to 1e-9 relative.
"""

import json
from pathlib import Path

import pytest

from charlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("circle", "ellipsoid_2d", "ellipsoid_3d", "perturbed_2d")
AUDITED = ("circle",)
REL_TOL = 1e-9

# leaf key -> gate(value, tolerances) the fresh value must pass
GATES = {
    "homogeneity": lambda v, t: v <= 1e-8,
    "euler": lambda v, t: v <= 1e-8,
    "grad_fd": lambda v, t: v <= 1e-4,
    "hess_fd": lambda v, t: v <= 1e-3,
    "star_min": lambda v, t: v > 0.0,
    "closure": lambda v, t: v <= t["closure"],
    "surface": lambda v, t: v <= 1e-8,
    "symplecticity_defect": lambda v, t: v <= 1e-8,
    "identity_residual": lambda v, t: v <= t["identity"],
    "S_plus_residual": lambda v, t: v <= t["identity"],
}
# leaf key -> tolerance name bounding |fresh - reference|
ABS_BARS = {"samples": "closure", "prime_period": "closure"}


def mismatches(ref, new, tol, path="", key=""):
    """Messages for every place ``new`` breaks the rules against ``ref``."""
    if isinstance(ref, dict):
        if not isinstance(new, dict) or set(ref) != set(new):
            return [f"{path}: keys differ"]
        return [m for k in ref
                for m in mismatches(ref[k], new[k], tol, f"{path}/{k}", k)]
    if isinstance(ref, list):
        if not isinstance(new, list) or len(ref) != len(new):
            return [f"{path}: length differs"]
        return [m for i, (a, b) in enumerate(zip(ref, new))
                for m in mismatches(a, b, tol, f"{path}[{i}]", key)]
    if isinstance(ref, float) and type(new) in (int, float):
        if key in GATES:
            return [] if GATES[key](new, tol) else [f"{path}: {new!r} fails its gate"]
        bar = (tol[ABS_BARS[key]] if key in ABS_BARS
               else REL_TOL * max(1.0, abs(ref), abs(new)))
        return [] if abs(new - ref) <= bar else [f"{path}: {new!r} vs {ref!r}"]
    if type(ref) is not type(new) or ref != new:
        return [f"{path}: {new!r} vs {ref!r}"]
    return []


@pytest.mark.parametrize("name", CONFIGS)
def test_fresh_run_matches_committed_reports(name, tmp_path):
    config = ROOT / "configs" / f"{name}.json"
    out = tmp_path / name
    assert main(["run", str(config), "--out-dir", str(out)]) == 0
    if name in AUDITED:
        assert main(["audit", str(config), "--out-dir", str(out)]) == 0
    tol = {"closure": 1e-8, "identity": 1e-6}
    tol.update(json.loads(config.read_text())["tolerances"])
    reference = sorted((ROOT / "out" / name).iterdir())
    assert reference
    problems = []
    for ref in reference:
        new = out / ref.name
        if not new.exists():
            problems.append(f"{ref.name}: missing")
        elif ref.suffix == ".csv":
            # every cell is a header string or an integer: exact match
            if new.read_text() != ref.read_text():
                problems.append(f"{ref.name}: differs")
        else:
            problems += [ref.name + m for m in mismatches(
                json.loads(ref.read_text()), json.loads(new.read_text()), tol)]
    assert not problems, "\n".join(problems)


def without(obj, keys):
    """``obj`` with every object entry named in ``keys`` dropped, at any
    depth."""
    if isinstance(obj, dict):
        return {k: without(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [without(v, keys) for v in obj]
    return obj


WITNESS_KEYS = {"distance", "period_diff", "critical_value",
                "critical_value_formula", "critical_value_negative", "rho"}


def test_orbits_stage_with_galerkin_witness_on_perturbed_surface(tmp_path):
    # geometry and orbits on perturbed_2d with the reduction witness on: the
    # shooting's reports match the committed ones under the rules above,
    # and the seed-dependent witness fields pass the witness's own claims
    raw = json.loads((ROOT / "configs" / "perturbed_2d.json").read_text())
    raw["galerkin"]["enable"] = True
    config = tmp_path / "perturbed_2d_galerkin.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out-dir", str(out),
                 "--stages", "geometry,orbits"]) == 0
    tol = {"closure": 1e-8, "identity": 1e-6}
    tol.update(raw["tolerances"])
    witness = {"galerkin", "rho", "critical_value"}
    problems = []
    for name in ("surface_check.json", "orbits.json"):
        ref = json.loads((ROOT / "out" / "perturbed_2d" / name).read_text())
        new = json.loads((out / name).read_text())
        problems += [name + m for m in mismatches(
            without(ref, witness), without(new, witness), tol)]
    assert not problems, "\n".join(problems)

    registry = json.loads((out / "orbits.json").read_text())
    records = {rec["id"]: rec for rec in registry["orbits"]}
    block = registry["galerkin"]
    assert isinstance(block, dict) and set(block) == set(records)
    closure = tol["closure"]
    for oid, g in block.items():
        assert isinstance(g, dict) and set(g) == WITNESS_KEYS
        assert g["distance"] <= closure and g["period_diff"] <= closure
        cv, formula = g["critical_value"], g["critical_value_formula"]
        assert cv < 0 and g["critical_value_negative"] is True
        assert abs(cv - formula) <= closure * max(1.0, abs(formula))
        assert records[oid]["rho"] == g["rho"]
        assert records[oid]["critical_value"] == cv
