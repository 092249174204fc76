"""Output checker: compare a fresh charlab report with the committed one.

Integers, booleans, strings and nulls must match exactly.  Floats must match
within a bar, and the bar depends on the field (leaf key):

* Fields the seed moves (the random probes of ``surface_check.json``) or
  that are integration residuals are not compared with the reference; they
  must pass the program's own gate instead (``GATES``).
* Orbit samples and periods come from the integrator; they must match the
  reference within the config's closure tolerance.
* Every other float must match to 1e-9 relative: these are functions of
  integer index data or of the orbit data above.

``check_report`` returns a list of problems; an empty list means the report
is correct.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

REL_TOL = 1e-9

# leaf key -> gate(value, tolerances) that must hold; the seed or the
# integrator moves these values, so they are checked against the gates of
# check_surface_invariants, gate_orbit, the symplecticity audit and the
# identity tolerance, not against the reference bytes.
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

# leaf key -> name of the tolerance that bounds |fresh - reference|
ABS_BARS = {"samples": "closure", "prime_period": "closure"}

PIPELINE_FILES = {
    "geometry": ["surface_check.json"],
    "orbits": ["orbits.json"],
    "index": ["index_report.json"],
    "resonance": ["resonance_report.json", "morse_series.csv",
                  "run_summary.json"],
}
AUDIT_FILES = ["audit_symplecticity.json", "audit_bott.json",
               "audit_k_shift.json", "audit_convexity.json"]


def tolerances(config: dict) -> dict:
    tol = {"closure": 1e-8, "identity": 1e-6}
    tol.update({k: v for k, v in config.get("tolerances", {}).items()
                if k in tol})
    return tol


def compare(ref, new, tol, path="", key="", problems=None, skip=()):
    """Walk two decoded JSON values; append a message per mismatch."""
    problems = [] if problems is None else problems
    if isinstance(ref, dict):
        if not isinstance(new, dict) or set(ref) - set(skip) != set(new) - set(skip):
            problems.append(f"{path}: keys differ")
            return problems
        for k in ref:
            if k not in skip:
                compare(ref[k], new[k], tol, f"{path}/{k}", k, problems, skip)
    elif isinstance(ref, list):
        if not isinstance(new, list) or len(ref) != len(new):
            problems.append(f"{path}: length differs")
            return problems
        for i, (a, b) in enumerate(zip(ref, new)):
            compare(a, b, tol, f"{path}[{i}]", key, problems, skip)
    elif isinstance(ref, float) and isinstance(new, (int, float)) \
            and not isinstance(new, bool):
        if key in GATES:
            if not GATES[key](new, tol):
                problems.append(f"{path}: {new!r} fails its gate")
        else:
            bar = (tol[ABS_BARS[key]] if key in ABS_BARS
                   else REL_TOL * max(1.0, abs(ref), abs(new)))
            if not abs(new - ref) <= bar:
                problems.append(f"{path}: {new!r} vs reference {ref!r} "
                                f"(bar {bar:.3g})")
    elif type(ref) is not type(new) or ref != new:
        problems.append(f"{path}: {new!r} vs reference {ref!r}")
    return problems


def _read_csv(path: Path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return [rows[0]] + [[int(c) for c in r] for r in rows[1:]]


def load(path: Path):
    return _read_csv(path) if path.suffix == ".csv" else json.loads(path.read_text())


def check_report(ref_path: Path, new_path: Path, tol: dict, skip=()) -> list:
    """Problems of one fresh report file against its committed reference."""
    if not new_path.exists():
        return [f"{new_path.name}: missing"]
    try:
        new = load(new_path)
    except (ValueError, IndexError) as e:
        return [f"{new_path.name}: unreadable ({e})"]
    return [f"{new_path.name}{p}" for p in
            compare(load(ref_path), new, tol, skip=skip)]


def check_galerkin_block(orbits_json: dict, tol: dict) -> list:
    """The Galerkin reduction witness the orbits stage writes when enabled.

    Its seed-dependent numbers are checked against the program's own
    claims: the reduced orbit closes on the shot orbit within ``closure``,
    its critical value is negative and equals the closed-form value, and the
    orbit records carry the same rho and critical value.
    """
    block = orbits_json.get("galerkin")
    if not block:
        return ["orbits.json: galerkin block missing"]
    problems = []
    closure = tol["closure"]
    records = {o["id"]: o for o in orbits_json["orbits"]}
    if set(block) != set(records):
        problems.append("orbits.json/galerkin: orbit ids differ from the records")
    for oid, g in block.items():
        where = f"orbits.json/galerkin/{oid}"
        cv, formula = g["critical_value"], g["critical_value_formula"]
        if not g["distance"] <= closure:
            problems.append(f"{where}: distance {g['distance']!r} above {closure}")
        if not g["period_diff"] <= closure:
            problems.append(f"{where}: period_diff {g['period_diff']!r} above {closure}")
        if not (cv < 0 and g["critical_value_negative"] is True):
            problems.append(f"{where}: critical value {cv!r} not negative")
        if not abs(cv - formula) <= closure * max(1.0, abs(formula)):
            problems.append(f"{where}: critical value {cv!r} vs formula {formula!r}")
        rec = records.get(oid, {})
        if rec.get("rho") != g["rho"] or rec.get("critical_value") != cv:
            problems.append(f"{where}: orbit record rho/critical_value differ")
    return problems


def check_run_outputs(ref_dir: Path, out_dir: Path, tol: dict, stages,
                      galerkin: bool) -> list:
    """Problems of every pipeline report in ``out_dir`` after a ``run``.

    Reports of the stages just run must exist; reports left by earlier
    stages are checked too, since a later stage must not spoil them.
    With the Galerkin witness on, its seed-dependent fields are checked by
    ``check_galerkin_block`` instead of against the reference.
    """
    problems = []
    for stage, names in PIPELINE_FILES.items():
        for name in names:
            new = out_dir / name
            if stage not in stages and not new.exists():
                continue
            skip = ()
            if name == "orbits.json" and galerkin:
                skip = ("galerkin", "rho", "critical_value")
                if new.exists():
                    problems += check_galerkin_block(load(new), tol)
            problems += check_report(ref_dir / name, new, tol, skip)
    return problems


def check_audit_outputs(out_dir: Path, tol: dict, first: dict) -> list:
    """Every audit file exists and passes its own gate, and matches the
    first cycle's copy (``first`` maps file name to decoded JSON; empty on
    the first cycle)."""
    problems = []
    for name in AUDIT_FILES:
        path = out_dir / name
        if not path.exists():
            problems.append(f"{name}: missing")
            continue
        new = load(path)
        if new.get("pass") is not True:
            problems.append(f"{name}: pass is not true")
        elif name in first:
            problems += [f"{name}{p}" for p in compare(first[name], new, tol)]
        else:
            first[name] = new
    return problems
