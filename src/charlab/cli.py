"""Batch driver: surface spec in, orbit/index/resonance reports out.

``charlab run <config.json>`` executes the pipeline stages
(geometry -> orbits -> index -> resonance); each stage writes flat files
into the output directory and later stages consume only those files.
``charlab audit <config.json>`` re-examines a finished run: it reads the
orbit registry and the index report, integrates each orbit afresh and
checks them (symplecticity, the stored iterated indices against Ekeland's
closed form on an ellipsoid and an m-period scan elsewhere, dimension-shift
bookkeeping across a K grid, convexity probes), and writes one file per
audit.

Exit codes: 0 all gates passed and identity residual within tolerance;
2 identity evaluated but conditional (incomplete degenerate data);
1 any hard failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import galerkin as gk
from .errors import (CharlabError, ConsistencyFailure, ConstructionFailure,
                     InvalidArgument, InvariantViolation, NumericFailure)
from .flow import integrate_linearized, path_max_defect
from .geometry import check_surface_invariants, lattice_gap, surface_from_spec
from .index import (IndexComputer, IterationData, compute_orbit_index_data,
                    extend_records, index_data_from_iteration)
from .orbits import (find_orbits, gate_orbit, load_registry, surface_residual,
                     trajectory_distance, write_registry)
from .resonance import (OrbitContribution, chi_partial_averages,
                        critical_type_numbers, euler_characteristics,
                        identity_check, series_ladder, write_series_csv)

ALL_STAGES = ("geometry", "orbits", "index", "resonance")


@dataclass(frozen=True)
class _Required:
    kind: str | None = None     # required only in a block of this kind


def _number(v):     # json also reads NaN and Infinity
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _list_of(test, least=0):
    return lambda v: isinstance(v, list) and len(v) >= least and all(map(test, v))


_OBJECT = ("an object", lambda v: isinstance(v, dict))
_STRING = ("a string", lambda v: isinstance(v, str))
_FLAG = ("true or false", lambda v: isinstance(v, bool))
_POSITIVE = ("a positive number", lambda v: _number(v) and v > 0)
_COUNT = ("a positive integer", lambda v: _integer(v) and v > 0)
_NUMBER_OR_NULL = ("a number or null", lambda v: v is None or _number(v))

# The input format, one row per key path: (default, what the value must be,
# test).  A path with sub-paths is a block, k_tables[] one entry of the
# k_tables file; a null that passes its test keeps the default.
_SCHEMA = {
    "surface": (_Required(), "an object or a file name holding one", _OBJECT[1]),
    "surface.kind": (_Required(), '"ellipsoid" or "perturbed_ellipsoid"',
                     lambda v: v in ("ellipsoid", "perturbed_ellipsoid")),
    "surface.radii": (_Required(), "a non-empty list of positive numbers",
                      _list_of(_POSITIVE[1], least=1)),
    "surface.perturbation": (_Required("perturbed_ellipsoid"), *_OBJECT),
    "surface.perturbation.type": (_Required(), '"quartic"', lambda v: v == "quartic"),
    "surface.perturbation.coeffs": (_Required(), "a list of numbers", _list_of(_number)),
    "surface.perturbation.magnitude": (_Required(), "a number", _number),
    "out_dir": ("out", *_STRING),
    "seed": (0, "a non-negative integer", lambda v: _integer(v) and v >= 0),
    "stages": (list(ALL_STAGES), f"a non-empty list of {', '.join(ALL_STAGES)}",
               _list_of(lambda s: s in ALL_STAGES, least=1)),
    "tolerances": ({}, *_OBJECT),
    "tolerances.integrator": (1e-12, *_POSITIVE),
    "tolerances.closure": (1e-8, *_POSITIVE),
    "tolerances.angle_tol": (1e-7, *_POSITIVE),
    "tolerances.q_max": (64, *_COUNT),
    "tolerances.identity": (1e-6, *_POSITIVE),
    "index": ({}, *_OBJECT),
    "index.m_max": (20, *_COUNT),
    "index.alpha": (1.5, "a number in (1, 2)", lambda v: _number(v) and 1 < v < 2),
    "galerkin": ({}, *_OBJECT),
    "galerkin.enable": (False, *_FLAG),
    "galerkin.T": (1.0, "a positive number or null",
                   lambda v: v is None or _POSITIVE[1](v)),
    "galerkin.ratio": (0.8, *_NUMBER_OR_NULL),
    "galerkin.theta": (0.08, *_NUMBER_OR_NULL),
    "galerkin.alpha": (1.92, *_NUMBER_OR_NULL),
    "galerkin.K": (None, *_NUMBER_OR_NULL),
    "galerkin.mode_cut": (None, "an integer or null", lambda v: v is None or _integer(v)),
    "morse": ({}, *_OBJECT),
    "morse.enable": (True, *_FLAG),
    "morse.N_list": ([50, 100, 200], "a non-empty list of positive integers",
                     _list_of(_COUNT[1], least=1)),
    "k_tables": (None, "a file name or null", lambda v: v is None or isinstance(v, str)),
    "k_tables[].orbit_id": (_Required(), *_STRING),
    "k_tables[].m": (_Required(), "an integer", _integer),
    "k_tables[].k": (_Required(), "a list of integers", _list_of(_integer)),
}


def _checked(block, path: str = "") -> dict:
    """The block at key path ``path`` (``""`` the whole config) with the
    defaults of ``_SCHEMA`` filled in and its sub-blocks walked.  A block
    that is not an object, an unknown or missing required key and a value
    that fails its test are rejected by key path (bare in a k_tables entry)."""
    if not isinstance(block, dict):
        raise InvalidArgument(f"config {path or 'file'} must be a JSON object")
    at = path + "." if path and not path.endswith("[]") else ""
    keys = {p.rpartition(".")[2]: p for p in _SCHEMA if p.rpartition(".")[0] == path}
    for key in block:
        if key not in keys:
            raise InvalidArgument(f"unknown config key '{at}{key}'; "
                                  f"valid: {', '.join(sorted(keys))}")
    checked = {}
    for key, p in keys.items():
        default, kind, ok = _SCHEMA[p]
        value = block.get(key)
        if key in block and not ok(value):
            raise InvalidArgument(f"config key '{at}{key}' must be {kind}, got {value!r}")
        if value is None and isinstance(default, _Required):
            if default.kind in (None, block.get("kind")):
                raise InvalidArgument(f"config missing required field '{at}{key}'")
            continue
        value = copy.deepcopy(default) if value is None else value
        # only a block's test accepts an object
        checked[key] = _checked(value, p) if isinstance(value, dict) else value
    return checked


def _read_json(path: Path, what: str):
    """The decoded JSON file ``path``; a missing or malformed file is
    rejected naming ``what`` and the file."""
    if not path.is_file():
        raise InvalidArgument(f"{what}: file {path} does not exist")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise InvalidArgument(f"{what}: malformed file {path}: line "
                              f"{e.lineno} col {e.colno}: {e.msg}")


def _load_k_tables(path) -> dict:
    """orbit id -> {m: type vector} from a ``k_tables`` file, a JSON list of
    ``k_tables[]`` entries; anything else is rejected naming the file, the
    entry and the field."""
    if path is None:
        return {}
    entries = _read_json(path, "config field k_tables")
    if not isinstance(entries, list):
        raise InvalidArgument(f"config field k_tables: file {path} must "
                              f"hold a JSON list")
    tables = {}
    for i, entry in enumerate(entries):
        try:
            e = _checked(entry, "k_tables[]")
        except InvalidArgument as err:
            raise InvalidArgument(f"config field k_tables: file {path}, "
                                  f"entry {i}: {err}") from None
        tables.setdefault(e["orbit_id"], {})[e["m"]] = e["k"]
    return tables


@dataclass
class RunConfig:
    surface_spec: dict
    out_dir: Path
    seed: int
    stages: tuple
    tolerances: dict
    index_opts: dict
    galerkin: gk.ReductionOptions
    galerkin_enable: bool
    morse_opts: dict
    k_tables: dict

    @classmethod
    def load(cls, path, overrides=None):
        """The config file ``path`` checked against ``_SCHEMA``, after the
        ``overrides`` (``tol``, ``out_dir``, ``seed``, ``stages``; None or
        empty keeps the file's) replace their keys, so flags are checked too."""
        path = Path(path)
        raw = _read_json(path, "config")
        if isinstance(raw, dict):
            overrides = overrides or {}
            for key in ("out_dir", "seed", "stages"):
                if overrides.get(key) not in (None, "", []):
                    raw[key] = overrides[key]
            tol = raw.setdefault("tolerances", {})
            if overrides.get("tol") is not None and isinstance(tol, dict):
                tol["integrator"] = overrides["tol"]
            # a surface file, like k_tables, resolves against the config's
            # directory; out_dir stays relative to the working directory
            if isinstance(raw.get("surface"), str):
                raw["surface"] = _read_json(path.parent / raw["surface"],
                                            "config field surface")
        block = _checked(raw)
        enable = block["galerkin"].pop("enable")
        opts = gk.ReductionOptions(**block["galerkin"])
        K, T = opts.K, opts.T
        if K is not None and lattice_gap(K, T) < 1e-6:
            raise InvalidArgument(
                f"config field galerkin.K: K*T = {K * T} is within "
                f"1e-6 of a multiple of 2*pi")
        morse, n = block["morse"], len(block["surface"]["radii"])
        if morse["enable"] and min(morse["N_list"]) <= 2 * n * n:
            raise InvalidArgument(
                f"config key 'morse.N_list' must hold integers above 2n^2 = "
                f"{2 * n * n} (n = {n}, the number of surface.radii), got "
                f"{morse['N_list']}")
        tables = block["k_tables"]
        return cls(
            surface_spec=raw["surface"],    # as given: surface_check.json embeds it
            out_dir=Path(block["out_dir"]), seed=block["seed"],
            stages=tuple(block["stages"]), tolerances=block["tolerances"],
            index_opts=block["index"], galerkin=opts, galerkin_enable=enable,
            morse_opts=morse,
            k_tables=_load_k_tables(None if tables is None else path.parent / tables))


def _dump(obj, path: Path):
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _orbit_paths(surface, orbits, cfg):
    """The linearized index paths of all registry orbits, in one solve."""
    starts = {o.orbit_id: (o.trajectory.x0, o.prime_period) for o in orbits}
    return integrate_linearized(surface, starts, cfg.index_opts["alpha"],
                                tol=cfg.tolerances["integrator"])


def _registry(cfg, surface) -> list:
    """The orbits of the run's ``orbits.json``, at least one, each on the
    configured surface: max |j(x) - 1| over its samples within ``closure``."""
    reg = cfg.out_dir / "orbits.json"
    if not reg.exists():
        raise InvalidArgument(
            f"missing orbit registry {reg}; run the orbits stage first")
    orbits = load_registry(reg, surface)
    if not orbits:
        raise ConsistencyFailure(f"{reg.name} lists no orbits; rerun the orbits stage")
    closure = cfg.tolerances["closure"]
    for orb in orbits:
        dev = surface_residual(surface, orb)
        if not dev <= closure:
            raise ConsistencyFailure(
                f"{reg.name}, orbit {orb.orbit_id}: samples leave the "
                f"configured surface by {dev!r} in the gauge (closure "
                f"{closure}); rerun the orbits stage")
    return orbits


def stage_geometry(cfg, surface):
    rng = np.random.default_rng(cfg.seed)
    report = check_surface_invariants(surface, rng)
    _dump({"surface": cfg.surface_spec, "checks": report},
          cfg.out_dir / "surface_check.json")


def stage_orbits(cfg, surface):
    tol = cfg.tolerances
    orbits = find_orbits(surface, tol=tol["closure"] * 1e-2,
                         int_tol=tol["integrator"])
    gates = {}
    for orb in orbits:
        gates[orb.orbit_id] = gate_orbit(surface, orb,
                                         closure_tol=tol["closure"],
                                         int_tol=tol["integrator"])
    extra = {"gates": gates}
    if cfg.galerkin_enable:
        extra["galerkin"] = _galerkin_cross_validate(cfg, surface, orbits)
    write_registry(orbits, cfg.out_dir / "orbits.json", extra)


def _galerkin_cross_validate(cfg, surface, orbits) -> dict:
    out = {}
    for orb in orbits:
        spec, system, vec = gk.reduced_critical_point(
            surface, orb, cfg.galerkin, seed=cfg.seed)
        gorb, info = gk.orbit_from_critical(system, vec, orb.orbit_id + "-g")
        formula = gk.critical_value_formula(spec, info["rho"])
        orb.rho = info["rho"]
        orb.critical_value = gorb.critical_value
        out[orb.orbit_id] = {
            "distance": trajectory_distance(orb, gorb),
            "period_diff": abs(orb.prime_period - gorb.prime_period),
            "critical_value": gorb.critical_value,
            "critical_value_formula": formula,
            "critical_value_negative": gorb.critical_value < 0,
            "rho": info["rho"],
        }
    return out


def _check_k_periodic(d):
    """Extend the records to 4 K(y) and check that nullity and index parity
    repeat with period K(y) for p <= 3 K(y)."""
    K = d.K_of_y
    extend_records(d, 4 * K)
    for p in range(1, 3 * K + 1):
        if d.nullity(p + K) != d.nullity(p):
            raise InvariantViolation(
                f"orbit {d.orbit_id}: nullity not K-periodic at p={p}")
        if (d.index(p + K) - d.index(p)) % 2 != 0:
            raise InvariantViolation(
                f"orbit {d.orbit_id}: index parity not K-periodic at p={p}")


def _index_summary(d) -> dict:
    """The fields of an orbit's index report derived from its records."""
    frac = d.mean_index_fraction
    return {
        "mean_index": d.mean_index,
        "mean_index_exact": (f"{frac.numerator}/{frac.denominator}"
                             if frac is not None else None),
        "mean_index_bar": d.mean_index_bar,
        "slope_estimate": d.slope_estimate,
        "K_of_y": d.K_of_y,
    }


def stage_index(cfg, surface):
    orbits = _registry(cfg, surface)
    paths = _orbit_paths(surface, orbits, cfg)
    tol = cfg.tolerances
    report = {"orbits": {}}
    for orb in orbits:
        path = paths[orb.orbit_id]
        d = compute_orbit_index_data(
            orb.orbit_id, IndexComputer(path),
            m_max=int(cfg.index_opts["m_max"]), q_max=int(tol["q_max"]),
            angle_tol=tol["angle_tol"])
        _check_k_periodic(d)
        report["orbits"][orb.orbit_id] = {
            "records": [[r.iterate_m, r.index_i, r.nullity_nu]
                        for r in d.records],
            "iteration": {**d.iteration.to_json(),
                          "prime_period": orb.prime_period},
            **_index_summary(d),
            "symplecticity_defect": path.defect,
            "method": "both",
        }
    _dump(report, cfg.out_dir / "index_report.json")


def stage_index_from_files(cfg, surface, orbits):
    """Index data rebuilt from the iteration blocks of the stored report,
    which must name the registry's orbits and prime periods and whose
    records, mean index fields and K(y) the rebuilt data must reproduce;
    nothing is integrated or scanned, and the report is left untouched."""
    report_path = cfg.out_dir / "index_report.json"
    if not report_path.exists():
        raise InvalidArgument(
            f"missing {report_path}; run the index stage first")
    try:
        stored = json.loads(report_path.read_text())["orbits"]
    except (KeyError, TypeError, ValueError) as e:
        raise ConsistencyFailure(f"{report_path.name} unreadable ({e!r}); "
                                 f"rerun the index stage")
    if not isinstance(stored, dict):
        raise ConsistencyFailure(f"{report_path.name}: 'orbits' is not an "
                                 f"object; rerun the index stage")
    ids = sorted(orb.orbit_id for orb in orbits)
    if sorted(stored) != ids:
        raise ConsistencyFailure(
            f"{report_path.name} lists orbits {sorted(stored)}, the registry "
            f"{ids}; rerun the index stage")
    data = {}
    for orb in orbits:
        oid, block = orb.orbit_id, stored[orb.orbit_id]
        if not isinstance(block, dict):
            raise ConsistencyFailure(f"{report_path.name}, orbit {oid}: not "
                                     f"an object; rerun the index stage")

        def stale(key, what):
            return ConsistencyFailure(
                f"{report_path.name}, orbit {oid}, field '{key}': {what}; "
                f"rerun the index stage")

        it = block.get("iteration")
        if not isinstance(it, dict):
            raise stale("iteration", "missing (written by an older charlab)")
        if it.get("prime_period") != orb.prime_period:
            raise stale("iteration.prime_period",
                        f"{it.get('prime_period')!r}, the registry has "
                        f"{orb.prime_period!r}")
        try:
            iteration = IterationData.from_json(it, surface.dim_n)
        except (KeyError, TypeError, ValueError, ConstructionFailure) as e:
            raise stale("iteration", f"malformed ({e!r})")
        d = index_data_from_iteration(oid, iteration,
                                      m_max=int(cfg.index_opts["m_max"]),
                                      q_max=int(cfg.tolerances["q_max"]))
        _check_k_periodic(d)
        rows = block.get("records")
        if not isinstance(rows, list):
            raise stale("records", "missing")
        extend_records(d, len(rows))
        if len(rows) != len(d.records):
            raise stale("records", f"{len(rows)} rows stored, "
                                   f"{len(d.records)} rebuilt from the "
                                   f"iteration block")
        for row, r in zip(rows, d.records):
            if row != [r.iterate_m, r.index_i, r.nullity_nu]:
                raise stale("records", f"{row!r} stored, (i, nu) = "
                            f"({r.index_i}, {r.nullity_nu}) at iterate "
                            f"{r.iterate_m} rebuilt from the iteration block")
        for key, value in _index_summary(d).items():
            if block.get(key) != value:
                raise stale(key, f"{block.get(key)!r} stored, {value!r} "
                                 f"rebuilt from the iteration block")
        data[oid] = d
    return data


def stage_resonance(cfg, surface) -> int:
    """Write the resonance report and the run summary; the run's exit code."""
    orbits = _registry(cfg, surface)
    index_data = stage_index_from_files(cfg, surface, orbits)
    contributions = []
    tables = {}
    per_orbit = {}
    for orb in orbits:
        d = index_data[orb.orbit_id]
        table = critical_type_numbers(d, cfg.k_tables.get(orb.orbit_id))
        tables[orb.orbit_id] = table
        chis, chi_hat = euler_characteristics(table, d)
        avgs = chi_partial_averages(table, d, 3 * d.K_of_y)
        hits = all(avgs[j * d.K_of_y - 1] == chi_hat
                   for j in range(1, 4) if j * d.K_of_y <= len(avgs))
        contributions.append(OrbitContribution(
            orbit_id=orb.orbit_id, mean_index=d.mean_index_exact,
            mean_index_bar=d.mean_index_bar, chi_hat=chi_hat, chis=chis,
            K_of_y=d.K_of_y, excluded=not table.complete,
            reason="" if table.complete else
            f"degenerate iterates {table.degenerate_ms} lack type data"))
        per_orbit[orb.orbit_id] = {
            "partial_average_hits_closed_form": bool(hits),
            "degenerate_iterates": table.degenerate_ms,
        }
    report = identity_check(contributions)
    payload = report.to_json_dict()
    payload["per_orbit_diagnostics"] = per_orbit

    if cfg.morse_opts.get("enable") and not report.conditional:
        included = [c.orbit_id for c in contributions
                    if not c.excluded and c.orbit_id not in report.zero_mean_orbits]
        datas = [index_data[i] for i in included]
        tabs = [tables[i] for i in included]
        if datas:
            rungs, C2, stable = series_ladder(
                datas, tabs, N_list=tuple(cfg.morse_opts["N_list"]),
                s_plus=float(report.S_plus))
            payload["series"] = {
                "rungs": [{"N": r["N"], "eval_plus": r["series"].eval_plus,
                           "eval_minus": r["series"].eval_minus,
                           "ratio_plus": r["ratio_plus"],
                           "ratio_minus": r["ratio_minus"],
                           "deviation": r["deviation"],
                           "count_bound_ok": r["series"].count_bound_ok,
                           "C1": r["series"].C1}
                          for r in rungs],
                "C2": C2,
                "stable": stable,
            }
            write_series_csv(rungs[-1]["series"], cfg.out_dir / "morse_series.csv")
    _dump(payload, cfg.out_dir / "resonance_report.json")
    tolerance = cfg.tolerances["identity"]
    _dump({"identity_residual": report.S_plus_residual,
           "conditional": report.conditional, "tolerance": tolerance},
          cfg.out_dir / "run_summary.json")
    if report.conditional:
        return 2
    return 1 if report.S_plus_residual > tolerance else 0


def run(cfg: RunConfig) -> int:
    """Run the selected stages in pipeline order on one surface; each reads
    what it needs from the files of the stages before it."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    surface = surface_from_spec(cfg.surface_spec)
    stages = {"geometry": stage_geometry, "orbits": stage_orbits,
              "index": stage_index, "resonance": stage_resonance}
    code = 0
    for name in ALL_STAGES:
        if name in cfg.stages:
            code = stages[name](cfg, surface) or 0
    return code


def bott_witness(surface, orb, path, tolerances, m_max):
    """(name, m_max, pair) of the reference the audit checks an orbit's
    stored (i, nu) against for every m <= m_max, pair(m) -> (i, nu).

    On an ellipsoid it is Ekeland's closed form for the planar orbit y_k,
    the axis whose period 2 pi r_k^2 is the prime period within ``closure``:
    with q_j = r_k^2 / r_j^2, i(y_k^m) = 2m - 2 + sum_{j != k} 2(ceil(m q_j) - 1)
    and nu(y_k^m) = 1 + 2 #{j != k : m q_j in Z}, m q_j counted as an integer
    within ``angle_tol`` / 2 pi of one; m <= 100.  Elsewhere it is the
    segment scanner over all m periods of ``path``, m <= ``m_max``.  An
    ellipsoid orbit on no axis is a ConsistencyFailure naming it.
    """
    if surface.kind != "ellipsoid":
        return "segment-scanner", m_max, IndexComputer(path).index_pair
    sq = np.asarray(surface.meta["radii"], dtype=float) ** 2
    axes = np.flatnonzero(np.abs(2 * np.pi * sq - orb.prime_period)
                          <= tolerances["closure"])
    if not axes.size:
        raise ConsistencyFailure(
            f"orbit {orb.orbit_id}: prime period {orb.prime_period!r} is no "
            f"axis period 2 pi r_k^2 within {tolerances['closure']}")
    q = np.delete(sq[axes[0]] / sq, axes[0])
    gap = tolerances["angle_tol"] / (2 * np.pi)
    m = np.arange(1, 101)
    x = m[:, None] * q                  # all iterates in one pass
    whole = np.abs(x - np.round(x)) <= gap
    steps = np.where(whole, np.round(x) - 1, np.floor(x)).sum(axis=1)
    pairs = [(2 * int(k) - 2 + 2 * int(s), 1 + 2 * int(w))
             for k, s, w in zip(m, steps, whole.sum(axis=1))]
    return "ekeland-closed-form", 100, lambda k: pairs[k - 1]


def audit(cfg: RunConfig) -> int:
    surface = surface_from_spec(cfg.surface_spec)
    orbits = _registry(cfg, surface)
    index_data = stage_index_from_files(cfg, surface, orbits)
    paths = _orbit_paths(surface, orbits, cfg)
    ok = True

    sympl = {oid: path_max_defect(p) for oid, p in paths.items()}
    sympl_ok = all(v <= 1e-8 for v in sympl.values())
    ok &= sympl_ok
    _dump({"max_defect_per_orbit": sympl, "gate": 1e-8, "pass": sympl_ok},
          cfg.out_dir / "audit_symplecticity.json")

    # the stored formula values against a witness that does not use them
    bott = {}
    bott_ok = True
    for orb in orbits:
        oid, d = orb.orbit_id, index_data[orb.orbit_id]
        extend_records(d, 100)
        dev = [abs(r.index_i - r.iterate_m * d.mean_index) for r in d.records]
        nu_ok = all(1 <= r.nullity_nu <= 2 * d.dim_n - 1 for r in d.records)
        bott[oid] = entry = {
            "max_deviation": max(dev), "bound": 2 * d.dim_n,
            "violations": sum(v > 2 * d.dim_n + 1e-9 for v in dev),
            "nullity_bounds_ok": nu_ok}
        try:
            name, m_ref, ref_pair = bott_witness(
                surface, orb, paths[oid], cfg.tolerances,
                int(cfg.index_opts["m_max"]))
        except ConsistencyFailure as e:
            print(f"charlab audit: {e}", file=sys.stderr)
            name, m_ref = "ekeland-closed-form", 0
            entry["witness_failure"] = str(e)
        mismatches = []
        for m in range(1, m_ref + 1):
            ref = ref_pair(m)
            if ref != (d.index(m), d.nullity(m)):
                mismatches.append([m, d.index(m), d.nullity(m), *ref])
                print(f"charlab audit: orbit {oid}, iterate {m}: "
                      f"index_report.json has (i, nu) = "
                      f"({d.index(m)}, {d.nullity(m)}), {name} {ref}",
                      file=sys.stderr)
        entry.update(witness=name, witness_m_max=m_ref,
                     witness_mismatches=mismatches)
        bott_ok &= (entry["violations"] == 0 and nu_ok and not mismatches
                    and "witness_failure" not in entry)
    ok &= bott_ok
    _dump({"orbits": bott, "pass": bott_ok}, cfg.out_dir / "audit_bott.json")

    # one Hamiltonian per orbit at the auto-selected K, whatever galerkin.K says
    auto = replace(cfg.galerkin, K=None)
    kshift, specs = {}, []
    kshift_ok = True
    audit_orbits = orbits if surface.dim_n <= 2 else orbits[:1]
    for orb in audit_orbits:
        d = index_data[orb.orbit_id]
        spec = auto.spec(surface, orb.prime_period, seed=cfg.seed)
        specs.append(spec)
        chk = gk.k_shift_audit(spec, orb, gk.suggest_K_grid(spec), seed=cfg.seed,
                               path_index=d.index(1), path_nullity=d.nullity(1))
        values = {repr(K): v for K, v in zip(chk.K_values[:3],
                                             chk.critical_values[:3])}
        vlist = list(values.values())
        value_const = max(vlist) - min(vlist) <= 1e-8
        value_neg = all(v < 0 for v in vlist)
        kshift[orb.orbit_id] = {
            "K_values": chk.K_values, "d_of_K": chk.d_of_K,
            "morse_indices": chk.morse_indices, "nullities": chk.nullities,
            "shifted": chk.shifted, "path_index": chk.path_index,
            "consistent": chk.consistent,
            "critical_values": values,
            "critical_value_spread": max(vlist) - min(vlist),
            "critical_value_constant": value_const,
            "critical_value_negative": value_neg,
        }
        kshift_ok &= chk.consistent and value_const and value_neg
    ok &= kshift_ok
    _dump({"orbits": kshift, "pass": kshift_ok},
          cfg.out_dir / "audit_k_shift.json")

    rng = np.random.default_rng(cfg.seed)
    spec = specs[0]     # the first orbit's
    U = rng.normal(size=(10000, surface.dim)) * 3.0
    V = rng.normal(size=(10000, surface.dim)) * 3.0
    lhs = np.sum((spec.hk_grad(U) - spec.hk_grad(V)) * (U - V), axis=1)
    rhs = 0.5 * spec.convexity_eps * np.sum((U - V)**2, axis=1)
    margin = float(np.min(lhs - rhs))
    conv_ok = margin >= 0.0
    ok &= conv_ok
    _dump({"pairs": 10000, "eps": spec.convexity_eps,
           "min_margin": margin, "pass": conv_ok},
          cfg.out_dir / "audit_convexity.json")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="charlab",
        description="closed characteristics: orbits, indices, resonance identity")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("run", "audit"):
        p = sub.add_parser(name)
        p.add_argument("config", help="JSON run configuration")
        p.add_argument("--tol", type=float, default=None,
                       help="override integrator tolerance")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--stages", default=None,
                       help="comma-separated stage subset")
    args = ap.parse_args(argv)
    overrides = {
        "tol": args.tol,
        "out_dir": args.out_dir,
        "seed": args.seed,
        "stages": args.stages.split(",") if args.stages else None,
    }
    try:
        cfg = RunConfig.load(args.config, overrides)
        if args.command == "run":
            code = run(cfg)
        else:
            code = audit(cfg)
    except InvalidArgument as e:
        print(f"charlab: usage error: {e}", file=sys.stderr)
        return 1
    except CharlabError as e:
        print(f"charlab: {type(e).__name__}: {e}", file=sys.stderr)
        if isinstance(e, NumericFailure) and e.info:
            print("charlab: diagnostics: " + ", ".join(
                f"{k}={v!r}" for k, v in sorted(e.info.items())),
                file=sys.stderr)
        return 1
    print(f"charlab {args.command}: exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
