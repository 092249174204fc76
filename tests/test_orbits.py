"""Catalogs, shooting, orbit gates and the registry format."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from charlab import flow, orbits
from charlab.errors import InvariantViolation, SearchFailure
from charlab.flow import integrate_flow
from charlab.geometry import (make_ellipsoid, make_perturbed_ellipsoid,
                              surface_from_spec)
from charlab.orbits import (ellipsoid_catalog, dedupe_orbits, find_orbits,
                            gate_orbit, load_registry, shoot_for_orbit,
                            surface_residual, trajectory_distance,
                            write_registry)

# the shooting and gate settings the orbits stage passes at the config
# defaults: closure 1e-8, solved to 1e-2 of it, integrator 1e-12
SHOOT = {"tol": 1e-10, "int_tol": 1e-12}
GATE = {"closure_tol": 1e-8, "int_tol": 1e-12}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shoot_one(surface, point, period, oid="orbit"):
    """Per-seed shooting: the one seed (point, period) on its own."""
    return shoot_for_orbit(surface, {oid: (point, period)}, **SHOOT)[oid]


@pytest.fixture
def dop853_calls(monkeypatch):
    """The RHS count of every DOP853 solve the flow makes."""
    nfevs = []

    def counted(*args, **kw):
        res = solve(*args, **kw)
        nfevs.append(res.nfev)
        return res

    solve = flow.dop853
    monkeypatch.setattr(flow, "dop853", counted)
    return nfevs


def test_circle_catalog_periods():
    surf = make_ellipsoid([1.0])
    cat = ellipsoid_catalog(surf)
    assert len(cat) == 1
    # canonical clock 2 pi r^2
    assert cat[0].prime_period == pytest.approx(2 * np.pi, rel=1e-14)


def test_catalog_period_ratio():
    surf = make_ellipsoid([1.0, 2.0**0.25])
    cat = ellipsoid_catalog(surf)
    ratio = cat[1].prime_period / cat[0].prime_period
    assert ratio == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_catalog_orbits_on_surface():
    surf = make_ellipsoid([1.0, 1.1, 0.9])
    for orb in ellipsoid_catalog(surf):
        assert surface_residual(surf, orb) <= 1e-12


def test_rationally_dependent_radii_warn():
    with pytest.warns(UserWarning, match="rationally dependent"):
        ellipsoid_catalog(make_ellipsoid([1.0, np.sqrt(2.0)]))


def test_shoot_from_exact_orbit_is_fixed_point(ell2_bundle):
    surf, cat = ell2_bundle.surface, ell2_bundle.orbits
    found = shoot_one(surf, cat[0].trajectory.x0, cat[0].prime_period)
    assert abs(found.prime_period - cat[0].prime_period) <= 1e-10
    assert trajectory_distance(found, cat[0]) <= 1e-9


def test_perturbed_continuation_small_period_shift():
    delta = 1e-3
    base = make_ellipsoid([1.0, 2.0**0.25])
    pert = make_perturbed_ellipsoid([1.0, 2.0**0.25],
                                    [0.3, -0.2, 0.15, 0.1], delta)
    cat = ellipsoid_catalog(base)
    orbs = find_orbits(pert, **SHOOT)
    assert len(orbs) == 2
    for orb, ref in zip(orbs, cat):
        assert abs(orb.prime_period - ref.prime_period) <= 10.0 * delta
    gate_orbit(pert, orbs, **GATE)


def test_lockstep_search_equals_per_seed_shooting():
    # the stacked sweeps find what each seed's own shooting finds
    base = make_ellipsoid([1.0, 2.0**0.25])
    pert = make_perturbed_ellipsoid([1.0, 2.0**0.25],
                                    [0.3, -0.2, 0.15, 0.1], 1e-3)
    found = find_orbits(pert, **SHOOT)
    for orb, ref in zip(found, ellipsoid_catalog(base)):
        alone = shoot_one(pert, ref.trajectory.x0, ref.prime_period,
                          orb.orbit_id)
        assert abs(orb.prime_period - alone.prime_period) <= 1e-10
        assert np.max(np.abs(orb.trajectory.xs - alone.trajectory.xs)) <= 1e-10


def test_far_seed_fails_without_fabrication(monkeypatch):
    surf = make_ellipsoid([1.0, 2.0**0.25])
    cat = ellipsoid_catalog(surf)
    far = (np.array([0.7, 0.6, 0.3, -0.4]), 1.0)
    # Newton drives tau to about 1e-18, where every point closes trivially
    with pytest.raises(SearchFailure, match="^orbit far: shooting collapsed"):
        shoot_for_orbit(surf, {"far": far}, **SHOOT)
    monkeypatch.setattr(orbits, "_NEWTON_ITER", 6)
    with pytest.raises(SearchFailure, match="^orbit far: shooting"):
        shoot_for_orbit(surf, {"far": far}, **SHOOT)
    # in lockstep with a seed that converges, the failure still names it
    with pytest.raises(SearchFailure, match="^orbit far: shooting"):
        shoot_for_orbit(surf, {"y1": (cat[0].trajectory.x0,
                                      cat[0].prime_period), "far": far},
                        **SHOOT)


def test_iterate_folds_to_prime():
    surf = make_ellipsoid([1.0])
    cat = ellipsoid_catalog(surf)
    found = shoot_one(surf, cat[0].trajectory.x0, 2.0 * cat[0].prime_period)
    assert found.prime_period == pytest.approx(cat[0].prime_period, rel=1e-8)


@pytest.fixture
def flow_solves(monkeypatch):
    """The end times of every ``integrate_flow`` call the orbit search
    makes, one list per call."""
    ends = []

    def counted(surface, starts, **kw):
        ends.append([t_end for _, t_end in starts.values()])
        return integrate_flow(surface, starts, **kw)

    monkeypatch.setattr(orbits, "integrate_flow", counted)
    return ends


def test_shot_prime_orbit_takes_one_flow_solve(flow_solves):
    # Newton runs on the stacked variational solves; after them, one dense
    # solve of both loops gives the prime-period tests and the stored loops
    pert = make_perturbed_ellipsoid([1.0, 2.0**0.25],
                                    [0.3, -0.2, 0.15, 0.1], 1e-4)
    found = find_orbits(pert, **SHOOT)
    assert len(found) == 2
    assert flow_solves == [[orb.prime_period for orb in found]]
    fresh = integrate_flow(pert, {orb.orbit_id: (orb.trajectory.x0,
                                                 orb.prime_period)
                                  for orb in found}, tol=1e-12)
    for orb in found:
        assert np.array_equal(orb.trajectory.xs, fresh[orb.orbit_id].xs)


def test_folded_seed_takes_a_second_solve_over_the_prime_loop(flow_solves):
    surf = make_ellipsoid([1.0])
    cat = ellipsoid_catalog(surf)
    found = shoot_one(surf, cat[0].trajectory.x0, 2.0 * cat[0].prime_period)
    assert len(flow_solves) == 2
    assert flow_solves[1] == [found.prime_period]
    assert flow_solves[0] == [pytest.approx(2.0 * found.prime_period,
                                            rel=1e-12)]


@pytest.mark.parametrize("config, search, gate", [("perturbed_2d", 3, 0),
                                                  ("ellipsoid_3d", 0, 1)])
def test_orbits_stage_solve_counts(dop853_calls, config, search, gate):
    # perturbed: one stacked variational solve at the seeds, one at the
    # accepted trial points, one dense flow solve; the gate reuses its
    # closures.  Ellipsoid: the catalog, gated in one stacked solve
    spec = json.loads((CONFIGS / f"{config}.json").read_text())["surface"]
    surface = surface_from_spec(spec)
    found = find_orbits(surface, **SHOOT)
    assert len(dop853_calls) == search
    gate_orbit(surface, found, **GATE)
    assert len(dop853_calls) == search + gate


def test_gate_fails_a_reused_loop_that_does_not_close(perturbed_bundle,
                                                      dop853_calls):
    pert, orb = perturbed_bundle.surface, perturbed_bundle.orbits[0]
    long = orb.prime_period * (1.0 + 1e-3)
    loop = integrate_flow(pert, {orb.orbit_id: (orb.trajectory.x0, long)},
                          tol=1e-12)[orb.orbit_id]
    assert len(dop853_calls) == 1
    # the flow's own loop over the claimed period: its closure is reused
    with pytest.raises(InvariantViolation, match=f"orbit {orb.orbit_id}: "
                                                 f"closure residual"):
        gate_orbit(pert, [replace(orb, prime_period=long, trajectory=loop)],
                   **GATE)
    assert len(dop853_calls) == 1
    # a loop over another time than the period is not: the gate integrates
    gates = gate_orbit(pert, [replace(orb, trajectory=loop)], **GATE)
    assert len(dop853_calls) == 2
    assert gates[orb.orbit_id]["closure"] <= 1e-8 < loop.closure_residual


def test_gate_fails_a_catalog_orbit_off_its_period(ell3_bundle, dop853_calls):
    cat = list(ell3_bundle.orbits)
    cat[1] = replace(cat[1], prime_period=cat[1].prime_period * (1.0 + 1e-3))
    with pytest.raises(InvariantViolation, match=f"orbit {cat[1].orbit_id}: "
                                                 f"closure residual"):
        gate_orbit(ell3_bundle.surface, cat, **GATE)
    assert len(dop853_calls) == 1


def test_dedupe_folds_coincident():
    surf = make_ellipsoid([1.0, 2.0**0.25])
    cat = ellipsoid_catalog(surf)
    shifted = shoot_one(surf, cat[0].trajectory.xs[40], cat[0].prime_period)
    kept = dedupe_orbits([cat[0], shifted, cat[1]])
    assert len(kept) == 2


def test_registry_roundtrip(tmp_path, ell2_bundle):
    surf, orbits = ell2_bundle.surface, ell2_bundle.orbits
    f = tmp_path / "orbits.json"
    write_registry(orbits, f, {})
    loaded = load_registry(f, surf)
    assert [o.orbit_id for o in loaded] == [o.orbit_id for o in orbits]
    for a, b in zip(loaded, orbits):
        assert a.prime_period == b.prime_period
        assert trajectory_distance(a, b) <= 1e-10
    payload = json.loads(f.read_text())
    rec = payload["orbits"][0]
    assert set(rec) >= {"id", "prime_period", "provenance", "samples", "rho",
                        "critical_value"}


def test_every_orbit_passes_flow_closure_gate(ell3_bundle):
    gates = gate_orbit(ell3_bundle.surface, ell3_bundle.orbits, **GATE)
    assert list(gates) == [orb.orbit_id for orb in ell3_bundle.orbits]
    for rep in gates.values():
        assert rep["closure"] <= 1e-8


def test_custom_surface_shoots_from_seeds():
    from charlab.geometry import Hypersurface, check_surface_invariants

    base = make_ellipsoid([1.0, 2.0**0.25])
    custom = Hypersurface(base.dim_n, base.gauge, base.gauge_grad, base.jet,
                          "custom")
    check_surface_invariants(custom, np.random.default_rng(0))
    seeds = {"y1": ([1.02, 0.03, -0.02, 0.01], 6.4),
             "y2": ([0.02, 1.2, 0.01, 0.05], 8.8)}
    orbs = dedupe_orbits(list(shoot_for_orbit(custom, seeds,
                                              **SHOOT).values()))
    assert len(orbs) == 2
    periods = sorted(o.prime_period for o in orbs)
    assert periods[0] == pytest.approx(2 * np.pi, rel=1e-8)
    assert periods[1] == pytest.approx(2 * np.pi * np.sqrt(2.0), rel=1e-8)
