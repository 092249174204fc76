"""Catalogs, shooting, orbit gates and the registry format."""

import json

import numpy as np
import pytest

from charlab import orbits
from charlab.errors import SearchFailure
from charlab.flow import integrate_flow
from charlab.geometry import make_ellipsoid, make_perturbed_ellipsoid
from charlab.orbits import (ellipsoid_catalog, dedupe_orbits, find_orbits,
                            gate_orbit, load_registry, shoot_for_orbit,
                            surface_residual, trajectory_distance,
                            write_registry)

# the shooting and gate settings the orbits stage passes at the config
# defaults: closure 1e-8, solved to 1e-2 of it, integrator 1e-12
SHOOT = {"tol": 1e-10, "int_tol": 1e-12}
GATE = {"closure_tol": 1e-8, "int_tol": 1e-12}


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
    found = shoot_for_orbit(surf, cat[0].trajectory.x0, cat[0].prime_period,
                            **SHOOT, orbit_id="orbit")
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
        gate_orbit(pert, orb, **GATE)


def test_far_seed_fails_without_fabrication(monkeypatch):
    surf = make_ellipsoid([1.0, 2.0**0.25])
    monkeypatch.setattr(orbits, "_NEWTON_ITER", 6)
    with pytest.raises(SearchFailure):
        shoot_for_orbit(surf, np.array([0.7, 0.6, 0.3, -0.4]), 1.0, **SHOOT,
                        orbit_id="orbit")


def test_iterate_folds_to_prime():
    surf = make_ellipsoid([1.0])
    cat = ellipsoid_catalog(surf)
    found = shoot_for_orbit(surf, cat[0].trajectory.x0,
                            2.0 * cat[0].prime_period, **SHOOT,
                            orbit_id="orbit")
    assert found.prime_period == pytest.approx(cat[0].prime_period, rel=1e-8)


@pytest.fixture
def flow_solves(monkeypatch):
    """The end time of every ``integrate_flow`` call the orbit search makes."""
    ends = []

    def counted(surface, x0, t_end, **kw):
        ends.append(t_end)
        return integrate_flow(surface, x0, t_end, **kw)

    monkeypatch.setattr(orbits, "integrate_flow", counted)
    return ends


def test_shot_prime_orbit_takes_one_flow_solve(flow_solves):
    # Newton runs on the variational solve; after it, one dense solve over
    # the period gives both the prime-period test and the stored loop
    pert = make_perturbed_ellipsoid([1.0, 2.0**0.25],
                                    [0.3, -0.2, 0.15, 0.1], 1e-4)
    found = find_orbits(pert, **SHOOT)
    assert flow_solves == [orb.prime_period for orb in found]
    for orb in found:
        ref = integrate_flow(pert, orb.trajectory.x0, orb.prime_period,
                             tol=1e-12)
        assert np.array_equal(orb.trajectory.xs, ref.xs)


def test_folded_seed_takes_a_second_solve_over_the_prime_loop(flow_solves):
    surf = make_ellipsoid([1.0])
    cat = ellipsoid_catalog(surf)
    found = shoot_for_orbit(surf, cat[0].trajectory.x0,
                            2.0 * cat[0].prime_period, **SHOOT,
                            orbit_id="orbit")
    assert len(flow_solves) == 2
    assert flow_solves[1] == found.prime_period
    assert flow_solves[0] == pytest.approx(2.0 * found.prime_period, rel=1e-12)


def test_dedupe_folds_coincident():
    surf = make_ellipsoid([1.0, 2.0**0.25])
    cat = ellipsoid_catalog(surf)
    shifted = shoot_for_orbit(surf, cat[0].trajectory.xs[40],
                              cat[0].prime_period, **SHOOT, orbit_id="orbit")
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
    for orb in ell3_bundle.orbits:
        rep = gate_orbit(ell3_bundle.surface, orb, **GATE)
        assert rep["closure"] <= 1e-8


def test_custom_surface_shoots_from_seeds():
    from charlab.geometry import Hypersurface, check_surface_invariants

    base = make_ellipsoid([1.0, 2.0**0.25])
    custom = Hypersurface(base.dim_n, base.gauge, base.gauge_grad, base.jet,
                          "custom")
    check_surface_invariants(custom, np.random.default_rng(0))
    seeds = [([1.02, 0.03, -0.02, 0.01], 6.4), ([0.02, 1.2, 0.01, 0.05], 8.8)]
    orbs = dedupe_orbits([
        shoot_for_orbit(custom, np.array(point), period, **SHOOT,
                        orbit_id=f"y{k+1}")
        for k, (point, period) in enumerate(seeds)])
    assert len(orbs) == 2
    periods = sorted(o.prime_period for o in orbs)
    assert periods[0] == pytest.approx(2 * np.pi, rel=1e-8)
    assert periods[1] == pytest.approx(2 * np.pi * np.sqrt(2.0), rel=1e-8)
