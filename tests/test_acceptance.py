"""Acceptance gate: one test per criterion, each printed pass/fail.

Criteria (tolerances pinned here, nothing deferred):
 1  circle identity exact to 1e-8, under 5 s
 2  ellipsoid identities (n = 2, 3) to 1e-6, under 2 min each
 3  negative-mean sum is exactly the empty sum on convex surfaces
 4  iterated index stays within 2n of m * mean index, m <= 100, all surfaces
 5  nullity within [1, 2n-1] on every computed iterate
 6  K grid: constant nullity, Morse-minus-shift equals the path index,
    critical value constant to 1e-8 and negative
 7  K(y)-periodicity of nullity and index parity, p <= 3K(y); partial
    averages hit the closed form at multiples of K(y)
 8  reduction vs shooting agree orbit-by-orbit on n <= 2 ellipsoids
 9  series window diagnostics: coefficient count bound, ladder toward 1/2
10  symplecticity defect <= 1e-8 everywhere; invalid type tables rejected
    with the violated rule named
"""

import time
from fractions import Fraction

import numpy as np

from charlab.errors import TableRuleViolation
from charlab.flow import integrate_linearized, path_max_defect
from charlab.galerkin import (critical_value_formula, k_shift_audit,
                              orbit_from_critical, reduced_critical_point,
                              suggest_K_grid)
from charlab.geometry import make_ellipsoid
from charlab.index import (IndexComputer, compute_orbit_index_data,
                           extend_records)
from charlab.orbits import (ellipsoid_catalog, shoot_for_orbit,
                            trajectory_distance)
from charlab.resonance import (OrbitContribution, chi_partial_averages,
                               critical_type_numbers, euler_characteristics,
                               identity_check, series_ladder,
                               validate_type_vector)

from conftest import RADII_2D, RADII_3D, REDUCTION, TURNS


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {status}: {detail}")
    assert ok, detail


def full_identity(radii_or_surface, m_max=14):
    if isinstance(radii_or_surface, (list, tuple)):
        surface = make_ellipsoid(radii_or_surface)
    else:
        surface = radii_or_surface
    orbits = ellipsoid_catalog(surface) if surface.kind == "ellipsoid" else None
    contribs = []
    datas = {}
    paths = integrate_linearized(
        surface, {o.orbit_id: (o.trajectory.x0, o.prime_period) for o in orbits},
        1.5, tol=1e-12)
    for orb in orbits:
        d = compute_orbit_index_data(orb.orbit_id,
                                     IndexComputer(paths[orb.orbit_id]),
                                     m_max=m_max, **TURNS)
        table = critical_type_numbers(d, None)
        chis, chi_hat = euler_characteristics(table, d)
        contribs.append(OrbitContribution(
            orb.orbit_id, d.mean_index_exact, d.mean_index_bar, chi_hat,
            chis, d.K_of_y))
        datas[orb.orbit_id] = (orb, d, table)
    return identity_check(contribs), datas


def test_criterion_1_circle_identity():
    t0 = time.time()
    rep, datas = full_identity([1.0])
    elapsed = time.time() - t0
    _, d, _ = datas["y1"]
    residual = abs(Fraction(1) / d.mean_index_fraction - Fraction(1, 2)) \
        if d.mean_index_fraction else rep.S_plus_residual
    ok = float(residual) <= 1e-8 and rep.S_plus_exact and elapsed <= 5.0
    report(1, ok, f"|chi_hat/ihat - 1/2| = {float(residual):.3e} "
                  f"(exact: {rep.S_plus}), {elapsed:.2f} s")


def test_criterion_2_ellipsoid_identities():
    details = []
    ok = True
    for radii in (RADII_2D, RADII_3D):
        t0 = time.time()
        rep, _ = full_identity(radii)
        elapsed = time.time() - t0
        ok &= rep.S_plus_residual <= 1e-6 and elapsed <= 120.0
        details.append(f"n={len(radii)}: residual {rep.S_plus_residual:.3e} "
                       f"in {elapsed:.1f} s")
    report(2, ok, "; ".join(details))


def test_criterion_3_vacuous_negative_sum(circle_bundle, ell2_bundle,
                                          ell3_bundle):
    ok = True
    for bundle in (circle_bundle, ell2_bundle, ell3_bundle):
        contribs = []
        for oid, d in bundle.index_data.items():
            table = critical_type_numbers(d, None)
            chis, chi_hat = euler_characteristics(table, d)
            contribs.append(OrbitContribution(oid, d.mean_index_exact,
                                              d.mean_index_bar, chi_hat,
                                              chis, d.K_of_y))
        rep = identity_check(contribs)
        ok &= rep.S_zero_exact and rep.S_zero == Fraction(0)
        ok &= all(float(d.mean_index) > 0 for d in bundle.index_data.values())
    report(3, ok, "negative-mean sum is the empty sum (exact 0) on all "
                  "convex surfaces")


def test_criterion_4_iterated_index_band(circle_bundle, ell2_bundle,
                                         ell3_bundle, perturbed_bundle):
    violations = 0
    checked = 0
    for bundle in (circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle):
        for d in bundle.index_data.values():
            extend_records(d, 100)
            n = d.dim_n
            for r in d.records:
                checked += 1
                if abs(r.index_i - r.iterate_m * d.mean_index) > 2 * n + 1e-9:
                    violations += 1
    report(4, violations == 0,
           f"{checked} iterates over 4 surfaces, m <= 100: "
           f"{violations} band violations")


def test_criterion_5_nullity_bounds(circle_bundle, ell2_bundle, ell3_bundle,
                                    perturbed_bundle):
    violations = 0
    checked = 0
    for bundle in (circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle):
        for d in bundle.index_data.values():
            n = d.dim_n
            for r in d.records:
                checked += 1
                if not 1 <= r.nullity_nu <= 2 * n - 1:
                    violations += 1
    report(5, violations == 0,
           f"{checked} iterates: {violations} outside [1, 2n-1]")


def test_criterion_6_K_independence(circle_bundle):
    surf = circle_bundle.surface
    orb = circle_bundle.orbits[0]
    d = circle_bundle.index_data["y1"]
    spec = REDUCTION.spec(surf, orb.prime_period, seed=0)
    chk = k_shift_audit(spec, orb, suggest_K_grid(spec), seed=0,
                        path_index=d.index(1), path_nullity=d.nullity(1))
    nullity_const = len(set(chk.nullities)) == 1
    shift_const = len(set(chk.shifted)) == 1 and chk.shifted[0] == d.index(1)
    values = chk.critical_values[:3]
    spread = max(values) - min(values)
    ok = (nullity_const and shift_const and spread <= 1e-8
          and all(v < 0 for v in values))
    report(6, ok, f"5-pt K grid: nullities {chk.nullities}, "
                  f"shifted {chk.shifted} (path {d.index(1)}), "
                  f"value spread {spread:.2e}, negative {all(v<0 for v in values)}")


def test_criterion_7_periodicity(circle_bundle, ell2_bundle, ell3_bundle):
    ok = True
    details = []
    for bundle in (circle_bundle, ell2_bundle, ell3_bundle):
        for oid, d in bundle.index_data.items():
            K = d.K_of_y
            extend_records(d, max(4 * K, 10 * K))
            for p in range(1, 3 * K + 1):
                ok &= d.nullity(p + K) == d.nullity(p)
                ok &= (d.index(p + K) - d.index(p)) % 2 == 0
            table = critical_type_numbers(d, None)
            _, chi_hat = euler_characteristics(table, d)
            avgs = chi_partial_averages(table, d, 10 * K)
            hits = all(avgs[j * K - 1] == chi_hat for j in range(1, 11))
            ok &= hits
        details.append(f"{len(bundle.index_data)} orbits ok")
    report(7, ok, "nullity and index parity K-periodic (p <= 3K); partial "
                  "averages exact at multiples of K up to 10K")


def test_criterion_8_reduction_vs_shooting():
    ok = True
    details = []
    for radii in ([1.0], RADII_2D):
        surface = make_ellipsoid(radii)
        catalog = ellipsoid_catalog(surface)
        shot = []
        rng = np.random.default_rng(1)
        for k, ref in enumerate(catalog):
            seed_pt = ref.trajectory.x0 + 0.01 * rng.normal(
                size=surface.dim)
            orb = shoot_for_orbit(surface, seed_pt,
                                  ref.prime_period * 1.01, tol=1e-10,
                                  int_tol=1e-12, orbit_id=f"s{k+1}")
            shot.append(orb)
        matched = 0
        for orb in shot:
            spec, sys, vec = reduced_critical_point(
                surface, orb, REDUCTION, seed=0)
            gorb, info = orbit_from_critical(sys, vec, orb.orbit_id + "g")
            dist = trajectory_distance(orb, gorb)
            val_err = abs(sys.value(vec)
                          - critical_value_formula(spec, info["rho"]))
            if dist <= 1e-5 and val_err <= 1e-6:
                matched += 1
        one_to_one = matched == len(shot) == len(catalog)
        ok &= one_to_one
        details.append(f"n={surface.dim_n}: {matched}/{len(catalog)} matched")
    report(8, ok, "; ".join(details))


def test_criterion_9_series_diagnostics(ell2_bundle):
    datas, tables = [], []
    s_plus = 0.0
    for orb in ell2_bundle.orbits:
        d = ell2_bundle.index_data[orb.orbit_id]
        table = critical_type_numbers(d, None)
        _, chi_hat = euler_characteristics(table, d)
        s_plus += float(chi_hat) / d.mean_index
        datas.append(d)
        tables.append(table)
    rungs, C2, stable = series_ladder(datas, tables,
                                      N_list=(50, 100, 200), s_plus=s_plus)
    bounds_ok = all(r["series"].count_bound_ok for r in rungs)
    ratios = [r["ratio_plus"] for r in rungs]
    toward_half = all(abs(r["ratio_plus"] - 0.5) <= C2 / (2 * r["N"]) + 1e-12
                      for r in rungs)
    minus_ok = all(abs(r["ratio_minus"]) <= C2 / (2 * r["N"]) for r in rungs)
    ok = bounds_ok and stable and toward_half and minus_ok
    report(9, ok, f"ratios {['%.4f' % r for r in ratios]} -> 1/2, C2 = {C2}, "
                  f"count bound ok {bounds_ok}")


def test_criterion_10_hygiene(circle_bundle, ell2_bundle, ell3_bundle,
                              perturbed_bundle):
    worst = 0.0
    for bundle in (circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle):
        for p in bundle.paths.values():
            worst = max(worst, path_max_defect(p))
    sympl_ok = worst <= 1e-8

    rng = np.random.default_rng(23)
    rules_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        width = 2 * n - 1
        nu = int(rng.integers(1, 2 * n))
        kind = rng.choice(["negative", "support", "binary", "bottom"])
        vec = [0] * width
        if kind == "negative":
            vec[int(rng.integers(0, width))] = -1
            expect = "nonnegative-integer"
        elif kind == "support" and nu < width:
            vec[int(rng.integers(nu, width))] = 1
            expect = "support"
        elif kind == "bottom" and nu >= 2:
            vec[0] = 1
            vec[nu - 1] = 1
            expect = ("bottom-exclusive", "top-exclusive")
        else:
            vec[0] = 2
            expect = "end-values-binary"
        try:
            validate_type_vector(vec, nullity=nu, dim_n=n)
            rules_ok = False
        except TableRuleViolation as e:
            if isinstance(expect, tuple):
                rules_ok &= e.rule in expect
            else:
                rules_ok &= e.rule == expect
    ok = sympl_ok and rules_ok
    report(10, ok, f"max symplecticity defect {worst:.2e} (gate 1e-8); "
                   f"100 random invalid tables rejected with the right rule: "
                   f"{rules_ok}")
