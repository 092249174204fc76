"""Index/nullity tables, mean index, minimal period, dimension shift."""

import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from charlab.cli import bott_witness
from charlab.errors import (ConstructionFailure, InvalidArgument,
                            InvariantViolation, NumericFailure)
from charlab.flow import SymplecticPath, integrate_linearized
from charlab.index import (IndexComputer, IterationData, _first_arc_value,
                           compute_orbit_index_data, dimension_shift,
                           extend_records, minimal_period_K,
                           unit_spectrum_angles)
from charlab.sympl import standard_J

from conftest import TURNS, solve_bundle


def maslov_index(path, m):
    """Index and nullity of the m-fold iterate of the path, by the segment
    scanner."""
    return IndexComputer(path).index_pair(m)


# ---------------------------------------------------------------------------
# synthetic paths


def synthetic_path(R_of_t, S_of_t, period, n):
    d = 2 * n
    ts = np.linspace(0.0, period, 513)
    Rs = np.array([R_of_t(t) for t in ts])

    def sol(tq):
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        out = np.empty((d + d * d, len(tq)))
        for i, t in enumerate(tq):
            out[:d, i] = 0.0
            out[d:, i] = R_of_t(t).ravel()
        return out if out.shape[1] > 1 else out[:, 0]

    return SymplecticPath(ts=ts, Rs=Rs, end_monodromy=R_of_t(period),
                          period=period, defect=0.0, n=n, sol=sol,
                          S_of_t=S_of_t)


def rotation_path(omega, period, n=1):
    J = standard_J(n)

    def R(t):
        from scipy.linalg import expm
        return expm(omega * t * J)

    return synthetic_path(R, lambda t: omega * np.eye(2 * n), period, n)


def circle_model_path(alpha=1.5):
    """Closed-form path of the unit-circle orbit: rotation times a shear."""
    J = standard_J(1)

    def R(t):
        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        shear = np.array([[1.0, 0.0], [(alpha - 2.0) * t, 1.0]])
        return rot @ shear

    def S_of_t(t):
        c, s = np.cos(t), np.sin(t)
        Q = np.array([[c, -s], [s, c]])
        return Q @ np.diag([alpha - 1.0, 1.0]) @ Q.T

    return synthetic_path(R, S_of_t, 2 * np.pi, 1)


def direct_sum_path(blocks):
    """Path over the period 2pi of the direct sum of 2x2 blocks
    (R_k(t), S_k(t)), the k-th acting on (q_k, p_k)."""
    n = len(blocks)

    def embed(mats):
        out = np.zeros((2 * n, 2 * n))
        for k, m in enumerate(mats):
            out[np.ix_([k, n + k], [k, n + k])] = m
        return out

    return synthetic_path(lambda t: embed([R(t) for R, _ in blocks]),
                          lambda t: embed([S(t) for _, S in blocks]),
                          2 * np.pi, n)


def circle_block():
    circle = circle_model_path()
    return circle.base_at, circle.S_at


def uniform_turn(total):
    """Block turning by ``total`` radians over the period 2pi at constant
    speed c: R(t) = exp(c t J), S = c I (forward for c > 0)."""
    c = total / (2 * np.pi)

    def R(t):
        a = c * t
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])

    return R, lambda t: c * np.eye(2)


def monodromy_only_path(M, n):
    d = 2 * n

    def R(t):
        w = t / (2 * np.pi)
        return np.eye(d) * (1 - w) + M * w   # only the endpoint matters here

    return synthetic_path(R, lambda t: np.eye(d), 2 * np.pi, n)


def unit_angles(M):
    return unit_spectrum_angles(np.linalg.eigvals(M))


def block_rotation(angles):
    """Symplectic matrix with elliptic blocks at the given angles."""
    n = len(angles)
    M = np.zeros((2 * n, 2 * n))
    for k, a in enumerate(angles):
        M[k, k] = np.cos(a)
        M[k, n + k] = -np.sin(a)
        M[n + k, k] = np.sin(a)
        M[n + k, n + k] = np.cos(a)
    return M


# ---------------------------------------------------------------------------
# oracles


def brute_force_circle_index(m, alpha=1.5, refine=10):
    """Independent crossing count on a dense grid for the circle model.

    det(R(t) - I) = 2 - 2 cos t + c(t) sin t with c(t) = (alpha-2) t; the
    quadratic form along the orbit is positive definite, so the index is
    n + (number of zeros in (0, m tau)) counted with kernel dimension,
    minus nothing at the endpoint (positive endpoint form), minus n.
    """
    tau = 2 * np.pi
    # margins keep 2 - 2cos(t) above double-precision noise near the ends
    ts = np.linspace(1e-4, m * tau - 1e-4, refine * 4096 * m)
    g = 2.0 - 2.0 * np.cos(ts) + (alpha - 2.0) * ts * np.sin(ts)
    sign = np.sign(g)
    zeros = len(np.nonzero(sign[:-1] * sign[1:] < 0)[0])
    i_x = 1 + zeros
    return i_x - 1


def circle_dist(a, b):
    return min(abs(a - b), 2 * np.pi - abs(a - b))


def per_root_pair(it, m):
    """(index, nullity) of the m-th iterate by the iteration formula, one
    root of unity at a time: the nearest eigen-angle within ``angle_tol``
    gives its on-point value, any other root the value of its arc."""
    total = nu = 0
    for k in range(m):
        angle = 2 * np.pi * k / m
        a = min(it.eigen_angles, key=lambda a: circle_dist(a, angle))
        if circle_dist(a, angle) <= it.angle_tol:
            i_om, nu_om = it.on_point[a]
        else:
            i_om, nu_om = next((i, 0) for lo, hi, i in it.arc_table
                               if lo < angle < hi)
        total += i_om
        nu += nu_om
    return total - it.dim_n, nu


def root_sum_table(it, ms):
    """``per_root_pair`` of the iterates ``ms`` in one numpy pass over all
    their roots of unity: each root takes the value at its nearest
    eigen-angle (the first on a tie) when within ``angle_tol`` of it, else
    the value on the open arc holding it; a root on an eigen-angle with no
    on-point value, or on no arc, fails the test."""
    starts = np.cumsum(ms) - ms
    m_of = np.repeat(ms, ms)
    k = np.arange(len(m_of)) - np.repeat(starts, ms)
    angles = (2 * np.pi * k / m_of)[:, None]
    eig = np.array(it.eigen_angles)
    gap = np.abs(eig - angles)
    dist = np.minimum(gap, 2 * np.pi - gap)
    near = np.argmin(dist, axis=1)
    on = dist[np.arange(len(k)), near] <= it.angle_tol
    on_i, on_nu = np.array([it.on_point.get(a, (0, 0))
                            for a in it.eigen_angles]).T
    lo, hi, arc_i = (np.array(c) for c in zip(*it.arc_table))
    inside = (lo < angles) & (angles < hi)
    assert all(a in it.on_point for a in eig[near[on]])
    assert inside[~on].any(axis=1).all()
    i_om = np.where(on, on_i[near], arc_i[np.argmax(inside, axis=1)])
    return (np.add.reduceat(i_om, starts) - it.dim_n,
            np.add.reduceat(np.where(on, on_nu[near], 0), starts))


class TestCircleIndices:
    def test_against_brute_force_oracle(self, circle_bundle):
        data = circle_bundle.index_data["y1"]
        for m in (1, 2, 3, 5, 8, 10):
            assert data.index(m) == brute_force_circle_index(m)
            assert data.index(m) == 2 * m - 2      # frozen oracle values
            assert data.nullity(m) == 1

    def test_mean_index_exact_two(self, circle_bundle):
        d = circle_bundle.index_data["y1"]
        assert d.mean_index_fraction == Fraction(2)
        assert d.K_of_y == 2
        # identity for the single orbit: chi_hat / ihat = 1/2
        assert Fraction(1) / d.mean_index_fraction == Fraction(1, 2)

    def test_closed_form_model_path_agrees(self, circle_bundle):
        model = circle_model_path()
        comp = IndexComputer(model)
        real = circle_bundle.index_data["y1"]
        for m in range(1, 8):
            assert comp.index_pair(m) == (real.index(m), real.nullity(m))


class TestEllipsoidIndices:
    def test_floor_formula(self, ell2_bundle):
        beta = {"y1": 1.0 / np.sqrt(2.0), "y2": np.sqrt(2.0)}
        for oid, d in ell2_bundle.index_data.items():
            b = beta[oid]
            for r in d.records:
                m = r.iterate_m
                assert r.index_i == 2 * m + 2 * int(np.floor(m * b)) - 2
                assert r.nullity_nu == 1

    def test_mean_index_matches_rotation_numbers(self, ell2_bundle):
        expected = {"y1": 2.0 + np.sqrt(2.0), "y2": 2.0 + 2.0 * np.sqrt(2.0)}
        for oid, d in ell2_bundle.index_data.items():
            assert abs(d.mean_index - expected[oid]) <= 1e-8
            assert d.mean_index_fraction is None   # irrational, not rounded

    def test_iterate_additivity(self, ell2_bundle):
        # index of the 2m-fold iterate from the m-path equals the direct one
        d = ell2_bundle.index_data["y1"]
        for m in (1, 2, 3):
            assert d.index(2 * m) == d.index(2 * m)  # table consistency
        comp = IndexComputer(ell2_bundle.paths["y1"])
        for m in (2, 4, 6):
            assert comp.index_pair(m)[0] == d.index(m)


class TestThreePlaneIndices:
    def test_floor_formula_all_orbits(self, ell3_bundle):
        sq = np.array([1.0, np.sqrt(2.0), np.sqrt(3.0)])
        for k, (oid, d) in enumerate(sorted(ell3_bundle.index_data.items())):
            betas = [sq[k] / sq[j] for j in range(3) if j != k]
            for r in d.records:
                m = r.iterate_m
                expected = (2 * m
                            + sum(2 * int(np.floor(m * b)) for b in betas)
                            - 2)
                assert r.index_i == expected
                assert r.nullity_nu == 1
            ihat_expected = 2.0 + sum(2.0 * b for b in betas)
            assert abs(d.mean_index - ihat_expected) <= 1e-8


def test_identity_on_golden_ratio_ellipsoid():
    # a different irrational spectrum: squared radii (1, golden ratio)
    from charlab.flow import integrate_linearized
    from charlab.geometry import make_ellipsoid
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    surf = make_ellipsoid([1.0, phi**0.5])
    from charlab.orbits import ellipsoid_catalog
    total = 0.0
    orbits = ellipsoid_catalog(surf)
    paths = integrate_linearized(
        surf, {o.orbit_id: (o.trajectory.x0, o.prime_period) for o in orbits},
        1.5, tol=1e-12)
    for orb in orbits:
        d = compute_orbit_index_data(orb.orbit_id,
                                     IndexComputer(paths[orb.orbit_id]),
                                     m_max=8, **TURNS)
        total += 1.0 / d.mean_index      # even parity throughout: chi_hat = 1
    assert abs(total - 0.5) <= 1e-10


class TestInvariantGates:
    def test_identity_path_rejected(self):
        path = monodromy_only_path(np.eye(2), 1)
        comp = IndexComputer(path)
        with pytest.raises(InvariantViolation, match="nullity"):
            comp.index_pair(1)

    def test_mean_index_window(self, ell3_bundle):
        for d in ell3_bundle.index_data.values():
            for r in d.records:
                assert abs(r.index_i - r.iterate_m * d.mean_index) \
                    <= 2 * d.dim_n + 1e-9


def test_homogeneity_exponent_independence(ell2_bundle):
    # the index data must not depend on the exponent used for the
    # linearization (any value in (1, 2) gives the same path counts)
    from charlab.flow import integrate_linearized
    surf = ell2_bundle.surface
    orb = ell2_bundle.orbits[0]
    ref = ell2_bundle.index_data["y1"]
    for alpha in (1.3, 1.7):
        path, = integrate_linearized(
            surf, {"a": (orb.trajectory.x0, orb.prime_period)}, alpha,
            tol=1e-12).values()
        data = compute_orbit_index_data("a", IndexComputer(path), m_max=10,
                                        **TURNS)
        assert all(data.index(m) == ref.index(m) for m in range(1, 11))
        assert all(data.nullity(m) == ref.nullity(m) for m in range(1, 11))
        assert abs(data.mean_index - ref.mean_index) <= 1e-8
        assert data.K_of_y == ref.K_of_y


def test_scaling_invariance_of_mean_index(ell2_bundle):
    from charlab.flow import integrate_linearized
    from charlab.geometry import make_ellipsoid
    lam = 2.0
    surf = make_ellipsoid([lam * 1.0, lam * 2.0**0.25])
    tau = 2 * np.pi * lam**2
    path, = integrate_linearized(
        surf, {"s": (np.array([lam, 0.0, 0.0, 0.0]), tau)}, 1.5,
        tol=1e-12).values()
    data = compute_orbit_index_data("s", IndexComputer(path), m_max=10,
                                    **TURNS)
    ref = ell2_bundle.index_data["y1"]
    assert abs(data.mean_index - ref.mean_index) <= 1e-8
    assert all(data.index(m) == ref.index(m) for m in range(1, 11))


class TestMinimalPeriod:
    def test_no_rational_angles_gives_two(self, ell2_bundle):
        assert ell2_bundle.index_data["y1"].K_of_y == 2

    def test_third_root_gives_six(self):
        M = block_rotation([2 * np.pi / 3, 2 * np.pi / 3])
        assert minimal_period_K(unit_angles(M), **TURNS) == 6

    def test_two_rational_pairs_lcm(self):
        M = block_rotation([2 * np.pi / 3, 2 * np.pi / 4])
        assert minimal_period_K(unit_angles(M), **TURNS) == 24

    def test_ambiguous_angle_raises_with_candidates(self):
        # 0.30 of a turn sits within the tolerance of both 1/3 and 2/7
        M = block_rotation([2 * np.pi * 0.30])
        with pytest.raises(NumericFailure) as e:
            minimal_period_K(unit_angles(M), angle_tol=2 * np.pi * 0.045,
                             q_max=8)
        assert "candidates" in e.value.info

    def test_unit_cluster_handles_defective_one(self, circle_bundle):
        angles = unit_angles(circle_bundle.paths["y1"].end_monodromy)
        assert angles == [0.0]


def test_near_tangency_reports_ambiguous_window():
    # an eigenvalue grazing 1 at depth ~3e-6 is neither a clean crossing nor
    # a clean miss; the scanner must report the ambiguous time window
    eps = 3e-6
    tau = 2 * np.pi
    J = standard_J(1)

    def theta(t):
        return (2 * np.pi - eps) * np.sin(np.pi * t / tau)

    def R(t):
        a = theta(t)
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])

    def S_of_t(t):
        return ((2 * np.pi - eps) * np.pi / tau
                * np.cos(np.pi * t / tau)) * np.eye(2) + 1e-3 * np.eye(2)

    path = synthetic_path(R, S_of_t, tau, 1)
    comp = IndexComputer(path)
    with pytest.raises(NumericFailure) as e:
        comp._scan_segment(0, 1.0 + 0.0j)
    assert "window" in e.value.info


class TestDimensionShift:
    def test_worked_value(self):
        # K T / 2 pi = 2.5 with n = 2: 2*2*(2+1) = 12
        K = 2.5 * 2 * np.pi
        assert dimension_shift(K, 1.0, 2) == 12

    def test_jump_by_2n(self):
        n = 2
        assert dimension_shift(7.0, 1.0, n) - dimension_shift(1.0, 1.0, n) == 2 * n


def test_iteration_formula_matches_segment_scanner(
        circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle,
        tied_root_bundle):
    # radii [1, sqrt 2]: the root -1 lands on y1's eigenvalue angle pi, so
    # every even iterate needs the index at that eigenvalue itself
    assert any(len(d.iteration.on_point) > 1
               for d in tied_root_bundle.index_data.values())
    for bundle in (circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle,
                   tied_root_bundle):
        for oid, d in bundle.index_data.items():
            extend_records(d, 40)
            scanner = IndexComputer(bundle.paths[oid])
            for m in range(1, 41):
                assert (d.index(m), d.nullity(m)) == scanner.index_pair(m), \
                    (oid, m)


def test_iteration_formula_endpoint_term_at_eigenvalue():
    # the circle model in (q1, p1) times a backward half-turn in (q2, p2):
    # M = shear (+) -I, and the form on ker(M + I) is negative definite, so
    # the index at the eigenvalue -1 carries a nonzero endpoint term
    path = direct_sum_path([circle_block(), uniform_turn(-np.pi)])
    d = compute_orbit_index_data("z", IndexComputer(path), m_max=8, **TURNS)
    scanner = IndexComputer(path)
    for m in range(1, 9):
        assert (d.index(m), d.nullity(m)) == scanner.index_pair(m), m


@pytest.fixture
def omega_scans(monkeypatch):
    """Angles of every omega scan from here on: every
    IndexComputer.omega_pair call, omega_index's included."""
    calls = []
    original = IndexComputer.omega_pair

    def spy(self, angle):
        calls.append(angle)
        return original(self, angle)

    monkeypatch.setattr(IndexComputer, "omega_pair", spy)
    return calls


def arc_table_and_scans(oid, path, omega_scans):
    """The arc table and the number of omega scans it took, after checking
    it against an omega scan at every arc midpoint."""
    table = compute_orbit_index_data(oid, IndexComputer(path),
                                     m_max=8, **TURNS).iteration.arc_table
    scans = len(omega_scans)
    ref = IndexComputer(path)
    for lo, hi, i_om in table:
        assert i_om == ref.omega_index(0.5 * (lo + hi)), (oid, lo, hi)
    return table, scans


def test_krein_steps_of_both_signs(omega_scans):
    # circle (+) forward turn by 2pi + 1.1 (+) backward turn by 2.3: simple
    # eigenvalues exp(1.1i) with kappa = +1 and exp(2.3i) with kappa = -1
    path = direct_sum_path([circle_block(), uniform_turn(2 * np.pi + 1.1),
                            uniform_turn(-2.3)])
    table, scans = arc_table_and_scans("k", path, omega_scans)
    assert [round(lo, 9) for lo, _, _ in table[1:3]] == [1.1, 2.3]
    assert [b[2] - a[2] for a, b in zip(table[:2], table[1:3])] == [-1, 1]
    assert scans == 0


def test_opposite_krein_signs_fall_back_to_a_scan(omega_scans):
    # exp(2i) is a double eigenvalue, kappa = +1 on the forward block and -1
    # on the backward one: no single step crosses it, so its arc is scanned
    path = direct_sum_path([circle_block(), uniform_turn(2.0),
                            uniform_turn(-2.0)])
    table, scans = arc_table_and_scans("k", path, omega_scans)
    assert len(table) == 3 and scans == 1


def test_no_omega_scan_per_orbit(ell3_bundle, omega_scans):
    for oid, path in ell3_bundle.paths.items():
        omega_scans.clear()
        table, scans = arc_table_and_scans(oid, path, omega_scans)
        assert len(table) == 5 and scans == 0, oid


def test_first_arc_value_needs_the_one_block_alone():
    # the N_1(1, 1) block splits numerically by ~sqrt(defect) around 1
    at_one = [1.0 + 1e-6, 1.0 - 1e-6]
    turn = list(np.exp([1.3j, -1.3j]))
    assert _first_arc_value(np.array(at_one + turn), 3, 1, 2) == 6
    assert _first_arc_value(np.array(at_one + turn), 3, 2, 2) is None
    assert _first_arc_value(np.array(at_one + at_one), 3, 1, 2) is None
    # an eigenvalue just outside the cluster tolerance is not in the block
    assert _first_arc_value(np.array(at_one + [1.0 + 2e-4, 1 / (1.0 + 2e-4)]),
                            3, 1, 2) == 6


def test_nullity_two_falls_back_to_one_scan(omega_scans):
    # two circle blocks: four eigenvalues at 1 and nu(y) = 2, so no
    # splitting-number shortcut; the one arc (0, 2pi) is scanned
    path = direct_sum_path([circle_block(), circle_block()])
    assert IndexComputer(path).index_pair(1)[1] == 2
    table, scans = arc_table_and_scans("c2", path, omega_scans)
    assert len(table) == 1 and scans == 1


@pytest.mark.parametrize("alpha", [1.2, 1.8])
def test_first_arc_by_splitting_number_matches_a_scan(
        alpha, circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle):
    # the old first-arc omega scan is the oracle, on paths of j^alpha
    for bundle in (circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle):
        paths = integrate_linearized(
            bundle.surface, {o.orbit_id: (o.trajectory.x0, o.prime_period)
                             for o in bundle.orbits}, alpha, tol=1e-12)
        for oid, path in paths.items():
            comp = IndexComputer(path)
            i_1, nu_1 = comp.index_pair(1)
            eigvals = np.linalg.eigvals(path.end_monodromy)
            first = _first_arc_value(eigvals, i_1, nu_1, path.n)
            angles = unit_spectrum_angles(eigvals) + [2 * np.pi]
            assert first is not None, (oid, alpha)
            assert first == comp.omega_index(0.5 * angles[1]), (oid, alpha)


@pytest.mark.parametrize("total", [2 * np.pi + 2 * np.pi / 3,
                                   -(2 * np.pi + 2 * np.pi / 5)])
def test_on_point_values_by_krein_need_no_scan(total, omega_scans):
    # rational eigen-angles 2pi/3, 4pi/3 (kappa > 0) or 2pi/5, 8pi/5
    # (kappa < 0): each value on an eigenvalue is the arc before it less S-
    path = direct_sum_path([circle_block(), uniform_turn(total)])
    d = compute_orbit_index_data("r", IndexComputer(path), m_max=12, **TURNS)
    assert omega_scans == []
    assert len(d.iteration.on_point) == 3
    scanner = IndexComputer(path)
    # each value on its own: the iterates see only conjugate pairs' sums
    for a, pair in d.iteration.on_point.items():
        if a:
            assert pair == scanner.omega_pair(a), a
    for m in range(1, 13):
        assert (d.index(m), d.nullity(m)) == scanner.index_pair(m), m


def test_tied_roots_scan_minus_one_and_a_degenerate_first_arc(
        tied_root_bundle, omega_scans):
    # radii [1, sqrt 2]: y1's eigenvalue -1 is double, so the value on it is
    # scanned (its arcs, with midpoints pi/2 and 3pi/2, are not); y2 has
    # nu(y) = 3, so its one arc (0, 2pi) is scanned at its midpoint pi
    for oid in ("y1", "y2"):
        omega_scans.clear()
        compute_orbit_index_data(
            oid, IndexComputer(tied_root_bundle.paths[oid]), m_max=8,
            **TURNS)
        assert omega_scans == [np.pi], oid


def test_extend_records(circle_bundle):
    d = circle_bundle.index_data["y1"]
    extend_records(d, 30)
    assert len(d.records) >= 30
    assert d.index(30) == 58


def test_maslov_index_convenience(circle_bundle):
    i, nu = maslov_index(circle_bundle.paths["y1"], 3)
    assert (i, nu) == (4, 1)


def test_iterate_table_matches_per_root_oracle(
        circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle,
        tied_root_bundle):
    for bundle in (circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle,
                   tied_root_bundle):
        for oid, d in bundle.index_data.items():
            index, nullity = d.iteration.iterate_table(1, 300)
            assert len(index) == 300
            for m in range(1, 301):
                assert (index[m - 1], nullity[m - 1]) \
                    == per_root_pair(d.iteration, m), (oid, m)


@pytest.fixture(scope="module")
def near_resonant_bundle():
    # squared radii 1 : 2(1 + 3e-6): eigen-angles a few 1e-6 off rational
    return solve_bundle([1.0, (2 * (1 + 3e-6))**0.5])


@pytest.fixture(scope="module")
def rational_turn_bundle():
    # squared radii 1 : 1.5 : 2.5 give eigen-angles at rational turns
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return solve_bundle([1.0, 1.5**0.5, 2.5**0.5])


def test_iterate_table_matches_the_root_sum(
        circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle,
        tied_root_bundle, near_resonant_bundle, rational_turn_bundle):
    for bundle in (circle_bundle, ell2_bundle, ell3_bundle, perturbed_bundle,
                   tied_root_bundle, near_resonant_bundle,
                   rational_turn_bundle):
        for oid, d in bundle.index_data.items():
            index, nullity = d.iteration.iterate_table(1, 2000)
            for ms in np.array_split(np.arange(1, 2001), 16):
                root_index, root_nullity = root_sum_table(d.iteration, ms)
                assert np.array_equal(index[ms - 1], root_index), oid
                assert np.array_equal(nullity[ms - 1], root_nullity), oid


def tie_table(first, second):
    """n = 2 table with eigen-angles ``first`` < ``second`` both within
    angle_tol of one root of unity; nu is 2 on the first, 3 on the second."""
    return IterationData(
        dim_n=2, eigen_angles=[0.0, first, second],
        arc_table=[(0.0, first, 2), (first, second, 3),
                   (second, 2 * np.pi, 4)],
        on_point={0.0: (1, 1), first: (2, 2), second: (3, 3)},
        angle_tol=1e-7)


@pytest.mark.parametrize("m, first, second", [
    (3, 2 * np.pi / 3, 2 * np.pi / 3 + 5e-8),              # nearer wins
    (4, np.pi / 2 - 2.0**-30, np.pi / 2 + 2.0**-30),       # exact tie
])
def test_a_root_near_two_eigen_angles_counts_once(m, first, second):
    it = tie_table(first, second)
    index, nullity = it.iterate_table(1, 3 * m)
    assert nullity[m - 1] == 1 + 2
    ks = np.arange(1, 3 * m + 1)
    assert np.array_equal(np.array([index, nullity]), root_sum_table(it, ks))
    for k in ks:
        assert (index[k - 1], nullity[k - 1]) == per_root_pair(it, k), k


def test_iterate_table_in_pieces_equals_one_pass(ell3_bundle):
    it = ell3_bundle.index_data["y2"].iteration
    index, nullity = it.iterate_table(1, 1700)     # a range and its tail
    assert np.array_equal(it.iterate_table(1000, 1700)[0], index[999:])
    assert np.array_equal(it.iterate_table(1000, 1700)[1], nullity[999:])


def test_a_table_with_a_gap_is_rejected_at_construction():
    # the arc (1.0, 1.0 + 5e-10) is missing: a root there would lie on no arc
    with pytest.raises(ConstructionFailure, match="one arc per pair"):
        IterationData(dim_n=1, eigen_angles=[0.0, 1.0, 1.0 + 5e-10],
                      arc_table=[(0.0, 1.0, 0), (1.0 + 5e-10, 2 * np.pi, 1)],
                      on_point={0.0: (1, 1)}, angle_tol=1e-12)


@pytest.mark.parametrize("angles, ends, on_point, named", [
    ([0.5, 1.0], [1.0, 2 * np.pi], {0.5: (1, 1)}, "from 0.0"),
    ([0.0, 2.0, 1.0], [2.0, 1.0, 2 * np.pi], {0.0: (1, 1)}, "rise strictly"),
    ([0.0, 2 * np.pi], [2 * np.pi, 2 * np.pi], {0.0: (1, 1)}, "below 2 pi"),
    ([0.0, 1.0], [1.0, 6.0], {0.0: (1, 1)}, "ending at 2 pi"),
    ([0.0, 1.0], [1.0, 2 * np.pi], {0.0: (1, 1), 0.5: (1, 1)}, "keyed by"),
    ([0.0, 1.0], [1.0, 2 * np.pi], {1.0: (1, 1)}, "0.0 among them"),
])
def test_iteration_data_checks_its_shape(angles, ends, on_point, named):
    with pytest.raises(ConstructionFailure, match=named):
        IterationData(dim_n=1, eigen_angles=angles,
                      arc_table=[(a, b, 2) for a, b in zip(angles, ends)],
                      on_point=on_point, angle_tol=1e-7)


def test_an_angle_tol_that_holds_two_roots_is_refused(circle_bundle):
    # the 100th roots of unity lie 2 pi / 100 apart
    it = circle_bundle.index_data["y1"].iteration
    with pytest.raises(InvalidArgument, match="pi / 100"):
        replace(it, angle_tol=np.pi / 100).iterate_table(1, 100)
    wide = replace(it, angle_tol=0.99 * np.pi / 100).iterate_table(1, 100)
    assert np.array_equal(np.array(wide), it.iterate_table(1, 100))


def test_root_on_irrational_eigen_angle_is_a_named_failure():
    # the root 2 pi / 6 within angle_tol of an eigen-angle with no
    # on-eigenvalue data
    root = 2 * np.pi / 6
    it = IterationData(dim_n=1, eigen_angles=[0.0, root + 1e-9],
                       arc_table=[(0.0, root + 1e-9, 2),
                                  (root + 1e-9, 2 * np.pi, 3)],
                       on_point={0.0: (1, 1)}, angle_tol=1e-7)
    with pytest.raises(NumericFailure, match="not a recognised rational") as e:
        it.iterate_table(1, 6)
    assert e.value.info == {"iterate": 6, "eigen_angle": root + 1e-9}


def test_iteration_data_round_trips_through_json(tied_root_bundle):
    import json
    for d in tied_root_bundle.index_data.values():
        text = json.dumps(d.iteration.to_json())
        back = IterationData.from_json(json.loads(text), d.dim_n)
        assert back == d.iteration


def test_ekeland_closed_form_equals_the_iteration_formula(
        circle_bundle, ell2_bundle, ell3_bundle, tied_root_bundle):
    # the audit's ellipsoid witness against the formula, m <= 100; on radii
    # [1, sqrt 2], m q_j is an integer for y1's even iterates and for every
    # iterate of y2, where the closed form takes its resonant branch
    tol = {"closure": 1e-8, "angle_tol": 1e-7}
    for bundle in (circle_bundle, ell2_bundle, ell3_bundle, tied_root_bundle):
        for orb in bundle.orbits:
            name, m_max, pair = bott_witness(bundle.surface, orb, None, tol, 20)
            assert (name, m_max) == ("ekeland-closed-form", 100)
            index, nullity = bundle.index_data[orb.orbit_id] \
                .iteration.iterate_table(1, 100)
            for m in range(1, 101):
                assert pair(m) == (index[m - 1], nullity[m - 1]), \
                    (orb.orbit_id, m)
    nullity = {orb.orbit_id: bott_witness(tied_root_bundle.surface, orb,
                                          None, tol, 20)[2](4)[1]
               for orb in tied_root_bundle.orbits}
    assert nullity == {"y1": 3, "y2": 3}
    y1 = tied_root_bundle.index_data["y1"].iteration.iterate_table(1, 100)[1]
    assert list(y1) == [1, 3] * 50
