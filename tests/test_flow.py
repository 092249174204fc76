"""Flow integration, linearized paths, Floquet multipliers."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from charlab.errors import InvalidArgument, NumericFailure
from charlab.flow import (SymplecticPath, _energy_drift, integrate_flow,
                          integrate_linearized, path_max_defect)
from charlab.geometry import make_ellipsoid
from charlab.index import (IndexComputer, compute_orbit_index_data,
                           unit_spectrum_angles)
from charlab.ode import dop853
from charlab.sympl import project_symplectic, standard_J, symplectic_defect

from conftest import TURNS


def with_hessian_offset(surface, offset):
    """The surface with a constant matrix added to its jet's Hessian."""
    def jet(x):
        g, H = surface.jet(x)
        return g, H + offset
    return replace(surface, jet=jet)


def one_loop(surface, x0, t_end, **kw):
    """The trajectory of the one start (x0, t_end)."""
    return integrate_flow(surface, {"y": (x0, t_end)}, **kw)["y"]


def one_path(surface, x0, tau, alpha, **kw):
    """The path of the one orbit (x0, tau)."""
    return integrate_linearized(surface, {"y": (x0, tau)}, alpha, **kw)["y"]


def oracle_path(surface, x0, tau, alpha, tol, n_samples=513):
    """One orbit's joint (x, R) system in its own time, solved on its own:
    the per-orbit solve the stacked one replaced, with its gates."""
    n = surface.dim_n
    d = 2 * n
    J = standard_J(n)

    def field_at(x):
        g, H = surface.jet(x)
        return g, (alpha - 1.0) * np.outer(g, g) + H

    def rhs(t, y):
        g, S = field_at(y[:d])
        return np.concatenate([J @ g, (J @ S @ y[d:].reshape(d, d)).ravel()])

    y0 = np.concatenate([x0, np.eye(d).ravel()])
    rtol = max(1e-2 * tol, 3e-14)
    sol = dop853(rhs, (0.0, tau), y0, rtol,
                 rtol * max(1.0, float(np.linalg.norm(x0))),
                 dense_output=True).sol
    ts = np.linspace(0.0, tau, n_samples)
    ys = sol(ts)
    _energy_drift(surface, ys[:d].T, float(surface.gauge(x0)), tau, tol)
    Rs = ys[d:].T.reshape(len(ts), d, d)
    defect = float(np.max(symplectic_defect(
        np.concatenate([Rs[:: max(1, len(ts) // 32)], Rs[-1:]]), J)))
    assert defect <= 1e-6
    monodromy = Rs[-1] if defect <= 1e-10 else project_symplectic(Rs[-1], J)
    return SymplecticPath(ts=ts, Rs=Rs, end_monodromy=monodromy, period=tau,
                          defect=defect, n=n, sol=sol,
                          S_of_t=lambda t: field_at(sol(float(t))[:d])[1])


def path_at(path, t):
    """R(t) anywhere in [0, m*period] by R(t + k*period) = R(t) R(period)^k."""
    k, s = divmod(float(t), path.period)
    return path.base_at(s) @ path.monodromy_power(int(k))


def pair_multipliers(eigvals, tol=1e-6):
    """Group Floquet multipliers into (lambda, 1/conj(lambda)) classes: the
    representative value, multiplicity, a unit-circle flag and the rotation
    angle in [0, 2pi) when on the circle.  Raises if the symplectic pairing
    is broken beyond ``tol``."""
    vals = list(eigvals)
    used = [False] * len(vals)
    classes = []
    for i, lam in enumerate(vals):
        if used[i]:
            continue
        used[i] = True
        mult = 1
        for k in range(i + 1, len(vals)):
            if not used[k] and abs(vals[k] - lam) < tol * max(1.0, abs(lam)):
                used[k] = True
                mult += 1
        partner = 1.0 / np.conj(lam)
        if abs(partner - lam) > tol * max(1.0, abs(lam)):
            found = sum(abs(v - partner) < tol * max(1.0, abs(partner))
                        for v in vals)
            if found < mult:
                raise NumericFailure("symplectic eigenvalue pairing broken",
                                     value=complex(lam),
                                     partner=complex(partner))
        on_circle = abs(abs(lam) - 1.0) < tol
        classes.append({
            "value": complex(lam),
            "multiplicity": mult,
            "unit_circle": on_circle,
            "angle": float(np.angle(lam)) % (2.0 * np.pi) if on_circle else None,
        })
    return classes


def floquet_multipliers(path, tol=1e-6):
    """Eigenvalues of the end monodromy in symplectic (lambda, 1/conj)
    classes."""
    return pair_multipliers(np.linalg.eigvals(path.end_monodromy), tol=tol)


def write_trajectory_csv(traj, fname):
    with open(fname, "w", newline="") as f:
        w = csv.writer(f)
        d = traj.xs.shape[1]
        w.writerow(["t"] + [f"x_{i+1}" for i in range(d)])
        for t, x in zip(traj.ts, traj.xs):
            w.writerow([repr(float(t))] + [repr(float(v)) for v in x])


def write_path_csv(path, fname):
    with open(fname, "w", newline="") as f:
        w = csv.writer(f)
        d = 2 * path.n
        w.writerow(["t"] + [f"R_{i+1}{j+1}" for i in range(d) for j in range(d)])
        for t, R in zip(path.ts, path.Rs):
            w.writerow([repr(float(t))] + [repr(float(v)) for v in R.ravel()])


def test_circle_gauge_flow_is_rigid_rotation():
    # oracle: on the unit circle grad j(x) = x, so xdot = J x solves in
    # closed form, period 2 pi
    surf = make_ellipsoid([1.0])
    x0 = np.array([1.0, 0.0])
    traj = one_loop(surf, x0, 2 * np.pi, tol=1e-12)
    assert traj.closure_residual <= 1e-9
    J = standard_J(1)
    exact = np.array([np.cos(t) * x0 + np.sin(t) * (J @ x0)
                      for t in traj.ts])
    assert np.max(np.abs(traj.xs - exact)) <= 1e-9


def test_zero_time_is_rejected_by_the_integrator():
    surf = make_ellipsoid([1.0])
    with pytest.raises(InvalidArgument, match="forward only"):
        one_loop(surf, np.array([1.0, 0.0]), 0.0, tol=1e-10)


def test_axis_plane_invariance():
    # the unit circle of the first plane is a loop of period 2 pi; the
    # other plane stays at rest
    surf = make_ellipsoid([1.0, 2.0])
    traj = one_loop(surf, np.array([1.0, 0.0, 0.0, 0.0]), 2 * np.pi,
                    tol=1e-12)
    assert np.max(np.abs(traj.xs[:, [1, 3]])) <= 1e-10
    assert traj.closure_residual <= 1e-9


def test_energy_conservation_budget():
    surf = make_ellipsoid([1.0, 1.3])
    traj = one_loop(surf, np.array([1.0, 0, 0, 0]), 4.0, tol=1e-10)
    drift = np.max(np.abs(surf.gauge(traj.xs) - surf.gauge(traj.x0)))
    assert drift <= 10.0 * 1e-10 * 4.0


@pytest.fixture(scope="module")
def circle_path():
    surf = make_ellipsoid([1.0])
    return one_path(surf, np.array([1.0, 0.0]), 2 * np.pi, 1.5, tol=1e-12)


class TestLinearized:

    def test_identity_start(self, circle_path):
        assert np.array_equal(circle_path.Rs[0], np.eye(2))

    def test_symplecticity(self, circle_path):
        assert path_max_defect(circle_path) <= 1e-8

    def test_unit_determinant(self, circle_path):
        dets = np.linalg.det(circle_path.Rs)
        assert np.max(np.abs(dets - 1.0)) <= 1e-8

    def test_monodromy_is_analytic_shear(self, circle_path):
        # closed form: rotation by 2 pi times a shear of 2 pi (alpha - 2)
        c = 2 * np.pi * (1.5 - 2.0)
        expected = np.array([[1.0, 0.0], [c, 1.0]])
        assert np.max(np.abs(circle_path.end_monodromy - expected)) <= 1e-8

    def test_unit_multiplier_multiplicity_two(self, circle_path):
        vals = np.linalg.eigvals(circle_path.end_monodromy)
        assert np.sum(np.abs(vals - 1.0) < 1e-3) == 2

    def test_bott_extension_matches_direct(self):
        # path over [0, m tau] from the one-period data must agree with
        # direct integration, m <= 5
        surf = make_ellipsoid([1.0, 2.0**0.25])
        x0 = np.array([1.0, 0.0, 0.0, 0.0])
        tau = 2 * np.pi
        path = one_path(surf, x0, tau, 1.5, tol=1e-12)
        path5 = one_path(surf, x0, 5 * tau, 1.5, tol=1e-12)
        for m in range(1, 6):
            stitched = path_at(path, m * tau)
            direct = path5.sol(m * tau)[4:].reshape(4, 4)
            assert np.max(np.abs(stitched - direct)) <= 1e-6


def test_floquet_pairing_and_angles(ell2_bundle):
    path = ell2_bundle.paths["y1"]
    classes = floquet_multipliers(path)
    beta = 1.0 / np.sqrt(2.0)
    angles = sorted(c["angle"] for c in classes
                    if c["unit_circle"] and c["angle"] and c["angle"] > 1e-3)
    # elliptic pair at 2 pi beta (and its conjugate)
    assert min(abs(a - 2 * np.pi * beta) for a in angles) <= 1e-8


def test_elliptic_angle_against_refined_integration(ell2_bundle):
    # oracle: re-integrate the monodromy at a tighter tolerance
    surf = ell2_bundle.surface
    orb = ell2_bundle.orbits[0]
    path = one_path(surf, orb.trajectory.x0, orb.prime_period, 1.5,
                    tol=1e-13)
    ref = ell2_bundle.paths["y1"].end_monodromy
    assert np.max(np.abs(path.end_monodromy - ref)) <= 1e-8


@pytest.mark.parametrize("bundle", ["circle_bundle", "ell2_bundle",
                                    "ell3_bundle", "perturbed_bundle"])
def test_stacked_solve_agrees_with_the_per_orbit_oracle(request, bundle):
    # every orbit's view of the one stacked solve against its own solve
    b = request.getfixturevalue(bundle)
    for orb in b.orbits:
        path = b.paths[orb.orbit_id]
        ref = oracle_path(b.surface, orb.trajectory.x0, orb.prime_period, 1.5,
                          tol=1e-12)
        assert np.max(np.abs(path.end_monodromy - ref.end_monodromy)) <= 1e-10
        got, want = (unit_spectrum_angles(np.linalg.eigvals(p.end_monodromy))
                     for p in (path, ref))
        assert len(got) == len(want)
        assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= 1e-10
        got, want = ([(r.index_i, r.nullity_nu) for r in compute_orbit_index_data(
                          orb.orbit_id, IndexComputer(p), m_max=100,
                          **TURNS).records]
                     for p in (path, ref))
        assert got == want
        assert path_max_defect(path) <= 1e-8


def test_a_failing_orbit_is_named(ell2_bundle):
    # a skew part of the Hessian proportional to q1^2 + p1^2 breaks the
    # symplecticity of y1's path and vanishes on y2's plane
    surf = ell2_bundle.surface
    J = standard_J(2)

    def jet(x):
        g, H = surf.jet(x)
        r = x[..., 0]**2 + x[..., 2]**2
        return g, H + 1e-6 * r[..., None, None] * J

    skewed = replace(surf, jet=jet)
    starts = {o.orbit_id: (o.trajectory.x0, o.prime_period)
              for o in ell2_bundle.orbits}
    with pytest.raises(NumericFailure, match="orbit y1: symplecticity") as err:
        integrate_linearized(skewed, starts, 1.5, tol=1e-12)
    assert "y2" not in str(err.value)
    alone = integrate_linearized(skewed, {"y2": starts["y2"]}, 1.5, tol=1e-12)
    assert alone["y2"].defect <= 1e-10
    # a gauge leak proportional to q1 drifts along y1 and is zero on y2
    leaky = replace(surf, gauge=lambda x: surf.gauge(x) + 1e-6 * x[..., 0])
    with pytest.raises(NumericFailure, match="orbit y1: energy drift") as err:
        integrate_linearized(leaky, starts, 1.5, tol=1e-12)
    assert "y2" not in str(err.value)


def test_identity_monodromy_multiplicity():
    classes = pair_multipliers(np.ones(4, dtype=complex))
    assert classes[0]["multiplicity"] == 4
    assert classes[0]["unit_circle"]


def test_csv_dumps(tmp_path, circle_bundle):
    orb = circle_bundle.orbits[0]
    tf = tmp_path / "traj.csv"
    write_trajectory_csv(orb.trajectory, tf)
    header, first = tf.read_text().splitlines()[:2]
    assert header == "t,x_1,x_2"
    assert float(first.split(",")[1]) == pytest.approx(1.0)
    pf = tmp_path / "path.csv"
    write_path_csv(circle_bundle.paths["y1"], pf)
    cols = pf.read_text().splitlines()[0].split(",")
    assert cols[0] == "t" and len(cols) == 1 + 4   # row-major 2x2 entries


def test_defect_gate_raises():
    # a non-symmetric "Hessian" destroys symplecticity; the gate must fire
    surf = with_hessian_offset(make_ellipsoid([1.0]),
                               np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NumericFailure, match="defect"):
        one_path(surf, np.array([1.0, 0.0]), 2 * np.pi, 1.5, tol=1e-10)


def test_linearized_energy_drift_gate_raises():
    # the joint solve's state samples carry the flow's energy-drift check
    circle = make_ellipsoid([1.0])
    leaky = replace(circle, gauge=lambda x: circle.gauge(x) + 1e-6 * x[..., 0])
    with pytest.raises(NumericFailure, match="energy drift"):
        one_path(leaky, np.array([1.0, 0.0]), 2 * np.pi, 1.5, tol=1e-12)


def test_batched_symplectic_defect_is_bitwise_the_matrix_norm():
    # a stack gives each matrix's np.linalg.norm bit for bit, so the batched
    # defect sweeps report what a loop over single matrices would
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        J = standard_J(n)
        Rs = np.eye(2 * n) + 1e-6 * rng.standard_normal((200, 2 * n, 2 * n))
        want = [np.linalg.norm(R.T @ J @ R - J) for R in Rs]
        assert np.array_equal(symplectic_defect(Rs, J), want)
        assert symplectic_defect(Rs[0], J) == want[0]


def project_with_sqrtm(R, J, tol=1e-13, max_iter=8):
    """The retraction R <- R C^{-1/2}, C = J^{-1} R^T J R, with scipy's
    principal square root."""
    import scipy.linalg

    out = np.array(R, dtype=float)
    for _ in range(max_iter):
        if symplectic_defect(out, J) <= tol:
            break
        C = -J @ out.T @ J @ out
        out = np.real(np.linalg.solve(scipy.linalg.sqrtm(C).T, out.T).T)
    return out


def test_projection_retracts_an_injected_defect():
    # a skew part -1e-10 J in the Hessian grows R by exp(1e-10 t), which
    # puts a defect of about 1e-9 into the path: the end monodromy is
    # retracted, the samples are kept as integrated
    J = standard_J(1)
    surf = with_hessian_offset(make_ellipsoid([1.0]), -1e-10 * J)
    path = one_path(surf, np.array([1.0, 0.0]), 2 * np.pi, 1.5, tol=1e-12)
    assert 1e-10 < path.defect < 1e-8
    raw = path.sol(path.ts)[2:].T.reshape(-1, 2, 2)
    assert np.array_equal(path.Rs, raw)
    assert symplectic_defect(path.end_monodromy, J) <= 1e-13
    assert np.max(np.abs(path.end_monodromy
                         - project_with_sqrtm(raw[-1], J))) <= 1e-12
