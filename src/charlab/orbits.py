"""Prime closed characteristics: analytic catalogs, shooting, registry I/O.

Periods are reported in the canonical clock of ``ydot = J grad j(y)`` (the
normal normalised by grad j . y = 1 on the surface).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (ConsistencyFailure, InvalidArgument, InvariantViolation,
                     NumericFailure, SearchFailure)
from .flow import LOOP_SAMPLES, Trajectory, integrate_flow
from .geometry import Hypersurface, make_ellipsoid
from .ode import dop853, minimize_bounded
from .sympl import standard_J

_PHASE_GRID = 128           # coarse time shifts of trajectory_distance
_NEWTON_ITER = 40           # Gauss-Newton steps of shoot_for_orbit
_PRIME_CHECK_MAX = 12       # largest iterate a shot loop is tested for
_SURFACE_TOL = 1e-8         # gate_orbit's bar on max |j - 1| over a loop
_SEPARATION = 1e-4          # loops this close are one orbit
_CATALOG_Q_MAX = 32         # the catalog warns on squared-radius ratios
_CATALOG_RATIONAL_TOL = 1e-9    # within this of a p/q, q <= _CATALOG_Q_MAX


@dataclass
class ClosedCharacteristic:
    """One prime periodic solution of the canonical-clock flow."""

    orbit_id: str
    prime_period: float
    trajectory: Trajectory
    provenance: str                       # analytic | shooting | galerkin
    rho: float | None = None              # gauge level of the loop-problem representative
    critical_value: float | None = None

    def to_record(self) -> dict:
        ts, xs = self.trajectory.ts, self.trajectory.xs
        return {
            "id": self.orbit_id,
            "prime_period": self.prime_period,
            "provenance": self.provenance,
            "rho": self.rho,
            "critical_value": self.critical_value,
            "samples": [[float(t)] + [float(v) for v in x]
                        for t, x in zip(ts, xs)],
        }


def surface_residual(surface: Hypersurface, orbit: ClosedCharacteristic) -> float:
    return float(np.max(np.abs(surface.gauge(orbit.trajectory.xs) - 1.0)))


def trajectory_distance(orbit_a: ClosedCharacteristic,
                        orbit_b: ClosedCharacteristic) -> float:
    """Sup distance between the two loops after optimal time-shift alignment.

    Coarse scan over ``_PHASE_GRID`` shifts followed by a bounded refinement of
    the best bracket, so coincident loops at a generic relative phase still
    align to interpolation accuracy.
    """
    ta, xa = orbit_a.trajectory.ts, orbit_a.trajectory.xs
    tb, xb = orbit_b.trajectory.ts, orbit_b.trajectory.xs
    m = min(len(ta), len(tb), 256)
    phases = np.linspace(0.0, 1.0, m, endpoint=False)

    def resample(ts, xs, shift):
        s = (phases + shift) % 1.0
        src = s * ts[-1]
        out = np.empty((m, xs.shape[1]))
        for j in range(xs.shape[1]):
            out[:, j] = np.interp(src, ts, xs[:, j])
        return out

    ya = resample(ta, xa, 0.0)

    def dist(shift):
        return float(np.max(np.linalg.norm(ya - resample(tb, xb, shift),
                                           axis=1)))

    grid = np.linspace(0.0, 1.0, _PHASE_GRID, endpoint=False)
    vals = [dist(s) for s in grid]
    i = int(np.argmin(vals))
    h = 1.0 / _PHASE_GRID
    _, best = minimize_bounded(dist, grid[i] - h, grid[i] + h, xatol=1e-12)
    return min(vals[i], float(best))


def ellipsoid_catalog(surface: Hypersurface) -> list:
    """The n planar circle orbits of an ellipsoid, sampled analytically.

    Canonical prime periods are 2 pi r_k^2.  Rationally dependent squared
    radii admit extra orbit families, so the catalog warns that it is
    incomplete in that case.
    """
    if surface.kind != "ellipsoid":
        raise InvalidArgument("catalog requires an ellipsoid surface")
    radii = np.asarray(surface.meta["radii"], dtype=float)
    n = radii.size
    sq = radii**2
    for i in range(n):
        for j in range(i + 1, n):
            ratio = sq[i] / sq[j]
            frac = Fraction(ratio).limit_denominator(_CATALOG_Q_MAX)
            if abs(float(frac) - ratio) < _CATALOG_RATIONAL_TOL:
                warnings.warn(
                    f"squared radii {i+1},{j+1} are rationally dependent "
                    f"({frac}); extra orbit families exist, catalog incomplete",
                    stacklevel=2)
    orbits = []
    order = np.argsort(sq)
    for rank, k in enumerate(order):
        tau = 2.0 * np.pi * sq[k]
        ts = np.linspace(0.0, tau, LOOP_SAMPLES)
        ang = ts / sq[k]
        xs = np.zeros((LOOP_SAMPLES, 2 * n))
        xs[:, k] = radii[k] * np.cos(ang)
        xs[:, n + k] = radii[k] * np.sin(ang)
        traj = Trajectory(ts=ts, xs=xs, closure_residual=0.0)
        orbits.append(ClosedCharacteristic(
            orbit_id=f"y{rank+1}", prime_period=float(tau), trajectory=traj,
            provenance="analytic"))
    return orbits


def _closure_map(surface: Hypersurface, x0, tau, tol):
    """Flow endpoint, its state derivative (variational matrix) and the field."""
    J = standard_J(surface.dim_n)
    d = surface.dim

    def rhs(t, y):
        g, H = surface.jet(y[:d])
        return np.concatenate([J @ g, (J @ H @ y[d:].reshape(d, d)).ravel()])

    y0 = np.concatenate([x0, np.eye(d).ravel()])
    try:
        res = dop853(rhs, (0.0, tau), y0, tol, tol)
    except NumericFailure as e:
        raise SearchFailure(f"variational integration failed: {e}") from e
    xT = res.y[:d, -1]
    V = res.y[d:, -1].reshape(d, d)
    return xT, V, J @ surface.gauge_grad(xT)


def shoot_for_orbit(surface: Hypersurface, seed_point, period_guess: float,
                    *, tol: float, int_tol: float,
                    orbit_id: str) -> ClosedCharacteristic:
    """Newton (Gauss-Newton) on the closure map of the canonical flow, to
    closure and gauge residuals within ``tol`` with the flow at ``int_tol``.

    Unknowns (x0, tau); equations: flow closure, gauge level 1, and a phase
    constraint pinning the time shift against the seed.  Convergence to an
    iterate of a shorter orbit is detected and the prime period returned.
    """
    x0 = np.asarray(seed_point, dtype=float).copy()
    x0 = x0 / surface.gauge(x0)
    tau = float(period_guess)
    v_phase = standard_J(surface.dim_n) @ surface.gauge_grad(x0)
    x_ref = x0.copy()
    d = surface.dim

    def residual(x, t):
        xT, V, f_end = _closure_map(surface, x, t, int_tol)
        F = np.concatenate([xT - x,
                            [surface.gauge(x) - 1.0],
                            [np.dot(x - x_ref, v_phase)]])
        Jac = np.zeros((d + 2, d + 1))
        Jac[:d, :d] = V - np.eye(d)
        Jac[:d, d] = f_end
        Jac[d, :d] = surface.gauge_grad(x)
        Jac[d + 1, :d] = v_phase
        return F, Jac

    F, Jac = residual(x0, tau)
    norm0 = np.linalg.norm(F)
    for it in range(_NEWTON_ITER):
        if np.linalg.norm(F[:d]) <= tol and abs(F[d]) <= tol:
            break
        step, *_ = np.linalg.lstsq(Jac, -F, rcond=None)
        lam = 1.0
        for _bt in range(20):
            x_try = x0 + lam * step[:d]
            t_try = tau + lam * step[d]
            if t_try <= 0:
                lam *= 0.5
                continue
            F_try, Jac_try = residual(x_try, t_try)
            if np.linalg.norm(F_try) < np.linalg.norm(F):
                break
            lam *= 0.5
        else:
            raise SearchFailure(
                f"shooting stalled at residual {np.linalg.norm(F):.3g}")
        x0, tau, F, Jac = x_try, t_try, F_try, Jac_try
    else:
        raise SearchFailure(
            f"shooting did not converge (residual {np.linalg.norm(F):.3g} "
            f"from initial {norm0:.3g})")

    # one dense solve over tau; prime-vs-iterate: does it close at tau/m?
    traj = integrate_flow(surface, x0, tau, tol=int_tol)
    prime_tau = tau
    for m in range(_PRIME_CHECK_MAX, 1, -1):
        if np.linalg.norm(traj.sol(tau / m) - x0) < 100.0 * tol:
            prime_tau = tau / m
            traj = integrate_flow(surface, x0, prime_tau, tol=int_tol)
            break
    if traj.closure_residual > 100.0 * tol:
        raise SearchFailure("closure degraded after prime-period reduction")
    return ClosedCharacteristic(orbit_id=orbit_id, prime_period=float(prime_tau),
                                trajectory=traj, provenance="shooting")


def gate_orbit(surface: Hypersurface, orbit: ClosedCharacteristic, *,
               closure_tol: float, int_tol: float) -> dict:
    """Acceptance gate every orbit passes regardless of provenance: a fresh
    integration over one prime period at the run's ``int_tol`` (DOP853's
    rtol floor ``max(1e-2 * tol, 3e-14)`` leaves no room to tighten it) must
    close within ``closure_tol``, and the loop must sit on the surface."""
    re = integrate_flow(surface, orbit.trajectory.x0, orbit.prime_period,
                        tol=int_tol)
    sres = surface_residual(surface, orbit)
    if re.closure_residual > closure_tol:
        raise InvariantViolation(
            f"orbit {orbit.orbit_id}: closure residual "
            f"{re.closure_residual:.3g} above {closure_tol}")
    if sres > _SURFACE_TOL:
        raise InvariantViolation(
            f"orbit {orbit.orbit_id}: off-surface by {sres:.3g}")
    return {"closure": re.closure_residual, "surface": sres}


def dedupe_orbits(orbits: list) -> list:
    """Fold geometrically coincident orbits (single-writer merge step)."""
    kept = []
    for orb in orbits:
        if any(trajectory_distance(orb, other) < _SEPARATION for other in kept):
            continue
        kept.append(orb)
    return kept


def find_orbits(surface: Hypersurface, *, tol: float, int_tol: float) -> list:
    """Orbit discovery: the analytic catalog of an ellipsoid; on a perturbed
    ellipsoid, shooting (``shoot_for_orbit``) from each orbit of its base
    ellipsoid's catalog."""
    if surface.kind == "ellipsoid":
        return ellipsoid_catalog(surface)
    base = make_ellipsoid(surface.meta["radii"])
    return dedupe_orbits([
        shoot_for_orbit(surface, orb.trajectory.x0, orb.prime_period, tol=tol,
                        int_tol=int_tol, orbit_id=f"y{k+1}")
        for k, orb in enumerate(ellipsoid_catalog(base))])


def write_registry(orbits: list, fname, extra: dict):
    """The orbits' records and the ``extra`` top-level blocks, as JSON."""
    payload = {"orbits": [o.to_record() for o in orbits], **extra}
    with open(fname, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)


def load_registry(fname, surface: Hypersurface) -> list:
    """The orbits of a registry file; an unreadable or malformed file
    raises ``ConsistencyFailure`` naming it."""
    out = []
    try:
        with open(fname) as f:
            payload = json.load(f)
        for rec in payload["orbits"]:
            period = rec["prime_period"]
            if isinstance(period, bool) or not isinstance(period, (int, float)):
                raise TypeError(f"prime_period {period!r} is not a number")
            arr = np.asarray(rec["samples"], dtype=float)
            if arr.ndim != 2 or arr.shape[1] != surface.dim + 1:
                raise ValueError(f"samples of shape {arr.shape}, expected "
                                 f"(n, {surface.dim + 1})")
            closure = float(np.linalg.norm(arr[-1, 1:] - arr[0, 1:]))
            traj = Trajectory(ts=arr[:, 0], xs=arr[:, 1:],
                              closure_residual=closure)
            out.append(ClosedCharacteristic(
                orbit_id=rec["id"], prime_period=period,
                trajectory=traj, provenance=rec["provenance"],
                rho=rec.get("rho"), critical_value=rec.get("critical_value")))
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ConsistencyFailure(f"orbit registry {fname} unreadable "
                                 f"({e!r}); rerun the orbits stage") from e
    return out
