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
from .flow import LOOP_SAMPLES, Trajectory, integrate_flow, solve_stacked
from .geometry import Hypersurface, make_ellipsoid
from .ode import minimize_bounded
from .sympl import standard_J

_PHASE_GRID = 128           # coarse time shifts of trajectory_distance
_NEWTON_ITER = 40           # Gauss-Newton steps of shoot_for_orbit
_BACKTRACKS = 20            # step halvings of one Gauss-Newton step
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


def _closure_map(surface: Hypersurface, points: dict, tol: float) -> dict:
    """Flow endpoint, its state derivative (variational matrix) and the
    field there, for every orbit id -> (x0, tau) of ``points``, in one
    stacked solve at rtol = atol = ``tol``; a failed solve is a
    ``SearchFailure`` naming every orbit of the stack."""
    J = standard_J(surface.dim_n)
    d = surface.dim

    def field_of(Y):
        g, H = surface.jet(Y[:, :d])
        JHV = (J @ H @ Y[:, d:].reshape(-1, d, d)).reshape(-1, d * d)
        return np.hstack([g @ J.T, JHV])

    x0s, taus = (np.array(v, dtype=float) for v in zip(*points.values()))
    y0s = np.hstack([x0s, np.tile(np.eye(d).ravel(), (len(taus), 1))])
    try:
        res = solve_stacked(field_of, y0s, taus, tol, tol)
    except NumericFailure as e:
        raise SearchFailure(f"orbits {', '.join(points)}: variational "
                            f"integration failed: {e}") from e
    ends = res.y[:, -1].reshape(len(taus), -1)
    return {oid: (y[:d], y[d:].reshape(d, d), J @ surface.gauge_grad(y[:d]))
            for oid, y in zip(points, ends)}


def shoot_for_orbit(surface: Hypersurface, seeds: dict, *, tol: float,
                    int_tol: float) -> dict:
    """Gauss-Newton on the closure map of the canonical flow, in lockstep
    for every orbit id -> (seed point, period guess) of ``seeds``, to
    closure and gauge residuals within ``tol`` with the flow at ``int_tol``;
    returns orbit id -> its prime ``ClosedCharacteristic``, in seed order.

    Per orbit the unknowns are (x0, tau) and the equations flow closure,
    gauge level 1, and a phase constraint pinning the time shift against
    the seed.  Each sweep solves every orbit that has not converged in one
    stacked variational solve (``_closure_map``): a step is halved, up to
    ``_BACKTRACKS`` times, until it lowers that orbit's residual norm, and
    the trial points of all orbits still backtracking are solved together.
    An orbit leaves the stack once its closure and gauge residuals are
    within ``tol``; one that stalls, or has taken ``_NEWTON_ITER`` steps,
    is a ``SearchFailure`` naming it.  The converged loops are integrated
    in one stacked dense flow solve (``integrate_flow``).  A loop that
    never leaves ``100 * tol`` of its start is the zero-period solution of
    the closure equations, not an orbit, and fails.  The dense output gives
    the prime-period test: a loop that closes at tau/m (convergence to an
    iterate) is integrated again over tau/m alone.
    """
    d = surface.dim
    J = standard_J(surface.dim_n)
    refs = {}                   # orbit id -> (x_ref, v_phase)
    start = {}
    for oid, (point, period) in seeds.items():
        x0 = np.asarray(point, dtype=float)
        x0 = x0 / surface.gauge(x0)
        refs[oid] = (x0, J @ surface.gauge_grad(x0))
        start[oid] = (x0, float(period))

    def residuals(points):
        ends = _closure_map(surface, points, int_tol)
        out = {}
        for oid, (x, t) in points.items():
            xT, V, f_end = ends[oid]
            x_ref, v_phase = refs[oid]
            F = np.concatenate([xT - x,
                                [surface.gauge(x) - 1.0],
                                [np.dot(x - x_ref, v_phase)]])
            Jac = np.zeros((d + 2, d + 1))
            Jac[:d, :d] = V - np.eye(d)
            Jac[:d, d] = f_end
            Jac[d, :d] = surface.gauge_grad(x)
            Jac[d + 1, :d] = v_phase
            out[oid] = (x, t, F, Jac)
        return out

    current = residuals(start)       # orbit id -> (x0, tau, F, Jac)
    norm0 = {oid: np.linalg.norm(c[2]) for oid, c in current.items()}
    steps = dict.fromkeys(seeds, 0)
    active = list(seeds)
    while active:
        trials = {}                  # orbit id -> [step, lam, tries]
        for oid in active:
            F, Jac = current[oid][2:]
            if steps[oid] == _NEWTON_ITER:
                raise SearchFailure(
                    f"orbit {oid}: shooting did not converge (residual "
                    f"{np.linalg.norm(F):.3g} from initial {norm0[oid]:.3g})")
            if np.linalg.norm(F[:d]) <= tol and abs(F[d]) <= tol:
                continue
            step, *_ = np.linalg.lstsq(Jac, -F, rcond=None)
            trials[oid] = [step, 1.0, 0]
        active = list(trials)
        while trials:
            points = {}
            for oid, trial in trials.items():
                x, t, F = current[oid][:3]
                step, lam, tries = trial
                while tries < _BACKTRACKS and t + lam * step[d] <= 0:
                    lam, tries = 0.5 * lam, tries + 1
                if tries == _BACKTRACKS:
                    raise SearchFailure(f"orbit {oid}: shooting stalled at "
                                        f"residual {np.linalg.norm(F):.3g}")
                trial[1:] = lam, tries
                points[oid] = (x + lam * step[:d], t + lam * step[d])
            for oid, tried in residuals(points).items():
                if np.linalg.norm(tried[2]) < np.linalg.norm(current[oid][2]):
                    current[oid] = tried
                    steps[oid] += 1
                    del trials[oid]
                else:
                    trials[oid][1] *= 0.5
                    trials[oid][2] += 1

    loops = integrate_flow(surface, {oid: current[oid][:2] for oid in seeds},
                           tol=int_tol)
    found = {}
    for oid, traj in loops.items():
        x0, tau = current[oid][:2]
        if np.max(np.linalg.norm(traj.xs - x0, axis=1)) < 100.0 * tol:
            raise SearchFailure(f"orbit {oid}: shooting collapsed onto its "
                                f"seed (period {tau:.3g}); no orbit found")
        prime_tau = tau
        for m in range(_PRIME_CHECK_MAX, 1, -1):
            if np.linalg.norm(traj.sol(tau / m) - x0) < 100.0 * tol:
                prime_tau = tau / m
                traj = integrate_flow(surface, {oid: (x0, prime_tau)},
                                      tol=int_tol)[oid]
                break
        if traj.closure_residual > 100.0 * tol:
            raise SearchFailure(f"orbit {oid}: closure degraded after "
                                f"prime-period reduction")
        found[oid] = ClosedCharacteristic(
            orbit_id=oid, prime_period=float(prime_tau), trajectory=traj,
            provenance="shooting")
    return found


def gate_orbit(surface: Hypersurface, orbits: list, *, closure_tol: float,
               int_tol: float) -> dict:
    """Acceptance gate every orbit passes regardless of provenance; returns
    orbit id -> {"closure", "surface"}.

    The flow at the run's ``int_tol`` over one prime period must close
    within ``closure_tol`` (DOP853's rtol floor ``max(1e-2 * tol, 3e-14)``
    leaves no room to tighten it), and the loop's samples must sit on the
    surface within ``_SURFACE_TOL``.  The gate reuses a loop's own closure
    residual only when that loop was integrated by this surface's flow
    (``integrate_flow``) at ``int_tol`` over exactly ``prime_period``, as
    every shot loop is; every other orbit (the analytic catalog, a loaded
    registry, a Galerkin loop) is integrated afresh from its first sample,
    all of them in one stacked solve.
    """
    def measured(orb):
        traj = orb.trajectory
        return (traj.flow is not None and traj.flow[0] is surface
                and traj.flow[1] == int_tol
                and traj.ts[-1] == orb.prime_period)

    starts = {o.orbit_id: (o.trajectory.x0, o.prime_period)
              for o in orbits if not measured(o)}
    fresh = integrate_flow(surface, starts, tol=int_tol) if starts else {}
    gates = {}
    for orb in orbits:
        closure = fresh.get(orb.orbit_id, orb.trajectory).closure_residual
        sres = surface_residual(surface, orb)
        if closure > closure_tol:
            raise InvariantViolation(
                f"orbit {orb.orbit_id}: closure residual "
                f"{closure:.3g} above {closure_tol}")
        if sres > _SURFACE_TOL:
            raise InvariantViolation(
                f"orbit {orb.orbit_id}: off-surface by {sres:.3g}")
        gates[orb.orbit_id] = {"closure": closure, "surface": sres}
    return gates


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
    ellipsoid, shooting (``shoot_for_orbit``, all seeds in lockstep) from
    each orbit of its base ellipsoid's catalog."""
    if surface.kind == "ellipsoid":
        return ellipsoid_catalog(surface)
    base = make_ellipsoid(surface.meta["radii"])
    seeds = {f"y{k+1}": (orb.trajectory.x0, orb.prime_period)
             for k, orb in enumerate(ellipsoid_catalog(base))}
    return dedupe_orbits(list(shoot_for_orbit(surface, seeds, tol=tol,
                                              int_tol=int_tol).values()))


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
