"""The canonical-clock flow of a surface and its linearized symplectic path.

Every solve integrates the surface's own field ``ydot = J grad j(y)``
(H = j; on the surface ``grad j(y) . y = 1``, so its trajectories carry the
canonical time normalisation used for periods) with the DOP853 port of
``charlab.ode``.  A step size that falls below the float spacing raises
``NumericFailure``, and the drift of j is checked on all samples of each
orbit in one gauge evaluation.

For index work the linearization is integrated jointly with the flow, with
the effective Hessian S(x) = (alpha-1) g g^T + hess j taken from one gauge
jet per right-hand side call.  It equals hess(j^alpha)/alpha on the surface
level: the linearized flow of j^alpha after rescaling time by the constant
factor alpha, which changes no crossing count, monodromy, index or nullity.

Every solve is stacked (``solve_stacked``): the flow solve, the linearized
solve and the orbit search's variational solve each take all their orbits at
once, each rescaled to s in [0, 1] and stacked into one state.  They share
DOP853's steps (RMS error norm over the stack) and one gauge call per stage
on the block of points, and each orbit keeps its own gates and reads only
its own columns of the shared dense solution, in its own time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgument, NumericFailure
from .geometry import Hypersurface
from .ode import DenseSolution, OdeResult, dop853
from .sympl import project_symplectic, standard_J, symplectic_defect

LOOP_SAMPLES = 257      # uniform samples of a stored loop, whatever found it
_PATH_SAMPLES = 513     # samples of a linearized path over one period
_DEFECT_GATE = 1e-6     # sampled symplecticity defect a path may not exceed


@dataclass
class Trajectory:
    """A solved arc of the flow with uniform samples ``ts`` from 0.

    ``flow`` is the (surface, tol) of the ``integrate_flow`` solve that made
    it, and None for a loop sampled any other way."""

    ts: np.ndarray
    xs: np.ndarray
    closure_residual: float
    sol: object = field(repr=False, default=None)
    flow: tuple | None = field(repr=False, default=None)

    @property
    def x0(self):
        return self.xs[0]


@dataclass
class SymplecticPath:
    """Fundamental solution R(t) of zdot = J S(x(t)) z over one orbit period.

    ``Rs``/``ts`` hold the integrated R on a uniform grid, ``end_monodromy``
    the value at the period (retracted onto Sp(2n) when the sampled defect
    exceeds 1e-10); R(t + k*period) = R(t) R(period)^k extends it to
    iterates.  ``sol`` is the dense joint (x, R) solution in the orbit's own
    time, a view of its columns of the stacked solve; ``S_of_t`` is the
    index form along the orbit.
    """

    ts: np.ndarray
    Rs: np.ndarray
    end_monodromy: np.ndarray
    period: float
    defect: float
    n: int
    sol: Callable = field(repr=False)
    S_of_t: Callable = field(repr=False)
    _powers: dict = field(default_factory=dict, repr=False)

    def monodromy_power(self, k: int) -> np.ndarray:
        if k not in self._powers:
            if k == 0:
                self._powers[0] = np.eye(2 * self.n)
            else:
                self._powers[k] = self.monodromy_power(k - 1) @ self.end_monodromy
        return self._powers[k]

    def base_at(self, t: float) -> np.ndarray:
        """R(t) for t in [0, period] from the dense solution."""
        d = 2 * self.n
        y = self.sol(float(np.clip(t, 0.0, self.period)))
        return y[d:].reshape(d, d)

    def S_at(self, t: float) -> np.ndarray:
        return self.S_of_t(float(t) % self.period)


def solve_stacked(field_of, y0s, taus, rtol: float, atol: float, *,
                  dense_output: bool = False) -> OdeResult:
    """One DOP853 solve of the systems y' = field_of(Y), one per row of
    ``y0s``, each over its own time [0, taus[k]], taus > 0.

    Each system is rescaled to s in [0, 1] (y' = tau f(y)) and the rows are
    stacked into one state: they share the steps (RMS error norm over the
    stack) and one ``field_of`` call per stage on the (k, w) block of
    current states.  ``_own_time`` views one row's dense solution.
    """
    y0s = np.asarray(y0s, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if not np.all(taus > 0):
        raise InvalidArgument(f"the flow integrates forward only, got "
                              f"times {taus.tolist()}")
    shape = y0s.shape

    def rhs(s, y):
        return (taus[:, None] * field_of(y.reshape(shape))).ravel()

    return dop853(rhs, (0.0, 1.0), y0s.ravel(), rtol, atol,
                  dense_output=dense_output)


def _own_time(stack: DenseSolution, k: int, w: int,
              tau: float) -> DenseSolution:
    """Row k of a stacked dense solution (``w`` states a row) in its own
    time t = tau s; views, no copies."""
    cols = slice(k * w, (k + 1) * w)
    return DenseSolution(stack.ts * tau, stack.y_old[:, cols],
                         stack.F[:, :, cols])


def _starts(starts: dict):
    """The start points and end times of orbit id -> (x0, t_end)."""
    return (np.array(v, dtype=float) for v in zip(*starts.values()))


def _dense_tolerances(tol: float, x0s):
    """rtol and atol of the dense solves: local control well under the drift
    budget, atol scaled by the smallest start point of the stack."""
    rtol = max(1e-2 * tol, 3e-14)
    return rtol, rtol * max(1.0, float(np.min(np.linalg.norm(x0s, axis=1))))


def integrate_flow(surface: Hypersurface, starts: dict, *,
                   tol: float) -> dict:
    """Adaptive high-order integration of xdot = J grad j(x) for every orbit
    id -> (x0, t_end), t_end > 0, of ``starts`` in one stacked DOP853 solve
    (``solve_stacked``); returns orbit id -> its ``Trajectory`` over
    [0, t_end], sampled at ``LOOP_SAMPLES`` uniform times, with its dense
    solution in its own time.

    Reported local error tolerance is ``tol``; each orbit's drift of j along
    its samples must stay within 10 * tol * max(1, t_end) * scale, and a
    failure names the orbit.
    """
    J = standard_J(surface.dim_n)
    x0s, taus = _starts(starts)
    stack = solve_stacked(lambda X: surface.gauge_grad(X) @ J.T, x0s, taus,
                          *_dense_tolerances(tol, x0s), dense_output=True).sol
    out = {}
    for k, (oid, tau) in enumerate(zip(starts, taus)):
        sol = _own_time(stack, k, surface.dim, tau)
        ts = np.linspace(0.0, tau, LOOP_SAMPLES)
        xs = sol(ts).T
        _energy_drift(surface, xs, float(surface.gauge(x0s[k])), tau, tol,
                      f"orbit {oid}: ")
        closure = float(np.linalg.norm(xs[-1] - x0s[k]))
        out[oid] = Trajectory(ts=ts, xs=xs, closure_residual=closure, sol=sol,
                              flow=(surface, tol))
    return out


def _energy_drift(surface: Hypersurface, xs, h0: float, t_end: float,
                  tol: float, where: str = ""):
    """Raises when the largest |j(x) - h0| over the samples exceeds the
    budget 10 * tol * max(1, t_end) * max(1, |h0|), its message led by
    ``where``."""
    energies = np.asarray(surface.gauge(xs), dtype=float)
    drift = float(np.max(np.abs(energies - h0)))
    budget = 10.0 * tol * max(1.0, abs(t_end)) * max(1.0, abs(h0))
    if drift > budget:
        raise NumericFailure(f"{where}energy drift exceeds tolerance budget",
                             drift=drift, budget=budget)


def integrate_linearized(surface: Hypersurface, starts: dict, alpha: float,
                         *, tol: float) -> dict:
    """Integrate R' = J S(x(t)) R, S(x) = (alpha-1) g g^T + hess j, jointly
    with the flow, for every orbit id -> (x0, tau) of ``starts`` in one
    stacked DOP853 solve (``solve_stacked``); returns orbit id -> its path
    over [0, tau].

    The tolerances are ``integrate_flow``'s.  Each orbit keeps its own
    gates, which name it: its drift of j is held to ``integrate_flow``'s
    budget, a sampled symplecticity defect above ``_DEFECT_GATE`` raises,
    and above 1e-10 its end monodromy is retracted onto Sp(2n), while the
    stored samples stay as integrated.
    """
    n = surface.dim_n
    d = 2 * n
    w = d + d * d                       # one orbit's columns of the stack
    J = standard_J(n)
    x0s, taus = _starts(starts)

    def field_at(x):
        g, H = surface.jet(x)
        return g, (alpha - 1.0) * (g[..., :, None] * g[..., None, :]) + H

    def field_of(Y):
        g, S = field_at(Y[:, :d])
        JSR = (J @ S @ Y[:, d:].reshape(-1, d, d)).reshape(-1, d * d)
        return np.hstack([g @ J.T, JSR])

    y0s = np.hstack([x0s, np.tile(np.eye(d).ravel(), (len(taus), 1))])
    stack = solve_stacked(field_of, y0s, taus, *_dense_tolerances(tol, x0s),
                          dense_output=True).sol

    def path(k, oid, tau):
        sol = _own_time(stack, k, w, tau)
        ts = np.linspace(0.0, tau, _PATH_SAMPLES)
        ys = sol(ts)
        _energy_drift(surface, ys[:d].T, float(surface.gauge(x0s[k])), tau,
                      tol, f"orbit {oid}: ")
        Rs = ys[d:].T.reshape(len(ts), d, d)
        defect = float(np.max(symplectic_defect(
            np.concatenate([Rs[:: max(1, len(ts) // 32)], Rs[-1:]]), J)))
        if defect > _DEFECT_GATE:
            raise NumericFailure(f"orbit {oid}: symplecticity defect too "
                                 f"large; refine steps", defect=defect)
        monodromy = Rs[-1] if defect <= 1e-10 else project_symplectic(Rs[-1], J)
        return SymplecticPath(ts=ts, Rs=Rs, end_monodromy=monodromy, period=tau,
                              defect=defect, n=n, sol=sol,
                              S_of_t=lambda t: field_at(sol(float(t))[:d])[1])

    return {oid: path(k, oid, tau)
            for k, (oid, tau) in enumerate(zip(starts, taus))}


def path_max_defect(path: SymplecticPath) -> float:
    """Largest symplecticity defect over the integrated samples."""
    J = standard_J(path.n)
    return float(np.max(symplectic_defect(path.Rs, J)))
