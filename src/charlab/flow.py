"""Hamiltonian flow integration and the linearized symplectic path.

Vector fields are ``xdot = J grad H(x)``, integrated by the DOP853 port of
``charlab.ode`` with dense output; a step size that falls below the float
spacing raises ``NumericFailure``, and the energy drift is checked on all
samples in one evaluation of H.  Besides the full modified Hamiltonian this
module ships the canonical field on a surface, ``GaugeField``: H = j itself;
on the surface ``grad j(y) . y = 1``, so its trajectories carry the
canonical time normalisation used for periods.

For index work the linearization is integrated along the canonical-clock
trajectory with the effective Hessian ``(alpha-1) g g^T + hess j`` (see
``IndexForm``), each right-hand side call taking g and hess j from one
gauge jet.  This is the linearized flow of j^alpha after rescaling time by
the constant factor alpha; rescaling changes no crossing count, monodromy,
index or nullity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NumericFailure
from .geometry import Hypersurface
from .ode import dop853
from .sympl import project_symplectic, standard_J, symplectic_defect


class GaugeField:
    """H = j: the canonical-clock field J grad j."""

    def __init__(self, surface: Hypersurface):
        self.surface = surface
        self.J = standard_J(surface.dim_n)

    def value(self, x):
        return self.surface.gauge(x)

    def grad(self, x):
        return self.surface.gauge_grad(x)


@dataclass(frozen=True)
class IndexForm:
    """Effective Hessian S(x) = (alpha-1) g g^T + hess j for the index path
    along a canonical-clock orbit.

    Equals hess(j^alpha)/alpha restricted to the surface level; the 1/alpha
    factor is the time rescaling between the j^alpha clock and the canonical
    clock and does not affect signs.
    """

    surface: Hypersurface
    alpha: float

    def joint(self, x):
        """grad j(x) and S(x) from one jet of the gauge."""
        g, H = self.surface.jet(x)
        return g, (self.alpha - 1.0) * np.outer(g, g) + H

    def __call__(self, x):
        return self.joint(x)[1]


@dataclass
class Trajectory:
    """A solved arc of the flow with uniform samples ``ts`` from 0."""

    ts: np.ndarray
    xs: np.ndarray
    closure_residual: float
    energy_drift: float
    sol: object = field(repr=False, default=None)

    @property
    def x0(self):
        return self.xs[0]


@dataclass
class SymplecticPath:
    """Fundamental solution R(t) of zdot = J S(x(t)) z over one orbit period.

    ``Rs``/``ts`` hold R on a uniform grid, ``end_monodromy`` the value at
    the period; R(t + k*period) = R(t) R(period)^k extends it to iterates.
    """

    ts: np.ndarray
    Rs: np.ndarray
    end_monodromy: np.ndarray
    period: float
    defect: float
    n: int
    sol: object = field(repr=False, default=None)
    hess_along: Callable = field(repr=False, default=None)
    x_of_t: Callable = field(repr=False, default=None)
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
        if self.sol is not None:
            y = self.sol(float(np.clip(t, 0.0, self.period)))
            return y[d:].reshape(d, d)
        i = int(np.clip(np.searchsorted(self.ts, t), 0, len(self.ts) - 1))
        return self.Rs[i]

    def S_at(self, t: float) -> np.ndarray:
        s = float(t) % self.period
        return self.hess_along(self.x_of_t(s))


def integrate_flow(hamiltonian, x0, t_end: float, tol: float = 1e-10,
                   n_samples: int = 257, max_gauge: float = None) -> Trajectory:
    """Adaptive high-order integration of xdot = J grad H(x).

    Reported local error tolerance is ``tol``; the energy drift along the
    returned samples must stay within 10 * tol * max(1, t_end) * scale.
    """
    x0 = np.asarray(x0, dtype=float)
    J = hamiltonian.J
    if t_end == 0.0:
        return Trajectory(ts=np.zeros(1), xs=x0[None, :], closure_residual=0.0,
                          energy_drift=0.0)
    h0 = float(hamiltonian.value(x0))

    def rhs(t, x):
        return J @ hamiltonian.grad(x)

    scale = max(1.0, float(np.linalg.norm(x0)))
    rtol = max(1e-2 * tol, 3e-14)   # local control well under the drift budget
    res = dop853(rhs, (0.0, t_end), x0, rtol, rtol * scale, dense_output=True)
    ts = np.linspace(0.0, t_end, n_samples)
    xs = res.sol(ts).T
    if max_gauge is not None:
        levels = hamiltonian.surface.gauge(xs)
        if np.any(levels > max_gauge):
            raise DomainError("trajectory escaped the modeled region")
    drift = _energy_drift(hamiltonian, xs, h0, t_end, tol)
    return Trajectory(ts=ts, xs=xs,
                      closure_residual=float(np.linalg.norm(xs[-1] - x0)),
                      energy_drift=drift, sol=res.sol)


def _energy_drift(hamiltonian, xs, h0: float, t_end: float,
                  tol: float) -> float:
    """Largest |H(x) - h0| over the samples; raises above the budget
    10 * tol * max(1, t_end) * max(1, |h0|)."""
    energies = np.asarray(hamiltonian.value(xs), dtype=float)
    drift = float(np.max(np.abs(energies - h0)))
    budget = 10.0 * tol * max(1.0, abs(t_end)) * max(1.0, abs(h0))
    if drift > budget:
        raise NumericFailure("energy drift exceeds tolerance budget",
                             drift=drift, budget=budget)
    return drift


def integrate_linearized(ham, x0, tau: float, hess: Callable,
                         tol: float = 1e-11, n_samples: int = 513,
                         defect_gate: float = 1e-6) -> SymplecticPath:
    """Integrate R' = J S(x(t)) R jointly with the flow of ``ham`` from x0
    over [0, tau].

    The state is integrated with R (not interpolated from another solve) so
    that S is evaluated on the true orbit; its energy drift is held to the
    budget of ``integrate_flow``.  Samples with symplecticity defect above
    1e-10 are retracted onto Sp(2n); a defect above ``defect_gate`` raises.
    An exact ``GaugeField`` ``ham`` with an exact ``IndexForm`` of its surface
    gets the gradient and S(x) from one gauge jet per RHS call.
    """
    n = ham.J.shape[0] // 2
    d = 2 * n
    J = ham.J
    x0 = np.asarray(x0, dtype=float)
    tau = float(tau)
    one_jet = (type(ham) is GaugeField and type(hess) is IndexForm
               and hess.surface is ham.surface)
    field_at = hess.joint if one_jet else lambda x: (ham.grad(x), hess(x))

    def rhs(t, y):
        g, S = field_at(y[:d])
        return np.concatenate([J @ g, (J @ S @ y[d:].reshape(d, d)).ravel()])

    y0 = np.concatenate([x0, np.eye(d).ravel()])
    rtol = max(1e-2 * tol, 3e-14)
    res = dop853(rhs, (0.0, tau), y0, rtol,
                 rtol * max(1.0, float(np.linalg.norm(x0))), dense_output=True)
    ts = np.linspace(0.0, tau, n_samples)
    ys = res.sol(ts)
    _energy_drift(ham, ys[:d].T, float(ham.value(x0)), tau, tol)
    Rs = ys[d:].T.reshape(len(ts), d, d)
    defect = float(np.max(symplectic_defect(
        np.concatenate([Rs[:: max(1, len(ts) // 32)], Rs[-1:]]), J)))
    if defect > defect_gate:
        raise NumericFailure("symplecticity defect too large; refine steps",
                             defect=defect)
    monodromy = Rs[-1]
    if defect > 1e-10:
        monodromy = project_symplectic(monodromy, J)
        Rs = np.array([project_symplectic(R, J) for R in Rs])
    sol = res.sol

    def x_of_t(t):
        return sol(float(t))[:d]

    return SymplecticPath(ts=ts, Rs=Rs, end_monodromy=monodromy, period=tau,
                          defect=float(defect), n=n, sol=sol,
                          hess_along=hess, x_of_t=x_of_t)


def path_max_defect(path: SymplecticPath) -> float:
    J = standard_J(path.n)
    return float(np.max(symplectic_defect(path.Rs, J)))
