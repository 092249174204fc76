"""Star-shaped surfaces, radial profiles, and the convexified Hamiltonian family.

A surface is described by its gauge function ``j`` (positively homogeneous of
degree 1, with the surface itself the level set ``j = 1``).  On top of a
surface we build a family of Hamiltonians

* ``a * phi(j(x))`` with ``phi`` a radial profile that is quadratic-like at 0,
  exactly ``c t^alpha`` on a middle band, and sublinear-slope at infinity;
* an outer modification that turns the far field into ``eps/2 |x|^2``;
* the convexification ``H_K = H + K/2 |x|^2`` together with its Legendre
  (Fenchel) dual evaluated by damped Newton.

Time parametrisation convention used throughout the package: trajectories on
the surface follow ``ydot = J grad j(y)``, for which the normal is normalised
by ``grad j(y) . y = 1`` on the surface.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConstructionFailure, InvalidArgument, NumericFailure
from .ode import brentq
from .sympl import standard_J

_TWO_PI = 2.0 * np.pi
_INVARIANT_SAMPLES = 100    # random points of check_surface_invariants
_INVARIANT_TOL = 1e-8       # its homogeneity and Euler-identity bar
_CLOUD_POINTS = 400         # construction cloud of a HamiltonianSpec
_FENCHEL_TOL = 1e-12        # relative gradient residual of the dual solve
_FENCHEL_ITER = 80
_OFF_RESONANCE_GAP = 1e-2   # least distance of an automatic K*T from 2*pi*Z
_CUTOFF_MARGIN = 4.0        # blend start over the orbit's gauge level


# ---------------------------------------------------------------------------
# surfaces


@dataclass(frozen=True)
class Hypersurface:
    """A compact star-shaped surface given by its gauge function.

    ``gauge``, ``gauge_grad`` and ``jet`` accept arrays of shape
    ``(..., 2n)`` and broadcast over leading axes.  ``jet(x)`` returns the
    gradient and the Hessian together, the gradient bitwise equal to
    ``gauge_grad``; it is the surface's only Hessian.  All objects are
    immutable after construction.
    """

    dim_n: int
    gauge: Callable[[np.ndarray], np.ndarray]
    gauge_grad: Callable[[np.ndarray], np.ndarray]
    jet: Callable[[np.ndarray], tuple]
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return 2 * self.dim_n


def make_ellipsoid(radii) -> Hypersurface:
    """Ellipsoid surface with gauge j(x) = sqrt(sum_k (x_k^2 + x_{n+k}^2) / r_k^2).

    Coordinates are ordered (q_1..q_n, p_1..p_n); the k-th radius governs the
    (q_k, p_k) plane.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 1:
        raise InvalidArgument("radii must be a non-empty 1-d sequence")
    if np.any(radii <= 0):
        raise InvalidArgument("all radii must be positive")
    n = radii.size
    w = np.concatenate([1.0 / radii**2, 1.0 / radii**2])
    W = np.diag(w)                      # the jet's, built once

    def gauge(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.sum(w * x * x, axis=-1))

    def gauge_grad(x):
        x = np.asarray(x, dtype=float)
        j = gauge(x)
        return w * x / j[..., None]

    def jet(x):
        x = np.asarray(x, dtype=float)
        j = gauge(x)
        g = w * x / j[..., None]
        eye = np.broadcast_to(W, x.shape + (2 * n,))
        return g, (eye / j[..., None, None]
                   - g[..., :, None] * g[..., None, :] / j[..., None, None])

    return Hypersurface(n, gauge, gauge_grad, jet, "ellipsoid",
                        {"radii": radii.copy()})


def make_perturbed_ellipsoid(radii, coeffs, magnitude) -> Hypersurface:
    """Ellipsoid gauge multiplied by 1 + delta * q(x / j_e(x)) with quartic q.

    ``q(u) = sum_i coeffs[i] * u_i^4`` is evaluated on the radial projection
    onto the base ellipsoid, so the result stays homogeneous of degree 1.
    Star-shapedness requires ``|delta| * max|q|`` on the base surface to be
    well below 1; this is checked by sampling.
    """
    base = make_ellipsoid(radii)
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (base.dim,):
        raise InvalidArgument(f"need {base.dim} quartic coefficients, got {c.shape}")
    delta = float(magnitude)
    n = base.dim_n

    def _q(u):
        return np.sum(c * u**4, axis=-1)

    def gauge(x):
        x = np.asarray(x, dtype=float)
        e = base.gauge(x)
        u = x / e[..., None]
        return e * (1.0 + delta * _q(u))

    def _prefix(x, ge):
        """(e, u, Q, Gq) and the gradient, from the base gradient ``ge``."""
        e = base.gauge(x)
        u = x / e[..., None]
        Q = _q(u)
        Gq = 4.0 * c * u**3
        grad_w = Gq - 3.0 * Q[..., None] * ge
        return e, u, Q, Gq, ge + delta * grad_w

    def gauge_grad(x):
        x = np.asarray(x, dtype=float)
        return _prefix(x, base.gauge_grad(x))[-1]

    def jet(x):
        x = np.asarray(x, dtype=float)
        ge, He = base.jet(x)
        e, u, Q, Gq, g = _prefix(x, ge)
        Hq = np.zeros(x.shape + (2 * n,))
        idx = np.arange(2 * n)
        Hq[..., idx, idx] = 12.0 * c * u**2
        cross = (Gq[..., :, None] * ge[..., None, :]
                 + ge[..., :, None] * Gq[..., None, :])
        outer_ge = ge[..., :, None] * ge[..., None, :]
        hess_w = ((Hq - 3.0 * cross + 12.0 * Q[..., None, None] * outer_ge)
                  / e[..., None, None] - 3.0 * Q[..., None, None] * He)
        return g, He + delta * hess_w

    surf = Hypersurface(n, gauge, gauge_grad, jet, "perturbed_ellipsoid",
                        {"radii": np.asarray(radii, dtype=float),
                         "coeffs": c, "magnitude": delta})
    check_surface_invariants(surf, np.random.default_rng(0))
    return surf


def surface_from_spec(spec: dict) -> Hypersurface:
    """Build a surface from its JSON description."""
    kind = spec.get("kind")
    if kind == "ellipsoid":
        return make_ellipsoid(spec["radii"])
    if kind == "perturbed_ellipsoid":
        pert = spec["perturbation"]
        if pert.get("type") != "quartic":
            raise InvalidArgument(f"unknown perturbation type {pert.get('type')!r}")
        return make_perturbed_ellipsoid(spec["radii"], pert["coeffs"],
                                        pert["magnitude"])
    raise InvalidArgument(f"unknown surface kind {kind!r}")


def check_surface_invariants(surface: Hypersurface, rng) -> dict:
    """Sampled gauge invariants: homogeneity, the degree-1 Euler identity,
    star-shapedness, and agreement of grad/hess with finite differences.

    Returns the worst observed defects; raises ConstructionFailure when a
    hard invariant fails.
    """
    d = surface.dim
    X = rng.normal(size=(_INVARIANT_SAMPLES, d))
    X = X[np.linalg.norm(X, axis=1) > 1e-3]
    lam = rng.uniform(0.5, 3.0, size=X.shape[0])

    j = surface.gauge(X)
    hom = np.max(np.abs(surface.gauge(lam[:, None] * X) - lam * j) / (lam * j))
    g = surface.gauge_grad(X)
    euler = np.max(np.abs(np.sum(g * X, axis=1) - j) / j)
    onsurf = X / j[:, None]
    star = np.min(np.sum(surface.gauge_grad(onsurf) * onsurf, axis=1))

    # derivative consistency by central differences, [point, axis, component]
    h = 1e-6
    P = X[:8]
    gP, HP = surface.jet(P)
    plus = P[:, None, :] + h * np.eye(d)
    minus = P[:, None, :] - h * np.eye(d)
    fd_g = (surface.gauge(plus) - surface.gauge(minus)) / (2 * h)
    worst_grad = float(np.max(np.abs(fd_g - gP)))
    fd_H = (surface.gauge_grad(plus) - surface.gauge_grad(minus)) / (2 * h)
    worst_hess = float(np.max(np.abs(fd_H - np.swapaxes(HP, 1, 2))))

    report = {"homogeneity": float(hom), "euler": float(euler),
              "star_min": float(star), "grad_fd": worst_grad,
              "hess_fd": worst_hess}
    if hom > _INVARIANT_TOL or euler > _INVARIANT_TOL:
        raise ConstructionFailure(f"gauge homogeneity/Euler defect too large: {report}")
    if star <= 0:
        raise ConstructionFailure(f"surface is not star-shaped: {report}")
    if worst_grad > 1e-4 or worst_hess > 1e-3:
        raise ConstructionFailure(f"gauge derivatives inconsistent: {report}")
    return report


# ---------------------------------------------------------------------------
# radial profile (the auxiliary function family)


def _cubic(t0, t1, v0, v1, d0, d1) -> np.polynomial.Polynomial:
    """Cubic with prescribed values/slopes at t0, t1 (power basis in t)."""
    A = np.array([[1, t0, t0**2, t0**3],
                  [1, t1, t1**2, t1**3],
                  [0, 1, 2 * t0, 3 * t0**2],
                  [0, 1, 2 * t1, 3 * t1**2]], dtype=float)
    coef = np.linalg.solve(A, np.array([v0, v1, d0, d1], dtype=float))
    return np.polynomial.Polynomial(coef)


@dataclass(frozen=True)
class AuxFunction:
    """C^2 radial profile phi with strictly decreasing slope ratio phi'(t)/t.

    Structure in t >= 0 (knots t1 = 1 and t2):

    * germ  [0, 1]:   slope ratio interpolates from 1 down to 1 - theta,
    * band  [1, t2]:  phi(t) = c t^alpha exactly (slope ratio in [theta, 1-theta]),
    * tail  [t2, oo): slope ratio decays to theta/2.

    The germ is built in slope-ratio space as a monotone piecewise cubic
    whose weighted integral makes phi meet the band value exactly; this keeps
    the decreasing-ratio invariant enforceable by construction plus a dense
    verification sweep, which a direct polynomial join of phi does not.
    """

    theta: float
    alpha: float
    c: float
    knots: tuple
    germ_ratio: tuple          # ((t_lo, t_hi, Polynomial), ...)
    germ_dratio: tuple         # germ_ratio's pieces differentiated
    germ_phi: tuple            # ((t_lo, t_hi, Polynomial), ...)
    tail_floor: float          # limit of phi'(t)/t at infinity
    tail_kappa: float

    # -- slope ratio psi(t) = phi'(t)/t ------------------------------------
    def slope_ratio(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        t1, t2 = self.knots
        germ = t < t1
        band = (t >= t1) & (t <= t2)
        tail = t > t2
        for lo, hi, poly in self.germ_ratio:
            m = germ & (t >= lo) & (t < hi)
            out[m] = poly(t[m])
        out[band] = (1.0 - self.theta) * t[band]**(self.alpha - 2.0)
        lf, kap = self.tail_floor, self.tail_kappa
        out[tail] = lf + (self.theta - lf) * (t2 / t[tail])**kap
        return out if out.ndim else float(out)

    def _ratio_deriv(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        t1, t2 = self.knots
        germ = t < t1
        band = (t >= t1) & (t <= t2)
        tail = t > t2
        for lo, hi, poly in self.germ_dratio:
            m = germ & (t >= lo) & (t < hi)
            out[m] = poly(t[m])
        out[band] = ((1.0 - self.theta) * (self.alpha - 2.0)
                     * t[band]**(self.alpha - 3.0))
        lf, kap = self.tail_floor, self.tail_kappa
        out[tail] = -(self.theta - lf) * kap * t2**kap * t[tail]**(-kap - 1.0)
        return out if out.ndim else float(out)

    # -- phi and derivatives -------------------------------------------------
    def phi(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        t1, t2 = self.knots
        germ = t < t1
        band = (t >= t1) & (t <= t2)
        tail = t > t2
        for lo, hi, poly in self.germ_phi:
            m = germ & (t >= lo) & (t < hi)
            out[m] = poly(t[m])
        out[band] = self.c * t[band]**self.alpha
        lf, kap = self.tail_floor, self.tail_kappa
        phi_t2 = self.c * t2**self.alpha
        s = t[tail]
        out[tail] = (phi_t2 + lf * (s**2 - t2**2) / 2.0
                     + (self.theta - lf) * t2**kap
                     * (s**(2.0 - kap) - t2**(2.0 - kap)) / (2.0 - kap))
        return out if out.ndim else float(out)

    def dphi(self, t):
        t = np.asarray(t, dtype=float)
        return t * self.slope_ratio(t) if t.ndim else float(t * self.slope_ratio(t))

    def d2phi(self, t):
        t = np.asarray(t, dtype=float)
        val = self.slope_ratio(t) + t * self._ratio_deriv(t)
        return val if val.ndim else float(val)

    def solve_slope_ratio(self, s: float) -> float:
        """Inverse of the slope ratio: the unique t > 0 with phi'(t)/t = s."""
        t1, t2 = self.knots
        lf = self.tail_floor
        if not lf < s < 1.0:
            raise InvalidArgument(
                f"slope ratio {s} outside attainable range ({lf}, 1)")
        if s >= 1.0 - self.theta:      # germ
            return brentq(lambda t: self.slope_ratio(t) - s, 1e-14, t1,
                          xtol=1e-15)
        if s >= self.theta:            # band, closed form
            return float((s / (1.0 - self.theta))**(1.0 / (self.alpha - 2.0)))
        return float(t2 * ((self.theta - lf) / (s - lf))**(1.0 / self.tail_kappa))


@functools.lru_cache(maxsize=None)
def make_aux_function(theta: float, alpha: float) -> AuxFunction:
    """Construct the radial profile for given band parameters (built once
    per pair; ``AuxFunction`` is frozen).

    Feasibility requires alpha in (2(1-theta), 2): the germ must carry
    weighted mass (1-theta)/alpha between the bounds forced by a monotone
    slope ratio falling from 1 to 1-theta on [0, 1].
    """
    if not 0.0 < theta < 1.0:
        raise InvalidArgument(f"theta must be in (0,1), got {theta}")
    if not 1.0 < alpha < 2.0:
        raise InvalidArgument(f"alpha must be in (1,2), got {alpha}")
    if alpha <= 2.0 * (1.0 - theta):
        raise ConstructionFailure(
            f"bands cannot be joined with a decreasing slope ratio: need "
            f"alpha > 2(1-theta) = {2*(1-theta):.6g}, got alpha = {alpha}")

    c = (1.0 - theta) / alpha
    target = (1.0 - theta) / alpha          # required integral of t*psi on [0,1]
    end_slope = (alpha - 2.0) * (1.0 - theta)
    t_mid = 0.5

    def build_ratio(v: float):
        s1 = (v - 1.0) / t_mid
        s2 = (1.0 - theta - v) / (1.0 - t_mid)
        d_mid = 2.0 * s1 * s2 / (s1 + s2) if s1 * s2 > 0 else 0.0
        p0 = _cubic(0.0, t_mid, 1.0, v, 0.0, d_mid)
        p1 = _cubic(t_mid, 1.0, v, 1.0 - theta, d_mid, end_slope)
        return ((0.0, t_mid, p0), (t_mid, 1.0, p1))

    def germ_integral(v: float) -> float:
        total = 0.0
        for lo, hi, poly in build_ratio(v):
            q = (poly * np.polynomial.Polynomial([0.0, 1.0])).integ()
            total += q(hi) - q(lo)
        return total

    lo_v = 1.0 - theta + 1e-9
    hi_v = 1.0 - 1e-9
    f_lo = germ_integral(lo_v) - target
    f_hi = germ_integral(hi_v) - target
    if f_lo * f_hi > 0:
        raise ConstructionFailure(
            f"germ integral target {target:.6g} not bracketed "
            f"(range [{germ_integral(lo_v):.6g}, {germ_integral(hi_v):.6g}]); "
            f"move alpha closer to 2 or enlarge theta")
    v = brentq(lambda vv: germ_integral(vv) - target, lo_v, hi_v,
               xtol=1e-15, rtol=8.9e-16)
    ratio_pieces = build_ratio(v)

    # phi on the germ: piecewise antiderivative of t*psi(t), continuous from 0
    phi_pieces = []
    acc = 0.0
    for lo, hi, poly in ratio_pieces:
        q = (poly * np.polynomial.Polynomial([0.0, 1.0])).integ()
        phi_pieces.append((lo, hi, q - q(lo) + acc))
        acc += q(hi) - q(lo)

    tail_floor = theta / 2.0
    kappa = (2.0 - alpha) * theta / (theta - tail_floor)   # = 2(2 - alpha)
    t2 = ((1.0 - theta) / theta)**(1.0 / (2.0 - alpha))

    aux = AuxFunction(theta=theta, alpha=alpha, c=c, knots=(1.0, t2),
                      germ_ratio=tuple(ratio_pieces),
                      germ_dratio=tuple((lo, hi, poly.deriv())
                                        for lo, hi, poly in ratio_pieces),
                      germ_phi=tuple(phi_pieces),
                      tail_floor=tail_floor, tail_kappa=kappa)

    # dense verification of the strict-decrease invariant
    grid = np.concatenate([np.linspace(1e-6, 1.0, 2001),
                           np.geomspace(1.0, t2 * 4.0, 2001)])
    dr = aux._ratio_deriv(grid)
    if np.any(dr >= 0.0):
        bad = grid[dr >= 0.0][:3]
        raise ConstructionFailure(
            f"slope ratio not strictly decreasing near t = {bad}; "
            f"parameters (theta={theta}, alpha={alpha}) rejected")
    return aux


# ---------------------------------------------------------------------------
# the Hamiltonian family


def _smoothstep3(u):
    """C^3 step: 0 -> 1 on [0, 1] with three vanishing derivatives at the ends."""
    u = np.clip(u, 0.0, 1.0)
    return u**4 * (35.0 - 84.0 * u + 70.0 * u**2 - 20.0 * u**3)


def _smoothstep3_d1(u):
    u = np.asarray(u, dtype=float)
    v = np.clip(u, 0.0, 1.0)
    val = 140.0 * v**3 - 420.0 * v**4 + 420.0 * v**5 - 140.0 * v**6
    return np.where((u > 0.0) & (u < 1.0), val, 0.0)


def _smoothstep3_d2(u):
    u = np.asarray(u, dtype=float)
    v = np.clip(u, 0.0, 1.0)
    val = 420.0 * v**2 - 1680.0 * v**3 + 2100.0 * v**4 - 840.0 * v**5
    return np.where((u > 0.0) & (u < 1.0), val, 0.0)


@dataclass
class HamiltonianSpec:
    """The working Hamiltonian: a*phi(j(x)) inside, eps/2 |x|^2 far out,
    plus the K|x|^2/2 convexification and its Fenchel dual.

    The blend between the two regimes is a C^3 step in the gauge level
    between r_A (where a*phi = cutoff_A) and 2 r_A.  The K-free parts (r_A,
    a sample cloud over the modeled region and its Hessian) are built once;
    ``K = None`` picks K from that Hessian's least eigenvalue.
    """

    surface: Hypersurface
    aux: AuxFunction
    a: float
    period_T: float
    K: float | None
    eps_a: float
    cutoff_A: float
    rng_seed: int

    def __post_init__(self):
        if self.a <= 0 or self.period_T <= 0:
            raise InvalidArgument("a and period_T must be positive")
        if self.eps_a * self.period_T >= _TWO_PI:
            raise InvalidArgument(
                f"eps_a*T must be below 2*pi, got {self.eps_a * self.period_T}")
        level = self.cutoff_A / self.a
        if level <= self.aux.phi(1e-3):
            raise InvalidArgument("cutoff_A too small: blend would start at the origin")
        hi = 1.0
        while self.aux.phi(hi) < level:
            hi *= 2.0
            if hi > 1e30:
                raise InvalidArgument("cutoff_A unreachable")
        self.r_A = brentq(lambda t: self.aux.phi(t) - level, 1e-6, hi,
                          xtol=1e-14)
        self.r_B = 2.0 * self.r_A
        self.J = standard_J(self.surface.dim_n)
        X = self._sample_cloud(np.random.default_rng(self.rng_seed))
        self._cloud_hess = self.hess(X)
        eigs = np.linalg.eigvalsh(self._cloud_hess)
        self.hess_sup = float(np.max(eigs))
        if self.K is None:
            self.K = _off_resonance(max(1.0, -1.5 * float(np.min(eigs)) + 1.0),
                                    self.period_T)
        self._convexify(self.K)
        # gradient must not vanish in the blend shell
        shell = X[(self.surface.gauge(X) > self.r_A)
                  & (self.surface.gauge(X) < self.r_B)]
        if shell.shape[0]:
            gn = np.linalg.norm(self.grad(shell), axis=1)
            if np.min(gn) < 1e-10:
                raise ConstructionFailure("gradient vanishes in the blend shell")

    def with_K(self, K: float) -> HamiltonianSpec:
        """This Hamiltonian convexified with ``K`` instead; the K-free parts
        are shared, not rebuilt."""
        spec = copy.copy(self)
        spec._convexify(K)
        return spec

    def _convexify(self, K):
        """Set K: K*T off the 2*pi lattice, H_K convex on the cloud with
        margin ``convexity_eps``."""
        if lattice_gap(K, self.period_T) < 1e-6:
            raise InvalidArgument(f"K*T = {K*self.period_T} is within 1e-6 of 2*pi*Z")
        eye = np.broadcast_to(np.eye(self.surface.dim), self._cloud_hess.shape)
        m = float(np.min(np.linalg.eigvalsh(self._cloud_hess + K * eye)[:, 0]))
        if m <= 0:
            raise InvalidArgument(
                f"K = {K} leaves H_K non-convex (min Hessian eigenvalue {m:.3g}); "
                f"raise K")
        self.K, self.convexity_eps = K, m

    # -- H_a with the outer modification -------------------------------------
    def value(self, x):
        x = np.asarray(x, dtype=float)
        r = self.surface.gauge(x)
        inner = self.a * self.aux.phi(r)
        quad = 0.5 * self.eps_a * np.sum(x * x, axis=-1)
        chi = _smoothstep3((r - self.r_A) / (self.r_A))
        return (1.0 - chi) * inner + chi * quad

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        r = self.surface.gauge(x)
        g = self.surface.gauge_grad(x)
        aphi_d = self.a * self.aux.dphi(r)
        inner_grad = aphi_d[..., None] * g
        quad = 0.5 * self.eps_a * np.sum(x * x, axis=-1)
        u = (r - self.r_A) / self.r_A
        chi = _smoothstep3(u)
        chi_d = _smoothstep3_d1(u) / self.r_A
        B = quad - self.a * self.aux.phi(r)
        return (inner_grad + chi[..., None] * (self.eps_a * x - inner_grad)
                + (chi_d * B)[..., None] * g)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        r = self.surface.gauge(x)
        g, Hj = self.surface.jet(x)
        aphi_d = self.a * self.aux.dphi(r)
        aphi_dd = self.a * self.aux.d2phi(r)
        gg = g[..., :, None] * g[..., None, :]
        inner_hess = aphi_dd[..., None, None] * gg + aphi_d[..., None, None] * Hj
        u = (r - self.r_A) / self.r_A
        chi = _smoothstep3(u)
        chi_d = _smoothstep3_d1(u) / self.r_A
        chi_dd = _smoothstep3_d2(u) / self.r_A**2
        quad = 0.5 * self.eps_a * np.sum(x * x, axis=-1)
        B = quad - self.a * self.aux.phi(r)
        gradB = self.eps_a * x - aphi_d[..., None] * g
        eye = np.broadcast_to(np.eye(x.shape[-1]), x.shape + (x.shape[-1],))
        hessB = self.eps_a * eye - inner_hess
        sym = g[..., :, None] * gradB[..., None, :] + gradB[..., :, None] * g[..., None, :]
        return (inner_hess
                + (chi_dd * B)[..., None, None] * gg
                + (chi_d * B)[..., None, None] * Hj
                + chi_d[..., None, None] * sym
                + chi[..., None, None] * hessB)

    # -- convexified H_K ------------------------------------------------------
    def hk_value(self, x):
        x = np.asarray(x, dtype=float)
        return self.value(x) + 0.5 * self.K * np.sum(x * x, axis=-1)

    def hk_grad(self, x):
        x = np.asarray(x, dtype=float)
        return self.grad(x) + self.K * x

    def hk_hess(self, x):
        x = np.asarray(x, dtype=float)
        eye = np.broadcast_to(np.eye(x.shape[-1]), x.shape + (x.shape[-1],))
        return self.hess(x) + self.K * eye

    # -- Fenchel dual ---------------------------------------------------------
    def fenchel_batch(self, Y):
        """Legendre transform of H_K at the rows of Y.

        Returns (values, maximisers); the gradient of the dual at y is the
        maximiser x(y), the unique solution of grad H_K(x) = y.  A damped
        Newton step is accepted when it shrinks the residual or, where H_K
        is barely convex and the residual stalls, when it gives an Armijo
        decrease of the convex objective H_K(x) - x.y.  The objective is
        the fallback only: near convergence it has no digits left.
        """
        def objective(X, Yr):
            return self.hk_value(X) - np.sum(X * Yr, axis=1)

        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        npts, d = Y.shape
        scale = np.maximum(1.0, np.linalg.norm(Y, axis=1))
        X = Y / (self.K + self.eps_a)
        X[np.linalg.norm(X, axis=1) < 1e-12] = 1e-9    # keep off the gauge cone tip
        res = self.hk_grad(X) - Y
        rnorm = np.linalg.norm(res, axis=1)
        active = rnorm > _FENCHEL_TOL * scale
        for _ in range(_FENCHEL_ITER):
            if not np.any(active):
                break
            Xa = X[active]
            H = self.hk_hess(Xa)
            step = np.linalg.solve(H, res[active][..., None])[..., 0]
            alpha = np.ones(Xa.shape[0])
            base = rnorm[active]
            for _bt in range(30):
                trial = Xa - alpha[:, None] * step
                tip = np.linalg.norm(trial, axis=1) < 1e-12
                trial[tip] = 1e-9
                tres = self.hk_grad(trial) - Y[active]
                tnorm = np.linalg.norm(tres, axis=1)
                bad = tnorm > (1.0 - 0.25 * alpha) * base
                if np.any(bad):
                    Yb = Y[active][bad]
                    slope = np.sum(res[active][bad] * step[bad], axis=1)
                    drop = objective(trial[bad], Yb) - objective(Xa[bad], Yb)
                    bad[bad] = drop > -1e-4 * alpha[bad] * slope
                if not np.any(bad):
                    break
                alpha[bad] *= 0.5
            X[active] = Xa - alpha[:, None] * step
            # the last trial's residual, unless the halvings ran out or the clamp hit
            if np.any(bad | tip):
                tres = self.hk_grad(X[active]) - Y[active]
                tnorm = np.linalg.norm(tres, axis=1)
            res[active] = tres
            rnorm[active] = tnorm
            active = rnorm > _FENCHEL_TOL * scale
        if np.any(active):
            raise NumericFailure("Fenchel Newton solve did not converge",
                                 residual=float(np.max(rnorm[active])),
                                 points=int(np.sum(active)))
        vals = np.sum(X * Y, axis=1) - self.hk_value(X)
        return vals, X

    # -- the construction cloud ------------------------------------------------
    def _sample_cloud(self, rng):
        d = self.surface.dim
        dirs = rng.normal(size=(_CLOUD_POINTS, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = np.geomspace(1e-3, 2.5 * self.r_B, _CLOUD_POINTS)
        return dirs * radii[:, None]


def lattice_gap(K: float, period_T: float) -> float:
    """Distance of K*T from the lattice 2*pi*Z; a K*T that overflows is
    rejected."""
    KT = K * period_T
    if not np.isfinite(KT):
        raise InvalidArgument(f"K*T = {K!r} * {period_T!r} overflows a float")
    return abs(KT - _TWO_PI * round(KT / _TWO_PI))


def _off_resonance(K: float, period_T: float) -> float:
    """Nudge K away from the 2*pi/T lattice by at least ``_OFF_RESONANCE_GAP``
    in K*T."""
    if lattice_gap(K, period_T) < _OFF_RESONANCE_GAP:
        K += 2.0 * _OFF_RESONANCE_GAP / period_T
    return K


def spec_for_period(surface: Hypersurface, tau: float, *, period_T: float,
                    ratio: float, theta: float, alpha: float, K: float | None,
                    rng_seed: int) -> HamiltonianSpec:
    """Convenience constructor placing the orbit of period ``tau`` inside the
    homogeneous band at slope ratio ``ratio``.

    ``a`` is set so that tau/(a T) = ratio; the orbit then sits at gauge level
    rho = (slope ratio)^{-1}(ratio), strictly inside the band, and the blend
    starts at ``_CUTOFF_MARGIN`` rho.  The far-field eps matches the
    quadratic to the inner level at the blend shell (capped below 2*pi/T),
    which keeps the convexification constant small.
    """
    if not 0.0 < ratio < 1.0 - theta:
        raise InvalidArgument("ratio must lie inside the band (0, 1-theta)")
    aux = make_aux_function(theta, alpha)
    a = tau / (ratio * period_T)
    rho = aux.solve_slope_ratio(ratio)
    r_A = _CUTOFF_MARGIN * rho
    cutoff_A = a * aux.phi(r_A)
    rng = np.random.default_rng(rng_seed)
    dirs = rng.normal(size=(128, surface.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    sphere = dirs / surface.gauge(dirs)[:, None]
    s_mean = float(np.mean(np.sum(sphere * sphere, axis=1)))
    eps_match = 2.0 * cutoff_A / (r_A**2 * s_mean)
    eps_a = min(eps_match, 0.9 * _TWO_PI / period_T)
    return HamiltonianSpec(surface=surface, aux=aux, a=a, period_T=period_T,
                           K=K, eps_a=eps_a, cutoff_A=cutoff_A, rng_seed=rng_seed)
