"""Fourier reduction of the dual action functional on T-periodic loops.

The loop space is complexified: x in R^{2n} becomes z in C^n with
z_j = x_j + i x_{n+j}, under which J acts as multiplication by i and the
operator u -> -J u' + K u is diagonal on the modes e^{i omega_k t},
omega_k = 2 pi k / T, with eigenvalue omega_k + K.  Its inverse M_K is the
corresponding diagonal multiplier.

The dual action of a loop u is

    Psi(u) = integral( -1/2 (M_K u . u) + H*(u) ) dt,

whose critical points are exactly the T-periodic solutions of the
Hamiltonian system via x = M_K u.  The reduction subspace G is spanned by
the modes whose -M_K eigenvalue -1/(omega_k + K) lies below -omega/2, where
omega is the monotonicity modulus of grad H*; on the complement the
functional is strictly convex with modulus omega/2, so the inner problem has
a unique minimiser h(g) and psi(g) = Psi(g + h(g)) is a finite-dimensional
functional whose Morse index and nullity at a critical point match those of
Psi.  Critical points are located by a bordered Newton iteration (the border
removes the time-shift circle direction); this finds exactly the critical
points of psi by the reduction's critical-point correspondence.

Each loop's dual is solved once: value, gradient and Hessian at one loop
share the solve.  The loop Hessian is block Toeplitz in the modes, read off
the DFTs of the pointwise dual Hessian; the K-shift audit re-convexifies one
Hamiltonian per orbit (``HamiltonianSpec.with_K``) along its K grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, NumericFailure, SearchFailure
from .flow import LOOP_SAMPLES, Trajectory
from .geometry import HamiltonianSpec, Hypersurface, spec_for_period
from .index import dimension_shift
from .orbits import ClosedCharacteristic

_TWO_PI = 2.0 * np.pi
MAX_MODE_CUT = 4096     # the loop arrays grow with the cut; shipped cuts are <= 52
_NEWTON_TOL = 1e-10     # gradient norm of a critical loop
_NEWTON_ITER = 60
_NULL_TOL = 1e-7        # relative eigenvalue bar of the reduced Hessian's kernel
_COEFF_TOL = 1e-8       # modes below this share of the largest are empty
_K_GRID_POINTS = 5


def estimate_dual_modulus(spec, rng) -> float:
    """Sampled monotonicity modulus of grad H* (halved for safety).

    The geometric bound 1/(K + sup ||H''||) is intersected with a sampled
    minimum of the monotonicity quotient over 400 random pairs at scale
    10 (1 + K).
    """
    geom = 1.0 / (spec.K + max(spec.hess_sup, 0.0))
    scale = 10.0 * (1.0 + spec.K)
    U = rng.normal(size=(400, spec.surface.dim)) * scale
    V = U + rng.normal(size=U.shape) * (0.1 * scale)
    _, X = spec.fenchel_batch(np.vstack([U, V]))    # rows solve independently
    XU, XV = X[:len(U)], X[len(U):]
    num = np.sum((XU - XV) * (U - V), axis=1)
    den = np.sum((U - V)**2, axis=1)
    sampled = float(np.min(num / den))
    return 0.5 * min(geom, sampled)


@dataclass
class GalerkinSystem:
    """Truncated loop space with the reduction subspace G marked out."""

    spec: object                   # HamiltonianSpec or compatible
    mode_cut: int
    omega: float                   # convexity modulus used for the G threshold
    n_grid: int
    freqs: np.ndarray              # integer mode numbers, fft order, active only
    in_G: np.ndarray               # boolean mask on active modes
    n: int
    _dual: tuple = field(default=(None,), init=False, repr=False)  # last solve

    # ---- representation helpers -------------------------------------------
    @property
    def n_active(self) -> int:
        return len(self.freqs)

    @property
    def dim_vec(self) -> int:
        return 2 * self.n * self.n_active

    def vec_mask_G(self) -> np.ndarray:
        m = np.repeat(self.in_G, self.n)
        return np.concatenate([m, m])    # [all Re | all Im] layout

    def coeffs_from_vec(self, vec: np.ndarray) -> np.ndarray:
        half = self.dim_vec // 2
        re = vec[:half].reshape(self.n_active, self.n)
        im = vec[half:].reshape(self.n_active, self.n)
        return re + 1j * im

    def vec_from_coeffs(self, C: np.ndarray) -> np.ndarray:
        return np.concatenate([C.real.ravel(), C.imag.ravel()])

    def grid_z_from_coeffs(self, C: np.ndarray) -> np.ndarray:
        full = np.zeros((self.n_grid, self.n), dtype=complex)
        full[self.freqs % self.n_grid] = C
        return np.fft.ifft(full, axis=0)

    def coeffs_from_grid_z(self, z: np.ndarray) -> np.ndarray:
        full = np.fft.fft(z, axis=0)
        return full[self.freqs % self.n_grid]

    def x_from_z(self, z: np.ndarray) -> np.ndarray:
        return np.concatenate([z.real, z.imag], axis=-1)

    def z_from_x(self, x: np.ndarray) -> np.ndarray:
        return x[..., :self.n] + 1j * x[..., self.n:]

    def grid_x(self, vec: np.ndarray) -> np.ndarray:
        return self.x_from_z(self.grid_z_from_coeffs(self.coeffs_from_vec(vec)))

    # ---- the functional -----------------------------------------------------
    def dual_solve(self, vec: np.ndarray):
        """(H*, its gradient) on the grid loop of ``vec``.  The last loop's
        solve is kept, so value, gradient and Hessian at one loop share it."""
        key = vec.tobytes()
        if self._dual[0] != key:
            self._dual = (key, *self.spec.fenchel_batch(self.grid_x(vec)))
        return self._dual[1:]

    def _mk_multipliers(self) -> np.ndarray:
        T = self.spec.period_T
        return _TWO_PI * self.freqs / T + self.spec.K

    def value(self, vec: np.ndarray) -> float:
        T = self.spec.period_T
        C = self.coeffs_from_vec(vec)
        lam = self._mk_multipliers()
        quad = -0.5 * (T / self.n_grid**2) * float(
            np.sum(np.abs(C)**2 / lam[:, None]))
        vals, _ = self.dual_solve(vec)
        return quad + (T / self.n_grid) * float(np.sum(vals))

    def gradient(self, vec: np.ndarray) -> np.ndarray:
        """Euclidean gradient in vec coordinates (includes the T/N^2 metric)."""
        T = self.spec.period_T
        C = self.coeffs_from_vec(vec)
        lam = self._mk_multipliers()
        _, Xstar = self.dual_solve(vec)
        ghat = self.coeffs_from_grid_z(self.z_from_x(Xstar)) - C / lam[:, None]
        return (T / self.n_grid**2) * self.vec_from_coeffs(ghat)

    def hessian(self, vec: np.ndarray) -> np.ndarray:
        """Assembled Hessian of Psi in vec coordinates: W = H_K''(x*)^-1 maps
        z = q + i p to A z + B conj(z), so mode a of a real (imaginary)
        coefficient reaches mode b through A^(f_b - f_a) + B^(f_b + f_a)
        (times i, with -), ^ the DFT over the grid: block Toeplitz."""
        T, N, n = self.spec.period_T, self.n_grid, self.n
        lam = self._mk_multipliers()
        _, Xstar = self.dual_solve(vec)
        W = np.linalg.inv(self.spec.hk_hess(Xstar))     # dual Hessian, pointwise
        qq, qp, pq, pp = W[:, :n, :n], W[:, :n, n:], W[:, n:, :n], W[:, n:, n:]
        A = np.fft.fft(0.5 * ((qq + pp) + 1j * (pq - qp)), axis=0)
        B = np.fft.fft(0.5 * ((qq - pp) + 1j * (pq + qp)), axis=0)
        f = self.freqs
        P = A[(f[:, None] - f[None, :]) % N]            # [b, a, row j', col j]
        Q = B[(f[:, None] + f[None, :]) % N]
        half = self.dim_vec // 2
        S = (P + Q).transpose(0, 2, 1, 3).reshape(half, half)
        D = (P - Q).transpose(0, 2, 1, 3).reshape(half, half)
        Hmat = np.block([[S.real, -D.imag], [S.imag, D.real]]) * (T / N**3)
        # -M_K diagonal part
        dvals = np.repeat(-1.0 / lam, n)
        Hmat[np.diag_indices(2 * half)] += np.concatenate([dvals, dvals]) * (T / N**2)
        return 0.5 * (Hmat + Hmat.T)

    # ---- critical points -----------------------------------------------------
    def newton_critical(self, vec0: np.ndarray) -> np.ndarray:
        """Bordered Newton for Psi'(u) = 0 with a time-shift phase pin."""
        metric = self.spec.period_T / self.n_grid**2
        l2 = lambda v: float(np.linalg.norm(v)) / np.sqrt(metric)
        C_ref = self.coeffs_from_vec(vec0)
        omega_k = _TWO_PI * self.freqs / self.spec.period_T
        phase_vec = self.vec_from_coeffs(1j * omega_k[:, None] * C_ref)
        pn = np.linalg.norm(phase_vec)
        if pn < 1e-14:
            raise SearchFailure("seed has no time dependence; cannot pin phase")
        phase_vec /= pn
        vec = vec0.copy()
        dim = self.dim_vec
        for it in range(_NEWTON_ITER):
            g = self.gradient(vec)
            resid = l2(g)
            if resid <= _NEWTON_TOL:
                return vec
            H = self.hessian(vec)
            A = np.zeros((dim + 1, dim + 1))
            A[:dim, :dim] = H
            A[:dim, dim] = phase_vec
            A[dim, :dim] = phase_vec
            rhs = np.concatenate([-g, [-np.dot(vec - vec0, phase_vec)]])
            sol = np.linalg.solve(A, rhs)
            step = sol[:dim]
            lam = 1.0
            for _bt in range(25):
                if l2(self.gradient(vec + lam * step)) < resid * (1 - 1e-4 * lam) + 1e-16:
                    break
                lam *= 0.5
            else:
                raise SearchFailure(f"critical-point Newton stalled at {resid:.3g}")
            vec = vec + lam * step
        raise SearchFailure(f"critical-point Newton did not converge ({resid:.3g})")

    def morse_data(self, vec_crit: np.ndarray):
        """(morse index, nullity) of the reduced functional at a critical point.

        The reduced Hessian is the Schur complement of the non-G block of the
        full Hessian; its negative and null eigenvalue counts match the index
        and nullity of the dual action functional at the critical point.
        """
        H = self.hessian(vec_crit)
        maskG = self.vec_mask_G()
        iG = np.nonzero(maskG)[0]
        iH = np.nonzero(~maskG)[0]
        A = H[np.ix_(iG, iG)]
        B = H[np.ix_(iG, iH)]
        D = H[np.ix_(iH, iH)]
        red = A - B @ np.linalg.solve(D, B.T)
        ev = np.linalg.eigvalsh(red)
        scale = max(float(np.max(np.abs(ev))), 1e-300)
        morse = int(np.sum(ev < -_NULL_TOL * scale))
        nullity = int(np.sum(np.abs(ev) <= _NULL_TOL * scale))
        return morse, nullity, ev


def build_galerkin(spec, mode_cut: int, *, omega: float) -> GalerkinSystem:
    """Assemble the truncated loop space for a Hamiltonian spec.

    ``omega`` is the monotonicity modulus of grad H* (``estimate_dual_modulus``).
    Raises when ``mode_cut`` exceeds MAX_MODE_CUT or cannot hold the threshold set of G.
    """
    if mode_cut > MAX_MODE_CUT:
        raise NumericFailure(f"mode cut {mode_cut} exceeds the cap "
                             f"MAX_MODE_CUT = {MAX_MODE_CUT}")
    n = spec.surface.dim_n
    T = spec.period_T
    lo = -spec.K * T / _TWO_PI
    hi = (2.0 / omega - spec.K) * T / _TWO_PI
    k_needed = max(int(np.ceil(abs(lo))), int(np.ceil(abs(hi))))
    if mode_cut < k_needed:
        raise InvalidArgument(
            f"mode_cut {mode_cut} cannot contain the reduction threshold set "
            f"(need {k_needed})")
    n_grid = 1
    while n_grid < 4 * mode_cut or n_grid < 128:
        n_grid *= 2
    freqs = np.concatenate([np.arange(0, mode_cut + 1),
                            np.arange(-mode_cut, 0)])
    lam = _TWO_PI * freqs / T + spec.K
    in_G = (lam > 0) & (lam < 2.0 / omega)
    return GalerkinSystem(spec=spec, mode_cut=mode_cut, omega=float(omega),
                          n_grid=n_grid, freqs=freqs, in_G=in_G, n=n)


@dataclass(frozen=True)
class ReductionOptions:
    """Set-up of the reduction: the config's ``galerkin`` block without
    ``enable``.  ``K = None`` picks the convexification constant from a
    sampled curvature bound; ``mode_cut = None`` picks the smallest cut that
    holds the threshold set of G, plus 8 modes."""

    T: float
    ratio: float
    theta: float
    alpha: float
    K: float | None
    mode_cut: int | None

    def spec(self, surface: Hypersurface, tau: float, *,
             seed: int) -> HamiltonianSpec:
        """The Hamiltonian placing an orbit of period ``tau`` in the band."""
        return spec_for_period(surface, tau, period_T=self.T, ratio=self.ratio,
                               theta=self.theta, alpha=self.alpha, K=self.K,
                               rng_seed=seed)


def reduced_critical_point(surface: Hypersurface, orbit: ClosedCharacteristic,
                           opts: ReductionOptions, *, seed: int, m: int = 1):
    """``critical_loop`` for the Hamiltonian ``opts`` builds for period
    m * tau; returns (spec, system, vec)."""
    spec = opts.spec(surface, m * orbit.prime_period, seed=seed)
    return (spec, *critical_loop(spec, orbit, opts.mode_cut, seed=seed, m=m))


def critical_loop(spec: HamiltonianSpec, orbit: ClosedCharacteristic,
                  mode_cut: int | None = None, *, seed: int, m: int = 1):
    """The reduction of ``spec`` at the sampled dual modulus, and the bordered
    Newton's critical loop from the orbit's own m-th iterate.  ``mode_cut``
    None is the smallest cut holding the threshold set of G, plus 8 modes.
    Returns (system, vec).
    """
    omega = estimate_dual_modulus(spec, np.random.default_rng(seed))
    if not omega > 0:
        raise NumericFailure(f"sampled dual modulus {omega!r} is not positive",
                             T=spec.period_T, K=spec.K)
    need = int(np.ceil((2.0 / omega) * spec.period_T / _TWO_PI)) + 2
    system = build_galerkin(spec, mode_cut or need + 8, omega=omega)
    return system, system.newton_critical(seed_from_orbit(system, orbit, m=m))


# ---------------------------------------------------------------------------
# orbit conversions


def seed_from_orbit(sys: GalerkinSystem, orbit: ClosedCharacteristic,
                    m: int = 1) -> np.ndarray:
    """Loop-space seed u = -J x' + K x for the m-th iterate representative."""
    spec = sys.spec
    aux = spec.aux
    tau_m = m * orbit.prime_period
    ratio = tau_m / (spec.a * spec.period_T)
    rho = aux.solve_slope_ratio(ratio)
    ts_grid = np.arange(sys.n_grid) * spec.period_T / sys.n_grid
    s = (tau_m * ts_grid / spec.period_T) % orbit.prime_period
    ots, oxs = orbit.trajectory.ts, orbit.trajectory.xs
    x = np.empty((sys.n_grid, 2 * sys.n))
    for j in range(2 * sys.n):
        x[:, j] = rho * np.interp(s, ots, oxs[:, j])
    C = sys.coeffs_from_grid_z(sys.z_from_x(x))
    lam = sys._mk_multipliers()
    return sys.vec_from_coeffs(C * lam[:, None])


def orbit_from_critical(sys: GalerkinSystem, vec: np.ndarray, orbit_id: str):
    """Convert a critical loop back to a canonical-clock characteristic.

    Returns (orbit, info): the orbit's period is read off the slope-ratio
    relation and its critical value is the dual action; info holds the gauge
    level rho and the iterate multiplicity detected from the coefficient
    support.
    """
    spec = sys.spec
    C = sys.coeffs_from_vec(vec)
    lam = sys._mk_multipliers()
    Xc = C / lam[:, None]
    z = sys.grid_z_from_coeffs(Xc)
    x = sys.x_from_z(z)
    rho = float(np.mean(spec.surface.gauge(x)))
    ratio = spec.aux.slope_ratio(rho)
    tau_total = spec.a * spec.period_T * float(ratio)
    weights = np.linalg.norm(Xc, axis=1)
    big = np.nonzero(weights > _COEFF_TOL * np.max(weights))[0]
    mult = 0
    for i in big:
        mult = math.gcd(mult, abs(int(sys.freqs[i])))
    mult = max(mult, 1)
    tau_prime = tau_total / mult
    # resample one prime wrap of y(s) = x(s T / tau_total)/rho on [0, tau_prime)
    ss = np.linspace(0.0, tau_prime, LOOP_SAMPLES)
    t_eval = ss * spec.period_T / tau_total
    phases = np.exp(2j * np.pi * np.outer(t_eval / spec.period_T, sys.freqs))
    y_z = phases @ Xc / sys.n_grid / rho
    ys = np.concatenate([y_z.real, y_z.imag], axis=-1)
    traj = Trajectory(ts=ss, xs=ys,
                      closure_residual=float(np.linalg.norm(ys[-1] - ys[0])))
    orb = ClosedCharacteristic(orbit_id=orbit_id, prime_period=float(tau_prime),
                               trajectory=traj, provenance="galerkin", rho=rho,
                               critical_value=float(sys.value(vec)))
    info = {"rho": rho, "multiplicity": mult}
    return orb, info


def critical_value_formula(spec: HamiltonianSpec, rho: float) -> float:
    """Closed form of the dual action at a critical loop of gauge level rho."""
    T = spec.period_T
    return (0.5 * spec.a * spec.aux.dphi(rho) * rho * T
            - spec.a * spec.aux.phi(rho) * T)


# ---------------------------------------------------------------------------
# K-shift audit


def suggest_K_grid(spec: HamiltonianSpec) -> list:
    """A K grid starting at ``spec``'s K (the auto-convexity floor in the
    audit) and spanning at least one 2 pi / T multiple (so the dimension
    shift d(K) jumps inside the grid)."""
    T = spec.period_T
    step = _TWO_PI / T
    offsets = np.linspace(0.0, 1.25 * step, _K_GRID_POINTS)
    grid = []
    for off in offsets:
        K = spec.K + off
        frac = K * T / _TWO_PI
        if abs(K * T - _TWO_PI * round(frac)) < 1e-2:
            K += 0.05 * step
        grid.append(float(K))
    return grid


@dataclass
class KShiftCheck:
    """d(K) bookkeeping across a K grid, against the path index."""

    K_values: list
    d_of_K: list
    morse_indices: list
    nullities: list
    shifted: list                 # morse index minus d(K)
    critical_values: list         # dual action at the critical loop, per K
    path_index: int
    path_nullity: int
    consistent: bool


def k_shift_audit(spec: HamiltonianSpec, orbit: ClosedCharacteristic,
                  K_values, *, seed: int, path_index: int, path_nullity: int,
                  iterate_m: int = 1) -> KShiftCheck:
    """Morse data of the reduced functional across a K grid.

    ``spec`` is the Hamiltonian for period iterate_m * tau; each K of the
    grid convexifies its K-free parts afresh (``with_K``).  Verifies that
    the Morse index minus d(K) = 2n(floor(KT/2pi)+1) is constant across the
    grid and equals the path index i(y^m), and that the nullity is constant
    and matches the path nullity.  Each K gets its own mode cut: a cut that
    fits one K can be too small at a larger one.
    """
    K_values = [float(K) for K in K_values]
    d_list, morse_list, null_list, shifted, values = [], [], [], [], []
    for K in K_values:
        system, vec = critical_loop(spec.with_K(K), orbit, seed=seed,
                                    m=iterate_m)
        morse, nullity, _ = system.morse_data(vec)
        d = dimension_shift(K, spec.period_T, spec.surface.dim_n)
        d_list.append(d)
        morse_list.append(morse)
        null_list.append(nullity)
        shifted.append(morse - d)
        values.append(system.value(vec))
    consistent = (all(s == path_index for s in shifted)
                  and all(nu == path_nullity for nu in null_list))
    return KShiftCheck(K_values=K_values, d_of_K=d_list,
                       morse_indices=morse_list, nullities=null_list,
                       shifted=shifted, critical_values=values,
                       path_index=path_index, path_nullity=path_nullity,
                       consistent=consistent)
