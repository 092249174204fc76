"""Fourier reduction: thresholds, convexity, critical points, Morse data."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from charlab.errors import InvalidArgument, NumericFailure
from charlab.galerkin import (MAX_MODE_CUT, build_galerkin,
                              critical_loop, critical_value_formula,
                              estimate_dual_modulus, k_shift_audit,
                              orbit_from_critical, reduced_critical_point,
                              seed_from_orbit, suggest_K_grid)
from charlab.geometry import make_ellipsoid
from charlab.orbits import ellipsoid_catalog, trajectory_distance

from conftest import REDUCTION


def galerkin_critical_points(sys, seeds, *, zero_tol=1e-8):
    """Newton search from the given seed vectors; constant (zero) solutions
    are filtered out, duplicates folded."""
    out = []
    for k, s in enumerate(seeds):
        vec = sys.newton_critical(np.asarray(s, dtype=float))
        if float(np.linalg.norm(vec)) < zero_tol:
            continue
        orb, info = orbit_from_critical(sys, vec, orbit_id=f"g{k+1}")
        if not any(abs(orb.prime_period - other.prime_period)
                   < 1e-6 * max(1.0, other.prime_period)
                   and trajectory_distance(orb, other) < 1e-4
                   for _, other, _ in out):
            out.append((vec, orb, info))
    return out


def inner_solve(sys, vec_g, h0=None, tol=1e-10, max_iter=60):
    """Minimise Psi(g + h) over the non-G modes (strictly convex)."""
    maskH = ~sys.vec_mask_G()
    idxH = np.nonzero(maskH)[0]
    h = np.zeros(sys.dim_vec) if h0 is None else h0.copy()
    h[~maskH] = 0.0
    metric = sys.spec.period_T / sys.n_grid**2
    for _ in range(max_iter):
        vec = vec_g + h
        gH = sys.gradient(vec)[idxH]
        resid = float(np.linalg.norm(gH)) / np.sqrt(metric)
        if resid <= tol:
            return h
        Hmat = sys.hessian(vec)[np.ix_(idxH, idxH)]
        step = np.linalg.solve(Hmat, gH)
        val0 = sys.value(vec)
        lam = 1.0
        for _bt in range(30):
            h_try = h.copy()
            h_try[idxH] -= lam * step
            if sys.value(vec_g + h_try) < val0 + 1e-12 * abs(val0):
                break
            lam *= 0.5
        h[idxH] -= lam * step
    raise NumericFailure("inner convex solve did not reach tolerance",
                         residual=resid)


def hessian_by_columns(sys, vec):
    """The loop Hessian assembled one basis column at a time: each unit
    Re/Im coefficient as a grid loop, W applied pointwise, back by FFT."""
    T = sys.spec.period_T
    lam = sys._mk_multipliers()
    _, Xstar = sys.spec.fenchel_batch(sys.grid_x(vec))
    W = np.linalg.inv(sys.spec.hk_hess(Xstar))
    dim = sys.dim_vec
    half = dim // 2
    phase = np.exp(2j * np.pi * np.outer(sys.freqs, np.arange(sys.n_grid))
                   / sys.n_grid) / sys.n_grid
    cols_z = np.zeros((dim, sys.n_grid, sys.n), dtype=complex)
    for a in range(sys.n_active):
        for j in range(sys.n):
            c = a * sys.n + j
            cols_z[c, :, j] = phase[a]
            cols_z[half + c, :, j] = 1j * phase[a]
    cols_x = np.concatenate([cols_z.real, cols_z.imag], axis=-1)
    Wcols = np.einsum("mij,cmj->cmi", W, cols_x)
    wz = Wcols[..., :sys.n] + 1j * Wcols[..., sys.n:]
    what = np.fft.fft(wz, axis=1)[:, sys.freqs % sys.n_grid, :]
    re = what.real.reshape(dim, half)
    im = what.imag.reshape(dim, half)
    H = np.concatenate([re, im], axis=1).T * (T / sys.n_grid**2)
    dvals = np.repeat(-1.0 / lam, sys.n)
    H[np.arange(dim), np.arange(dim)] += (np.concatenate([dvals, dvals])
                                          * (T / sys.n_grid**2))
    return 0.5 * (H + H.T)


def two_call_modulus(spec, rng):
    """estimate_dual_modulus with U and V solved in separate calls."""
    geom = 1.0 / (spec.K + max(spec.hess_sup, 0.0))
    scale = 10.0 * (1.0 + spec.K)
    U = rng.normal(size=(400, spec.surface.dim)) * scale
    V = U + rng.normal(size=U.shape) * (0.1 * scale)
    _, XU = spec.fenchel_batch(U)
    _, XV = spec.fenchel_batch(V)
    num = np.sum((XU - XV) * (U - V), axis=1)
    den = np.sum((U - V)**2, axis=1)
    return 0.5 * min(geom, float(np.min(num / den)))


class QuadraticHamiltonian:
    """H = lam/2 |x|^2 test double with an exact Fenchel transform."""

    def __init__(self, dim_n, lam, K, period_T):
        self.surface = SimpleNamespace(dim_n=dim_n)
        self.lam = lam
        self.K = K
        self.period_T = period_T
        self.hess_sup = lam

    def fenchel_batch(self, Y):
        Y = np.atleast_2d(Y)
        return np.sum(Y * Y, axis=1) / (2 * (self.lam + self.K)), \
            Y / (self.lam + self.K)

    def hk_hess(self, X):
        X = np.atleast_2d(X)
        d = X.shape[-1]
        return np.broadcast_to((self.lam + self.K) * np.eye(d),
                               X.shape[:-1] + (d, d)).copy()


class TestQuadraticDouble:
    def setup_method(self):
        self.q = QuadraticHamiltonian(2, 7.3, 9.1, 1.0)
        self.omega = 1.0 / (self.q.lam + self.q.K)
        self.sys = build_galerkin(self.q, mode_cut=12, omega=self.omega)

    def test_threshold_membership(self):
        lam = 2 * np.pi * self.sys.freqs / self.q.period_T + self.q.K
        for k, in_g in zip(self.sys.freqs, self.sys.in_G):
            below = -1.0 / lam[list(self.sys.freqs).index(k)] < -self.omega / 2 \
                if lam[list(self.sys.freqs).index(k)] > 0 else False
            assert bool(in_g) == bool(below)

    def test_inner_solve_at_zero_is_zero(self):
        h = inner_solve(self.sys, np.zeros(self.sys.dim_vec))
        assert np.linalg.norm(h) == 0.0

    def test_morse_index_closed_form(self):
        # negative modes of the loop Hessian: -K < 2 pi k / T < lam
        morse, nullity, _ = self.sys.morse_data(np.zeros(self.sys.dim_vec))
        n, K, lam, T = 2, self.q.K, self.q.lam, self.q.period_T
        expected = 2 * n * (int(K * T / (2 * np.pi))
                            + int(lam * T / (2 * np.pi)) + 1)
        assert morse == expected
        assert nullity == 0

    def test_gradient_hessian_consistency(self):
        rng = np.random.default_rng(2)
        vec = rng.normal(size=self.sys.dim_vec)
        g = self.sys.gradient(vec)
        H = self.sys.hessian(vec)
        h = 1e-6
        for idx in (0, 5, self.sys.dim_vec // 2 + 3):
            e = np.zeros(self.sys.dim_vec)
            e[idx] = h
            fd_g = (self.sys.value(vec + e) - self.sys.value(vec - e)) / (2 * h)
            assert abs(fd_g - g[idx]) <= 1e-9
            fd_H = (self.sys.gradient(vec + e) - self.sys.gradient(vec - e)) / (2 * h)
            assert np.max(np.abs(fd_H - H[:, idx])) <= 1e-9


@pytest.fixture(scope="module")
def circle_system():
    surf = make_ellipsoid([1.0])
    orb = ellipsoid_catalog(surf)[0]
    spec, sys, vec = reduced_critical_point(surf, orb, REDUCTION, seed=0)
    return surf, orb, spec, sys, vec


class TestCircleReduction:
    def test_mode_cut_too_small_rejected(self, circle_system):
        _, _, spec, sys, _ = circle_system
        with pytest.raises(InvalidArgument, match="threshold"):
            build_galerkin(spec, 2, omega=sys.omega)

    def test_mode_cut_above_the_cap_rejected(self, circle_system):
        # a cut of 10**9 would allocate gigabytes of loop arrays; it is
        # named with the cap before any of them exists
        _, _, spec, sys, _ = circle_system
        with pytest.raises(NumericFailure,
                           match=f"mode cut 1000000000 .* {MAX_MODE_CUT}"):
            build_galerkin(spec, 10**9, omega=sys.omega)
        assert sys.mode_cut <= MAX_MODE_CUT

    def test_orbit_recovery(self, circle_system):
        surf, orb, spec, sys, vec = circle_system
        gorb, info = orbit_from_critical(sys, vec, "g1")
        assert abs(gorb.prime_period - orb.prime_period) <= 1e-8
        assert trajectory_distance(gorb, orb) <= 1e-5
        assert info["multiplicity"] == 1

    def test_critical_value_negative_and_matches_formula(self, circle_system):
        surf, orb, spec, sys, vec = circle_system
        _, info = orbit_from_critical(sys, vec, "g1")
        value = sys.value(vec)
        assert value < 0.0
        assert abs(value - critical_value_formula(spec, info["rho"])) <= 1e-6

    def test_value_independent_of_K(self, circle_system):
        surf, orb, spec, _, _ = circle_system
        vals = []
        for K in (spec.K, spec.K + 0.4 * 2 * np.pi / spec.period_T):
            _, s, vec = reduced_critical_point(
                surf, orb, replace(REDUCTION, K=float(K)), seed=0)
            vals.append(s.value(vec))
        assert abs(vals[0] - vals[1]) <= 1e-8

    def test_convexity_on_complement(self, circle_system):
        # monotonicity with modulus omega/2 along non-reduction directions
        _, _, spec, sys, _ = circle_system
        rng = np.random.default_rng(4)
        maskH = ~sys.vec_mask_G()
        metric = spec.period_T / sys.n_grid**2
        worst = np.inf
        for _ in range(1000):
            u = rng.normal(size=sys.dim_vec) * 2.0
            w = np.zeros(sys.dim_vec)
            w[maskH] = rng.normal(size=maskH.sum()) * 0.5
            gu = sys.gradient(u)
            gv = sys.gradient(u + w)
            num = np.dot(gv - gu, w) / metric
            den = np.dot(w, w) * 1.0
            worst = min(worst, num / den)
        assert worst >= sys.omega / 2.0

    def test_zero_critical_point_filtered(self, circle_system):
        _, orb, _, sys, _ = circle_system
        seeds = [seed_from_orbit(sys, orb, m=1)]
        found = galerkin_critical_points(sys, seeds)
        assert len(found) == 1
        assert all(np.linalg.norm(v) > 1e-6 for v, _, _ in found)

    def test_noisy_seed_folds_into_same_orbit(self, circle_system):
        # a perturbed loop seed must converge back to the known circle and
        # be folded with the clean result by the dedup step
        _, orb, _, sys, _ = circle_system
        rng = np.random.default_rng(8)
        clean = seed_from_orbit(sys, orb, m=1)
        noisy = clean + 0.05 * np.linalg.norm(clean) * rng.normal(
            size=clean.shape)
        found = galerkin_critical_points(sys, [clean, noisy])
        assert len(found) == 1
        assert trajectory_distance(found[0][1], orb) <= 1e-5

    def test_mode_cut_stability(self, circle_system):
        surf, orb, spec, sys, vec = circle_system
        gorb, _ = orbit_from_critical(sys, vec, "g")
        big = build_galerkin(spec, 2 * sys.mode_cut, omega=sys.omega)
        vec2 = big.newton_critical(seed_from_orbit(big, orb, m=1))
        gorb2, _ = orbit_from_critical(big, vec2, "g")
        assert abs(gorb.prime_period - gorb2.prime_period) <= 1e-6
        assert trajectory_distance(gorb, gorb2) <= 1e-6


def test_k_shift_audit_circle_m2():
    surf = make_ellipsoid([1.0])
    orb = ellipsoid_catalog(surf)[0]
    spec = REDUCTION.spec(surf, 2 * orb.prime_period, seed=0)
    grid = suggest_K_grid(spec)[::2]        # its first, middle and last K
    chk = k_shift_audit(spec, orb, grid, seed=0, iterate_m=2,
                        path_index=2, path_nullity=1)
    assert chk.consistent
    assert all(s == 2 for s in chk.shifted)


def test_dimension_shift_jump_across_grid(ell2_bundle):
    surf = ell2_bundle.surface
    orb = ell2_bundle.orbits[0]
    d = ell2_bundle.index_data["y1"]
    spec = REDUCTION.spec(surf, orb.prime_period, seed=0)
    chk = k_shift_audit(spec, orb, suggest_K_grid(spec), seed=0,
                        path_index=d.index(1), path_nullity=d.nullity(1))
    assert chk.consistent
    jumps = {b - a for a, b in zip(chk.d_of_K[:-1], chk.d_of_K[1:])}
    assert jumps <= {0, 2 * surf.dim_n}
    assert max(chk.d_of_K) - min(chk.d_of_K) >= 2 * surf.dim_n


@pytest.mark.parametrize("radii, n_orbits", [
    ([1.0], 1), ([1.0, 2.0**0.25], 2), ([1.0, 2.0**0.25, 3.0**0.25], 1)])
def test_toeplitz_hessian_matches_the_column_assembly(radii, n_orbits):
    # every K of the audit grids: the circle, both ell2 orbits, ell3's first
    surf = make_ellipsoid(radii)
    for orb in ellipsoid_catalog(surf)[:n_orbits]:
        spec = REDUCTION.spec(surf, orb.prime_period, seed=0)
        for K in suggest_K_grid(spec):
            sys, vec = critical_loop(spec.with_K(K), orb, seed=0)
            H, ref = sys.hessian(vec), hessian_by_columns(sys, vec)
            assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))
            oracle = build_galerkin(sys.spec, sys.mode_cut, omega=sys.omega)
            oracle.hessian = lambda v: hessian_by_columns(sys, v)
            assert sys.morse_data(vec)[:2] == oracle.morse_data(vec)[:2]


@pytest.mark.parametrize("radii", [[1.0], [1.0, 2.0**0.25]])
def test_stacked_modulus_equals_two_calls(radii):
    surf = make_ellipsoid(radii)
    orb = ellipsoid_catalog(surf)[0]
    for seed in (0, 3):
        spec = REDUCTION.spec(surf, orb.prime_period, seed=seed)
        assert estimate_dual_modulus(spec, np.random.default_rng(seed)) \
            == two_call_modulus(spec, np.random.default_rng(seed))
