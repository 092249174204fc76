"""Gauge surfaces, the radial profile family, and the Fenchel machinery."""

import json
from pathlib import Path

import numpy as np
import pytest

from charlab.errors import (ConstructionFailure, InvalidArgument)
from charlab.geometry import (HamiltonianSpec,
                              check_surface_invariants,
                              make_aux_function, make_ellipsoid,
                              make_perturbed_ellipsoid, spec_for_period,
                              surface_from_spec)

from conftest import GALERKIN

# spec_for_period's band (galerkin.T, ratio, theta, alpha) at the config
# defaults
BAND = {"period_T": GALERKIN["T"],
        **{key: GALERKIN[key] for key in ("ratio", "theta", "alpha")}}


def surface_to_spec(surf):
    """The JSON spec of an ellipsoid or perturbed-ellipsoid surface."""
    if surf.kind == "ellipsoid":
        return {"kind": "ellipsoid", "radii": list(surf.meta["radii"])}
    assert surf.kind == "perturbed_ellipsoid"
    return {"kind": "perturbed_ellipsoid",
            "radii": list(surf.meta["radii"]),
            "perturbation": {"type": "quartic",
                             "coeffs": list(surf.meta["coeffs"]),
                             "magnitude": surf.meta["magnitude"]}}


def fenchel_dual(spec, y):
    """Dual value and dual gradient (the maximiser) at a single point."""
    vals, X = spec.fenchel_batch(np.asarray(y, dtype=float)[None, :])
    return float(vals[0]), X[0]


def test_unit_circle_gauge_point():
    surf = make_ellipsoid([1.0])
    assert surf.gauge(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=0)


def test_ellipsoid_axis_point():
    surf = make_ellipsoid([1.0, 2.0])
    assert surf.gauge(np.array([0.0, 2.0, 0.0, 0.0])) == pytest.approx(1.0)


def test_gauge_homogeneity_random():
    surf = make_ellipsoid([1.0, 1.7, 0.6])
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 6))
    j = surf.gauge(X)
    j3 = surf.gauge(3.0 * X)
    assert np.max(np.abs(j3 - 3.0 * j) / (3.0 * j)) <= 1e-12


def test_euler_identity_and_star_shape():
    surf = make_perturbed_ellipsoid([1.0, 1.3], [0.2, -0.1, 0.05, 0.15], 1e-3)
    rep = check_surface_invariants(surf, np.random.default_rng(0))
    assert rep["euler"] <= 1e-12
    assert rep["star_min"] > 0.5


def test_bad_radii_rejected():
    with pytest.raises(InvalidArgument):
        make_ellipsoid([1.0, -2.0])
    with pytest.raises(InvalidArgument):
        make_ellipsoid([])


def test_surface_roundtrip():
    spec = {"kind": "perturbed_ellipsoid", "radii": [1.0, 1.2],
            "perturbation": {"type": "quartic",
                             "coeffs": [0.1, 0.1, -0.1, 0.2],
                             "magnitude": 5e-4}}
    surf = surface_from_spec(spec)
    again = surface_to_spec(surf)
    assert again["radii"] == [1.0, 1.2]
    assert again["perturbation"]["magnitude"] == 5e-4


class TestAuxFunction:
    def test_origin_values_exact(self):
        aux = make_aux_function(0.08, 1.92)
        assert aux.phi(0.0) == 0.0
        assert aux.dphi(0.0) == 0.0

    def test_slope_ratio_limit_one(self):
        aux = make_aux_function(0.08, 1.92)
        ts = np.geomspace(1e-8, 1e-4, 20)
        assert abs(aux.slope_ratio(ts[0]) - 1.0) <= 1e-6
        assert abs(aux.d2phi(1e-8) - 1.0) <= 1e-6

    def test_band_is_exact_power(self):
        aux = make_aux_function(0.1, 1.9)
        t1, t2 = aux.knots
        ts = np.geomspace(t1 * 1.01, min(t2 * 0.99, t1 * 50), 40)
        assert np.max(np.abs(aux.phi(ts) - aux.c * ts**aux.alpha)) <= 1e-12
        # on the band the ratio is c*alpha*t^(alpha-2), strictly decreasing
        ratios = aux.slope_ratio(ts)
        assert np.all(np.diff(ratios) < 0)
        assert np.allclose(ratios, aux.c * aux.alpha * ts**(aux.alpha - 2.0),
                           rtol=1e-12)

    def test_ratio_strictly_decreasing_globally(self):
        aux = make_aux_function(0.08, 1.92)
        ts = np.concatenate([np.linspace(1e-4, 1.0, 500, endpoint=False),
                             np.geomspace(1.0, aux.knots[1] * 3, 500)])
        r = aux.slope_ratio(ts)
        assert np.all(np.diff(r) < 0)
        assert r[-1] < aux.theta

    def test_infeasible_parameters_fail_with_diagnostic(self):
        with pytest.raises(ConstructionFailure, match="alpha"):
            make_aux_function(0.05, 1.5)   # alpha <= 2(1-theta)

    def test_bad_ranges(self):
        with pytest.raises(InvalidArgument):
            make_aux_function(1.5, 1.9)
        with pytest.raises(InvalidArgument):
            make_aux_function(0.1, 2.5)

    def test_slope_ratio_inverse(self):
        aux = make_aux_function(0.08, 1.92)
        for s in [0.95, 0.92, 0.8, 0.5, 0.1, 0.06]:
            t = aux.solve_slope_ratio(s)
            assert abs(aux.slope_ratio(t) - s) <= 1e-10


@pytest.fixture(scope="module")
def circle_spec():
    return spec_for_period(make_ellipsoid([1.0]), 2.0 * np.pi, **BAND,
                           K=None, rng_seed=0)


class TestHamiltonian:
    def test_band_euler_relation(self, circle_spec):
        # homogeneous band: H'(x).x = alpha * H(x)
        spec = circle_spec
        rng = np.random.default_rng(7)
        dirs = rng.normal(size=(50, 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = dirs * rng.uniform(1.5, 6.0, size=(50, 1))
        lhs = np.sum(spec.grad(pts) * pts, axis=1)
        rhs = spec.aux.alpha * spec.value(pts)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_outer_field_is_quadratic(self, circle_spec):
        spec = circle_spec
        x = np.array([0.0, 3.0 * spec.r_B])
        assert spec.value(x) == pytest.approx(
            0.5 * spec.eps_a * np.dot(x, x), rel=1e-12)

    def test_inner_region_matches_unmodified(self, circle_spec):
        spec = circle_spec
        x = np.array([0.3, 0.4])
        unmodified = spec.a * spec.aux.phi(spec.surface.gauge(x))
        assert spec.value(x) == pytest.approx(unmodified, rel=1e-13)

    def test_strict_convexity_sampled(self, circle_spec):
        spec = circle_spec
        rng = np.random.default_rng(5)
        U = rng.normal(size=(10000, 2)) * 4.0
        V = rng.normal(size=(10000, 2)) * 4.0
        lhs = np.sum((spec.hk_grad(U) - spec.hk_grad(V)) * (U - V), axis=1)
        rhs = 0.5 * spec.convexity_eps * np.sum((U - V)**2, axis=1)
        assert np.min(lhs - rhs) >= 0.0

    def test_resonant_K_rejected(self):
        surf = make_ellipsoid([1.0])
        with pytest.raises(InvalidArgument, match="2\\*pi"):
            spec_for_period(surf, 2.0 * np.pi, **BAND, K=2.0 * np.pi,
                            rng_seed=0)

    def test_eps_T_bound_enforced(self, circle_spec):
        spec = circle_spec
        with pytest.raises(InvalidArgument):
            HamiltonianSpec(surface=spec.surface, aux=spec.aux, a=spec.a,
                            period_T=spec.period_T, K=spec.K,
                            eps_a=2.1 * np.pi / spec.period_T,
                            cutoff_A=spec.cutoff_A, rng_seed=spec.rng_seed)


    def test_with_K_equals_a_fresh_build(self, circle_spec):
        # the re-K'd spec shares the K-free parts; a fresh one rebuilds them
        for surf, tau in ((circle_spec.surface, 2.0 * np.pi),
                          (make_ellipsoid([1.0, 2.0**0.25]), 2.0 * np.pi)):
            base = spec_for_period(surf, tau, **BAND, K=None, rng_seed=3)
            for K in (base.K, base.K + 2.6, base.K + 7.1):
                fresh = HamiltonianSpec(surface=surf, aux=base.aux, a=base.a,
                                        period_T=base.period_T, K=K,
                                        eps_a=base.eps_a,
                                        cutoff_A=base.cutoff_A, rng_seed=3)
                got = base.with_K(K)
                for name in ("K", "convexity_eps", "hess_sup", "r_A"):
                    assert getattr(got, name) == getattr(fresh, name), name
            assert base.with_K(base.K + 2.6).K == base.K + 2.6

    def test_with_K_gates_K(self, circle_spec):
        with pytest.raises(InvalidArgument, match="2\\*pi"):
            circle_spec.with_K(2.0 * np.pi)
        with pytest.raises(InvalidArgument, match="non-convex"):
            circle_spec.with_K(-circle_spec.hess_sup - 50.0)


class TestFenchel:
    def test_pure_quadratic_region(self, circle_spec):
        # far out H_K = (eps+K)/2 |x|^2, so the dual is |y|^2/(2(eps+K))
        spec = circle_spec
        y = np.array([0.0, 5000.0])
        val, _ = fenchel_dual(spec, y)
        assert val == pytest.approx(np.dot(y, y) / (2 * (spec.K + spec.eps_a)),
                                    rel=1e-10)

    def test_fenchel_young_equality(self, circle_spec):
        spec = circle_spec
        rng = np.random.default_rng(11)
        X = rng.normal(size=(100, 2)) * 3.0
        Y = spec.hk_grad(X)
        vals, _ = spec.fenchel_batch(Y)
        gap = spec.hk_value(X) + vals - np.sum(X * Y, axis=1)
        scale = np.maximum(1.0, np.abs(vals))
        assert np.max(np.abs(gap) / scale) <= 1e-8

    def test_biconjugate_probe(self, circle_spec):
        # oracle: the dual gradient must invert the primal gradient map
        spec = circle_spec
        rng = np.random.default_rng(13)
        X = rng.normal(size=(200, 2)) * np.geomspace(0.05, 20.0, 200)[:, None]
        _, Xstar = spec.fenchel_batch(spec.hk_grad(X))
        err = np.linalg.norm(Xstar - X, axis=1) / np.maximum(
            1.0, np.linalg.norm(X, axis=1))
        assert np.max(err) <= 1e-8

    def test_newton_passes_a_stall_of_the_residual(self):
        # a row of the seed-221 Galerkin witness for the second orbit of
        # configs/ellipsoid_2d.json: on the way to the solution H_K is barely
        # convex, a residual-only backtracking stalls at residual 0.27, and
        # the Armijo decrease of H_K(x) - x.y carries the solve through
        from charlab.orbits import ellipsoid_catalog

        surf = make_ellipsoid([1.0, 2.0**0.25])
        spec = spec_for_period(surf, ellipsoid_catalog(surf)[1].prime_period,
                               **BAND, K=None, rng_seed=221)
        y = np.array([[-207.25755025197637, -39.53640308351191,
                       553.8242880367092, 78.69871369257069]])
        _, X = spec.fenchel_batch(y)
        assert np.linalg.norm(spec.hk_grad(X) - y) <= 1e-12 * np.linalg.norm(y)
        assert np.min(np.linalg.eigvalsh(spec.hk_hess(X))) > 0.0


def separate_gauge_hessian(surf, x):
    """The gauge Hessian of an ellipsoid or perturbed ellipsoid written as
    its own body, apart from the gradient: the reference for ``jet``."""
    radii = np.asarray(surf.meta["radii"], dtype=float)
    w = np.concatenate([1.0 / radii**2, 1.0 / radii**2])
    dim = w.size
    e = np.sqrt(np.sum(w * x * x, axis=-1))
    ge = w * x / e[..., None]
    eye = np.broadcast_to(np.diag(w), x.shape + (dim,))
    He = (eye / e[..., None, None]
          - ge[..., :, None] * ge[..., None, :] / e[..., None, None])
    if surf.kind == "ellipsoid":
        return He
    c, delta = surf.meta["coeffs"], surf.meta["magnitude"]
    u = x / e[..., None]
    Q = np.sum(c * u**4, axis=-1)
    Gq = 4.0 * c * u**3
    Hq = np.zeros(x.shape + (dim,))
    Hq[..., np.arange(dim), np.arange(dim)] = 12.0 * c * u**2
    cross = (Gq[..., :, None] * ge[..., None, :]
             + ge[..., :, None] * Gq[..., None, :])
    outer_ge = ge[..., :, None] * ge[..., None, :]
    hess_w = ((Hq - 3.0 * cross + 12.0 * Q[..., None, None] * outer_ge)
              / e[..., None, None] - 3.0 * Q[..., None, None] * He)
    return He + delta * hess_w


@pytest.mark.parametrize("config", ["ellipsoid_3d", "perturbed_2d"])
def test_jet_is_bitwise_the_separate_callbacks(config):
    # one jet per RHS call may not move a report by a single bit: the jet
    # equals the gradient callback and a Hessian written on its own, on a
    # batch of points and point by point
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "configs" / f"{config}.json").read_text())
    surf = surface_from_spec(spec["surface"])
    X = np.random.default_rng(13).normal(size=(513, surf.dim))
    g, H = surf.jet(X)
    assert np.array_equal(g, surf.gauge_grad(X))
    assert np.array_equal(H, separate_gauge_hessian(surf, X))
    for x, gx, Hx, jx in zip(X, g, H, surf.gauge(X)):
        g1, H1 = surf.jet(x)
        assert np.array_equal(g1, gx) and np.array_equal(H1, Hx)
        assert surf.gauge(x) == jx
