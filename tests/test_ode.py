"""The numpy ports of DOP853 and Brent's two routines against scipy itself.

scipy is imported only here: each port must return scipy's floats bit for
bit on the systems and tolerances charlab uses.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings, strategies as st

from charlab.errors import NumericFailure, SearchFailure
from charlab.geometry import Hypersurface, make_ellipsoid, surface_from_spec
from charlab.ode import brentq, dop853, minimize_bounded
from charlab.orbits import _closure_map, ellipsoid_catalog
from charlab.sympl import standard_J

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXAMPLES = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


def config_orbits(name):
    """The config's surface and the (x0, period) of each catalog loop of its
    base ellipsoid."""
    spec = json.loads((CONFIGS / f"{name}.json").read_text())["surface"]
    catalog = ellipsoid_catalog(make_ellipsoid(spec["radii"]))
    return surface_from_spec(spec), [(o.trajectory.x0, o.prime_period)
                                     for o in catalog]


def gauge_system(surface):
    J = standard_J(surface.dim_n)
    return lambda t, x: J @ surface.gauge_grad(x)


def joint_system(surface):
    """The (x, R) system of ``integrate_linearized`` at alpha = 1.5."""
    J, d = standard_J(surface.dim_n), surface.dim

    def rhs(t, y):
        x, R = y[:d], y[d:].reshape(d, d)
        g, H = surface.jet(x)
        S = 0.5 * np.outer(g, g) + H
        return np.concatenate([J @ g, (J @ S @ R).ravel()])
    return rhs


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("config", ["ellipsoid_3d", "perturbed_2d"])
@pytest.mark.parametrize("system", ["gauge", "joint"])
@pytest.mark.parametrize("dense", [False, True])
def test_dop853_is_scipys(config, system, dense):
    surface, loops = config_orbits(config)
    d = surface.dim
    for x0, tau in loops:
        if system == "gauge":
            fun, y0 = gauge_system(surface), x0
        else:
            fun, y0 = joint_system(surface), np.concatenate([x0, np.eye(d).ravel()])
        # the flow's tolerances when dense, the shooting's otherwise
        rtol = 3e-14 if dense else 1e-12
        atol = rtol * max(1.0, float(np.linalg.norm(x0))) if dense else rtol
        ref = scipy.integrate.solve_ivp(fun, (0.0, tau), y0, method="DOP853",
                                        rtol=rtol, atol=atol,
                                        dense_output=dense)
        got = dop853(fun, (0.0, tau), y0, rtol, atol, dense_output=dense)
        assert same_bits(got.t, ref.t) and same_bits(got.y, ref.y)
        assert got.nfev == ref.nfev
        if not dense:
            assert got.sol is None
            continue
        # a uniform grid, every step boundary, and points past both ends
        ts = np.concatenate([np.linspace(0.0, tau, 513), ref.t,
                             [-0.01 * tau, 1.01 * tau]])
        assert same_bits(got.sol(ts), ref.sol(ts))
        assert got.sol(ts).strides == ref.sol(ts).strides
        for t in np.concatenate([ts[::37], ref.t[:5], ref.t[-2:]]):
            assert same_bits(got.sol(float(t)), ref.sol(float(t)))


def test_dop853_tiny_step_is_a_named_failure():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    ref = scipy.integrate.solve_ivp(lambda t, y: y**2, (0.0, 2.0), [1.0],
                                    method="DOP853", rtol=1e-12, atol=1e-12)
    assert ref.status == -1
    with pytest.raises(NumericFailure, match="step size") as err:
        dop853(lambda t, y: y**2, (0.0, 2.0), [1.0], 1e-12, 1e-12)
    assert err.value.info["t"] == ref.t[-1]


def test_closure_map_tiny_step_is_a_search_failure():
    # q' = q^2, p' = 0 from q = 1 leaves every bounded region at t = 1
    def grad(x):
        return np.array([0.0, -x[0]**2])

    surface = Hypersurface(
        1, lambda x: 1.0, grad,
        lambda x: (grad(x), np.array([[0.0, 0.0], [-2.0 * x[0], 0.0]])),
        "custom")
    with pytest.raises(SearchFailure, match="variational integration"):
        _closure_map(surface, np.array([1.0, 0.0]), 2.0, 1e-12)


# functions of x - c with one sign change, as charlab's brackets have
ROOT_FAMILIES = [
    lambda u, w: u,
    lambda u, w: u + w * u**3,
    lambda u, w: np.tanh(w * u),
    lambda u, w: np.expm1(u) * (1.0 + w),
    lambda u, w: u * (u - 4.0 - w),
]

# charlab's (xtol, rtol) pairs; the segment scan's xtol is 1e-13 max(1, tau)
BRENTQ_TOLERANCES = [(1e-15, None), (1e-15, 8.9e-16), (1e-14, None),
                     (1e-13, None), (1e-13 * 6.283185307179586, None),
                     (1e-13 * 10.882796185405306, None)]


@EXAMPLES
@given(family=st.sampled_from(ROOT_FAMILIES),
       c=st.floats(-3.0, 3.0), w=st.floats(0.0, 3.0),
       scale=st.floats(-300.0, 10.0).map(lambda e: 10.0**e),
       sign=st.sampled_from([1.0, -1.0]),
       left=st.floats(1e-9, 3.0), right=st.floats(1e-9, 3.0),
       swap=st.booleans(), tols=st.sampled_from(BRENTQ_TOLERANCES))
def test_brentq_is_scipys(family, c, w, scale, sign, left, right, swap, tols):
    def f(x):
        return sign * scale * family(x - c, w)

    a, b = c - left, c + right
    if swap:
        a, b = b, a
    xtol, rtol = tols
    kw = {"xtol": xtol} if rtol is None else {"xtol": xtol, "rtol": rtol}
    try:
        ref = scipy.optimize.brentq(f, a, b, **kw)
    except (RuntimeError, ValueError):     # no convergence or no sign change
        with pytest.raises(NumericFailure):
            brentq(f, a, b, **kw)
        return
    assert same_bits(float(brentq(f, a, b, **kw)), float(ref))


# unimodal-ish shapes like a smallest singular value or a sup distance
MIN_FAMILIES = [
    lambda u, w: u * u,
    lambda u, w: np.sqrt(u * u + (1e-3 * w)**2),
    lambda u, w: abs(u) + w * u * u,
    lambda u, w: float(np.max(np.abs(np.sin(np.arange(1, 4) * (u + 0.3 * w))))),
]


@EXAMPLES
@given(family=st.sampled_from(MIN_FAMILIES),
       c=st.floats(-0.5, 1.5), w=st.floats(0.0, 2.0),
       lo=st.floats(-1.0, 1.0), width=st.floats(1e-6, 2.0),
       xatol=st.sampled_from([1e-11, 1e-12]), unit=st.booleans())
def test_minimize_bounded_is_scipys(family, c, w, lo, width, xatol, unit):
    def f(x):
        return family(x - c, w)

    lo, hi = (0.0, 1.0) if unit else (np.float64(lo), np.float64(lo + width))
    ref = scipy.optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                         options={"xatol": xatol})
    x, fx = minimize_bounded(f, lo, hi, xatol=xatol)
    assert same_bits(float(x), float(ref.x))
    assert same_bits(float(fx), float(ref.fun))
