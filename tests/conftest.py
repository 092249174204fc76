"""Shared fixtures: solved orbit/index bundles reused across test modules."""

import warnings

import pytest

from charlab.cli import _SCHEMA
from charlab.flow import integrate_linearized
from charlab.galerkin import ReductionOptions
from charlab.geometry import make_ellipsoid, make_perturbed_ellipsoid
from charlab.index import IndexComputer, compute_orbit_index_data
from charlab.orbits import ellipsoid_catalog, find_orbits

RADII_2D = [1.0, 2.0**0.25]           # squared ratio sqrt(2), irrational
RADII_3D = [1.0, 2.0**0.25, 3.0**0.25]


def schema_default(path):
    """The one default of a config-backed setting, from the config schema."""
    return _SCHEMA[path][0]


# the index stage's rational-turn settings, and the reduction of a config
# without a galerkin block, at the schema's defaults
TURNS = {"q_max": schema_default("tolerances.q_max"),
         "angle_tol": schema_default("tolerances.angle_tol")}
GALERKIN = {key: schema_default("galerkin." + key)
            for key in ("T", "ratio", "theta", "alpha", "K", "mode_cut")}
REDUCTION = ReductionOptions(**GALERKIN)


class Bundle:
    def __init__(self, surface, orbits, paths, index_data):
        self.surface = surface
        self.orbits = orbits
        self.paths = paths
        self.index_data = index_data


def solve_bundle(radii, m_max=14, alpha=1.5, tol=1e-12, surface=None):
    """Orbits, index paths and index data; the ellipsoid catalog unless a
    (perturbed) surface is given, whose orbits are searched for."""
    if surface is None:
        surface = make_ellipsoid(radii)
        orbits = ellipsoid_catalog(surface)
    else:
        orbits = find_orbits(surface, tol=1e-10, int_tol=1e-12)
    paths = integrate_linearized(
        surface, {o.orbit_id: (o.trajectory.x0, o.prime_period) for o in orbits},
        alpha, tol=tol)
    data = {}
    for orb in orbits:
        data[orb.orbit_id] = compute_orbit_index_data(
            orb.orbit_id, IndexComputer(paths[orb.orbit_id]), m_max=m_max,
            **TURNS)
    return Bundle(surface, orbits, paths, data)


@pytest.fixture(scope="session")
def circle_bundle():
    return solve_bundle([1.0])


@pytest.fixture(scope="session")
def ell2_bundle():
    return solve_bundle(RADII_2D)


@pytest.fixture(scope="session")
def ell3_bundle():
    return solve_bundle(RADII_3D)


@pytest.fixture(scope="session")
def perturbed_bundle():
    surface = make_perturbed_ellipsoid(RADII_2D, [0.3, -0.2, 0.15, 0.1], 1e-4)
    return solve_bundle(None, surface=surface)


@pytest.fixture(scope="session")
def tied_root_bundle():
    # squared radii 1 : 2 are rationally dependent; the catalog says so
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return solve_bundle([1.0, 2.0**0.5])
