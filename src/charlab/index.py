"""Maslov-type index, nullity, mean index and minimal period of an orbit path.

Every iterate follows from one period's data by Bott's iteration formula
(with the splitting numbers of Long, *Index Theory for Symplectic Paths*):

    i(y^m) + n = sum_{omega^m = 1} i_omega(y),
    nu(y^m)    = sum_{omega^m = 1} dim_C ker(M - omega I).

i_omega is locally constant off the monodromy's unit eigenvalues, so it is
read from a table of the arcs between eigenvalue angles; a root of unity
within ``angle_tol`` of an eigenvalue angle takes the index at that
eigenvalue.  ``IterationData`` holds this one-period data (and writes it
to and reads it from JSON); each iterate's sums count the roots of unity
on every arc by floors, so no root is listed.  The table needs no scan
when nu(y) = 1 and the other unit eigenvalues are simple and
Krein-definite: for alpha in (1, 2) the monodromy is N_1(1, 1) <> M_y
(Long, ch. 15), so i_omega is i(y) + n + 1 on the first arc after 1
(S+_M(1) = 1); the Krein steps (``_krein_step``) and
i_omega = i_conj(omega) give the other arcs and the values on the
eigenvalues.  Anything else (-1 included) is scanned.
A one-period index counts regular crossings of
``det(R(t) - omega I) = 0``: the start gives half the signature of S(0)
(omega = 1 only), each interior crossing the signature of S(t) on
ker(R(t) - omega I), the endpoint minus the negative count of that form.
The same scan over all m periods (``IndexComputer.index_pair``) is the
reference ``charlab audit`` checks the formula against on surfaces other
than ellipsoids, where Ekeland's closed form is.  The arc average of
i_omega is the mean index, at eigenvalue accuracy (~1e-12); the slope fit
over the integer table is kept as a certified cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (ConsistencyFailure, ConstructionFailure, InvalidArgument,
                     InvariantViolation, NumericFailure)
from .flow import SymplecticPath
from .ode import brentq, minimize_bounded
from .sympl import standard_J

_TWO_PI = 2.0 * np.pi
# an eigenvalue with no other within _KREIN_GAP is simple; its Krein sign is
# trusted when |kappa| of the unit eigenvector reaches _KREIN_MIN
_KREIN_GAP = 1e-4
_KREIN_MIN = 1e-3
_ONE_CLUSTER_TOL = 1e-4           # eigenvalues this near 1 count as 1
_CIRCLE_TOL = 1e-7                # | |lambda| - 1 | of a unit eigenvalue
_RATIONAL_TOL = 1e-9              # an arc average this near p/q is p/q
# the crossing scanner: grid cells per period, kernel gate on the relative
# singular value, relative bar of a degenerate form, and nullity gate
_N_SCAN = 2048
_SIGMA_GATE = 1e-7
_REG_TOL = 1e-8
_NULLITY_TOL = 1e-6


@dataclass
class IndexRecord:
    """Index data of one iterate of one orbit."""

    orbit_id: str
    iterate_m: int
    index_i: int
    nullity_nu: int


@dataclass
class IterationData:
    """One period's data for the iteration formula: the monodromy's unit
    eigenvalue angles (0 included), i_omega on the open arcs between them as
    (lo, hi, i_omega), and (i_omega, dim_C ker(M - omega I)) at each
    eigen-angle that is a rational turn, in the path normalisation; its
    shape is checked when built."""

    dim_n: int
    eigen_angles: list
    arc_table: list
    on_point: dict
    angle_tol: float

    def __post_init__(self):
        angles = self.eigen_angles
        ends = angles[1:] + [_TWO_PI]
        if not angles or angles[0] != 0.0 or any(a >= b for a, b in
                                                  zip(angles, ends)):
            raise ConstructionFailure(
                "eigen-angles must rise strictly from 0.0 and stay below 2 pi")
        if [tuple(arc[:2]) for arc in self.arc_table] != list(zip(angles, ends)):
            raise ConstructionFailure(
                "the arc table must hold one arc per pair of consecutive "
                "eigen-angles, the last ending at 2 pi")
        if 0.0 not in self.on_point or not set(self.on_point) <= set(angles):
            raise ConstructionFailure(
                "on-point data must be keyed by eigen-angles, 0.0 among them")

    def iterate_table(self, m_from: int, m_upto: int):
        """(index, nullity) of the iterates m_from..m_upto as two integer
        arrays, in the surface normalisation: i(y^m) + n and nu(y^m) are
        the sums over the m-th roots of unity exp(2 pi i k/m), per arc.

        With x = m a / 2 pi, the root k = round(x) hits the eigen-angle a
        within ``angle_tol`` and takes the value at its nearest eigen-angle
        (the first on a tie).  The arc (lo, hi) holds the integers k
        strictly between x_lo and x_hi, ceil(x_hi) - floor(x_lo) - 1 of
        them; all but the hit ones (root 0 as k = m) take the arc's value.
        """
        if m_from < 1:
            raise InvalidArgument("iterate must be >= 1")
        if m_upto * self.angle_tol >= np.pi:
            raise InvalidArgument(
                f"angle_tol {self.angle_tol!r} holds two {m_upto}-th roots "
                f"of unity; it must stay below pi / {m_upto}")
        ms = np.arange(m_from, m_upto + 1)[:, None]
        eig = np.array(self.eigen_angles)
        x = ms * np.append(eig, _TWO_PI) / _TWO_PI          # x[:, 0] = 0
        k = np.rint(x[:, :-1]).astype(int) % ms
        gap = np.abs(eig - _TWO_PI * k / ms)
        dist = np.minimum(gap, _TWO_PI - gap)
        hit = dist <= self.angle_tol
        # a root that hits several eigen-angles goes to the nearest only
        other, own = dist[:, None, :], dist[:, :, None]
        first = np.tri(len(eig), k=-1, dtype=bool)    # [j, j']: j' before j
        hit &= ~(hit[:, None, :] & (k[:, None, :] == k[:, :, None])
                 & ((other < own) | (other == own) & first)).any(axis=2)
        known = np.array([a in self.on_point for a in self.eigen_angles])
        bad = np.argwhere(hit & ~known)
        if bad.size:
            row, j = bad[0]
            raise NumericFailure(
                "a root of unity lands on an eigenvalue angle that is not a "
                "recognised rational turn", iterate=int(ms[row, 0]),
                eigen_angle=float(eig[j]))
        on_i, on_nu = np.array([self.on_point.get(a, (0, 0))
                                for a in self.eigen_angles]).T
        nu = hit @ on_nu
        bad = np.flatnonzero((nu < 1) | (nu > 2 * self.dim_n - 1))
        if bad.size:
            raise InvariantViolation(
                f"nullity {nu[bad[0]]} outside [1, {2 * self.dim_n - 1}]"
                f" at iterate {ms[bad[0], 0]}")
        # each hit root leaves the arc whose count holds it (root 0 as k = m)
        t = np.where(k == 0, ms, k)[:, :, None]
        held = (hit[:, :, None] & (x[:, None, :-1] < t)
                & (t < x[:, None, 1:])).sum(axis=1)
        count = (np.ceil(x[:, 1:]) - np.floor(x[:, :-1])).astype(int) - 1
        arc_i = np.array([i for _, _, i in self.arc_table])
        return (count - held) @ arc_i + hit @ on_i - self.dim_n, nu

    def to_json(self) -> dict:
        """The data as JSON values; floats round-trip exactly."""
        return {"eigen_angles": self.eigen_angles, "arc_table": self.arc_table,
                "on_point": [[a, *v] for a, v in self.on_point.items()],
                "angle_tol": self.angle_tol}

    @classmethod
    def from_json(cls, block: dict, dim_n: int) -> "IterationData":
        """Inverse of ``to_json``."""
        return cls(dim_n=dim_n,
                   eigen_angles=[float(a) for a in block["eigen_angles"]],
                   arc_table=[(float(lo), float(hi), int(i))
                              for lo, hi, i in block["arc_table"]],
                   on_point={float(a): (int(i), int(nu))
                             for a, i, nu in block["on_point"]},
                   angle_tol=float(block["angle_tol"]))


@dataclass
class OrbitIndexData:
    """Aggregated index data of a prime orbit."""

    orbit_id: str
    dim_n: int
    records: list                     # IndexRecord for m = 1..len(records)
    mean_index: float
    mean_index_fraction: Fraction | None
    mean_index_bar: float
    slope_estimate: float
    K_of_y: int
    iteration: IterationData

    def index(self, m: int) -> int:
        return self.records[m - 1].index_i

    def nullity(self, m: int) -> int:
        return self.records[m - 1].nullity_nu

    @property
    def mean_index_exact(self):
        return (self.mean_index_fraction if self.mean_index_fraction is not None
                else self.mean_index)


class IndexComputer:
    """Crossing scanner over one period and over iterates of a path."""

    def __init__(self, path: SymplecticPath):
        self.path = path
        self.n = path.n
        self.d = 2 * path.n
        self.tau = path.period
        ss = np.linspace(0.0, self.tau, _N_SCAN + 1)
        margin = 1e-7 * self.tau
        ss[0] = margin
        ss[-1] = self.tau - margin
        self.scan_ts = ss
        ys = path.sol(ss)
        self.scan_Rs = ys[self.d:].T.reshape(len(ss), self.d, self.d)
        S0 = path.S_at(0.0)
        eig0 = np.linalg.eigvalsh(S0)
        if np.min(np.abs(eig0)) < _REG_TOL * np.max(np.abs(eig0)):
            raise NumericFailure("singular Hessian at the start of the path")
        sig0 = int(np.sum(eig0 > 0) - np.sum(eig0 < 0))
        if sig0 % 2:
            raise NumericFailure("odd start signature; path data inconsistent")
        self._start_half = sig0 // 2
        self._interior_cache: dict = {}       # k -> signature sum in (k tau, (k+1) tau)
        self._boundary_cache: dict = {}       # k -> signature at t = k tau (or 0)

    # -- kernels and crossing forms -----------------------------------------
    def _kernel_dim(self, A: np.ndarray) -> int:
        s = np.linalg.svd(A, compute_uv=False)
        return int(np.sum(s < _NULLITY_TOL * max(1.0, float(s[0]))))

    def nullity(self, m: int) -> int:
        return self._kernel_dim(self.path.monodromy_power(m) - np.eye(self.d))

    def _kernel(self, A: np.ndarray, gate: float | None = None):
        _, s, Vh = np.linalg.svd(A)
        scale = max(1.0, float(s[0]))
        mask = s < (gate or _SIGMA_GATE) * scale
        if not np.any(mask):
            return None, float(s[-1] / scale)
        return Vh[mask].conj().T, float(s[-1] / scale)

    def _crossing_signature(self, t: float, A: np.ndarray, label: str,
                            probe=None):
        """Signature of the form v* S(t) v on ker(A); None if no kernel.

        Gray-zone singular values (above the kernel gate but small) trigger a
        local dip probe when ``probe`` is given: a genuine crossing limited by
        integration noise dips far below its neighbourhood, a near-tangency
        does not.  Persistent ambiguity raises with the time window.
        """
        B, smin = self._kernel(A)
        if B is None and smin < 1e-5:
            if probe is None:
                raise NumericFailure(f"ambiguous near-crossing ({label})",
                                     t=float(t), sigma=smin)
            h = 1e-5 * max(1.0, self.tau)
            if smin < 0.05 * min(probe(t - h), probe(t + h)):
                B, _ = self._kernel(A, gate=smin * 2.0 + 1e-300)
            if B is None:
                raise NumericFailure(
                    f"ambiguous near-crossing ({label})",
                    window=(float(t - h), float(t + h)), sigma=smin)
        if B is None:
            return None
        S = self.path.S_at(t)
        form = B.conj().T @ S @ B
        form = 0.5 * (form + form.conj().T)
        mu = np.linalg.eigvalsh(form)
        scale = max(np.max(np.abs(mu)), 1e-30)
        if np.min(np.abs(mu)) < _REG_TOL * scale:
            raise NumericFailure(
                f"degenerate crossing form ({label})", t=float(t),
                eigenvalues=[float(v) for v in mu])
        return int(np.sum(mu > 0) - np.sum(mu < 0)), int(np.sum(mu < 0))

    # -- one-period scans ------------------------------------------------------
    def _refine_minimum(self, f, a: float, b: float) -> float:
        # normalised bracket coordinate: the bounded minimiser's sqrt(eps)|x|
        # term would otherwise cap accuracy at large absolute times
        u, _ = minimize_bounded(lambda u: f(a + u * (b - a)), 0.0, 1.0,
                                xatol=1e-11)
        return float(a + u * (b - a))

    def _scan_segment(self, k: int, omega: complex):
        """Crossings strictly inside (k tau, (k+1) tau); list of (t, sig, negs).

        Candidates come from local minima of the smallest singular value of
        R(t) - omega I on the scan grid (linear in |t - t*| near a crossing)
        plus, for real omega, determinant sign changes.  Each refined
        candidate is classified by its numerical kernel.
        """
        real = abs(omega.imag) < 1e-15
        if real:
            omega = omega.real      # R(t) M^k - omega I stays real
        Mk = self.path.monodromy_power(k)
        Rk = self.scan_Rs @ Mk if k else self.scan_Rs
        A = Rk - omega * np.eye(self.d)
        smin = np.linalg.svd(A, compute_uv=False)[:, -1]
        ts = self.scan_ts + k * self.tau

        def fmat(t):
            R = self.path.base_at(t - k * self.tau) @ Mk
            return R - omega * np.eye(self.d)

        def fsig(t):
            return float(np.linalg.svd(fmat(t), compute_uv=False)[-1])

        ceiling = 0.25 * float(np.median(smin)) + 1e-300
        cands = []
        if real:
            dets = np.linalg.det(A)
            flips = np.nonzero(dets[:-1] * dets[1:] < 0)[0]
            for i in flips:
                cands.append(brentq(
                    lambda t: float(np.linalg.det(fmat(t))),
                    ts[i], ts[i + 1], xtol=1e-13 * max(1.0, self.tau)))
        mins = np.nonzero((smin[1:-1] < smin[:-2]) & (smin[1:-1] <= smin[2:])
                          & (smin[1:-1] < ceiling))[0] + 1
        for i in mins:
            cands.append(self._refine_minimum(fsig, ts[i - 1], ts[i + 1]))
        lo = k * self.tau + 1e-9 * max(1.0, self.tau)
        hi = (k + 1) * self.tau - 1e-9 * max(1.0, self.tau)
        merge = 1e-6 * max(1.0, self.tau)
        accepted = []
        out = []
        for t in sorted(cands):
            if not lo < t < hi:
                continue
            if accepted and abs(t - accepted[-1]) < merge:
                continue
            sig = self._crossing_signature(t, fmat(t), f"segment {k}",
                                           probe=fsig)
            if sig is None:
                continue
            accepted.append(t)
            out.append((t, sig[0], sig[1]))
        return out

    def _interior_signature(self, k: int) -> int:
        if k not in self._interior_cache:
            self._interior_cache[k] = sum(
                sig for _, sig, _ in self._scan_segment(k, 1.0 + 0.0j))
        return self._interior_cache[k]

    def _boundary_signature(self, k: int) -> int:
        """Full signature of the crossing at t = k tau (interior role)."""
        if k not in self._boundary_cache:
            A = self.path.monodromy_power(k) - np.eye(self.d)
            self._boundary_cache[k] = self._form_at(k * self.tau, A,
                                                    f"boundary {k}")[0]
        return self._boundary_cache[k]

    def _form_at(self, t: float, A: np.ndarray, label: str):
        """(signature, negatives) of the crossing form on ker(A) at t."""
        return self._crossing_signature(t, A, label) or (0, 0)

    # -- public ---------------------------------------------------------------
    def index_pair(self, m: int):
        """(index, nullity) of the m-th iterate, in the surface normalisation,
        by scanning all m periods of the iterated path."""
        if m < 1:
            raise InvalidArgument("iterate must be >= 1")
        nu = self.nullity(m)
        if nu < 1 or nu > self.d - 1:
            raise InvariantViolation(
                f"nullity {nu} outside [1, {self.d - 1}] at iterate {m}")
        total = self._start_half
        for k in range(m):
            total += self._interior_signature(k)
            if 0 < k:
                total += self._boundary_signature(k)
        A = self.path.monodromy_power(m) - np.eye(self.d)
        total -= self._form_at(m * self.tau, A, f"endpoint {m}")[1]
        return total - self.n, nu

    def omega_pair(self, angle: float):
        """(i_omega, dim_C ker(M - omega I)) at a unit omega = exp(i*angle)
        other than 1: the interior crossings plus, when omega is an
        eigenvalue, the endpoint term on ker(M - omega I)."""
        omega = complex(np.cos(angle), np.sin(angle))
        interior = sum(sig for _, sig, _ in self._scan_segment(0, omega))
        A = self.path.end_monodromy - omega * np.eye(self.d)
        nu = self._kernel_dim(A)
        label = f"endpoint at {angle:.6g}"
        negs = self._form_at(self.tau, A, label)[1] if nu else 0
        return interior - negs, nu

    def omega_index(self, angle: float) -> int:
        """Index at unit parameter exp(i*angle); omega must not be an
        eigenvalue of the monodromy (at ``_NULLITY_TOL``)."""
        i_om, nu = self.omega_pair(angle)
        if nu:
            raise NumericFailure("omega parameter hits the monodromy spectrum",
                                 angle=angle)
        return i_om


def unit_spectrum_angles(eigvals):
    """Angles in [0, 2pi) of the unit-circle eigenvalues among ``eigvals``
    (the monodromy's).

    Eigenvalues within ``_ONE_CLUSTER_TOL`` of 1 are collapsed to angle 0:
    a defective 1-eigenvalue (the generic orbit case) splits numerically by
    the square root of the integration defect, far beyond ``_CIRCLE_TOL``.
    """
    angles = []
    for lam in eigvals:
        if abs(lam - 1.0) < _ONE_CLUSTER_TOL:
            angles.append(0.0)
        elif abs(abs(lam) - 1.0) < _CIRCLE_TOL:
            angles.append(float(np.angle(lam)) % _TWO_PI)
    uniq = []
    for a in sorted(angles):
        if not uniq or a - uniq[-1] > 1e-9:
            uniq.append(a)
    return uniq


def _krein_step(eigvals, eigvecs, angle: float):
    """-sign kappa(v) at the eigenvalue exp(i*angle), the change of i_omega
    as omega passes it counter-clockwise; None unless the eigenvalue is
    simple and its Krein form definite."""
    near = np.abs(eigvals - np.exp(1j * angle)) < _KREIN_GAP
    if np.count_nonzero(near) != 1:
        return None
    v = eigvecs[:, near][:, 0]                  # unit norm from np.linalg.eig
    kappa = float((-1j * v.conj() @ standard_J(len(v) // 2) @ v).real)
    return None if abs(kappa) < _KREIN_MIN else -int(np.sign(kappa))


def _first_arc_value(eigvals, i_1: int, nu_1: int, n: int):
    """i_omega on the first arc after 1, i(y) + n + 1 by S+_M(1) = 1, when
    nu(y) = 1 and exactly two eigenvalues (the N_1(1, 1) block) lie within
    _ONE_CLUSTER_TOL of 1; else None."""
    at_one = np.count_nonzero(np.abs(eigvals - 1.0) < _ONE_CLUSTER_TOL)
    return i_1 + n + 1 if nu_1 == 1 and at_one == 2 else None


def _krein_on_point(table, eigvals, eigvecs, a: float):
    """(i_omega, 1) at the eigen-angle a if its eigenvalue is simple and
    Krein-definite (-1 never is: its multiplicity is even): the arc ending
    at a less the splitting number S- = (1 - step)/2; else None."""
    step = _krein_step(eigvals, eigvecs, a)
    before = next(i for _, hi, i in table if hi == a)
    return None if step is None else (before - (1 - step) // 2, 1)


def _arc_table(comp: IndexComputer, angles: list, eigvals, eigvecs, first):
    """(lo, hi, i_omega) on each arc between consecutive eigen-angles.

    The first arc takes ``first`` unless None.  An arc whose midpoint
    mirrors into a known arc takes its value (i_conj(omega) = i_omega); an
    arc that starts at a simple Krein-definite eigenvalue in (0, pi) takes
    the previous value plus the Krein step; any other arc is scanned.
    """
    bounds = angles + [angles[0] + _TWO_PI]
    table = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        i_om = next((i for a, b, i in table if a < _TWO_PI - mid < b),
                    None if table else first)
        if i_om is None and table and lo < np.pi:
            step = _krein_step(eigvals, eigvecs, lo)
            i_om = None if step is None else table[-1][2] + step
        if i_om is None:
            i_om = comp.omega_index(mid)
        table.append((lo, hi, i_om))
    return table


def mean_index(arc_table, records, n: int, *, q_max: int):
    """Reconciled mean index from the arc average and the slope fit;
    returns (value, exact Fraction or None, bar, slope estimate).  The
    value is exact when within ``_RATIONAL_TOL`` of a p/q, q <= ``q_max``.

    ``arc_table`` lists (lo, hi, i_omega) over the arcs of the circle;
    ``records`` is the list of IndexRecord for m = 1..M (M >= 2n + 2).
    The slope fit over the records must fall within the certified window
    2*(2n)/M of the arc average, and the true mean index satisfies
    |i(y^m) - m*ihat| <= 2n for all m, which the reconciliation enforces.
    """
    M = len(records)
    if M < 2 * n + 2:
        raise InvalidArgument(f"need at least {2*n+2} iterates, got {M}")
    ihat = sum((hi - lo) * i_om for lo, hi, i_om in arc_table) / _TWO_PI

    ms = np.arange(1, M + 1)
    iy = np.array([r.index_i for r in records], dtype=float)
    slope = float(np.polyfit(ms, iy, 1)[0])
    bar = 2.0 * (2.0 * n) / M
    if abs(ihat - slope) > bar + 1e-9:
        raise NumericFailure("mean-index estimators disagree beyond the bar",
                             arc=ihat, slope=slope, bar=bar)
    dev = np.abs(iy - ms * ihat)
    if np.any(dev > 2.0 * n + 1e-6):
        raise ConsistencyFailure(
            f"iterated index leaves the 2n band around m*ihat "
            f"(max deviation {float(np.max(dev)):.3g})")

    frac = Fraction(ihat).limit_denominator(q_max)
    fraction = frac if abs(float(frac) - ihat) <= _RATIONAL_TOL else None
    return float(ihat), fraction, bar, slope


def rational_turn(angle: float, *, angle_tol: float,
                  q_max: int) -> Fraction | None:
    """The turn p/q (q <= q_max) within ``angle_tol`` of the angle, or None;
    raises when several admissible rationals match."""
    ratio = angle / _TWO_PI
    matches = set()
    for q in range(1, q_max + 1):
        p = round(ratio * q)
        if abs(angle - _TWO_PI * p / q) <= angle_tol:
            matches.add(Fraction(p % q, q))
    if len(matches) > 1:
        raise NumericFailure(
            "rotation angle matches several admissible rationals",
            angle=angle, candidates=sorted(str(f) for f in matches))
    return next(iter(matches)) if matches else None


def minimal_period_K(angles, *, angle_tol: float, q_max: int) -> int:
    """Twice the lcm of denominators of the rational turns among the unit
    eigenvalue angles; 2 when none are rational."""
    turns = [rational_turn(a, angle_tol=angle_tol, q_max=q_max) for a in angles]
    return 2 * math.lcm(*(t.denominator for t in turns if t is not None))


def compute_orbit_index_data(orbit_id: str, comp: IndexComputer, *,
                             m_max: int, q_max: int,
                             angle_tol: float) -> OrbitIndexData:
    """Full index table for one orbit from the crossing scanner ``comp`` of
    its path: records, mean index, minimal period.

    The monodromy is eigen-decomposed once.  The scanner runs over the
    first period only: at omega = 1, and at what the splitting numbers, the
    Krein steps and the mirror do not reach (see the module docstring; none
    of it for nu(y) = 1 and simple Krein-definite eigenvalues off -1).
    """
    n = comp.n
    i_1, nu_1 = comp.index_pair(1)
    eigvals, eigvecs = np.linalg.eig(comp.path.end_monodromy)
    angles = unit_spectrum_angles(eigvals)
    if not angles or angles[0] > 1e-12:
        angles = [0.0] + angles
    arc_table = _arc_table(comp, angles, eigvals, eigvecs,
                           _first_arc_value(eigvals, i_1, nu_1, n))
    on_point = {}
    for a in angles:
        turn = rational_turn(a, angle_tol=angle_tol, q_max=q_max)
        if turn == 0:
            on_point[a] = (i_1 + n, nu_1)
        elif turn is not None:
            on_point[a] = (_krein_on_point(arc_table, eigvals, eigvecs, a)
                           or comp.omega_pair(_TWO_PI * float(turn)))
    it = IterationData(dim_n=n, eigen_angles=angles, arc_table=arc_table,
                       on_point=on_point, angle_tol=angle_tol)
    return index_data_from_iteration(orbit_id, it, m_max=m_max, q_max=q_max)


def index_data_from_iteration(orbit_id: str, it: IterationData, *,
                              m_max: int, q_max: int) -> OrbitIndexData:
    """Records for m = 1..max(m_max, 2n + 2), mean index and minimal period
    of an orbit from its iteration data alone: no path, no scan."""
    n = it.dim_n
    records = _records(orbit_id, it, 1, max(m_max, 2 * n + 2))
    ihat, frac, bar, slope = mean_index(it.arc_table, records, n, q_max=q_max)
    K_y = minimal_period_K(it.eigen_angles, angle_tol=it.angle_tol,
                           q_max=q_max)
    return OrbitIndexData(orbit_id=orbit_id, dim_n=n, records=records,
                          mean_index=ihat, mean_index_fraction=frac,
                          mean_index_bar=bar, slope_estimate=slope,
                          K_of_y=K_y, iteration=it)


def _records(orbit_id: str, it: IterationData, m_from: int, m_upto: int):
    index, nullity = it.iterate_table(m_from, m_upto)
    return [IndexRecord(orbit_id, m, i, nu) for m, i, nu in
            zip(range(m_from, m_upto + 1), index.tolist(), nullity.tolist())]


def extend_records(data: OrbitIndexData, m_upto: int):
    """Extend the per-iterate table in place up to iterate ``m_upto``."""
    if m_upto > len(data.records):
        data.records += _records(data.orbit_id, data.iteration,
                                 len(data.records) + 1, m_upto)


def dimension_shift(K: float, period_T: float, n: int) -> int:
    """d(K) = 2n (floor(K T / 2 pi) + 1)."""
    return 2 * n * (int(np.floor(K * period_T / _TWO_PI)) + 1)
