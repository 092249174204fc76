"""Symplectic linear algebra helpers (J matrix, defect, projection)."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NumericFailure


def standard_J(n: int) -> np.ndarray:
    """Standard symplectic matrix J = [[0, -I_n], [I_n, 0]] on R^{2n}."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def symplectic_defect(R: np.ndarray, J: np.ndarray) -> float:
    """Frobenius norm of R^T J R - J; 0 for exactly symplectic R."""
    return float(np.linalg.norm(R.T @ J @ R - J))


def project_symplectic(R: np.ndarray, J: np.ndarray, tol: float = 1e-13,
                       max_iter: int = 8) -> np.ndarray:
    """Retract a near-symplectic matrix onto Sp(2n).

    Iterates R <- R C^{-1/2} with C = J^{-1} R^T J R, which contracts the
    defect quadratically for R close to the group.
    """
    out = np.array(R, dtype=float)
    for _ in range(max_iter):
        if symplectic_defect(out, J) <= tol:
            return out
        C = -J @ out.T @ J @ out  # J^{-1} = -J
        Chalf = scipy.linalg.sqrtm(C)
        out = np.real(np.linalg.solve(Chalf.T, out.T).T)
    if symplectic_defect(out, J) > 1e3 * tol:
        raise NumericFailure("symplectic projection did not converge",
                             defect=symplectic_defect(out, J))
    return out


def pair_multipliers(eigvals: np.ndarray, tol: float = 1e-6):
    """Group Floquet multipliers into (lambda, 1/conj(lambda)) classes.

    Returns a list of dicts with the representative value, multiplicity,
    a unit-circle flag and the rotation angle in [0, 2pi) when on the
    circle.  Raises if the symplectic pairing is broken beyond ``tol``.
    """
    vals = list(eigvals)
    used = [False] * len(vals)
    classes = []
    for i, lam in enumerate(vals):
        if used[i]:
            continue
        used[i] = True
        mult = 1
        for k in range(i + 1, len(vals)):
            if not used[k] and abs(vals[k] - lam) < tol * max(1.0, abs(lam)):
                used[k] = True
                mult += 1
        partner = 1.0 / np.conj(lam)
        if abs(partner - lam) > tol * max(1.0, abs(lam)):
            # the partner class must exist with the same multiplicity
            found = 0
            for k in range(len(vals)):
                if abs(vals[k] - partner) < tol * max(1.0, abs(partner)):
                    found += 1
            if found < mult:
                raise NumericFailure(
                    "symplectic eigenvalue pairing broken",
                    value=complex(lam), partner=complex(partner))
        on_circle = abs(abs(lam) - 1.0) < tol
        angle = float(np.angle(lam)) % (2.0 * np.pi) if on_circle else None
        classes.append({
            "value": complex(lam),
            "multiplicity": mult,
            "unit_circle": on_circle,
            "angle": angle,
        })
    return classes

