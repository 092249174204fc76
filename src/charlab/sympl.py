"""Symplectic linear algebra helpers (J matrix, defect, projection)."""

from __future__ import annotations

import numpy as np

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
    import scipy.linalg

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
