"""Symplectic linear algebra helpers (J matrix, defect, projection)."""

from __future__ import annotations

import numpy as np

from .errors import NumericFailure

_PROJECT_TOL = 1e-13        # the defect project_symplectic retracts to
_PROJECT_ITER = 8
_SQRT_ITER = 20             # Denman-Beavers steps of the inverse square root


def standard_J(n: int) -> np.ndarray:
    """Standard symplectic matrix J = [[0, -I_n], [I_n, 0]] on R^{2n}."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def symplectic_defect(R: np.ndarray, J: np.ndarray):
    """Frobenius norm of R^T J R - J; 0 for exactly symplectic R.  A stack
    gives each matrix's norm, bitwise that of ``np.linalg.norm`` (the
    row-by-column matmul takes the same BLAS dot)."""
    D = np.swapaxes(R, -1, -2) @ J @ R - J
    D = D.reshape(D.shape[:-2] + (1, -1))
    norms = np.sqrt(D @ np.swapaxes(D, -1, -2))[..., 0, 0]
    return float(norms) if norms.ndim == 0 else norms


def project_symplectic(R: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Retract a near-symplectic matrix onto Sp(2n).

    Iterates R <- R C^{-1/2} with C = J^{-1} R^T J R, which contracts the
    defect quadratically for R close to the group.
    """
    out = np.array(R, dtype=float)
    for _ in range(_PROJECT_ITER):
        if symplectic_defect(out, J) <= _PROJECT_TOL:
            return out
        C = -J @ out.T @ J @ out  # J^{-1} = -J
        out = out @ _inverse_sqrt_near_identity(C)
    if symplectic_defect(out, J) > 1e3 * _PROJECT_TOL:
        raise NumericFailure("symplectic projection did not converge",
                             defect=symplectic_defect(out, J))
    return out


def _inverse_sqrt_near_identity(C: np.ndarray) -> np.ndarray:
    """C^{-1/2} (principal root) of a matrix near I by the Denman-Beavers
    iteration Y <- (Y + Z^{-1})/2, Z <- (Z + Y^{-1})/2 from Y = C, Z = I,
    which converges quadratically to (C^{1/2}, C^{-1/2})."""
    Y, Z = C, np.eye(len(C))
    for _ in range(_SQRT_ITER):
        Y, Z_next = 0.5 * (Y + np.linalg.inv(Z)), 0.5 * (Z + np.linalg.inv(Y))
        if np.linalg.norm(Z_next - Z) <= 1e-14 * np.linalg.norm(Z_next):
            return Z_next
        Z = Z_next
    raise NumericFailure("matrix square root did not converge",
                         distance_from_identity=float(
                             np.linalg.norm(C - np.eye(len(C)))))
