"""Dense symmetric linear algebra used by the learners.

Dimensions here are tiny (d around 7-15), so everything goes through full
eigendecompositions; no attempt is made at sparse or iterative methods.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, InvariantError

SYMMETRY_TOL = 1e-9
RELATIVE_EIG_FLOOR = 1e-10  # fraction of lambda_max treated as numerically zero
ABSOLUTE_EIG_FLOOR = 1e-15  # fallback when the spectrum is entirely nonpositive


def check_symmetric(a: np.ndarray, tol: float = SYMMETRY_TOL, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvariantError(f"{what} must be square, got shape {a.shape}")
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > tol:
        raise InvariantError(f"{what} asymmetric: max |A - A^T| = {asym:.3e}")
    return a


def psd_project(a: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Frobenius-nearest matrix with all eigenvalues >= floor.

    With the default floor of 0 this is projection onto the PSD cone.
    """
    a = check_symmetric(a)
    w, v = np.linalg.eigh(a)
    if w[0] >= floor:
        return 0.5 * (a + a.T)
    w = np.maximum(w, floor)
    out = (v * w) @ v.T
    return 0.5 * (out + out.T)


def safe_inverse(a: np.ndarray, floor: float | None = None) -> tuple[np.ndarray, bool]:
    """Eigenvalue-floored inverse of a symmetric PSD matrix.

    Eigenvalues below `floor` (default RELATIVE_EIG_FLOOR * lambda_max) are raised
    to the floor before inverting, which makes the inverse total. Returns the
    inverse and a flag that is True when flooring occurred (ill-conditioned input).
    """
    a = check_symmetric(a)
    w, v = np.linalg.eigh(a)
    if floor is None:
        floor = RELATIVE_EIG_FLOOR * float(w[-1])
    if floor <= 0.0:
        floor = ABSOLUTE_EIG_FLOOR
    floored = bool(np.any(w < floor))
    w = np.maximum(w, floor)
    out = (v / w) @ v.T
    return 0.5 * (out + out.T), floored


def quad_forms(diffs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row-wise v^T M v for a stack of difference vectors (BLAS-backed)."""
    return np.einsum("ij,ij->i", diffs @ matrix, diffs)


def covariance(x: np.ndarray) -> np.ndarray:
    """Sample covariance (denominator n-1) of the rows of x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ConfigurationError(f"covariance needs a 2-D matrix, got shape {x.shape}")
    n = x.shape[0]
    if n < 2:
        raise ConfigurationError(f"covariance needs n >= 2 rows, got {n}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    return 0.5 * (cov + cov.T)
