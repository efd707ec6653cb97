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


def check_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvariantError(f"matrix must be square, got shape {a.shape}")
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > SYMMETRY_TOL:
        raise InvariantError(f"matrix asymmetric: max |A - A^T| = {asym:.3e}")
    return a


def eigen_clip(a: np.ndarray):
    """Eigenvalue clip of the symmetric part S of `a`.

    Returns the Frobenius-nearest PSD matrix to S (S itself when it is PSD)
    and S's eigenvalues and eigenvectors, so callers can tell whether the clip
    changed anything.
    """
    a = 0.5 * (a + a.T)
    w, v = np.linalg.eigh(a)
    if w[0] >= 0.0:
        return a, w, v
    out = (v * np.maximum(w, 0.0)) @ v.T
    return 0.5 * (out + out.T), w, v


def psd_project(a: np.ndarray) -> np.ndarray:
    """Projection onto the PSD cone: the Frobenius-nearest PSD matrix."""
    return eigen_clip(check_symmetric(a))[0]


def safe_inverse(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Eigenvalue-floored inverse of a symmetric PSD matrix.

    Eigenvalues below RELATIVE_EIG_FLOOR * lambda_max (else ABSOLUTE_EIG_FLOOR)
    are raised to that floor before inverting, which makes the inverse total.
    Returns the inverse and a flag that is True when flooring occurred.
    """
    a = check_symmetric(a)
    w, v = np.linalg.eigh(a)
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
