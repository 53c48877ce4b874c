"""Positive-definite matrix algebra.

Every density and posterior-update formula in this package evaluates
determinants and Mahalanobis distances through the Cholesky factor of a
symmetric positive-definite matrix; this module holds those primitives.
The special functions (log-gamma, digamma and the multivariate log-gamma)
come from ``scipy.special``.

SPD matrices are plain ``numpy`` arrays validated on entry (see
:func:`as_psd`); Cholesky factors are wrapped in :class:`CholeskyFactor`
so that downstream code cannot confuse a factor with the matrix itself.

All functions here are pure and safe for concurrent use.
"""

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

__all__ = [
    "NotPositiveDefiniteError",
    "CholeskyFactor",
    "as_psd",
    "cholesky",
    "log_det",
    "mahalanobis_sq",
    "mahalanobis_sq_batch",
]

# Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_RTOL = 1e-12


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a Cholesky pivot is non-positive or not finite.

    Attributes
    ----------
    pivot_index : int
        Zero-based index of the failing pivot.
    """

    def __init__(self, pivot_index, message=None):
        self.pivot_index = int(pivot_index)
        super().__init__(
            message or f"matrix is not positive definite (pivot {pivot_index})"
        )


class CholeskyFactor:
    """Lower-triangular factor ``L`` with ``L @ L.T`` equal to the source matrix."""

    __slots__ = ("lower",)

    def __init__(self, lower):
        self.lower = np.asarray(lower, dtype=float)

    @property
    def dim(self):
        return self.lower.shape[0]


def as_psd(matrix):
    """Validate a symmetric matrix and return its symmetrized copy.

    Symmetry is required within ``SYMMETRY_RTOL`` relative to the largest
    entry; the returned array is ``(M + M.T) / 2`` so that accumulated
    floating-point asymmetry never propagates.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(float(np.max(np.abs(m))), 1.0)
    asym = float(np.max(np.abs(m - m.T)))
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"matrix is not symmetric (max asymmetry {asym:.3e} vs scale {scale:.3e})"
        )
    return 0.5 * (m + m.T)


def cholesky(matrix):
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Parameters
    ----------
    matrix : array_like, shape (d, d)
        Symmetric positive-definite matrix.

    Returns
    -------
    CholeskyFactor

    Raises
    ------
    NotPositiveDefiniteError
        With the index of the first failing pivot: one that is not
        positive, or, since LAPACK lets them through, one that is NaN or
        infinite.
    """
    lower, info = dpotrf(as_psd(matrix), lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    bad = np.flatnonzero(~np.isfinite(np.diag(lower)))
    if bad.size:
        raise NotPositiveDefiniteError(bad[0])
    return CholeskyFactor(lower)


def log_det(factor):
    """Log-determinant of the matrix underlying a Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(factor.lower))))


def mahalanobis_sq(x, center, factor):
    """Squared Mahalanobis distance ``(x - c)^T M^{-1} (x - c)``.

    Computed through a triangular solve against the factor of ``M``;
    always nonnegative, zero exactly when ``x == center``.
    """
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    if x.shape != center.shape or x.shape != (factor.dim,):
        raise ValueError(
            f"dimension mismatch: x {x.shape}, center {center.shape}, factor dim {factor.dim}"
        )
    y = solve_triangular(factor.lower, x - center, lower=True, check_finite=False)
    return float(y @ y)


def mahalanobis_sq_batch(points, center, factor):
    """Row-wise squared Mahalanobis distances for a matrix of points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != factor.dim:
        raise ValueError(
            f"dimension mismatch: points have dim {pts.shape[1]}, factor dim {factor.dim}"
        )
    y = solve_triangular(
        factor.lower, (pts - center).T, lower=True, check_finite=False
    )
    return np.einsum("ij,ij->j", y, y)
