"""Positive-definite matrix algebra.

Every density and posterior-update formula in this package evaluates
determinants and Mahalanobis distances through the Cholesky factor of a
symmetric positive-definite matrix; this module holds those primitives.
:func:`mahalanobis_sq_batch` is the one Mahalanobis kernel: a single
point is a one-row batch.
The special functions (log-gamma, digamma and the multivariate log-gamma)
come from ``scipy.special``.

SPD matrices are plain ``numpy`` arrays validated on entry (see
:func:`as_psd`); Cholesky factors are wrapped in :class:`CholeskyFactor`
so that downstream code cannot confuse a factor with the matrix itself.
:func:`as_psd`, :func:`cholesky`, :func:`log_det` and
:func:`mahalanobis_sq_batch` also take a ``(k, d, d)`` stack of matrices
(the scale matrices of a mixture's components): the symmetry check is
vectorised over the stack, and each member is factorised and solved with
the same LAPACK calls as a single matrix, so a member's factor is
bit-identical to the factor of that matrix alone.

All functions here are pure and safe for concurrent use.
"""

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

__all__ = [
    "NotPositiveDefiniteError",
    "CholeskyFactor",
    "as_psd",
    "cholesky",
    "log_det",
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
    component : int or None
        Zero-based index of the failing member of a stack, ``None`` for a
        single matrix.
    """

    def __init__(self, pivot_index, component=None):
        self.pivot_index = int(pivot_index)
        self.component = None if component is None else int(component)
        what = "matrix" if component is None else f"component {component}"
        super().__init__(f"{what} is not positive definite (pivot {pivot_index})")


class CholeskyFactor:
    """Lower-triangular factor ``L`` with ``L @ L.T`` equal to the source matrix.

    For a stack, ``lower`` is ``(k, d, d)`` and holds one factor per member.
    """

    __slots__ = ("lower",)

    def __init__(self, lower):
        self.lower = np.asarray(lower, dtype=float)

    @property
    def dim(self):
        return self.lower.shape[-1]


def as_psd(matrix):
    """Validate a symmetric matrix, or a stack of them, and symmetrize it.

    Symmetry is required within ``SYMMETRY_RTOL`` relative to the largest
    entry (of each member of a stack); the returned array is
    ``(M + M.T) / 2`` so that accumulated floating-point asymmetry never
    propagates. A failing member of a stack is named by its index.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    mt = np.swapaxes(m, -1, -2)
    scale = np.maximum(np.max(np.abs(m), axis=(-2, -1)), 1.0)
    asym = np.max(np.abs(m - mt), axis=(-2, -1))
    bad = np.flatnonzero(asym > SYMMETRY_RTOL * scale)
    if bad.size:
        j = int(bad[0])
        what = "matrix" if m.ndim == 2 else f"component {j}"
        raise ValueError(
            f"{what} is not symmetric (max asymmetry {asym.flat[j]:.3e} "
            f"vs scale {scale.flat[j]:.3e})"
        )
    return 0.5 * (m + mt)


def cholesky(matrix):
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Parameters
    ----------
    matrix : array_like, shape (d, d) or (k, d, d)
        Symmetric positive-definite matrix, or a stack of them; each
        member is factorised alone, so its factor is bit-identical to the
        factor of that matrix.

    Returns
    -------
    CholeskyFactor

    Raises
    ------
    NotPositiveDefiniteError
        With the index of the first failing pivot: one that is not
        positive, or, since LAPACK lets them through, one that is NaN or
        infinite. For a stack, also with the index of the first failing
        member.
    """
    sym = as_psd(matrix)
    stack = sym.reshape((-1,) + sym.shape[-2:])
    lower = np.empty_like(stack)
    for j, member in enumerate(stack):
        component = j if sym.ndim == 3 else None
        lower[j], info = dpotrf(member, lower=1, clean=1)
        if info > 0:
            raise NotPositiveDefiniteError(info - 1, component)
        bad = np.flatnonzero(~np.isfinite(np.diag(lower[j])))
        if bad.size:
            raise NotPositiveDefiniteError(bad[0], component)
    return CholeskyFactor(lower.reshape(sym.shape))


def log_det(factor):
    """Log-determinant of the matrix underlying a Cholesky factor.

    One value for a factor, a ``(k,)`` array for a stack.
    """
    return 2.0 * np.sum(np.log(np.diagonal(factor.lower, axis1=-2, axis2=-1)), axis=-1)


def mahalanobis_sq_batch(points, center, factor):
    """Row-wise squared Mahalanobis distances for a matrix of points.

    With one factor, ``center`` is a ``(d,)`` vector and the result has
    one entry per point. With a stack of ``k`` factors, ``center`` is
    ``(k, d)`` and the result is ``(n, k)``: column ``j`` is the distance
    to ``center[j]`` under member ``j``, bit-identical to the one-factor
    result for that member.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != factor.dim:
        raise ValueError(
            f"dimension mismatch: points have dim {pts.shape[1]}, factor dim {factor.dim}"
        )
    lowers = factor.lower.reshape((-1,) + factor.lower.shape[-2:])
    centers = np.asarray(center, dtype=float).reshape(lowers.shape[0], -1)
    diff = pts[None, :, :] - centers[:, None, :]
    # y[j] holds member j's solve as (n, d) rows, so each distance is
    # reduced over contiguous memory; the result is C-ordered because arrays
    # derived from it inherit its layout, and numpy sums a column of a
    # C-ordered array in another order than one of a Fortran-ordered array
    y = np.empty_like(diff)
    for j, lower in enumerate(lowers):
        y[j] = dtrtrs(lower, diff[j].T, lower=1)[0].T
    d2 = np.einsum("kji,kji->jk", y, y, order="C")
    return d2 if factor.lower.ndim == 3 else d2[:, 0]
