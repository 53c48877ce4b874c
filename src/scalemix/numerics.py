"""Positive-definite matrix algebra.

Every density and posterior-update formula in this package evaluates
determinants and Mahalanobis distances through the Cholesky factor of a
symmetric positive-definite matrix; this module holds those primitives.
:func:`mahalanobis_sq_batch` is the one Mahalanobis kernel: a single
point is a one-row batch. ``numpy.linalg`` is the only linear-algebra
backend.

SPD matrices are plain ``numpy`` arrays validated on entry (see
:func:`as_psd`); Cholesky factors are wrapped in :class:`CholeskyFactor`
so that downstream code cannot confuse a factor with the matrix itself.
:func:`as_psd`, :func:`cholesky`, :func:`log_det` and
:func:`mahalanobis_sq_batch` also take a ``(k, d, d)`` stack of matrices:
the scale matrices of a mixture's components, or of several mixtures one
after another, whose points :func:`mahalanobis_sq_batch` then takes with
a leading batch axis. The symmetry and finiteness checks are vectorised
over the stack, and one ``np.linalg.cholesky`` call factorises each
member by its own LAPACK call, so a member's factor is bit-identical to
the factor of that matrix alone. Distances are whitened by inverse
factors: one batched inverse of the whole stack, cached on the factor,
then one batched matrix product for every member at once.

All functions here are pure and safe for concurrent use.
"""

import numpy as np

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

    __slots__ = ("lower", "_inverse")

    def __init__(self, lower):
        self.lower = np.asarray(lower, dtype=float)
        self._inverse = None

    @property
    def dim(self):
        return self.lower.shape[-1]

    @property
    def inverse(self):
        """``L^{-1}`` (of each member of a stack), from one batched inverse.

        Computed on first use and kept, so every whitening under this
        factor shares one inversion.
        """
        if self._inverse is None:
            self._inverse = np.linalg.inv(self.lower)
        return self._inverse


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
    # inf - inf is NaN, which passes the check: a non-finite member is left
    # to fail in the factorisation, which names it
    with np.errstate(invalid="ignore"):
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
        positive, or, since numpy lets them through, one that is NaN or
        infinite. For a stack, also with the index of the first failing
        member.
    """
    sym = as_psd(matrix)
    try:
        lower = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        lower = None
    if lower is not None and np.isfinite(np.diagonal(lower, axis1=-2, axis2=-1)).all():
        return CholeskyFactor(lower)
    # numpy names neither the member nor the pivot: a member's first failing
    # pivot is the smallest i whose leading (i + 1) x (i + 1) block does not
    # factorise or has a non-finite last diagonal entry
    stacked = sym.ndim == 3
    for j, member in enumerate(sym.reshape((-1,) + sym.shape[-2:])):
        for i in range(member.shape[0]):
            try:
                pivot = np.linalg.cholesky(member[: i + 1, : i + 1])[i, i]
            except np.linalg.LinAlgError:
                pivot = np.nan
            if not np.isfinite(pivot):
                raise NotPositiveDefiniteError(i, j if stacked else None)
    raise np.linalg.LinAlgError("the stack does not factorise, yet each member does alone")


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
    result for that member. Points may also carry a leading batch axis,
    ``(B, n, d)``: the stack then holds ``B * k`` factors, ``k`` per batch
    member in member order, ``center`` is ``(B, k, d)`` and the result is
    ``(B, n, k)``, each member's points against its own ``k`` factors.
    Points are centred before they are whitened by the factor's cached
    :attr:`~CholeskyFactor.inverse`, so a point equal to its centre is at
    distance exactly 0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != factor.dim:
        raise ValueError(
            f"dimension mismatch: points have dim {pts.shape[-1]}, factor dim {factor.dim}"
        )
    inverse = factor.inverse.reshape(pts.shape[:-2] + (-1,) + factor.lower.shape[-2:])
    centers = np.asarray(center, dtype=float).reshape(inverse.shape[:-1])
    # y[..., j, :, :] holds member j's whitened differences as (n, d) rows
    y = (pts[..., None, :, :] - centers[..., :, None, :]) @ np.swapaxes(inverse, -1, -2)
    # C-ordered: arrays derived from the result inherit its layout, and
    # numpy sums a column of a C-ordered array in another order than one of
    # a Fortran-ordered array
    d2 = np.einsum("...kji,...kji->...jk", y, y, order="C")
    return d2 if factor.lower.ndim == 3 else d2[:, 0]
