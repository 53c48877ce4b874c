"""Marginal density of the multivariate scale mixture (Student-t form).

A Gaussian whose covariance is scaled by an inverse-gamma latent variable
``u ~ IG(nu/2, nu/2)`` marginalizes to a multivariate Student-t density,

    p(x | mu, Sigma, nu) = Gamma((nu+D)/2) / Gamma(nu/2)
                           * |Sigma|^{-1/2} / (pi nu)^{D/2}
                           * (1 + delta^2 / nu)^{-(nu+D)/2},

with ``delta^2`` the squared Mahalanobis distance under ``Sigma``. The
closed form is used everywhere in training and prediction; the defining
one-dimensional integral over ``u`` is also evaluated by adaptive
quadrature as an independent numerical check, never on a hot path.

All evaluation is carried out in log space: the degrees of freedom can be
far below 1, where raw densities overflow or underflow double precision.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .numerics import (
    CholeskyFactor,
    as_psd,
    cholesky,
    log_det,
    mahalanobis_sq_batch,
)

__all__ = [
    "StudentParams",
    "QuadratureError",
    "log_marginal_density",
    "quadrature_marginal_density",
]

_LOG_2PI = math.log(2.0 * math.pi)
# largest quadrature error estimate accepted, relative to the integral
_QUAD_REL_TOL = 1e-8


class QuadratureError(ArithmeticError):
    """Raised when the latent-scale quadrature does not converge."""


@dataclass(frozen=True)
class StudentParams:
    """Location, scale matrix, and degrees of freedom of one component."""

    mu: np.ndarray
    sigma: np.ndarray
    nu: float
    _factor: CholeskyFactor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        sigma = as_psd(self.sigma)
        if sigma.shape[0] != mu.shape[0]:
            raise ValueError(
                f"mu has dim {mu.shape[0]} but sigma is {sigma.shape[0]}x{sigma.shape[1]}"
            )
        if not np.isfinite(mu).all():
            raise ValueError(f"mu must be finite, got {mu.tolist()!r}")
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be positive and finite, got {self.nu!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "_factor", cholesky(sigma))

    @property
    def dim(self):
        return self.mu.shape[0]


def log_t_kernel(delta_sq, logdet_sigma, dim, nu):
    """Log Student-t density given a precomputed squared Mahalanobis distance.

    The one place the Student-t log-normaliser is written out; at
    ``delta_sq = 0`` the kernel is the normaliser itself, which is how
    training and prediction take it.
    """
    half = 0.5 * (nu + dim)
    return (
        gammaln(half)
        - gammaln(0.5 * nu)
        - 0.5 * dim * math.log(math.pi * nu)
        - 0.5 * logdet_sigma
        - half * np.log1p(delta_sq / nu)
    )


def log_marginal_density(x, params):
    """Closed-form log density of the scale mixture at a single point."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != params.dim:
        raise ValueError(f"x has dim {x.shape[0]}, params have dim {params.dim}")
    d2 = mahalanobis_sq_batch(x[:, None], params.mu, params._factor)[0]
    return float(log_t_kernel(d2, log_det(params._factor), params.dim, params.nu))


def quadrature_marginal_density(x, params):
    """Density at ``x`` by numerical integration over the latent scale.

    Integrates ``N(x | mu, u Sigma) IG(u | nu/2, nu/2)`` over ``u`` in
    (0, inf) after the substitution ``u = exp(t)``, with the integrand
    peak-normalized in log space so the quadrature runs at unit scale.
    This is a testing oracle for :func:`log_marginal_density`; training
    never calls it.

    Raises
    ------
    QuadratureError
        If the integrator reports a failure or the error estimate exceeds
        ``_QUAD_REL_TOL`` (1e-8) relative to the result.
    """
    # imported here: scipy.integrate pulls in scipy.stats, which the CLI never needs
    from scipy.integrate import quad

    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != params.dim:
        raise ValueError(f"x has dim {x.shape[0]}, params have dim {params.dim}")
    dim = params.dim
    nu = params.nu
    a = 0.5 * nu
    d2 = float(mahalanobis_sq_batch(x[:, None], params.mu, params._factor)[0])

    # log integrand in t: const - coef * t - rate * exp(-t)
    const = -0.5 * dim * _LOG_2PI - 0.5 * log_det(params._factor) + a * math.log(a) - gammaln(a)
    coef = 0.5 * dim + a
    rate = 0.5 * d2 + a
    t_star = math.log(rate / coef)
    g_star = const - coef * t_star - coef

    def shifted(s):
        # integrand relative to its peak; s = t - t_star
        return math.exp(-coef * (s + math.expm1(-s)))

    # Right tail decays like exp(-coef s); left tail double-exponentially.
    s_hi = 750.0 / coef + 10.0
    s_lo = -math.log(750.0 / coef + 10.0) - 2.0
    value, err_est = quad(
        shifted, s_lo, s_hi, points=[0.0], epsabs=0.0, epsrel=1e-10, limit=400
    )
    if not (np.isfinite(value) and value > 0.0):
        raise QuadratureError(f"quadrature returned non-positive value {value!r}")
    if err_est > _QUAD_REL_TOL * value:
        raise QuadratureError(
            f"quadrature error estimate {err_est:.3e} exceeds {_QUAD_REL_TOL:.1e} "
            f"relative to value {value:.6e}"
        )
    return math.exp(g_star) * value
