"""Variational Bayesian learning of per-class scale mixture models.

Each class is fit independently. One iteration alternates two updates:

1. Latent update. Given the current parameter posteriors, compute per-point
   responsibilities ``r`` (a categorical posterior over components) and the
   inverse-gamma posterior ``IG(a, b)`` over each point's latent scale.
2. Parameter update. Given the latent posteriors, accumulate the
   responsibility-weighted statistics and refresh the Dirichlet and
   Gaussian-inverse-Wishart posteriors in closed form.

The evidence lower bound is evaluated after every iteration; it is
non-decreasing (up to floating-point noise) and its relative change drives
convergence. Components whose effective count falls below a threshold are
pruned, which a small Dirichlet concentration makes routine: redundant
components starve and vanish, leaving the model to pick its own complexity.

Inside a fit the posteriors are one structure of stacked arrays
(:class:`Posteriors`). After each parameter update, :func:`component_cache`
factorises the whole stack once and derives every quantity both the bound
at this iteration and the latent update at the next one read: log
determinants, E[log |Sigma|], E[log pi] and the ``(n, k)`` matrix of
expected squared Mahalanobis distances (the bound is assembled from the
latent update's quantities, as in Bishop's construction). Distances are
whitened by the inverse factors, which one batched inverse of the stack
gives: one product for the class's points and two small ones for the
prior's terms, with no per-component solve. The latent posteriors share one shape per column, so the bound
reduces its ``(n, k)`` arrays to a few per-column sums. Pruning slices
the latent posteriors before the one parameter update of an iteration.
Validated :class:`ComponentPosterior` and :class:`ClassModel` records are
built only for the returned model.

Classes are fit one after another, each from its own seeded stream; within
a fit, all reductions use fixed summation order, so results are
reproducible for a given seed.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import digamma, gammaln, xlogy

from .density import log_t_kernel
from .model import ClassModel, ComponentPosterior, PriorHyperparameters, TrainedClassifier
from .numerics import cholesky, log_det, mahalanobis_sq_batch

__all__ = [
    "VbConfig",
    "Posteriors",
    "ComponentCache",
    "PriorTerms",
    "NumericalFailure",
    "component_cache",
    "prior_terms",
    "e_step",
    "m_step",
    "elbo",
    "prune",
    "fit",
    "fit_ml_nu",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _log_multigamma(a, d):
    """log Gamma_d(a) elementwise, equal to ``scipy.special.multigammaln``.

    The closed form, without that function's argument checks, which cost
    more than the arithmetic at the sizes of a fit.
    """
    a = np.asarray(a, dtype=float)
    j = np.arange(d).reshape((d,) + (1,) * a.ndim)
    return (d * (d - 1) * 0.25) * np.log(np.pi) + gammaln(a - 0.5 * j).sum(axis=0)


class NumericalFailure(ArithmeticError):
    """A non-finite quantity appeared during training."""


@dataclass(frozen=True)
class VbConfig:
    """Knobs of the variational fit; every field has a working default."""

    max_iters: int = 500
    elbo_rel_tol: float = 1e-6
    prune_threshold: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.elbo_rel_tol > 0:
            raise ValueError("elbo_rel_tol must be positive")
        if not self.prune_threshold > 0:
            raise ValueError("prune_threshold must be positive")


@dataclass(frozen=True)
class Posteriors:
    """Parameter posteriors of a class's ``k`` components, stacked.

    ``alpha (k,)`` Dirichlet concentrations, ``beta (k,)`` mean precision
    scales, ``m (k, d)`` means, ``W (k, d, d)`` inverse-Wishart scales and
    ``eta (k,)`` inverse-Wishart degrees of freedom.
    """

    alpha: np.ndarray
    beta: np.ndarray
    m: np.ndarray
    W: np.ndarray
    eta: np.ndarray


@dataclass(frozen=True)
class ComponentCache:
    """What one factorisation of a :class:`Posteriors` stack yields.

    ``log_det_w`` is log |W_k|, ``log_sigma`` is E[log |Sigma_k|], ``log_pi`` is E[log pi_k], ``d2``
    the ``(n, k)`` expected squared Mahalanobis distances
    ``dim / beta_k + eta_k (x - m_k)' W_k^{-1} (x - m_k)``, ``quad_prior``
    ``eta_k (m_k - m0)' W_k^{-1} (m_k - m0)`` and ``tr_prior``
    ``tr(W0 W_k^{-1})``.
    """

    dim: int
    log_det_w: np.ndarray
    log_sigma: np.ndarray
    log_pi: np.ndarray
    d2: np.ndarray
    quad_prior: np.ndarray
    tr_prior: np.ndarray


@dataclass(frozen=True)
class PriorTerms:
    """A prior with the constants of the bound that depend on it alone."""

    prior: PriorHyperparameters
    log_det_w0: float
    log_gamma_eta0: float  # log Gamma_d(eta0 / 2)


def prior_terms(prior):
    """Per-fit constants of the bound (see :class:`PriorTerms`)."""
    return PriorTerms(
        prior, log_det(prior.W0_factor), _log_multigamma(0.5 * prior.eta0, prior.dim)
    )


def component_cache(points, post, prior):
    """Factorise the stacked scales once and derive what the updates share.

    The one Cholesky factorisation and the one batched inverse of its
    factors of an iteration happen here; the bound of this iteration and
    the latent update of the next both read the returned cache.
    """
    x = np.asarray(points, dtype=float)
    d = post.m.shape[1]
    factor = cholesky(post.W)
    log_det_w = log_det(factor)
    psi = digamma(0.5 * (post.eta[:, None] + 1.0 - np.arange(1, d + 1)))
    log_sigma = -d * math.log(2.0) + log_det_w - psi.sum(axis=1)
    # alpha_hat summed in order, as ClassModel.alpha_hat is
    log_pi = digamma(post.alpha) - digamma(sum(post.alpha.tolist()))
    d2 = d / post.beta + post.eta * mahalanobis_sq_batch(x, post.m, factor)
    # the prior terms whiten m0 - m_k and W0's factor L0 by the same inverse
    # factors: tr(W0 W^{-1}) = |L^{-1} L0|_F^2
    inverse = factor.inverse
    offset = inverse @ (prior.m0 - post.m)[:, :, None]
    quad_prior = post.eta * np.square(offset).sum(axis=(1, 2))
    tr_prior = np.square(inverse @ prior.W0_factor.lower).sum(axis=(1, 2))
    return ComponentCache(d, log_det_w, log_sigma, log_pi, d2, quad_prior, tr_prior)


def e_step(cache, nu):
    """Latent update: responsibilities and scale posteriors for class points.

    Returns ``(r, a, b)``, each ``(n, k)``: row-normalized responsibilities
    and the shape and rate of the inverse-gamma posterior over each point's
    latent scale, conditional on the component. Responsibilities are
    computed in log space with row-max subtraction; exact ties keep
    proportional weights.
    """
    d = cache.dim
    log_rho = cache.log_pi + log_t_kernel(cache.d2, cache.log_sigma, d, nu)
    row_max = log_rho.max(axis=1)
    dead = ~np.isfinite(row_max)
    if np.any(dead):
        raise NumericalFailure(
            f"every component vanished for row {int(np.flatnonzero(dead)[0])}"
        )
    shifted = np.exp(log_rho - row_max[:, None])
    r = shifted / shifted.sum(axis=1, keepdims=True)
    a = np.full(r.shape, 0.5 * (nu + d))
    b = 0.5 * cache.d2 + 0.5 * nu
    return r, a, b


def m_step(points, r, a, b, prior):
    """Parameter update: closed-form posterior refresh from the latent posteriors.

    Accumulates the responsibility-weighted counts, scale-weighted means
    and scatters of all components at once. A component with zero
    scale-weighted mass keeps the prior values so the update never
    divides by zero.
    """
    x = np.asarray(points, dtype=float)
    zeta = r * (a / b)  # <z> <1/u>
    counts = r.sum(axis=0)
    omega = zeta.sum(axis=0)
    live = omega > 0.0
    mass = np.where(live, omega, 1.0)
    xbar = (zeta.T[:, None, :] @ x)[:, 0] / mass[:, None]
    dev = x[None, :, :] - xbar[:, None, :]
    s = ((zeta.T[:, None, :] * dev.transpose(0, 2, 1)) @ dev) / mass[:, None, None]
    scatter = 0.5 * (s + s.transpose(0, 2, 1))
    beta = prior.beta0 + omega
    m = (omega[:, None] * xbar + prior.beta0 * prior.m0) / beta[:, None]
    offset = xbar - prior.m0
    w = (
        prior.W0
        + omega[:, None, None] * scatter
        + (prior.beta0 * omega / beta)[:, None, None]
        * (offset[:, :, None] * offset[:, None, :])
    )
    w = 0.5 * (w + w.transpose(0, 2, 1))
    return Posteriors(
        alpha=np.where(live, prior.alpha0 + counts, prior.alpha0),
        beta=np.where(live, beta, prior.beta0),
        m=np.where(live[:, None], m, prior.m0),
        W=np.where(live[:, None, None], w, prior.W0),
        eta=np.where(live, prior.eta0 + counts, prior.eta0),
    )


def _check_finite(term, name):
    if not np.isfinite(term):
        raise NumericalFailure(f"ELBO term {name!r} is not finite ({term!r})")
    return term


def elbo(r, a, b, post, cache, terms):
    """Evidence lower bound of one class under the current posteriors.

    ``r, a, b`` are the latent posteriors the parameter update ``post``
    was computed from, ``cache`` is ``post``'s :func:`component_cache` and
    ``terms`` the fit's :func:`prior_terms`. Assembled from five pieces:
    the expected data log-likelihood, the expected latent prior, the
    expected parameter prior, and the negative entropies of the latent and
    parameter posteriors. With no data and posteriors equal to the prior
    every piece cancels and the bound is 0.
    """
    prior = terms.prior
    d = prior.dim
    n, k = r.shape
    alpha, beta, eta = post.alpha, post.beta, post.eta
    alpha_hat = sum(alpha.tolist())
    lpi = cache.log_pi
    lsig = cache.log_sigma

    if n:
        # a is constant down each column, so every latent term but r log r
        # folds into per-column sums of r, r <1/u>, r <1/u> d2 and r log b
        a_col = a[0]
        psi_a = digamma(a_col)
        counts = r.sum(axis=0)
        zeta = r * (a / b)
        s_inv_u = zeta.sum(axis=0)
        s_inv_u_d2 = (zeta * cache.d2).sum(axis=0)
        s_log_b = (r * np.log(b)).sum(axis=0)
        # sum of r <log u>, with <log u> = log b - psi(a)
        s_log_u = s_log_b - counts * psi_a

        log_lik = float(
            np.sum(
                counts * (-0.5 * d * _LOG_2PI - 0.5 * lsig)
                - 0.5 * d * s_log_u
                - 0.5 * s_inv_u_d2
            )
        )
        half_nu = 0.5 * prior.nu_fixed
        latent_prior = float(counts @ lpi) + float(
            np.sum(
                counts * (half_nu * np.log(half_nu) - gammaln(half_nu))
                - (half_nu + 1.0) * s_log_u
                - half_nu * s_inv_u
            )
        )
        # minus the expected log of q(z) IG(u | a, b); its a log b terms cancel
        latent_entropy = -float(xlogy(r, r).sum()) + float(
            np.sum(s_log_b + counts * (gammaln(a_col) - (a_col + 1.0) * psi_a + a_col))
        )
    else:
        log_lik = 0.0
        latent_prior = 0.0
        latent_entropy = 0.0

    param_prior = (
        gammaln(k * prior.alpha0)
        - k * gammaln(prior.alpha0)
        + (prior.alpha0 - 1.0) * float(lpi.sum())
    )
    param_prior += float(
        np.sum(
            -0.5 * d * _LOG_2PI
            + 0.5 * d * math.log(prior.beta0)
            - 0.5 * lsig
            - 0.5 * prior.beta0 * (d / beta + cache.quad_prior)
            + 0.5 * prior.eta0 * terms.log_det_w0
            - 0.5 * prior.eta0 * d * math.log(2.0)
            - terms.log_gamma_eta0
            - 0.5 * (prior.eta0 + d + 1.0) * lsig
            - 0.5 * eta * cache.tr_prior
        )
    )

    lg_alpha = gammaln(alpha)
    lgd_eta = _log_multigamma(0.5 * eta, d)
    param_entropy = -(
        gammaln(alpha_hat) - float(lg_alpha.sum()) + float((alpha - 1.0) @ lpi)
    )
    param_entropy -= float(
        np.sum(
            -0.5 * d * _LOG_2PI
            + 0.5 * d * np.log(beta)
            - 0.5 * lsig
            - 0.5 * d
            + 0.5 * eta * cache.log_det_w
            - 0.5 * eta * d * math.log(2.0)
            - lgd_eta
            - 0.5 * (eta + d + 1.0) * lsig
            - 0.5 * eta * d
        )
    )

    _check_finite(log_lik, "log_likelihood")
    _check_finite(latent_prior, "latent_prior")
    _check_finite(param_prior, "param_prior")
    _check_finite(latent_entropy, "latent_entropy")
    _check_finite(param_entropy, "param_entropy")
    return log_lik + latent_prior + param_prior + latent_entropy + param_entropy


def prune(r, a, b, threshold):
    """Drop the components whose effective count fell below ``threshold``.

    Slices the latent posteriors ``(r, a, b)`` to the surviving columns and
    renormalizes ``r`` per row. A class never loses its last component: if
    none reaches the threshold, the one with the largest effective count
    is kept. Components are independent in :func:`m_step`, so updating
    the survivors of a pruned latent posterior equals updating all,
    pruning and updating the survivors again.
    """
    counts = r.sum(axis=0)
    keep = counts >= threshold
    if not keep.any():
        keep[int(np.argmax(counts))] = True
    if keep.all():
        return r, a, b
    r = r[:, keep]
    r = r / r.sum(axis=1, keepdims=True)
    return r, a[:, keep], b[:, keep]


def _init_responsibilities(x, k, nu, rng):
    n, d = x.shape
    r = np.ones((n, 1)) if k == 1 else rng.dirichlet(np.ones(k), size=n)
    # unit-mean latent scales at initialization, with the shape already at
    # its fixed-point value 0.5 * (nu + dim)
    a = np.full((n, r.shape[1]), 0.5 * (nu + d))
    return r, a, a.copy()


def _fit_class(x, prior, config, class_id, rng, sink=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise ValueError(f"class {class_id} has no training rows")
    k0 = min(prior.k_init, max(n, 1))
    nu = prior.nu_fixed
    terms = prior_terms(prior)
    r, a, b = _init_responsibilities(x, k0, nu, rng)
    post = m_step(x, r, a, b, prior)
    cache = component_cache(x, post, prior)
    trace = []
    converged = False
    for iteration in range(1, config.max_iters + 1):
        r, a, b = e_step(cache, nu)
        r, a, b = prune(r, a, b, config.prune_threshold)
        post = m_step(x, r, a, b, prior)
        cache = component_cache(x, post, prior)
        bound = elbo(r, a, b, post, cache, terms)
        trace.append(bound)
        if sink is not None:
            sink(
                f"class={class_id} iter={iteration} elbo={bound:.10g} "
                f"components={r.shape[1]}"
            )
        if len(trace) >= 2:
            prev = trace[-2]
            if abs(bound - prev) <= config.elbo_rel_tol * max(abs(bound), 1e-12):
                converged = True
                break
    components = tuple(
        ComponentPosterior(
            alpha=post.alpha[j],
            beta=post.beta[j],
            m=post.m[j],
            W=post.W[j],
            eta=post.eta[j],
            nu=nu,
        )
        for j in range(r.shape[1])
    )
    return ClassModel(
        class_id=class_id,
        components=components,
        alpha_hat=sum(c.alpha for c in components),
        elbo_trace=tuple(trace),
        n_pruned=k0 - len(components),
        converged=converged,
    )


def _class_log_prior(counts, mode):
    counts = np.asarray(counts, dtype=float)
    c = counts.shape[0]
    if mode == "uniform":
        return np.full(c, -math.log(c))
    if mode == "empirical":
        return np.log(counts / counts.sum())
    raise ValueError(f"unknown class_prior mode {mode!r}")


def _fit_classes(data, prior, config, class_prior, fit_one):
    """Fit every class with ``fit_one``, in class order; assemble the classifier.

    ``fit_one(rows, class_id, seed)`` returns a :class:`ClassModel`;
    ``seed`` is the class's own ``[config.seed, index]`` stream.
    """
    class_ids = sorted(int(v) for v in np.unique(data.labels))
    if not class_ids:
        raise ValueError("training data has no rows")
    classes = tuple(
        fit_one(data.features[data.labels == cid], cid, [config.seed, idx])
        for idx, cid in enumerate(class_ids)
    )
    counts = [int(np.sum(data.labels == cid)) for cid in class_ids]
    return TrainedClassifier(
        classes=classes,
        class_log_prior=_class_log_prior(counts, class_prior),
        dim=data.dim,
        prior=prior,
    )


def fit(data, prior, config=None, class_prior="uniform", log_sink=None):
    """Train one class model per distinct label and assemble a classifier.

    Deterministic for a fixed ``config.seed``: each class draws its
    initialization from an independent seeded stream. A class that fails
    to converge within ``max_iters`` is returned with ``converged=False``
    rather than raising.

    ``log_sink``, when given, receives one line per iteration per class
    (class id, iteration, bound, live component count), in class order.
    """
    config = config or VbConfig()

    def fit_one(rows, cid, seed):
        return _fit_class(rows, prior, config, cid, np.random.default_rng(seed), log_sink)

    return _fit_classes(data, prior, config, class_prior, fit_one)


def fit_ml_nu(
    data,
    prior,
    config=None,
    class_prior="uniform",
    nu_bounds=(0.05, 1000.0),
    coarse_points=25,
):
    """Experimental mode: per-class degrees of freedom by likelihood search.

    For each class, runs the variational fit across a logarithmic grid of
    ``nu`` values and refines the best one with a bounded scalar search,
    scoring each candidate by the converged evidence lower bound (the
    variational stand-in for the log marginal likelihood). Selecting ``nu``
    this way is known to hurt generalization relative to a shared value;
    the mode exists to reproduce that comparison, not for production use.
    Each class keeps the fit it scored best, which equals :func:`fit` at
    that ``nu`` with the same seed.
    """
    # imported here: only this training mode needs scipy.optimize
    from scipy.optimize import minimize_scalar

    config = config or VbConfig()
    lo, hi = nu_bounds
    grid = np.geomspace(lo, hi, coarse_points)

    def best_fit_for(rows, cid, seed):
        fits = {}

        def fit_at(nu):
            nu = float(nu)
            if nu not in fits:
                fits[nu] = _fit_class(
                    rows,
                    replace(prior, nu_fixed=nu),
                    config,
                    cid,
                    np.random.default_rng(seed),
                )
            return fits[nu]

        scores = [fit_at(nu).elbo_trace[-1] for nu in grid]
        j = int(np.argmax(scores))
        left = grid[max(j - 1, 0)]
        right = grid[min(j + 1, len(grid) - 1)]
        if right > left:
            res = minimize_scalar(
                lambda t: -fit_at(math.exp(t)).elbo_trace[-1],
                bounds=(math.log(left), math.log(right)),
                method="bounded",
                options={"xatol": 1e-3},
            )
            nu_best = math.exp(res.x)
            if -res.fun < scores[j]:
                nu_best = grid[j]
        else:
            nu_best = grid[j]
        return fit_at(nu_best)

    return _fit_classes(data, prior, config, class_prior, best_fit_for)
