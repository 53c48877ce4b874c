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

Per-class fits are independent and may run on separate threads; within a
fit, all reductions use fixed summation order so results are reproducible
for a given seed regardless of worker count.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_solve
from scipy.special import digamma, gammaln, multigammaln

from .density import log_t_kernel
from .model import (
    ClassModel,
    ComponentPosterior,
    LatentStatistics,
    TrainedClassifier,
)
from .numerics import cholesky, log_det, mahalanobis_sq, mahalanobis_sq_batch

__all__ = [
    "VbConfig",
    "Responsibilities",
    "NumericalFailure",
    "e_step",
    "m_step",
    "statistics",
    "elbo",
    "prune",
    "fit",
    "fit_ml_nu",
]

_LOG_2PI = math.log(2.0 * math.pi)

INIT_STRATEGIES = ("random-responsibility", "kmeans-like")


class NumericalFailure(ArithmeticError):
    """A non-finite quantity appeared during training."""


@dataclass(frozen=True)
class VbConfig:
    """Knobs of the variational fit; every field has a working default."""

    max_iters: int = 500
    elbo_rel_tol: float = 1e-6
    prune_threshold: float = 1e-3
    seed: int = 0
    init_strategy: str = "random-responsibility"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.elbo_rel_tol > 0:
            raise ValueError("elbo_rel_tol must be positive")
        if not self.prune_threshold > 0:
            raise ValueError("prune_threshold must be positive")
        if self.init_strategy not in INIT_STRATEGIES:
            raise ValueError(
                f"init_strategy must be one of {INIT_STRATEGIES}, got {self.init_strategy!r}"
            )


@dataclass(frozen=True)
class Responsibilities:
    """Latent posteriors for the points of one class.

    ``r`` holds row-normalized component responsibilities; ``a`` and ``b``
    the shape and rate of the inverse-gamma posterior over each point's
    latent scale, conditional on the component assignment.
    """

    r: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if not (r.shape == a.shape == b.shape) or r.ndim != 2:
            raise ValueError("r, a, b must share one (n_points, n_components) shape")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if r.size:
            rows = r.sum(axis=1)
            if np.any(np.abs(rows - 1.0) > 1e-12):
                raise ValueError("responsibility rows must sum to 1")
            if np.any(r < 0) or np.any(r > 1):
                raise ValueError("responsibilities must lie in [0, 1]")
            if np.any(a <= 0) or np.any(b <= 0):
                raise ValueError("inverse-gamma parameters must be positive")

    @property
    def n_components(self):
        return self.r.shape[1]

    @property
    def effective_counts(self):
        return self.r.sum(axis=0)


def _components_of(model):
    return model.components if isinstance(model, ClassModel) else tuple(model)


def _log_sigma_tilde(comp):
    f = cholesky(comp.W)
    d = comp.dim
    psi = digamma(0.5 * (comp.eta + 1.0 - np.arange(1, d + 1)))
    return -d * math.log(2.0) + log_det(f) - float(psi.sum()), f


def e_step(points, model):
    """Latent update: responsibilities and scale posteriors for class points.

    ``model`` may be a :class:`ClassModel` or a sequence of component
    posteriors. Responsibilities are computed in log space with row-max
    subtraction; exact ties keep proportional weights.
    """
    comps = _components_of(model)
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = x.shape
    k = len(comps)
    alpha_hat = sum(c.alpha for c in comps)
    log_rho = np.empty((n, k))
    a = np.empty((n, k))
    b = np.empty((n, k))
    for j, comp in enumerate(comps):
        lsig, f = _log_sigma_tilde(comp)
        d2 = comp.dim / comp.beta + comp.eta * mahalanobis_sq_batch(x, comp.m, f)
        lpi = digamma(comp.alpha) - digamma(alpha_hat)
        log_rho[:, j] = lpi + log_t_kernel(d2, lsig, d, comp.nu)
        a[:, j] = 0.5 * (comp.nu + d)
        b[:, j] = 0.5 * d2 + 0.5 * comp.nu
    row_max = log_rho.max(axis=1)
    dead = ~np.isfinite(row_max)
    if np.any(dead):
        raise NumericalFailure(
            f"every component vanished for row {int(np.flatnonzero(dead)[0])}"
        )
    shifted = np.exp(log_rho - row_max[:, None])
    r = shifted / shifted.sum(axis=1, keepdims=True)
    return Responsibilities(r=r, a=a, b=b)


def statistics(points, resp):
    """Responsibility-weighted counts, scale-weighted means and scatters."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = x.shape
    k = resp.n_components
    zeta = resp.r * (resp.a / resp.b)  # <z> <1/u>
    counts = resp.r.sum(axis=0)
    omega = zeta.sum(axis=0)
    xbar = np.zeros((k, d))
    scatter = np.zeros((k, d, d))
    for j in range(k):
        if omega[j] <= 0.0:
            continue
        xbar[j] = zeta[:, j] @ x / omega[j]
        dev = x - xbar[j]
        s = (zeta[:, j] * dev.T) @ dev / omega[j]
        scatter[j] = 0.5 * (s + s.T)
    return LatentStatistics(N=counts, omega=omega, xbar=xbar, S=scatter)


def m_step(points, resp, prior):
    """Parameter update: closed-form posterior refresh from the statistics.

    A component with zero scale-weighted mass keeps the prior values so the
    update never divides by zero. Every component carries the prior's fixed
    degrees of freedom ``prior.nu_fixed`` unchanged.
    """
    stats = statistics(points, resp)
    nu = prior.nu_fixed
    out = []
    for j in range(resp.n_components):
        if stats.omega[j] <= 0.0:
            out.append(
                ComponentPosterior(
                    alpha=prior.alpha0,
                    beta=prior.beta0,
                    m=prior.m0,
                    W=prior.W0,
                    eta=prior.eta0,
                    nu=nu,
                )
            )
            continue
        count = stats.N[j]
        omega = stats.omega[j]
        xbar = stats.xbar[j]
        beta = prior.beta0 + omega
        m = (omega * xbar + prior.beta0 * prior.m0) / beta
        offset = xbar - prior.m0
        w = (
            prior.W0
            + omega * stats.S[j]
            + (prior.beta0 * omega / beta) * np.outer(offset, offset)
        )
        out.append(
            ComponentPosterior(
                alpha=prior.alpha0 + count,
                beta=beta,
                m=m,
                W=0.5 * (w + w.T),
                eta=prior.eta0 + count,
                nu=nu,
            )
        )
    return out


def _check_finite(term, name):
    if not np.isfinite(term):
        raise NumericalFailure(f"ELBO term {name!r} is not finite ({term!r})")
    return term


def elbo(points, resp, posteriors, prior):
    """Evidence lower bound of one class under the current posteriors.

    Assembled from five pieces: the expected data log-likelihood, the
    expected latent prior, the expected parameter prior, and the negative
    entropies of the latent and parameter posteriors. With no data and
    posteriors equal to the prior every piece cancels and the bound is 0.
    """
    comps = tuple(posteriors)
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if resp.r.shape[0] == 0:
        n = 0
        d = prior.dim
    else:
        n, d = x.shape
    k = len(comps)
    alpha = np.array([c.alpha for c in comps])
    beta = np.array([c.beta for c in comps])
    eta = np.array([c.eta for c in comps])
    nu = np.array([c.nu for c in comps])
    alpha_hat = float(alpha.sum())

    lpi = digamma(alpha) - digamma(alpha_hat)
    lsig = np.empty(k)
    quad_prior = np.empty(k)  # eta_k (m_k - m0)' W_k^{-1} (m_k - m0)
    tr_prior = np.empty(k)  # tr(W0 W_k^{-1})
    logdet_w = np.empty(k)
    d2 = np.empty((n, k))
    for j, comp in enumerate(comps):
        lsig[j], f = _log_sigma_tilde(comp)
        logdet_w[j] = log_det(f)
        quad_prior[j] = comp.eta * mahalanobis_sq(comp.m, prior.m0, f)
        tr_prior[j] = float(np.trace(cho_solve((f.lower, True), prior.W0)))
        if n:
            d2[:, j] = comp.dim / comp.beta + comp.eta * mahalanobis_sq_batch(
                x, comp.m, f
            )

    if n:
        r = resp.r
        a = resp.a
        b = resp.b
        e_inv_u = a / b
        # a is constant down each column, so digamma is evaluated per column
        psi_a = digamma(a[0])
        e_log_u = np.log(b) - psi_a[None, :]
        counts = r.sum(axis=0)

        log_lik = float(
            np.sum(
                r
                * (
                    -0.5 * d * _LOG_2PI
                    - 0.5 * d * e_log_u
                    - 0.5 * lsig[None, :]
                    - 0.5 * e_inv_u * d2
                )
            )
        )
        half_nu = 0.5 * nu
        lg_half_nu = gammaln(half_nu)
        latent_prior = float(counts @ lpi) + float(
            np.sum(
                r
                * (
                    (half_nu * np.log(half_nu) - lg_half_nu)[None, :]
                    - (half_nu + 1.0)[None, :] * e_log_u
                    - half_nu[None, :] * e_inv_u
                )
            )
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            rlogr = np.where(r > 0.0, r * np.log(np.where(r > 0.0, r, 1.0)), 0.0)
        lg_a = gammaln(a[0])
        latent_entropy = -float(np.sum(rlogr)) - float(
            np.sum(
                r
                * (
                    a * np.log(b)
                    - lg_a[None, :]
                    - (a + 1.0) * e_log_u
                    - a
                )
            )
        )
    else:
        log_lik = 0.0
        latent_prior = 0.0
        latent_entropy = 0.0

    ld_w0 = log_det(cholesky(prior.W0))
    lgd_eta0 = multigammaln(0.5 * prior.eta0, d)
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
            - 0.5 * prior.beta0 * (d / beta + quad_prior)
            + 0.5 * prior.eta0 * ld_w0
            - 0.5 * prior.eta0 * d * math.log(2.0)
            - lgd_eta0
            - 0.5 * (prior.eta0 + d + 1.0) * lsig
            - 0.5 * eta * tr_prior
        )
    )

    lg_alpha = gammaln(alpha)
    lgd_eta = multigammaln(0.5 * eta, d)
    param_entropy = -(
        gammaln(alpha_hat) - float(lg_alpha.sum()) + float((alpha - 1.0) @ lpi)
    )
    param_entropy -= float(
        np.sum(
            -0.5 * d * _LOG_2PI
            + 0.5 * d * np.log(beta)
            - 0.5 * lsig
            - 0.5 * d
            + 0.5 * eta * logdet_w
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


def prune(posteriors, resp, threshold):
    """Remove components whose effective count fell below ``threshold``.

    Responsibilities are renormalized per row. A class never loses its
    last component: if none reaches the threshold, the one with the
    largest effective count is kept.
    """
    comps = tuple(posteriors)
    counts = resp.effective_counts
    keep = counts >= threshold
    if not keep.any():
        keep[int(np.argmax(counts))] = True
    if keep.all():
        return comps, resp
    r = resp.r[:, keep]
    r = r / r.sum(axis=1, keepdims=True)
    kept = tuple(c for c, flag in zip(comps, keep) if flag)
    return kept, Responsibilities(r=r, a=resp.a[:, keep], b=resp.b[:, keep])


def _init_responsibilities(x, k, nu, rng, strategy):
    n, d = x.shape
    if k == 1:
        r = np.ones((n, 1))
    elif strategy == "random-responsibility":
        r = rng.dirichlet(np.ones(k), size=n)
    else:  # kmeans-like: hard assignment to the nearest of k random centers
        centers = x[rng.choice(n, size=k, replace=False)]  # k <= n by construction
        dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dist.argmin(axis=1)
        r = np.zeros((n, k))
        r[np.arange(n), labels] = 1.0
    # unit-mean latent scales at initialization, with the shape already at
    # its fixed-point value 0.5 * (nu + dim)
    a = np.full((n, r.shape[1]), 0.5 * (nu + d))
    return Responsibilities(r=r, a=a, b=a.copy())


def _fit_class(x, prior, config, class_id, rng, sink=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise ValueError(f"class {class_id} has no training rows")
    k0 = min(prior.k_init, max(n, 1))
    resp = _init_responsibilities(x, k0, prior.nu_fixed, rng, config.init_strategy)
    posteriors = m_step(x, resp, prior)
    trace = []
    converged = False
    for iteration in range(1, config.max_iters + 1):
        resp = e_step(x, posteriors)
        live = resp.n_components
        posteriors, resp = prune(m_step(x, resp, prior), resp, config.prune_threshold)
        if resp.n_components < live:
            # renormalized responsibilities move the survivors' statistics
            posteriors = m_step(x, resp, prior)
        bound = elbo(x, resp, posteriors, prior)
        trace.append(bound)
        if sink is not None:
            sink(
                f"class={class_id} iter={iteration} elbo={bound:.10g} "
                f"components={len(posteriors)}"
            )
        if len(trace) >= 2:
            prev = trace[-2]
            if abs(bound - prev) <= config.elbo_rel_tol * max(abs(bound), 1e-12):
                converged = True
                break
    return ClassModel(
        class_id=class_id,
        components=tuple(posteriors),
        alpha_hat=sum(c.alpha for c in posteriors),
        elbo_trace=tuple(trace),
        n_pruned=k0 - len(posteriors),
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


def _fit_classes(data, prior, config, class_prior, threads, fit_one, log_sink=None):
    """Fit every class with ``fit_one`` and assemble the classifier.

    ``fit_one(rows, class_id, seed, sink)`` returns a :class:`ClassModel`;
    ``seed`` is the class's own ``[config.seed, index]`` stream, so results
    do not depend on ``threads``. Lines a fit sends to ``sink`` reach
    ``log_sink`` in class order once every fit has finished.
    """
    class_ids = sorted(int(v) for v in np.unique(data.labels))
    if not class_ids:
        raise ValueError("training data has no rows")

    def run(job):
        idx, cid = job
        lines = []
        collector = lines.append if log_sink is not None else None
        rows = data.features[data.labels == cid]
        return fit_one(rows, cid, [config.seed, idx], collector), lines

    jobs = list(enumerate(class_ids))
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]
    if log_sink is not None:
        for _, lines in results:
            for line in lines:
                log_sink(line)
    counts = [int(np.sum(data.labels == cid)) for cid in class_ids]
    return TrainedClassifier(
        classes=tuple(cm for cm, _ in results),
        class_log_prior=_class_log_prior(counts, class_prior),
        dim=data.dim,
        prior=prior,
    )


def fit(data, prior, config=None, class_prior="uniform", log_sink=None, threads=1):
    """Train one class model per distinct label and assemble a classifier.

    Deterministic for a fixed ``config.seed``: each class draws its
    initialization from an independent seeded stream, so results do not
    depend on ``threads``. A class that fails to converge within
    ``max_iters`` is returned with ``converged=False`` rather than raising.

    ``log_sink``, when given, receives one line per iteration per class
    (class id, iteration, bound, live component count).
    """
    config = config or VbConfig()

    def fit_one(rows, cid, seed, sink):
        return _fit_class(rows, prior, config, cid, np.random.default_rng(seed), sink)

    return _fit_classes(data, prior, config, class_prior, threads, fit_one, log_sink)


def fit_ml_nu(
    data,
    prior,
    config=None,
    class_prior="uniform",
    nu_bounds=(0.05, 1000.0),
    coarse_points=25,
    threads=1,
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

    def best_fit_for(rows, cid, seed, sink):
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

    return _fit_classes(data, prior, config, class_prior, threads, best_fit_for)
