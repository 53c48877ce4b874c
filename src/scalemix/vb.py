"""Variational Bayesian learning of per-class scale mixture models.

Each class has its own model. One iteration alternates two updates:

1. Latent update. Given the current parameter posteriors, compute per-point
   responsibilities ``r`` (a categorical posterior over components) and the
   inverse-gamma posterior ``IG(a, b)`` over each point's latent scale. Under
   the shared ``nu`` conjugacy fixes the shape at ``a = (nu + dim) / 2`` for
   every point and component, so only the rate ``b`` is carried.
2. Parameter update. Given the latent posteriors, accumulate the
   responsibility-weighted statistics and refresh the Dirichlet and
   Gaussian-inverse-Wishart posteriors in closed form.

The evidence lower bound is evaluated after every iteration; it is
non-decreasing (up to floating-point noise) and its relative change drives
convergence. Components whose effective count falls below a threshold are
pruned, which a small Dirichlet concentration makes routine: redundant
components starve and vanish, leaving the model to pick its own complexity.

The classes of one :func:`fit_each` call, across all its training sets
(set by set, in class order within each), train in lockstep, in batches
of consecutive classes; :func:`fit` is the call with one set. Each
update runs once per iteration for a whole batch, and no update mixes
two classes. Small classes all share one batch; a batch grows only
while its padded arrays stay small, since past that the padded
arithmetic costs more than lockstep saves in per-call overhead, and a
large class trains alone. A :class:`ClassBatch` pads every class to the
longest one with zero-weight rows, so the latent posteriors are
``(B, n, k)`` arrays and the parameter posteriors one
:class:`~scalemix.model.Posteriors` stack with a leading class axis. A
class starts with ``min(k_init, n)`` components, and a class's live
components are always its first columns. Pruning moves a class's
survivors to the front, in order, and the batch keeps as many columns
as its widest class; the columns past a class's own are
masked: they hold no responsibility, the parameter update leaves them at
the prior and the bound skips them.

After each parameter update, :func:`component_cache` factorises the whole
``(B * k, d, d)`` stack once and derives every quantity both the bound at
this iteration and the latent update at the next one read: log
determinants, E[log |Sigma|], E[log pi] and the ``(B, n, k)`` expected
squared Mahalanobis distances (the bound is assembled from the latent
update's quantities, as in Bishop's construction). Distances are whitened
by the inverse factors, which one batched inverse of the stack gives. The
latent scale posteriors share one constant shape, so the bound reduces its
``(n, k)`` arrays to a few per-column sums.

Each class keeps its own bound trace, convergence flag and pruned count.
A class that converges leaves the batch, so the cost of an iteration
follows the classes still running; its surviving components become a
:class:`~scalemix.model.ClassModel`, which validates them once.

Each class draws its initialization from its own seeded stream, and all
reductions use a fixed summation order, so results are reproducible for a
given seed. Padding and masking change the order in which numpy and BLAS
sum some terms, so a class fit in a batch agrees with the same class fit
alone (a batch of one) to about 1e-13 relative, not bit for bit.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import digamma, gammaln, xlogy

from .density import log_t_kernel
from .model import ClassModel, Posteriors, PriorHyperparameters, TrainedClassifier
from .numerics import NotPositiveDefiniteError, cholesky, log_det, mahalanobis_sq_batch

__all__ = [
    "VbConfig",
    "ClassBatch",
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
    "fit_each",
    "fit_ml_nu",
]

_LOG_2PI = math.log(2.0 * math.pi)

# a component whose effective count falls below this is pruned
_PRUNE_THRESHOLD = 1e-3

# fit_ml_nu's grid of nu values; each class keeps its fit at the best one
_ML_NU_GRID = np.geomspace(0.05, 1000.0, 25)


def _log_multigamma(a, d):
    """log Gamma_d(a) elementwise, equal to ``scipy.special.multigammaln``.

    The closed form, without that function's argument checks, which cost
    more than the arithmetic at the sizes of a fit.
    """
    a = np.asarray(a, dtype=float)
    j = np.arange(d).reshape((d,) + (1,) * a.ndim)
    return (d * (d - 1) * 0.25) * np.log(np.pi) + gammaln(a - 0.5 * j).sum(axis=0)


def _scale_shape(prior):
    """Shape ``(nu + dim) / 2`` of every point's inverse-gamma scale posterior."""
    return 0.5 * (prior.nu_fixed + prior.dim)


def _sum_rows(values):
    """Per-class column sums of a ``(B, n, k)`` array, rows added in order.

    Equal to ``values.sum(axis=1)`` for ``k > 1`` and several times faster
    at the sizes of a fit; numpy's own loop runs once per row.
    """
    return np.einsum("bnk->bk", values)


class NumericalFailure(ArithmeticError):
    """A non-finite quantity appeared during training."""


@dataclass(frozen=True)
class VbConfig:
    """Knobs of the variational fit; every field has a working default."""

    max_iters: int = 500
    elbo_rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.elbo_rel_tol > 0:
            raise ValueError("elbo_rel_tol must be positive")


@dataclass(frozen=True, eq=False)
class ClassBatch:
    """The training rows of the classes fit together, padded to one length.

    ``x (B, n, d)`` holds class ``b``'s ``n_rows[b]`` rows, then copies of
    its first row up to the longest class; ``weight (B, n, 1)`` is 1 on a
    class's own rows and 0 on the copies, which therefore carry no
    responsibility and no weight in any update.
    """

    class_ids: tuple
    x: np.ndarray
    n_rows: np.ndarray
    weight: np.ndarray

    @classmethod
    def pad(cls, blocks, class_ids):
        """The batch of the row blocks ``blocks``, one ``(n_b, d)`` block per class."""
        blocks = [np.atleast_2d(np.asarray(rows, dtype=float)) for rows in blocks]
        n_rows = np.array([rows.shape[0] for rows in blocks])
        n = int(n_rows.max())
        x = np.stack(
            [np.concatenate([rows, np.repeat(rows[:1], n - len(rows), axis=0)]) for rows in blocks]
        )
        weight = (np.arange(n) < n_rows[:, None]).astype(float)[:, :, None]
        return cls(tuple(int(cid) for cid in class_ids), x, n_rows, weight)

    def take(self, keep):
        """The batch of the classes where the boolean ``keep`` is True."""
        ids = tuple(cid for cid, kept in zip(self.class_ids, keep.tolist()) if kept)
        return ClassBatch(ids, self.x[keep], self.n_rows[keep], self.weight[keep])


@dataclass(frozen=True)
class ComponentCache:
    """What one factorisation of a batch's :class:`~scalemix.model.Posteriors` stack yields.

    ``batch`` is the :class:`ClassBatch` and ``live (B, k)`` the component
    mask the cache was computed for. Per class and component, ``log_det_w``
    is log |W_k|, ``log_sigma`` E[log |Sigma_k|], ``log_pi`` E[log pi_k]
    over the live components (-inf for a masked one, which has no weight),
    ``alpha_hat`` the per-class sum of the live components' alpha,
    ``quad_prior`` ``eta_k (m_k - m0)' W_k^{-1} (m_k - m0)`` and
    ``tr_prior`` ``tr(W0 W_k^{-1})``. ``d2`` holds the ``(B, n, k)``
    expected squared Mahalanobis distances
    ``dim / beta_k + eta_k (x - m_k)' W_k^{-1} (x - m_k)``.
    """

    dim: int
    batch: ClassBatch
    live: np.ndarray
    log_det_w: np.ndarray
    log_sigma: np.ndarray
    alpha_hat: np.ndarray
    log_pi: np.ndarray
    d2: np.ndarray
    quad_prior: np.ndarray
    tr_prior: np.ndarray

    def take(self, keep):
        """The cache of the batch's classes where the boolean ``keep`` is True."""
        arrays = {
            f.name: getattr(self, f.name)[keep]
            for f in fields(self)
            if f.name not in ("dim", "batch")
        }
        return replace(self, batch=self.batch.take(keep), **arrays)


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


def component_cache(batch, post, prior, live):
    """Factorise the stacked scales once and derive what the updates share.

    ``post`` is the batch's ``(B, k, ...)`` posterior stack and ``live``
    its ``(B, k)`` component mask. The one Cholesky factorisation of the
    whole ``(B * k, d, d)`` stack and the one batched inverse of its
    factors of an iteration happen here; the bound of this iteration and
    the latent update of the next both read the returned cache.
    """
    n_classes, k, d = post.m.shape
    try:
        factor = cholesky(post.W.reshape(-1, d, d))
    except NotPositiveDefiniteError as exc:
        member, component = divmod(exc.component, k)
        raise NumericalFailure(
            f"class {batch.class_ids[member]}: component {component} is not positive "
            f"definite (pivot {exc.pivot_index})"
        ) from exc
    log_det_w = log_det(factor).reshape(n_classes, k)
    psi = digamma(0.5 * (post.eta[:, :, None] + 1.0 - np.arange(1, d + 1)))
    log_sigma = -d * math.log(2.0) + log_det_w - psi.sum(axis=2)
    # summed in order over a class's live components, as ClassModel.alpha_hat is
    alpha_hat = np.array(
        [sum(row[:count]) for row, count in zip(post.alpha.tolist(), live.sum(axis=1).tolist())]
    )
    log_pi = np.where(live, digamma(post.alpha) - digamma(alpha_hat)[:, None], -np.inf)
    d2 = d / post.beta[:, None, :] + post.eta[:, None, :] * mahalanobis_sq_batch(
        batch.x, post.m, factor
    )
    # the prior terms whiten m0 - m_k and W0's factor L0 by the same inverse
    # factors: tr(W0 W^{-1}) = |L^{-1} L0|_F^2
    inverse = factor.inverse.reshape(n_classes, k, d, d)
    offset = inverse @ (prior.m0 - post.m)[:, :, :, None]
    quad_prior = post.eta * np.square(offset).sum(axis=(2, 3))
    tr_prior = np.square(inverse @ prior.W0_factor.lower).sum(axis=(2, 3))
    return ComponentCache(
        d, batch, live, log_det_w, log_sigma, alpha_hat, log_pi, d2, quad_prior, tr_prior
    )


def e_step(cache, nu):
    """Latent update: responsibilities and scale posteriors for a batch's rows.

    Returns ``(r, b)``, each ``(B, n, k)``: row-normalized
    responsibilities and the rate of the inverse-gamma posterior over each
    point's latent scale, conditional on the component; its shape is the
    constant ``(nu + dim) / 2``. Masked components and padding rows get
    zero responsibility. Responsibilities are computed in log space with
    row-max subtraction; exact ties keep proportional weights.
    """
    log_rho = cache.log_pi[:, None, :] + log_t_kernel(
        cache.d2, cache.log_sigma[:, None, :], cache.dim, nu
    )
    row_max = log_rho.max(axis=2)
    dead = ~np.isfinite(row_max)
    if np.any(dead):
        # a padding row repeats its class's first row, so the first dead row
        # of the first failing class is one of the class's own
        member, row = np.argwhere(dead)[0].tolist()
        raise NumericalFailure(
            f"class {cache.batch.class_ids[member]}: every component vanished for row {row}"
        )
    shifted = np.exp(log_rho - row_max[:, :, None])
    r = shifted / shifted.sum(axis=2, keepdims=True)
    r *= cache.batch.weight
    return r, 0.5 * cache.d2 + 0.5 * nu


def m_step(points, r, b, prior):
    """Parameter update: closed-form posterior refresh from the latent posteriors.

    ``points`` is a batch's ``(B, n, d)`` rows and ``r, b`` its
    ``(B, n, k)`` responsibilities and scale rates, whose shape comes from
    ``prior``; returns the ``(B, k, ...)`` posterior stack. Accumulates the
    responsibility-weighted counts, scale-weighted means and scatters of
    all components at once. A component with zero
    scale-weighted mass (a masked one among them) keeps the prior values
    so the update never divides by zero.
    """
    x = np.asarray(points, dtype=float)
    zeta = r * (_scale_shape(prior) / b)  # <z> <1/u>
    counts = _sum_rows(r)
    omega = _sum_rows(zeta)
    live = omega > 0.0
    mass = np.where(live, omega, 1.0)
    zeta_t = zeta.transpose(0, 2, 1)
    xbar = (zeta_t[:, :, None, :] @ x[:, None, :, :])[:, :, 0] / mass[:, :, None]
    dev = x[:, None, :, :] - xbar[:, :, None, :]
    s = ((zeta_t[:, :, None, :] * dev.transpose(0, 1, 3, 2)) @ dev) / mass[:, :, None, None]
    scatter = 0.5 * (s + s.transpose(0, 1, 3, 2))
    beta = prior.beta0 + omega
    m = (omega[:, :, None] * xbar + prior.beta0 * prior.m0) / beta[:, :, None]
    offset = xbar - prior.m0
    w = (
        prior.W0
        + omega[:, :, None, None] * scatter
        + (prior.beta0 * omega / beta)[:, :, None, None]
        * (offset[:, :, :, None] * offset[:, :, None, :])
    )
    w = 0.5 * (w + w.transpose(0, 1, 3, 2))
    return Posteriors(
        alpha=np.where(live, prior.alpha0 + counts, prior.alpha0),
        beta=np.where(live, beta, prior.beta0),
        m=np.where(live[:, :, None], m, prior.m0),
        W=np.where(live[:, :, None, None], w, prior.W0),
        eta=np.where(live, prior.eta0 + counts, prior.eta0),
    )


_ELBO_TERMS = ("log_likelihood", "latent_prior", "param_prior", "latent_entropy", "param_entropy")


def elbo(r, b, post, cache, terms):
    """Evidence lower bound of each class of a batch under the current posteriors.

    ``r, b`` are the ``(B, n, k)`` responsibilities and scale rates the
    parameter update ``post`` was computed from, ``cache`` is ``post``'s
    :func:`component_cache` and ``terms`` the fit's :func:`prior_terms`,
    whose prior gives the scale shape; returns one bound per class, summed
    over its live components.
    Assembled from five pieces: the expected data log-likelihood, the
    expected latent prior, the expected parameter prior, and the negative
    entropies of the latent and parameter posteriors. With no data and
    posteriors equal to the prior every piece cancels and the bound is 0.
    """
    prior = terms.prior
    d = prior.dim
    live = cache.live
    k = live.sum(axis=1)
    alpha, beta, eta = post.alpha, post.beta, post.eta
    lpi = np.where(live, cache.log_pi, 0.0)
    lsig = cache.log_sigma

    def over_live(values):
        return np.where(live, values, 0.0).sum(axis=1)

    # the shape a is one constant, so every latent term but r log r folds
    # into per-column sums of r, r <1/u>, r <1/u> d2 and r log b; a masked
    # component's sums are all 0
    a = _scale_shape(prior)
    psi_a = digamma(a)
    counts = _sum_rows(r)
    zeta = r * (a / b)
    s_inv_u = _sum_rows(zeta)
    s_inv_u_d2 = _sum_rows(zeta * cache.d2)
    s_log_b = _sum_rows(r * np.log(b))
    # sum of r <log u>, with <log u> = log b - psi(a)
    s_log_u = s_log_b - counts * psi_a

    log_lik = (
        counts * (-0.5 * d * _LOG_2PI - 0.5 * lsig) - 0.5 * d * s_log_u - 0.5 * s_inv_u_d2
    ).sum(axis=1)
    half_nu = 0.5 * prior.nu_fixed
    latent_prior = (
        counts * (lpi + half_nu * math.log(half_nu) - gammaln(half_nu))
        - (half_nu + 1.0) * s_log_u
        - half_nu * s_inv_u
    ).sum(axis=1)
    # minus the expected log of q(z) IG(u | a, b); its a log b terms cancel
    latent_entropy = (
        s_log_b - _sum_rows(xlogy(r, r)) + counts * (gammaln(a) - (a + 1.0) * psi_a + a)
    ).sum(axis=1)

    param_prior = gammaln(k * prior.alpha0) - k * gammaln(prior.alpha0)
    param_prior += over_live(
        (prior.alpha0 - 1.0) * lpi
        - 0.5 * d * _LOG_2PI
        + 0.5 * d * math.log(prior.beta0)
        + 0.5 * prior.eta0 * terms.log_det_w0
        - 0.5 * prior.eta0 * d * math.log(2.0)
        - terms.log_gamma_eta0
        - 0.5 * lsig
        - 0.5 * prior.beta0 * (d / beta + cache.quad_prior)
        - 0.5 * (prior.eta0 + d + 1.0) * lsig
        - 0.5 * eta * cache.tr_prior
    )

    # minus the expected log of q(pi) and of each q(mu_k, Sigma_k)
    param_entropy = -gammaln(cache.alpha_hat)
    param_entropy -= over_live(
        (alpha - 1.0) * lpi
        - gammaln(alpha)
        - 0.5 * d * _LOG_2PI
        - 0.5 * d
        + 0.5 * d * np.log(beta)
        - 0.5 * lsig
        + 0.5 * eta * cache.log_det_w
        - 0.5 * eta * d * math.log(2.0)
        - _log_multigamma(0.5 * eta, d)
        - 0.5 * (eta + d + 1.0) * lsig
        - 0.5 * eta * d
    )

    pieces = (log_lik, latent_prior, param_prior, latent_entropy, param_entropy)
    total = log_lik + latent_prior + param_prior + latent_entropy + param_entropy
    if not np.isfinite(total).all():
        # a non-finite piece makes its class's total non-finite too
        for member, cid in enumerate(cache.batch.class_ids):
            for name, piece in zip(_ELBO_TERMS, pieces):
                if not np.isfinite(piece[member]):
                    raise NumericalFailure(
                        f"class {cid}: ELBO term {name!r} is not finite "
                        f"({float(piece[member])!r})"
                    )
    return total


def prune(r, b, live, threshold):
    """Drop the components whose effective count fell below ``threshold``.

    ``r, b`` are a batch's ``(B, n, k)`` responsibilities and scale rates
    and ``live`` its ``(B, k)`` component mask, where each class's live
    components are its first columns. Returns ``(r, b, live)`` in the same
    layout: a class that lost components has its survivors moved to its
    first columns, in order, and its rows renormalized over them; the
    batch keeps as many columns as its widest class, and the columns past
    a class's survivors are masked with zero responsibility. A class never
    loses its last component: if none reaches the threshold, the one with
    the largest effective count is kept. Components are independent in
    :func:`m_step`, so updating the survivors of a pruned latent posterior
    equals updating all, pruning and updating the survivors again.
    """
    counts = _sum_rows(r)
    keep = live & (counts >= threshold)
    n_keep = keep.sum(axis=1)
    if not n_keep.all():
        lost = np.flatnonzero(n_keep == 0)
        keep[lost, np.argmax(counts[lost], axis=1)] = True
        n_keep[lost] = 1
    cut = (n_keep < live.sum(axis=1)).tolist()
    if not any(cut):
        return r, b, live
    width = int(n_keep.max())
    # a stable sort puts each class's survivors first, in order; an uncut
    # class's live columns already come first and the rest hold nothing
    order = np.argsort(~keep, axis=1, kind="stable")[:, :width]
    parts = []
    for j, n_live in enumerate(n_keep.tolist()):
        if not cut[j]:
            parts.append((r[j, :, :width], b[j, :, :width]))
            continue
        cols = order[j]
        r_j = r[j][:, cols]
        r_j[:, n_live:] = 0.0
        # a padding row holds no responsibility and stays at zero
        total = r_j.sum(axis=1, keepdims=True)
        r_j /= np.where(total > 0.0, total, 1.0)
        parts.append((r_j, b[j][:, cols]))
    r, b = (np.stack(v) for v in zip(*parts))
    return r, b, np.arange(width) < n_keep[:, None]


def _init_latent(batch, k0, prior, seeds):
    """Initial ``(r, b)``: each class's draws from its own seeded stream.

    The rates equal the shape ``prior`` gives, so the latent scales start
    at unit mean.
    """
    n_classes, n, _ = batch.x.shape
    r = np.zeros((n_classes, n, int(k0.max())))
    for member, (rows, k, seed) in enumerate(zip(batch.n_rows.tolist(), k0.tolist(), seeds)):
        if k > 1:
            r[member, :rows, :k] = np.random.default_rng(seed).dirichlet(np.ones(k), size=rows)
        else:
            r[member, :rows, 0] = 1.0
    return r, np.full(r.shape, _scale_shape(prior))


def _fit_lockstep(blocks, class_ids, seeds, prior, config, sink=None):
    """Fit the classes with row blocks ``blocks`` as one batch; a ClassModel each.

    ``seeds[i]`` seeds class ``i``'s initialization. ``sink`` receives each
    class's iteration lines, in class order, when the batch ends.
    """
    batch = ClassBatch.pad(blocks, class_ids)
    nu = prior.nu_fixed
    terms = prior_terms(prior)
    k0 = np.minimum(prior.k_init, batch.n_rows)
    r, b = _init_latent(batch, k0, prior, seeds)
    post = m_step(batch.x, r, b, prior)
    cache = component_cache(batch, post, prior, np.arange(r.shape[2]) < k0[:, None])
    traces = [[] for _ in batch.class_ids]
    lines = [[] for _ in batch.class_ids]
    models = [None] * len(traces)
    active = list(range(len(traces)))  # batch member j is class active[j]
    try:
        for iteration in range(1, config.max_iters + 1):
            r, b = e_step(cache, nu)
            r, b, live = prune(r, b, cache.live, _PRUNE_THRESHOLD)
            post = m_step(cache.batch.x, r, b, prior)
            cache = component_cache(cache.batch, post, prior, live)
            bounds = elbo(r, b, post, cache, terms).tolist()
            n_live = live.sum(axis=1).tolist()
            done = []
            for j, i in enumerate(active):
                trace = traces[i]
                trace.append(bounds[j])
                if sink is not None:
                    lines[i].append(
                        f"class={batch.class_ids[i]} iter={iteration} "
                        f"elbo={bounds[j]:.10g} components={n_live[j]}"
                    )
                converged = len(trace) >= 2 and abs(bounds[j] - trace[-2]) <= (
                    config.elbo_rel_tol * max(abs(bounds[j]), 1e-12)
                )
                if converged or iteration == config.max_iters:
                    models[i] = ClassModel(
                        class_id=batch.class_ids[i],
                        components=Posteriors(
                            **{key: v[j, : n_live[j]] for key, v in vars(post).items()}
                        ),
                        nu=np.full(n_live[j], nu),
                        alpha_hat=cache.alpha_hat[j],
                        elbo_trace=tuple(trace),
                        n_pruned=int(k0[i]) - n_live[j],
                        converged=converged,
                    )
                    done.append(j)
            if len(done) == len(active):
                break
            if done:
                keep = np.ones(len(active), dtype=bool)
                keep[done] = False
                cache = cache.take(keep)
                active = [i for i, kept in zip(active, keep.tolist()) if kept]
    finally:
        if sink is not None:
            for class_lines in lines:
                for line in class_lines:
                    sink(line)
    return models


# Lockstep saves the fixed cost of each numpy call, which dominates small
# fits, but pads every class of a batch to the longest and widest one, and
# its (B, k, n, d) temporaries grow with the batch. Classes share a batch
# while those hold at most this many numbers (512 KB). Timed in one process
# on a 2-vCPU x86 host (k_init 10, d = 8), batches within it took 0.34-0.82x
# the time of their classes fit alone, and batches of 2 or 3 classes stopped
# paying between 96000 and 144000 numbers.
_BATCH_NUMBERS = 2**16


def _lockstep_groups(blocks, k_init):
    """Split the classes, in order, into runs that train as one batch each.

    A run grows while ``B * n * k * d`` of its padded batch stays within
    ``_BATCH_NUMBERS``; a class larger than that trains alone.
    """
    groups, n_max, k_max = [], 0, 0
    for i, rows in enumerate(blocks):
        n, d = rows.shape
        n_max, k_max = max(n_max, n), max(k_max, min(k_init, n))
        if groups and (len(groups[-1]) + 1) * n_max * k_max * d <= _BATCH_NUMBERS:
            groups[-1].append(i)
        else:
            groups.append([i])
            n_max, k_max = n, min(k_init, n)
    return groups


def _class_blocks(data):
    """The sorted class ids of ``data`` and each class's rows, in that order."""
    class_ids = sorted(int(v) for v in np.unique(data.labels))
    if not class_ids:
        raise ValueError("training data has no rows")
    return class_ids, [data.features[data.labels == cid] for cid in class_ids]


def _classifier(data, prior, classes):
    """The classifier of ``data``'s class models, with a uniform class prior."""
    return TrainedClassifier(
        classes=tuple(classes),
        class_log_prior=np.full(len(classes), -math.log(len(classes))),
        dim=data.dim,
        prior=prior,
    )


def fit_each(datasets, prior, config=None, log_sink=None):
    """Train a classifier on each training set of ``datasets``; one per set, in order.

    The class blocks of every set, in set order and then class order,
    train in lockstep, in batches (see the module docstring), so the sets
    share batches as the classes of one set do; no update mixes two
    classes. Class ``i`` of every set draws its initialization from its
    own ``[config.seed, i]`` stream, as in a :func:`fit` of that set
    alone, and each classifier's class prior is uniform. A class that
    fails to converge within ``max_iters`` is returned with
    ``converged=False`` rather than raising.

    ``log_sink``, when given, receives one line per iteration per class
    (class id, iteration, bound, live component count), in block order,
    as each batch finishes.
    """
    config = config or VbConfig()
    sets = [_class_blocks(data) for data in datasets]
    class_ids = [cid for ids, _ in sets for cid in ids]
    blocks = [rows for _, set_blocks in sets for rows in set_blocks]
    seeds = [[config.seed, i] for ids, _ in sets for i in range(len(ids))]
    models = [
        model
        for group in _lockstep_groups(blocks, prior.k_init)
        for model in _fit_lockstep(
            [blocks[i] for i in group],
            [class_ids[i] for i in group],
            [seeds[i] for i in group],
            prior,
            config,
            log_sink,
        )
    ]
    classifiers, start = [], 0
    for data, (ids, _) in zip(datasets, sets):
        classifiers.append(_classifier(data, prior, models[start : start + len(ids)]))
        start += len(ids)
    return classifiers


def fit(data, prior, config=None, log_sink=None):
    """Train one class model per distinct label and assemble a classifier.

    The same as ``fit_each([data], prior, config, log_sink)[0]``: the
    classes train in lockstep (see the module docstring), each from its
    own seeded stream, so the fit is deterministic for a fixed
    ``config.seed``, and the class prior is uniform. ``log_sink`` receives
    the iteration lines in class order.
    """
    return fit_each([data], prior, config, log_sink)[0]


def fit_ml_nu(data, prior, config=None):
    """Experimental mode: per-class degrees of freedom by likelihood search.

    Runs :func:`fit` at each of 25 logarithmically spaced ``nu`` values on
    [0.05, 1000], so all classes at one ``nu`` train in one lockstep batch,
    and gives each class the fit whose final evidence lower bound (the
    variational stand-in for the log marginal likelihood) is highest
    across the grid; a tie goes to the smaller ``nu``. Each kept class model
    is that of ``fit(data, replace(prior, nu_fixed=nu), config)`` at the
    class's chosen ``nu``, bit for bit. Selecting ``nu`` this way is known
    to hurt generalization relative to a shared value; the mode exists to
    reproduce that comparison, not for production use. The class prior is
    uniform, as in :func:`fit`.
    """
    grid = [fit(data, replace(prior, nu_fixed=float(nu)), config).classes for nu in _ML_NU_GRID]
    classes = [max(fits, key=lambda cm: cm.elbo_trace[-1]) for fits in zip(*grid)]
    return _classifier(data, prior, classes)
