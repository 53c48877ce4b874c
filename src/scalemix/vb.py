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
squared Mahalanobis distances. No update centres the rows on a component
(Bishop, PRML, section 10.2.1: the statistics are sums over rows). Once
per batch, each class's rows are shifted by the class mean and their
outer products taken; the parameter update is two batched products of
these with the latent posteriors, and the distances two with each
component's precision, from the inverse factors of one batched inverse.
Expanded this way, a statistic subtracts terms that grow with a row's
distance from its class mean, so a batch with a class whose bound on the
rounding loss is too large keeps its rows unshifted and centres them
instead, on the two-pass path (its distances from
:func:`~scalemix.numerics.mahalanobis_sq_batch`, the kernel of prediction
and the nu grid). The bound is
evaluated right after a parameter update, from the latent posteriors that
update was computed from, where it collapses to ratios of the posterior
and prior log-normalisers plus a few per-column sums of the latent
posteriors (conjugate-exponential updates, as in Svensen and Bishop 2005).

Each class keeps its own bound trace, convergence flag and pruned count.
A class that converges leaves the batch, so the cost of an iteration
follows the classes still running; its surviving components become a
:class:`~scalemix.model.ClassModel`, which validates them once.

Each class draws its initialization from its own seeded stream, and all
reductions use a fixed summation order, so results are reproducible for a
given seed. Padding and masking change the order in which numpy and BLAS
sum some terms, so a class fit in a batch agrees with the same class fit
alone (a batch of one) not bit for bit, but to about 1e-13 relative when
its rows lie near the prior mean. The scale update squares a class's
distance from the prior mean, which amplifies those differences: the
posteriors of a class of two 3-d sub-clusters 1e3, 1e4 or 1e6 apart,
under the prior of a standard-normal class, moved by 1.8e-12, 9e-11 or
6.5e-7 of an array's largest entry, with the same iterations, pruning
and labels. A class that a two-pass batch carries,
because another class of it is over the tolerance, agrees with its
expanded fit to about 1e-12.
"""

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import digamma, gammaln

from .density import log_t_kernel
from .model import ClassModel, Posteriors, PriorHyperparameters, TrainedClassifier
from .numerics import NotPositiveDefiniteError, cholesky, log_det, mahalanobis_sq_batch

__all__ = [
    "VbConfig",
    "NumericalFailure",
    "e_step",
    "m_step",
    "elbo",
    "prune",
    "fit",
    "fit_ml_nu",
]

_LOG_2PI = math.log(2.0 * math.pi)

# a component whose effective count falls below this is pruned
_PRUNE_THRESHOLD = 1e-3

# a class has converged once an iteration moves its bound by at most this
# fraction of the bound
_ELBO_REL_TOL = 1e-6

# A batch computes its statistics from rows centred on each component, in
# two passes, once some class's _expansion_loss exceeds this. On classes of
# two standard-normal sub-clusters (d = 3, 80 to 18 000 rows, 10 to 1e5
# sigma apart) the expanded statistics moved the fitted posteriors by at
# most 0.06 times the bound, and changed an iteration count only at bounds
# of 1.5e-2 and above. So a class takes the expanded path only where it
# moves by at most about 6e-10 relative, far inside the 1e-6 change of the
# bound at which a fit stops. The training sides of the benchmark's
# protocol inputs bound at most 2.4e-11, and 18 000-row classes 4e-9.
_EXPANSION_TOL = 1e-8

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


def _expansion_loss(xc, n_rows, shift, prior):
    """Per class, a bound on what rounding costs the expanded statistics.

    ``xc`` is a batch's shifted rows, ``n_rows`` its classes' row counts and
    ``shift`` their shifts. The expanded distances (see
    :func:`_expanded_sq_distances`) and scales (see :func:`_expanded_update`)
    subtract terms as large as ``R^2`` in the metric of a component's
    precision, where ``R`` bounds the shifted rows and the shifted prior
    mean, and so every shifted component mean, a convex combination of
    them. Every posterior scale satisfies ``W_k >= W0``, so that metric
    stretches a length by at most ``1 / lambda_min(W0)``; a distance enters
    the latent update times ``eta_k <= eta0 + N_c``, and a scale sums
    ``N_c`` rounded products. So ``eps R^2 (eta0 + N_c) / lambda_min(W0)``
    bounds the loss up to a small constant factor. A ``W0`` that factorises
    can still have a computed ``lambda_min`` of 0 or below; no bound is
    known then, and every class's loss is infinite.
    """
    lambda_min = np.linalg.eigvalsh(prior.W0)[0]
    if not lambda_min > 0:
        return np.full(len(n_rows), np.inf)
    radius_sq = np.maximum(
        np.einsum("bnd,bnd->bn", xc, xc).max(axis=1), ((prior.m0 - shift) ** 2).sum(axis=1)
    )
    return np.finfo(float).eps * radius_sq * (prior.eta0 + n_rows) / lambda_min


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
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True, eq=False)
class ClassBatch:
    """The training rows of the classes fit together, padded to one length.

    ``shift (B, d)`` is each class's own mean, and ``xc (B, n, d)`` holds
    class ``b``'s ``n_rows[b]`` rows less its shift, then copies of its
    first up to the longest class; ``weight (B, n, 1)`` is 1 on a class's
    own rows and 0 on the copies, which therefore carry no responsibility
    and no weight in any update. ``xx (B, n, d * d)`` holds the row-major
    outer products of ``xc``: every sum over rows an iteration needs,
    built once. ``two_pass`` is True when some class's bound on the
    rounding loss of the expanded statistics (see :func:`_expansion_loss`)
    exceeds ``_EXPANSION_TOL``; the whole batch then centres its rows on
    each component instead, ``xx`` is empty and ``shift`` is 0, so ``xc``
    holds the rows as given.
    """

    class_ids: tuple
    n_rows: np.ndarray
    weight: np.ndarray
    shift: np.ndarray
    xc: np.ndarray
    xx: np.ndarray
    two_pass: bool

    @classmethod
    def pad(cls, blocks, class_ids, prior):
        """The batch of the row blocks ``blocks``, one ``(n_b, d)`` block per class.

        ``prior`` is the fit's prior, whose scale bounds the rounding loss.
        """
        blocks = [np.atleast_2d(np.asarray(rows, dtype=float)) for rows in blocks]
        n_rows = np.array([rows.shape[0] for rows in blocks])
        n = int(n_rows.max())
        x = np.stack(
            [np.concatenate([rows, np.repeat(rows[:1], n - len(rows), axis=0)]) for rows in blocks]
        )
        weight = (np.arange(n) < n_rows[:, None]).astype(float)[:, :, None]
        shift = np.stack([rows.mean(axis=0) for rows in blocks])
        xc = x - shift[:, None, :]
        two_pass = bool((_expansion_loss(xc, n_rows, shift, prior) > _EXPANSION_TOL).any())
        if two_pass:
            # the two-pass path centres on each component and never reads the
            # products; a shift would only round rows that lie near the origin
            shift, xc, xx = np.zeros_like(shift), x, np.empty(x.shape[:2] + (0,))
        else:
            xx = (xc[:, :, :, None] * xc[:, :, None, :]).reshape(xc.shape[:2] + (-1,))
        return cls(tuple(int(cid) for cid in class_ids), n_rows, weight, shift, xc, xx, two_pass)

    def take(self, keep):
        """The batch of the classes where the boolean ``keep`` is True."""
        ids = tuple(cid for cid, kept in zip(self.class_ids, keep.tolist()) if kept)
        arrays = ("n_rows", "weight", "shift", "xc", "xx")
        return replace(self, class_ids=ids, **{name: getattr(self, name)[keep] for name in arrays})


@dataclass(frozen=True)
class ComponentCache:
    """What one factorisation of a batch's :class:`~scalemix.model.Posteriors` stack yields.

    ``batch`` is the :class:`ClassBatch` and ``live (B, k)`` the component
    mask the cache was computed for. Per class and component, ``log_det_w``
    is log |W_k|, ``log_sigma`` E[log |Sigma_k|], ``log_pi`` E[log pi_k]
    over the live components (-inf for a masked one, which has no weight)
    and ``alpha_hat`` the per-class sum of the live components' alpha.
    ``d2`` holds the ``(B, n, k)`` expected squared Mahalanobis distances
    ``dim / beta_k + eta_k (x - m_k)' W_k^{-1} (x - m_k)``, expanded over
    the batch's row statistics (or from centred rows in a ``two_pass``
    batch). The latent update reads ``log_sigma``, ``log_pi`` and ``d2``;
    the bound reads ``log_det_w`` and ``alpha_hat``.
    """

    batch: ClassBatch
    live: np.ndarray
    log_det_w: np.ndarray
    log_sigma: np.ndarray
    alpha_hat: np.ndarray
    log_pi: np.ndarray
    d2: np.ndarray

    def take(self, keep):
        """The cache of the batch's classes where the boolean ``keep`` is True."""
        arrays = {f.name: getattr(self, f.name)[keep] for f in fields(self) if f.name != "batch"}
        return replace(self, batch=self.batch.take(keep), **arrays)


@dataclass(frozen=True)
class PriorTerms:
    """A prior with the constants of the bound that depend on it alone.

    ``latent_const`` is what each unit of responsibility adds to the
    latent terms of the bound: ``-(d/2) log 2 pi + (nu/2) log(nu/2)
    - log Gamma(nu/2) + log Gamma(a) + a`` with ``a = (nu + d) / 2``.
    """

    prior: PriorHyperparameters
    log_det_w0: float
    log_gamma_eta0: float  # log Gamma_d(eta0 / 2)
    latent_const: float


def prior_terms(prior):
    """Per-fit constants of the bound (see :class:`PriorTerms`)."""
    half_nu, a = 0.5 * prior.nu_fixed, _scale_shape(prior)
    latent_const = (
        -0.5 * prior.dim * _LOG_2PI + half_nu * math.log(half_nu) - gammaln(half_nu)
        + gammaln(a) + a
    )
    return PriorTerms(
        prior,
        log_det(prior.W0_factor),
        _log_multigamma(0.5 * prior.eta0, prior.dim),
        latent_const,
    )


def component_cache(batch, post, live):
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
    m_c = post.m - batch.shift[:, None, :]  # the means in the rows' shifted coordinates
    if batch.two_pass:
        maha = mahalanobis_sq_batch(np.swapaxes(batch.xc, 1, 2), m_c, factor)
        # back to C-ordered (B, n, k): arrays derived from d2 inherit its
        # layout, and numpy sums a column of a C-ordered array in another
        # order than one of a Fortran-ordered array
        maha = np.ascontiguousarray(np.swapaxes(maha, 1, 2))
    else:
        maha = _expanded_sq_distances(batch, m_c, factor.inverse)
    d2 = d / post.beta[:, None, :] + post.eta[:, None, :] * maha
    return ComponentCache(batch, live, log_det_w, log_sigma, alpha_hat, log_pi, d2)


def _expanded_sq_distances(batch, m_c, inverse):
    """``(B, n, k)`` squared Mahalanobis distances from the batch's row statistics.

    ``m_c`` is the ``(B, k, d)`` component means less their class's shift
    and ``inverse`` the ``(B * k, d, d)`` inverse factors ``L^{-1}`` of
    their scales, so the precision is ``Lambda = L^{-T} L^{-1}``. A
    distance is ``xx . vec(Lambda) - 2 xc' Lambda m_c + m_c' Lambda m_c``:
    two batched products, no centred copy of the rows. Rounding can leave a
    distance slightly below 0, which is clamped.
    """
    n_classes, k, d = m_c.shape
    lower_inv = inverse.reshape(n_classes, k, d, d)
    precision = np.swapaxes(lower_inv, 2, 3) @ lower_inv
    pm = (precision @ m_c[:, :, :, None])[:, :, :, 0]
    maha = batch.xx @ precision.reshape(n_classes, k, d * d).transpose(0, 2, 1)
    maha -= 2.0 * (batch.xc @ pm.transpose(0, 2, 1))
    maha += np.einsum("bkd,bkd->bk", m_c, pm)[:, None, :]
    return np.maximum(maha, 0.0, out=maha)


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
        cache.d2, cache.log_sigma[:, None, :], cache.batch.xc.shape[2], nu
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


def _two_pass_update(xc, zeta_t, omega, beta, v, prior):
    """Shifted posterior means and scales from the rows centred on each weighted mean.

    ``xc`` is a batch's shifted rows and ``v = m0 - shift`` the shifted
    prior mean: ``m = (omega xbar + beta0 v) / beta`` and ``W = W0 +
    omega S + (beta0 omega / beta) (xbar - v)(xbar - v)'``, with ``xbar``
    and ``S`` the scale-weighted mean and scatter of each component.
    """
    mass = np.where(omega > 0.0, omega, 1.0)
    xbar = (zeta_t[:, :, None, :] @ xc[:, None, :, :])[:, :, 0] / mass[:, :, None]
    dev = xc[:, None, :, :] - xbar[:, :, None, :]
    s = ((zeta_t[:, :, None, :] * dev.transpose(0, 1, 3, 2)) @ dev) / mass[:, :, None, None]
    scatter = 0.5 * (s + s.transpose(0, 1, 3, 2))
    m_c = (omega[:, :, None] * xbar + prior.beta0 * v[:, None, :]) / beta[:, :, None]
    offset = xbar - v[:, None, :]
    w = (
        prior.W0
        + omega[:, :, None, None] * scatter
        + (prior.beta0 * omega / beta)[:, :, None, None]
        * (offset[:, :, :, None] * offset[:, :, None, :])
    )
    return m_c, w


def _expanded_update(batch, zeta_t, beta, v, prior):
    """Shifted posterior means and scales from the batch's row statistics.

    With ``v = m0 - shift`` the shifted prior mean: ``m = (zeta' xc +
    beta0 v) / beta`` and ``W = W0 + zeta' xx + beta0 v v' - beta m m'``,
    the conjugate update of Bishop (PRML, section 10.2.1) summed before it
    is centred.
    """
    n_classes, k = beta.shape
    d = batch.xc.shape[2]
    m_c = (zeta_t @ batch.xc + prior.beta0 * v[:, None, :]) / beta[:, :, None]
    w = (
        (zeta_t @ batch.xx).reshape(n_classes, k, d, d)
        + (prior.W0 + prior.beta0 * (v[:, :, None] * v[:, None, :]))[:, None]
        - beta[:, :, None, None] * (m_c[:, :, :, None] * m_c[:, :, None, :])
    )
    return m_c, w


def m_step(batch, r, b, prior):
    """Parameter update: closed-form posterior refresh from the latent posteriors.

    ``batch`` is a :class:`ClassBatch` and ``r, b`` its ``(B, n, k)``
    responsibilities and scale rates, whose shape comes from ``prior``;
    returns the ``(B, k, ...)`` posterior stack. With ``zeta = r a / b``,
    the responsibility-weighted counts and scale-weighted sums of all
    components come at once, from two batched products of ``zeta`` with the
    batch's row statistics (or from rows centred on each component's
    weighted mean when the batch is ``two_pass``), in coordinates shifted
    by each class's ``shift``, which is added back to the means once. A
    component with zero scale-weighted mass (a masked one among them)
    keeps the prior values so the update never divides by zero.
    """
    zeta = r * (_scale_shape(prior) / b)  # <z> <1/u>
    counts = _sum_rows(r)
    omega = _sum_rows(zeta)
    live = omega > 0.0
    beta = prior.beta0 + omega
    zeta_t = zeta.transpose(0, 2, 1)
    v = prior.m0 - batch.shift
    if batch.two_pass:
        m_c, w = _two_pass_update(batch.xc, zeta_t, omega, beta, v, prior)
    else:
        m_c, w = _expanded_update(batch, zeta_t, beta, v, prior)
    m = m_c + batch.shift[:, None, :]
    w = 0.5 * (w + w.transpose(0, 1, 3, 2))
    return Posteriors(
        alpha=np.where(live, prior.alpha0 + counts, prior.alpha0),
        beta=np.where(live, beta, prior.beta0),
        m=np.where(live[:, :, None], m, prior.m0),
        W=np.where(live[:, :, None, None], w, prior.W0),
        eta=np.where(live, prior.eta0 + counts, prior.eta0),
    )


_ELBO_TERMS = ("dirichlet", "gauss_wishart", "latent")


def elbo(r, b, post, cache, terms):
    """Evidence lower bound of each class of a batch right after a parameter update.

    Requires ``post`` to be ``m_step(cache.batch, r, b, terms.prior)`` for
    the same ``(B, n, k)`` responsibilities and scale rates ``r, b``;
    ``cache`` is ``post``'s :func:`component_cache` and ``terms`` the fit's
    :func:`prior_terms`. Returns one bound per class, summed over its live
    components. Under that precondition every expectation over the
    parameters cancels against the parameter posteriors' own normalisers,
    and the bound of Bishop (PRML, section 10.2.2) collapses to three
    pieces: the Dirichlet ratio ``sum_k log G(alpha_k) - log G(alpha_hat)
    + log G(K alpha0) - K log G(alpha0)``; per component, the
    Gaussian-inverse-Wishart ratio of the posterior's log-normaliser to the
    prior's; and the latent terms ``N_k c - a sum r log b - (nu/2) sum r a/b
    - sum r log r``, with ``c`` the ``latent_const`` of ``terms`` (the
    expected log scales' digamma terms cancel). With no data, posteriors
    equal the prior and the bound is 0.
    """
    prior = terms.prior
    d = prior.dim
    live = cache.live
    k = live.sum(axis=1)
    alpha, beta, eta = post.alpha, post.beta, post.eta

    def over_live(values):
        return np.where(live, values, 0.0).sum(axis=1)

    dirichlet = (
        over_live(gammaln(alpha))
        - gammaln(cache.alpha_hat)
        + gammaln(k * prior.alpha0)
        - k * gammaln(prior.alpha0)
    )
    gauss_wishart = over_live(
        0.5 * d * (math.log(prior.beta0) - np.log(beta))
        + (0.5 * d * math.log(2.0)) * (eta - prior.eta0)
        + _log_multigamma(0.5 * eta, d)
        - terms.log_gamma_eta0
        - 0.5 * eta * cache.log_det_w
        + 0.5 * prior.eta0 * terms.log_det_w0
    )
    # one sum over the rows of r times the per-element terms, in which
    # r log r is 0 where r is; a masked component's sums are all 0
    a = _scale_shape(prior)
    log_r = np.log(np.where(r > 0.0, r, 1.0))
    latent = (
        _sum_rows(r) * terms.latent_const
        - np.einsum("bnk,bnk->bk", r, a * np.log(b) + (0.5 * prior.nu_fixed * a) / b + log_r)
    ).sum(axis=1)

    total = dirichlet + gauss_wishart + latent
    if not np.isfinite(total).all():
        # a non-finite piece makes its class's total non-finite too
        for member, cid in enumerate(cache.batch.class_ids):
            for name, piece in zip(_ELBO_TERMS, (dirichlet, gauss_wishart, latent)):
                if not np.isfinite(piece[member]):
                    raise NumericalFailure(
                        f"class {cid}: ELBO term {name!r} is not finite "
                        f"({float(piece[member])!r})"
                    )
    return total


def prune(r, b, live):
    """Drop the components whose effective count fell below ``_PRUNE_THRESHOLD``.

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
    keep = live & (counts >= _PRUNE_THRESHOLD)
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
    n_classes, n, _ = batch.xc.shape
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
    batch = ClassBatch.pad(blocks, class_ids, prior)
    nu = prior.nu_fixed
    terms = prior_terms(prior)
    # in Python, so a k_init past int64 cannot overflow
    k0 = np.array([min(prior.k_init, n) for n in batch.n_rows.tolist()])
    r, b = _init_latent(batch, k0, prior, seeds)
    post = m_step(batch, r, b, prior)
    cache = component_cache(batch, post, np.arange(r.shape[2]) < k0[:, None])
    traces = [[] for _ in batch.class_ids]
    lines = [[] for _ in batch.class_ids]
    models = [None] * len(traces)
    active = list(range(len(traces)))  # batch member j is class active[j]
    try:
        for iteration in range(1, config.max_iters + 1):
            r, b = e_step(cache, nu)
            r, b, live = prune(r, b, cache.live)
            post = m_step(cache.batch, r, b, prior)
            cache = component_cache(cache.batch, post, live)
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
                    _ELBO_REL_TOL * max(abs(bounds[j]), 1e-12)
                )
                if converged or iteration == config.max_iters:
                    models[i] = ClassModel(
                        class_id=batch.class_ids[i],
                        components=Posteriors(
                            **{key: v[j, : n_live[j]] for key, v in vars(post).items()}
                        ),
                        nu=np.full(n_live[j], nu),
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
# fits, but pads every class of a batch to the longest and widest one, and a
# padding row costs as much as a real one. Classes share a batch while it
# holds at most this many numbers (B * n * k * d). Timed in one process on a
# 2-vCPU x86 host (k_init 10, d = 8, 30 iterations, one BLAS thread),
# batches of 2 or 3 equal classes took 0.48-0.72x the time of their classes
# fit alone up to 72000 numbers, and still 0.88-0.91x at 160000-480000;
# but a batch that pads a 40-row class to 500 rows (80000 numbers) only
# broke even, and one that pads it to 1000 or 2000 rows took 1.25x or 1.5x.
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
    """The class ids of ``data``, increasing, and each class's rows, in that order."""
    class_ids = data.class_ids
    if not class_ids:
        raise ValueError("training data has no rows")
    return class_ids, [data.features[data.labels == cid] for cid in class_ids]


def _classifier(prior, classes):
    """The classifier of the class models ``classes``, with a uniform class prior."""
    classes = tuple(classes)
    return TrainedClassifier(classes, np.full(len(classes), -math.log(len(classes))), prior)


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
    models = iter(models)
    return [_classifier(prior, itertools.islice(models, len(ids))) for ids, _ in sets]


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
    return _classifier(prior, classes)
