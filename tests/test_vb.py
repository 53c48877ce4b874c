import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import digamma, gammaln, multigammaln

import scalemix.vb as vb
from scalemix.data import FeatureDataset
from scalemix.model import ClassModel, Posteriors, PriorHyperparameters, build_default_prior
from scalemix.predict import predict_batch
from scalemix.vb import (
    ClassBatch,
    NumericalFailure,
    VbConfig,
    component_cache,
    e_step,
    elbo,
    fit,
    fit_ml_nu,
    m_step,
    prior_terms,
    prune,
)

from conftest import two_blob_dataset


EPS = np.finfo(float).eps


def simple_prior(d=1, alpha0=0.4, beta0=1.3, eta0=None, nu=3.0, k_init=2):
    return PriorHyperparameters(
        alpha0=alpha0,
        beta0=beta0,
        m0=np.full(d, 0.2),
        W0=np.eye(d) * 1.5,
        eta0=eta0 if eta0 is not None else d + 1.5,
        nu_fixed=nu,
        k_init=k_init,
    )


def posteriors(alpha, beta, m, W, eta):
    """Stacked posteriors from per-component values: scalars, vectors, matrices."""
    return Posteriors(
        alpha=np.array(alpha, dtype=float),
        beta=np.array(beta, dtype=float),
        m=np.array(m, dtype=float),
        W=np.array(W, dtype=float),
        eta=np.array(eta, dtype=float),
    )


def batched(post):
    """One class's stacked posteriors as a batch of one."""
    return Posteriors(**{key: value[None] for key, value in vars(post).items()})


def member(post, j=0):
    """Batch member ``j`` of a batched posterior stack."""
    return Posteriors(**{key: value[j] for key, value in vars(post).items()})


def cache_of(points, post, prior):
    """The batch-of-one :func:`component_cache` of one class, every component live."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    live = np.ones((1, post.alpha.shape[0]), dtype=bool)
    return component_cache(ClassBatch.pad([x], [1], prior), batched(post), live)


def scale_shape(prior):
    """Shape of the latent scale posteriors under ``prior``: (nu + D) / 2."""
    return 0.5 * (prior.nu_fixed + prior.dim)


def one_class_m_step(x, r, b, prior):
    """:func:`m_step` of one class, through a batch of one."""
    return member(m_step(ClassBatch.pad([x], [1], prior), r[None], b[None], prior))


def one_class_e_step(x, post, prior):
    """:func:`e_step` of one class under ``prior.nu_fixed``, through a batch of one."""
    r, b = e_step(cache_of(x, post, prior), prior.nu_fixed)
    return r[0], b[0]


def latent_update(points, post, nu):
    """``(r, b)`` of the latent update under the stacked posteriors ``post``."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    return one_class_e_step(x, post, replace(simple_prior(d=x.shape[1]), nu_fixed=nu))


def bound(x, r, b, post, prior):
    """The bound of one class; ``post`` must be ``m_step`` of ``(x, r, b)``."""
    value = elbo(r[None], b[None], batched(post), cache_of(x, post, prior), prior_terms(prior))
    return float(value[0])


def toy_state(seed=7):
    """Two latent/parameter update rounds on a 5-point 1-d problem."""
    rng = np.random.default_rng(seed)
    x = np.array([[0.3], [1.7], [-0.4], [2.2], [0.9]])
    prior = simple_prior()
    r = rng.dirichlet(np.ones(2), size=5)
    post = one_class_m_step(x, r, np.full((5, 2), 2.0), prior)
    r, b = one_class_e_step(x, post, prior)
    post = one_class_m_step(x, r, b, prior)
    return x, (r, b), post, prior


def random_state(rng, n, k, d):
    """A prior, a stacked posterior and its latent update on ``n`` random points."""
    x = rng.standard_normal((n, d)) * 2.0
    a = rng.standard_normal((d, d))
    prior = PriorHyperparameters(
        alpha0=0.3, beta0=0.7, m0=rng.standard_normal(d), W0=a @ a.T + d * np.eye(d),
        eta0=d + 2.5, nu_fixed=4.0, k_init=k,
    )
    r = rng.dirichlet(np.ones(k), size=n)
    post = one_class_m_step(x, r, rng.uniform(1.0, 5.0, (n, k)), prior)
    r, b = one_class_e_step(x, post, prior)
    return x, (r, b), one_class_m_step(x, r, b, prior), prior


EULER_MASCHERONI = 0.5772156649015329


class TestExpectations:
    """Posterior expectations, read from the outputs of the latent update.

    The scale rate ``b = E[delta^2] / 2 + nu / 2`` carries the expected
    squared Mahalanobis distance; at a point on the shared mean, the log
    ratio of two components' responsibilities carries the differences in
    E[log |Sigma|] and E[log pi].
    """

    def test_delta_sq_at_posterior_mean(self):
        post = posteriors([1.0], [2.5], [[0.4, -0.1]], [np.eye(2)], [6.0])
        _, b = latent_update(np.array([[0.4, -0.1], [1.4, 0.9]]), post, 5.0)
        # dim / beta, plus eta times the squared distance (2 at the second point)
        assert b[0, 0] == pytest.approx(0.5 * (2.0 / 2.5) + 2.5, rel=1e-12)
        assert b[1, 0] == pytest.approx(0.5 * (2.0 / 2.5 + 6.0 * 2.0) + 2.5, rel=1e-12)

    def test_log_weight_difference(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        post = posteriors([0.8, 1.9], [1.0, 1.0], [[0.0], [0.0]], [[[1.0]], [[1.0]]], [4.0, 4.0])
        r, _ = latent_update(np.array([[0.0], [2.0]]), post, 5.0)
        expected = float(mp.digamma(mp.mpf(0.8)) - mp.digamma(mp.mpf(1.9)))
        log_ratio = np.log(r[:, 0] / r[:, 1])
        assert np.allclose(log_ratio, expected, rtol=0.0, atol=1e-12)

    def test_log_sigma_tilde_formula(self):
        # E[log |Sigma|] = -sum_j psi((eta + 1 - j) / 2) - d log 2 + log |W|;
        # psi(2) = 1 - gamma, psi(3) = 3/2 - gamma, psi(7/2) = psi(5/2) + 2/5
        # component 0 is narrow, component 1 wide
        post = posteriors(
            [1.0, 1.0], [1.0, 1.0], np.zeros((2, 2)), [np.eye(2), 2.0 * np.eye(2)], [5.0, 7.0]
        )
        r, _ = latent_update(np.zeros((1, 2)), post, 5.0)
        lsig_diff = 0.4 + 0.5 - 2.0 * math.log(2.0)  # narrow minus wide
        log_ratio = math.log(r[0, 0] / r[0, 1])
        assert log_ratio == pytest.approx(-0.5 * lsig_diff, abs=1e-12)

    def test_eta_precondition(self):
        # eta <= dim - 1 would break the digamma arguments; the class model
        # record already refuses to hold such a value
        with pytest.raises(ValueError, match="eta must exceed dim - 1"):
            post = posteriors([1.0], [1.0], [[0.0, 0.0]], [np.eye(2)], [0.9])
            ClassModel(1, post, [5.0], (), 0)


class TestComponentCache:
    @pytest.mark.parametrize("k", [1, 10])
    def test_whitened_terms_match_solve_reference(self, rng, k):
        x, _, post, prior = random_state(rng, n=40, k=k, d=5)
        cache = cache_of(x, post, prior)
        for j in range(k):
            diff = x - post.m[j]
            d2 = 5 / post.beta[j] + post.eta[j] * np.einsum(
                "ni,ni->n", diff, np.linalg.solve(post.W[j], diff.T).T
            )
            assert np.allclose(cache.d2[0, :, j], d2, rtol=1e-12, atol=0.0)


def sub_cluster_class(offset):
    """One class of 40 + 40 standard-normal rows in 3-d, the second 40 moved by ``offset``."""
    x = np.random.default_rng(0).standard_normal((80, 3))
    x[40:] += offset
    ones = np.ones(80, int)
    return FeatureDataset(x, ones, ones, ones)


def near_and_far_classes(offset):
    """Class 1 of 60 standard-normal rows in 3-d, class 2 the sub-cluster class at ``offset``."""
    near = np.random.default_rng(1).standard_normal((60, 3))
    ones = np.ones(140, int)
    return FeatureDataset(
        np.vstack([near, sub_cluster_class(offset).features]), np.repeat([1, 2], [60, 80]),
        ones, ones,
    )


class TestExpandedStatistics:
    """Distances and scatters from rows shifted and squared once per batch."""

    def test_row_on_a_mean_is_clamped_at_zero(self):
        # the expanded distance of row 2 to a mean placed exactly on it
        # rounds to -5.3e-15 before the clamp
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3)) * 3.0
        a = rng.standard_normal((3, 3))
        prior = replace(simple_prior(d=3), W0=a @ a.T + 3.0 * np.eye(3))
        post = posteriors([1.0], [2.0], [x[2]], [prior.W0 + np.eye(3)], [6.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache = cache_of(x, post, prior)
        assert not cache.batch.two_pass
        # dim / beta plus eta times a distance of exactly 0
        assert cache.d2[0, 2, 0] == 3.0 / 2.0

    def test_row_statistics_are_built_once_and_follow_their_class(self, monkeypatch):
        data = class_sizes_dataset(3, (40, 90, 30), (0.0, 2.0, 1.0))
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        built, seen = [], []
        pad, cache = vb.ClassBatch.pad, vb.component_cache

        def counted_pad(*args):
            built.append(pad(*args))
            return built[-1]

        def recorded_cache(batch, *args):
            seen.append(batch)
            return cache(batch, *args)

        monkeypatch.setattr(vb.ClassBatch, "pad", counted_pad)
        monkeypatch.setattr(vb, "component_cache", recorded_cache)
        blocks = [data.features[data.labels == cid] for cid in data.class_ids]
        seeds = [[3, i] for i in range(len(blocks))]
        vb._fit_lockstep(blocks, data.class_ids, seeds, prior, VbConfig(seed=3))
        (first,) = built
        assert not first.two_pass
        for j, rows in enumerate(blocks):
            assert np.array_equal(first.shift[j], rows.mean(axis=0))
            own = rows - first.shift[j]
            padded = np.concatenate([own, np.repeat(own[:1], 90 - len(rows), axis=0)])
            assert np.array_equal(first.xc[j], padded)
        xc = first.xc
        assert np.array_equal(first.xx, (xc[:, :, :, None] * xc[:, :, None, :]).reshape(3, 90, 4))
        # classes leave the batch one by one, and each keeps its own rows
        assert sorted({len(batch.class_ids) for batch in seen}) == [1, 2, 3]
        for batch in seen:
            for j, cid in enumerate(batch.class_ids):
                i = first.class_ids.index(cid)
                for name in ("shift", "xc", "xx"):
                    assert np.array_equal(getattr(batch, name)[j], getattr(first, name)[i]), name

    @pytest.mark.parametrize("offset, iterations", [(1e2, 16), (1e4, 16), (1e6, 16), (1e7, 17)])
    def test_far_apart_sub_clusters_fit_as_with_centred_rows(self, monkeypatch, offset, iterations):
        # the bound on the expansion's rounding loss is 1.8e-10 at 1e2 and
        # 1.8e-6, 1.8e-2 and 1.8 further out, so only the first class takes
        # the expanded path; unguarded, the last two took 21 and 334 iterations
        data = sub_cluster_class(offset)
        prior = build_default_prior(data, nu_fixed=5.0, k_init=4)
        (got,) = fit(data, prior, VbConfig(seed=0)).classes
        assert (len(got.elbo_trace), got.n_components) == (iterations, 2)
        with monkeypatch.context() as patch:
            # no class is within a zero tolerance: every batch runs two-pass
            patch.setattr(vb, "_EXPANSION_TOL", 0.0)
            (want,) = fit(data, prior, VbConfig(seed=0)).classes
        assert_fits_agree(got, want)

    def test_a_class_over_the_tolerance_sends_its_batch_two_pass(self, monkeypatch):
        # class 1 is within the tolerance, class 2 (sub-clusters 1e6 apart)
        # is not; in one batch both take the two-pass path, unshifted, and
        # class 1 still fits as it does alone, on the expanded path
        data = near_and_far_classes(1e6)
        near = data.features[data.labels == 1]
        prior = build_default_prior(data.subset(data.labels == 1), nu_fixed=5.0, k_init=4)
        batches = []
        pad = vb.ClassBatch.pad

        def recorded_pad(*args):
            batches.append(pad(*args))
            return batches[-1]

        monkeypatch.setattr(vb.ClassBatch, "pad", recorded_pad)
        config = VbConfig(seed=0)
        got = fit(data, prior, config).classes[0]
        (alone,) = vb._fit_lockstep([near], [1], [[0, 0]], prior, config)
        assert [(batch.class_ids, batch.two_pass) for batch in batches] == [
            ((1, 2), True), ((1,), False),
        ]
        both = batches[0]
        assert not both.shift.any() and both.xx.size == 0
        assert np.array_equal(both.xc[1], data.features[data.labels == 2])
        assert batches[1].shift.any()
        assert_fits_agree(got, alone)

    @pytest.mark.parametrize(
        "w0, sign",
        [
            # both factorise; their computed smallest eigenvalues are exactly
            # 0 and about -4.7e-16, where the bound once divided by zero or
            # came out negative and let the batch take the expanded path
            ([[2.0, 2.0], [2.0, 2.0 + EPS]], 0.0),
            (np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) + 2 * EPS * np.eye(3), -1.0),
        ],
    )
    def test_a_prior_scale_without_a_positive_eigenvalue_sends_the_batch_two_pass(self, w0, sign):
        d = len(w0)
        prior = replace(simple_prior(d=d), W0=w0)
        assert np.sign(np.linalg.eigvalsh(prior.W0)[0]) == sign
        rows = np.random.default_rng(0).standard_normal((10, d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = vb.ClassBatch.pad([rows, rows[:6]], [1, 2], prior)
            loss = vb._expansion_loss(rows[None], np.array([10]), rows.mean(axis=0)[None], prior)
        assert batch.two_pass and batch.xx.size == 0
        assert loss.tolist() == [math.inf]


class TestEStep:
    def test_single_component_gives_unit_responsibility(self):
        post = posteriors([1.0], [1.0], [[0.0]], [[[1.0]]], [3.0])
        r, _ = latent_update(np.array([[0.1], [5.0], [-2.0]]), post, 5.0)
        assert np.allclose(r, 1.0)

    def test_symmetric_components_on_axis(self):
        post = posteriors([1.0, 1.0], [2.0, 2.0], [[-1.0], [1.0]], [[[1.0]], [[1.0]]], [3.0, 3.0])
        r, _ = latent_update(np.array([[0.0]]), post, 5.0)
        assert r[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_high_precision_reference(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        post = posteriors([0.8, 1.9], [1.5, 0.7], [[-0.5], [1.2]], [[[0.9]], [[1.8]]], [3.2, 4.1])
        x = np.array([[0.0], [1.0], [-2.0]])
        r, _ = latent_update(x, post, 2.5)
        alpha_hat = mp.mpf(0.8) + mp.mpf(1.9)
        rows = []
        for xi in x[:, 0]:
            vals = []
            for j in range(2):
                eta = mp.mpf(float(post.eta[j]))
                beta = mp.mpf(float(post.beta[j]))
                w = mp.mpf(float(post.W[j, 0, 0]))
                nu = mp.mpf(2.5)
                lsig = -mp.digamma(eta / 2) - mp.log(2) + mp.log(w)
                d2 = 1 / beta + eta * (mp.mpf(float(xi)) - mp.mpf(float(post.m[j, 0]))) ** 2 / w
                lpi = mp.digamma(mp.mpf(float(post.alpha[j]))) - mp.digamma(alpha_hat)
                half = (nu + 1) / 2
                rho = (
                    mp.loggamma(half)
                    - mp.loggamma(nu / 2)
                    - mp.log(mp.pi * nu) / 2
                    + lpi
                    - lsig / 2
                    - half * mp.log(1 + d2 / nu)
                )
                vals.append(rho)
            total = mp.exp(vals[0]) + mp.exp(vals[1])
            rows.append([float(mp.exp(v) / total) for v in vals])
        assert np.allclose(r, rows, rtol=1e-12, atol=1e-14)

    def test_rows_sum_to_one_and_counts_conserved(self, rng):
        post = posteriors(
            [1.0, 2.0, 0.5],
            [1.0, 1.5, 0.5],
            [rng.standard_normal(2) for _ in range(3)],
            [np.eye(2), 2 * np.eye(2), 0.5 * np.eye(2)],
            [5.0, 6.0, 4.0],
        )
        x = rng.standard_normal((200, 2)) * 3
        r, _ = latent_update(x, post, 4.0)
        assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)
        assert r.sum(axis=0).sum() == pytest.approx(200.0, abs=1e-8)


class TestMStep:
    def test_counts_and_weighted_moments(self):
        # the statistics, read back from the posteriors they produce
        x = np.array([[1.0], [3.0], [5.0]])
        r = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        b = np.array([[2.0, 2.0], [4.0, 1.0], [2.0, 2.0]])
        prior = simple_prior(alpha0=0.5, beta0=2.0, eta0=3.0)
        post = one_class_m_step(x, r, b, prior)
        assert np.allclose(post.alpha - prior.alpha0, [1.5, 1.5])
        assert np.allclose(post.eta - prior.eta0, [1.5, 1.5])
        # zeta = r * a / b per column, with a = (nu + D) / 2 = 2
        zeta0 = np.array([1.0, 0.25, 0.0])
        zeta1 = np.array([0.0, 1.0, 1.0])
        omega = post.beta - prior.beta0
        assert np.allclose(omega, [zeta0.sum(), zeta1.sum()])
        xbar = (post.beta * post.m[:, 0] - prior.beta0 * prior.m0[0]) / omega
        assert xbar[0] == pytest.approx((zeta0 @ x[:, 0]) / zeta0.sum())
        offset = xbar[1] - prior.m0[0]
        scatter = (
            post.W[1, 0, 0] - prior.W0[0, 0] - prior.beta0 * omega[1] / post.beta[1] * offset**2
        ) / omega[1]
        dev = x[:, 0] - xbar[1]
        assert scatter == pytest.approx((zeta1 * dev**2).sum() / zeta1.sum())

    def test_count_updates(self):
        # alpha and eta shift by the effective counts
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 2))
        prior = simple_prior(d=2, alpha0=0.001, eta0=3.0)
        scale = np.full((100, 1), 3.5)
        post = one_class_m_step(x, np.ones((100, 1)), scale, prior)
        assert post.alpha[0] == pytest.approx(100.001, rel=1e-12)
        assert post.eta[0] == pytest.approx(103.0, rel=1e-12)

    def test_matches_direct_reference_computation(self):
        # 1-d, 4 points, hand-set responsibilities and scale posteriors
        x = np.array([[0.5], [1.5], [-1.0], [2.0]])
        r = np.array([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4], [0.2, 0.8]])
        b = np.array([[1.5, 2.5], [2.0, 1.0], [3.0, 2.0], [1.0, 4.0]])
        prior = simple_prior(alpha0=0.5, beta0=2.0, eta0=3.0, nu=3.0)
        post = one_class_m_step(x, r, b, prior)
        for k in range(2):
            zeta = r[:, k] * (2.0 / b[:, k])  # the shape (3 + 1) / 2
            count = r[:, k].sum()
            omega = zeta.sum()
            xbar = (zeta * x[:, 0]).sum() / omega
            s = (zeta * (x[:, 0] - xbar) ** 2).sum() / omega
            beta = 2.0 + omega
            m = (omega * xbar + 2.0 * 0.2) / beta
            w = 1.5 + omega * s + (2.0 * omega / beta) * (xbar - 0.2) ** 2
            assert post.alpha[k] == pytest.approx(0.5 + count, rel=1e-12)
            assert post.beta[k] == pytest.approx(beta, rel=1e-12)
            assert post.m[k, 0] == pytest.approx(m, rel=1e-12)
            assert post.W[k, 0, 0] == pytest.approx(w, rel=1e-12)
            assert post.eta[k] == pytest.approx(3.0 + count, rel=1e-12)

    def test_components_are_independent(self, rng):
        # updating a subset of the columns gives those components (up to the
        # order numpy sums a column in, which depends on the column count)
        x = rng.standard_normal((40, 3))
        r = rng.dirichlet(np.ones(4), size=40)
        b = rng.uniform(1.0, 4.0, size=(40, 4))
        prior = simple_prior(d=3)
        full = one_class_m_step(x, r, b, prior)
        keep = np.array([True, False, True, True])
        part = one_class_m_step(x, r[:, keep], b[:, keep], prior)
        for name, values in vars(part).items():
            assert np.allclose(values, getattr(full, name)[keep], rtol=1e-14, atol=0), name

    def test_zero_mass_component_keeps_prior(self):
        x = np.array([[0.5], [1.5]])
        prior = simple_prior()
        r = np.array([[1.0, 0.0], [1.0, 0.0]])
        post = one_class_m_step(x, r, np.full((2, 2), 2.0), prior)
        assert post.alpha[1] == prior.alpha0
        assert post.beta[1] == prior.beta0
        assert np.array_equal(post.m[1], prior.m0)
        assert np.array_equal(post.W[1], prior.W0)

    def test_prior_dominance_single_point(self):
        # with one data point the posterior mean is a convex combination
        prior = simple_prior(d=1, beta0=1.0, nu=5.0, k_init=1)
        x = np.array([[4.0]])
        scale = np.full((1, 1), 3.0)
        post = one_class_m_step(x, np.ones((1, 1)), scale, prior)
        assert prior.m0[0] <= post.m[0, 0] <= 4.0

    @pytest.mark.parametrize("nu, d", [(3.0, 1), (7.5, 3), (0.4, 2)])
    def test_scale_shape_comes_from_the_prior(self, rng, nu, d):
        # the scale-weighted mass beta - beta0 sums r <1/u> = r (nu + D) / (2 b)
        x = rng.standard_normal((30, d))
        r = rng.dirichlet(np.ones(3), size=30)
        b = rng.uniform(0.5, 4.0, size=(30, 3))
        prior = simple_prior(d=d, nu=nu, k_init=3)
        post = one_class_m_step(x, r, b, prior)
        expected = (r * (nu + d) / (2.0 * b)).sum(axis=0)
        assert np.allclose(post.beta - prior.beta0, expected, rtol=1e-12, atol=0.0)


class TestElbo:
    def test_zero_with_no_data_and_prior_posteriors(self):
        prior = simple_prior(d=2, k_init=3)
        post = posteriors(
            [prior.alpha0] * 3, [prior.beta0] * 3, [prior.m0] * 3, [prior.W0] * 3, [prior.eta0] * 3
        )
        empty = np.zeros((1, 0, 3))
        # a class with no rows has no mean for ClassBatch.pad to shift them by
        batch = ClassBatch(
            class_ids=(1,), n_rows=np.zeros(1, int),
            weight=np.zeros((1, 0, 1)), shift=np.zeros((1, 2)), xc=np.zeros((1, 0, 2)),
            xx=np.zeros((1, 0, 4)), two_pass=False,
        )
        cache = component_cache(batch, batched(post), np.ones((1, 3), dtype=bool))
        value = elbo(empty, empty, batched(post), cache, prior_terms(prior))
        assert value[0] == pytest.approx(0.0, abs=1e-10)

    def test_wishart_normaliser_against_mpmath(self):
        # One component on three points: the Dirichlet ratio is 0, so the
        # bound of the M-step state is the Gaussian-inverse-Wishart ratio
        # (d/2) ln(beta0/beta) + (d/2) ln 2 (eta - eta0) + ln G_d(eta/2)
        # - ln G_d(eta0/2) - (eta/2) ln |W| + (eta0/2) ln |W0|, plus the
        # latent terms N c - (d/2 + nu/2 + 1) S_logu - (nu/2) S_invu + S_logb
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50

        def log_multigamma(a, d):
            out = mp.mpf(d * (d - 1)) / 4 * mp.log(mp.pi)
            for j in range(1, d + 1):
                out += mp.loggamma(mp.mpf(a) + mp.mpf(1 - j) / 2)
            return out

        def log_det(w):
            return mp.log(mp.det(mp.matrix(w.tolist())))

        for a, d in ((1.2, 2), (2.5, 4), (7.0, 5), (4.0, 8)):
            prior = replace(simple_prior(d=d, k_init=1), eta0=2.0 * a)
            rng = np.random.default_rng(d)
            x = rng.standard_normal((3, d)) * 2.0
            r, b = np.ones((3, 1)), rng.uniform(1.0, 4.0, (3, 1))
            post = one_class_m_step(x, r, b, prior)
            value = bound(x, r, b, post, prior)

            eta0, eta = mp.mpf(prior.eta0), mp.mpf(post.eta[0])
            lg_prior = log_multigamma(eta0 / 2, d)
            lg_post = log_multigamma(eta / 2, d)
            ratio = (
                mp.mpf(d) / 2 * (mp.log(prior.beta0) - mp.log(post.beta[0]))
                + mp.mpf(d) / 2 * mp.log(2) * (eta - eta0)
                + lg_post - lg_prior
                - eta / 2 * log_det(post.W[0]) + eta0 / 2 * log_det(prior.W0)
            )
            h, shape = mp.mpf(prior.nu_fixed) / 2, mp.mpf(scale_shape(prior))
            c = (
                -mp.mpf(d) / 2 * mp.log(2 * mp.pi) + h * mp.log(h) - mp.loggamma(h)
                + mp.loggamma(shape) - (1 + shape) * mp.digamma(shape) + shape
            )
            s_log_b = sum(mp.log(v) for v in b[:, 0])
            s_log_u = s_log_b - 3 * mp.digamma(shape)
            s_inv_u = sum(shape / v for v in b[:, 0])
            latent = 3 * c - (mp.mpf(d) / 2 + h + 1) * s_log_u - h * s_inv_u + s_log_b
            scale = max(1.0, abs(float(lg_prior)), abs(float(lg_post)))
            assert abs(value - float(ratio + latent)) <= 1e-12 * scale

    def test_matches_monte_carlo_oracle(self):
        # independent estimate of E_q[ln p(X, Z, U, theta) - ln q(Z, U, theta)]
        x, (r, b), post, prior = toy_state(seed=7)
        value = bound(x, r, b, post, prior)
        a = scale_shape(prior)

        rng = np.random.default_rng(2024)
        m_draws = 200000
        k = 2
        alpha = post.alpha
        beta = post.beta
        eta = post.eta
        w = post.W[:, 0, 0]
        m = post.m[:, 0]
        nu = prior.nu_fixed
        pi_s = rng.dirichlet(alpha, size=m_draws)
        sig_s = w[None, :] / rng.chisquare(eta[None, :].repeat(m_draws, 0))
        mu_s = m[None, :] + rng.standard_normal((m_draws, k)) * np.sqrt(sig_s / beta[None, :])
        lp = stats.dirichlet.logpdf(np.clip(pi_s.T, 1e-300, None), np.full(k, prior.alpha0))
        lq = stats.dirichlet.logpdf(np.clip(pi_s.T, 1e-300, None), alpha)
        for j in range(k):
            lp += stats.norm.logpdf(
                mu_s[:, j], prior.m0[0], np.sqrt(sig_s[:, j] / prior.beta0)
            )
            lp += stats.invgamma.logpdf(
                sig_s[:, j], prior.eta0 / 2, scale=float(prior.W0[0, 0]) / 2
            )
            lq += stats.norm.logpdf(mu_s[:, j], m[j], np.sqrt(sig_s[:, j] / beta[j]))
            lq += stats.invgamma.logpdf(sig_s[:, j], eta[j] / 2, scale=w[j] / 2)
        rows = np.arange(m_draws)
        for n in range(x.shape[0]):
            z_n = (rng.random(m_draws)[:, None] > np.cumsum(r[n])[None, :-1]).sum(axis=1)
            u_n = 1.0 / rng.gamma(a, 1.0 / b[n, z_n])
            lp += stats.norm.logpdf(
                x[n, 0], mu_s[rows, z_n], np.sqrt(u_n * sig_s[rows, z_n])
            )
            lp += np.log(pi_s[rows, z_n])
            lp += stats.invgamma.logpdf(u_n, nu / 2, scale=nu / 2)
            lq += np.log(r[n, z_n])
            lq += stats.invgamma.logpdf(u_n, a, scale=b[n, z_n])
        diff = lp - lq
        se = float(diff.std() / math.sqrt(m_draws))
        assert value == pytest.approx(float(diff.mean()), abs=max(5 * se, 0.02))

    def test_non_finite_term_is_named(self):
        x, (r, b), post, prior = toy_state()
        with np.errstate(all="ignore"), pytest.raises(
            NumericalFailure, match=r"^class 1: ELBO term 'latent' is not finite"
        ):
            bound(x, r, np.full_like(b, np.inf), post, prior)


def reference_elbo(x, r, b, post, prior):
    """The full bound of one class as a sum over every (point, component) element.

    The five pieces of Bishop's construction (PRML, section 10.2.2), with
    the expectations over the parameters taken from the class's batch-of-one
    :func:`component_cache` and the prior's quadratic and trace terms solved
    here. It holds for any state, so it checks the collapsed bound only
    where that one holds: ``post`` is ``m_step`` of ``(x, r, b)``.
    """
    cache = cache_of(x, post, prior)
    d = prior.dim
    k = r.shape[1]
    lpi, lsig, d2 = cache.log_pi[0], cache.log_sigma[0], cache.d2[0]
    offset = post.m - prior.m0
    quad_prior = post.eta * np.einsum(
        "ki,ki->k", offset, np.linalg.solve(post.W, offset[:, :, None])[:, :, 0]
    )
    tr_prior = np.trace(np.linalg.solve(post.W, prior.W0), axis1=1, axis2=2)
    log_2pi = math.log(2.0 * math.pi)
    a = scale_shape(prior)
    e_inv_u = a / b
    e_log_u = np.log(b) - digamma(a)
    log_lik = np.sum(
        r * (-0.5 * d * log_2pi - 0.5 * d * e_log_u - 0.5 * lsig - 0.5 * e_inv_u * d2)
    )
    h = 0.5 * prior.nu_fixed
    latent_prior = np.sum(r * lpi) + np.sum(
        r * (h * math.log(h) - gammaln(h) - (h + 1.0) * e_log_u - h * e_inv_u)
    )
    rlogr = np.where(r > 0.0, r * np.log(np.where(r > 0.0, r, 1.0)), 0.0)
    latent_entropy = -np.sum(rlogr) - np.sum(
        r * (a * np.log(b) - gammaln(a) - (a + 1.0) * e_log_u - a)
    )
    alpha, beta, eta = post.alpha, post.beta, post.eta
    log_det_w0 = np.linalg.slogdet(prior.W0)[1]
    param_prior = (
        gammaln(k * prior.alpha0) - k * gammaln(prior.alpha0)
        + (prior.alpha0 - 1.0) * lpi.sum()
        + np.sum(
            -0.5 * d * log_2pi + 0.5 * d * math.log(prior.beta0) - 0.5 * lsig
            - 0.5 * prior.beta0 * (d / beta + quad_prior)
            + 0.5 * prior.eta0 * log_det_w0 - 0.5 * prior.eta0 * d * math.log(2.0)
            - multigammaln(0.5 * prior.eta0, d)
            - 0.5 * (prior.eta0 + d + 1.0) * lsig - 0.5 * eta * tr_prior
        )
    )
    param_entropy = -(gammaln(alpha.sum()) - gammaln(alpha).sum() + (alpha - 1.0) @ lpi)
    param_entropy -= np.sum(
        -0.5 * d * log_2pi + 0.5 * d * np.log(beta) - 0.5 * lsig - 0.5 * d
        + 0.5 * eta * cache.log_det_w[0] - 0.5 * eta * d * math.log(2.0)
        - multigammaln(0.5 * eta, d) - 0.5 * (eta + d + 1.0) * lsig - 0.5 * eta * d
    )
    return log_lik + latent_prior + param_prior + latent_entropy + param_entropy


class TestElboColumnSums:
    """The collapsed bound against the full per-element bound, on M-step states."""

    def test_matches_per_element_reference_on_toy_state(self):
        x, (r, b), post, prior = toy_state()
        value = bound(x, r, b, post, prior)
        assert value == pytest.approx(reference_elbo(x, r, b, post, prior), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 6])
    def test_matches_per_element_reference(self, rng, k):
        x, (r, b), post, prior = random_state(rng, n=60, k=k, d=4)
        if k > 1:
            r[0, 0] = 0.0  # an exactly empty cell: r log r is 0 there
            r[0] /= r[0].sum()
            post = one_class_m_step(x, r, b, prior)
        value = bound(x, r, b, post, prior)
        assert value == pytest.approx(reference_elbo(x, r, b, post, prior), rel=1e-12)

    def test_log_multigamma_equals_scipy(self, rng):
        for d in range(1, 11):
            eta = d - 1.0 + rng.gamma(2.0, 10.0, size=9)
            assert np.array_equal(vb._log_multigamma(0.5 * eta, d), multigammaln(0.5 * eta, d))
            one = vb._log_multigamma(0.5 * eta[0], d)
            assert np.shape(one) == () and one == multigammaln(0.5 * eta[0], d)


class TestPrune:
    def test_dead_component_removed(self):
        r = np.array([[[1.0 - 1e-12, 1e-12]] * 300])
        b = np.tile([3.0, 4.0], (1, 300, 1))
        r, b, live = prune(r, b, np.ones((1, 2), dtype=bool))
        assert r.shape == b.shape == (1, 300, 1)
        assert np.allclose(r, 1.0)
        assert np.array_equal(b, np.full((1, 300, 1), 3.0))
        assert np.array_equal(live, [[True]])

    def test_no_op_when_all_alive(self):
        r = np.full((1, 20, 2), 0.5)
        b = np.full((1, 20, 2), 3.0)
        live = np.ones((1, 2), dtype=bool)
        out = prune(r, b, live)
        assert all(got is given for got, given in zip(out, (r, b, live), strict=True))

    def test_refuses_to_prune_everything(self):
        # no component reaches the threshold: the largest one is kept
        r, b, live = prune(
            np.array([[[3e-4, 7e-4]]]), np.array([[[3.0, 4.0]]]), np.ones((1, 2), dtype=bool)
        )
        assert np.array_equal(r, [[[1.0]]])
        assert np.array_equal(b, [[[4.0]]])
        assert np.array_equal(live, [[True]])

    def test_classes_prune_on_their_own(self, rng):
        # member 0 loses its second component, so its third moves to the
        # second column; member 1, whose last two rows are padding and whose
        # third column is masked, loses none. Two columns remain.
        r0 = np.tile([0.6, 1e-9, 0.4 - 1e-9], (5, 1))
        r1 = np.vstack([rng.dirichlet(np.ones(2), size=3), np.zeros((2, 2))])
        r = np.stack([r0, np.hstack([r1, np.zeros((5, 1))])])
        b = rng.uniform(1.0, 4.0, r.shape)
        live = np.array([[True, True, True], [True, True, False]])
        out, b_out, kept = prune(r, b, live)
        assert np.array_equal(kept, [[True, True], [True, True]])
        assert np.array_equal(out[1], r[1, :, :2])
        assert np.array_equal(b_out[0], b[0][:, [0, 2]])
        assert np.array_equal(b_out[1], b[1, :, :2])
        assert np.allclose(out[0], np.tile([0.6, 0.4], (5, 1)), rtol=1e-8, atol=0.0)
        assert np.allclose(out[0].sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        # the input is left as it was
        assert r[0, 0, 1] == 1e-9

    def test_narrower_class_keeps_masked_columns(self):
        # member 0 keeps two components, member 1 one: member 1's second
        # column is masked with zero responsibility
        r = np.array([[[0.5, 0.5, 0.0]] * 4, [[1.0 - 1e-9, 1e-9, 0.0]] * 4])
        live = np.array([[True, True, False], [True, True, False]])
        out, _, kept = prune(r, np.full(r.shape, 2.0), live)
        assert np.array_equal(kept, [[True, True], [True, False]])
        assert np.array_equal(out[0], r[0, :, :2])
        assert np.array_equal(out[1], np.tile([1.0, 0.0], (4, 1)))

    def test_cut_class_is_renormalised_as_if_alone(self, rng):
        # member 0 loses its middle component while member 1 keeps all three,
        # so member 0 is narrower than the batch; its survivors hold the same
        # bits as when it is pruned alone, which is the plain column slice
        r0 = rng.dirichlet(np.ones(3), size=6)
        r0[:, 1] = 1e-9
        r = np.stack([r0, rng.dirichlet(np.ones(3), size=6)])
        b = rng.uniform(1.0, 4.0, r.shape)
        live = np.ones((2, 3), dtype=bool)
        out, b_out, kept = prune(r, b, live)
        alone, _, _ = prune(r[:1], b[:1], live[:1])
        sliced = r0[:, [0, 2]]
        assert np.array_equal(kept, [[True, True, False], [True, True, True]])
        assert np.array_equal(out[0, :, :2], sliced / sliced.sum(axis=1, keepdims=True))
        assert np.array_equal(out[0, :, :2], alone[0])
        assert np.array_equal(out[0, :, 2], np.zeros(6))
        assert np.array_equal(out[1], r[1]) and np.array_equal(b_out[1], b[1])


class TestFit:
    def test_dataset_without_rows_rejected(self):
        data = FeatureDataset(np.empty((0, 2)), [], [], [])
        with pytest.raises(ValueError, match="^training data has no rows$"):
            fit(data, simple_prior(d=2), VbConfig(seed=0))

    def test_elbo_traces_non_decreasing(self):
        data = two_blob_dataset(seed=11, n_per_class=250)
        prior = build_default_prior(data, nu_fixed=5.0, k_init=3)
        tc = fit(data, prior, VbConfig(seed=11))
        for cm in tc.classes:
            diffs = np.diff(cm.elbo_trace)
            assert diffs.size == 0 or diffs.min() >= -1e-8

    def test_identical_classes_give_half_posteriors(self, rng):
        feats = rng.standard_normal((120, 2))
        data = FeatureDataset(
            features=np.vstack([feats, feats]),
            labels=np.concatenate([np.ones(120, int), np.full(120, 2)]),
            trials=np.ones(240, int),
            participants=np.ones(240, int),
        )
        prior = build_default_prior(data, nu_fixed=5.0, k_init=1)
        tc = fit(data, prior, VbConfig(seed=0))
        for _ in range(10):
            probe = rng.standard_normal(2) * 2
            log_post, _ = predict_batch(tc, probe[None, :])
            post = np.exp(log_post[0])
            assert np.allclose(post, 0.5, atol=0.01)

    def test_surviving_components_bounded_on_unimodal_data(self):
        data = two_blob_dataset(seed=21, n_per_class=500)
        prior = build_default_prior(data, nu_fixed=5.0, k_init=10, alpha0=0.001)
        tc = fit(data, prior, VbConfig(seed=21))
        for cm in tc.classes:
            assert cm.n_components <= 3
            assert cm.n_pruned >= 7

    def test_effective_count_conservation_and_row_sums(self):
        data = two_blob_dataset(seed=5, n_per_class=150)
        prior = build_default_prior(data, nu_fixed=3.0, k_init=4)
        rows = data.features[data.labels == 1]
        r = np.random.default_rng(0).dirichlet(np.ones(4), size=rows.shape[0])
        post = one_class_m_step(rows, r, np.full((rows.shape[0], 4), 2.5), prior)
        for _ in range(5):
            r, b = one_class_e_step(rows, post, prior)
            assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)
            assert r.sum(axis=0).sum() == pytest.approx(rows.shape[0], abs=1e-8)
            post = one_class_m_step(rows, r, b, prior)

    def test_permutation_equivariance_at_convergence(self, rng, monkeypatch):
        data = two_blob_dataset(seed=31, n_per_class=200, centers=((0, 0), (6, 6)))
        perm = rng.permutation(data.n_rows)
        shuffled = FeatureDataset(
            data.features[perm], data.labels[perm], data.trials[perm], data.participants[perm]
        )
        prior = build_default_prior(data, nu_fixed=5.0, k_init=2)
        monkeypatch.setattr(vb, "_ELBO_REL_TOL", 1e-12)
        cfg = VbConfig(seed=9, max_iters=3000)
        tc_a = fit(data, prior, cfg)
        tc_b = fit(shuffled, prior, cfg)
        for cm_a, cm_b in zip(tc_a.classes, tc_b.classes):
            ms_a = sorted(tuple(m) for m in cm_a.components.m)
            ms_b = sorted(tuple(m) for m in cm_b.components.m)
            assert len(ms_a) == len(ms_b)
            for va, vb_ in zip(ms_a, ms_b):
                assert np.allclose(va, vb_, atol=1e-6)

    def test_deterministic_for_fixed_seed(self):
        data = two_blob_dataset(seed=41, n_per_class=100)
        prior = build_default_prior(data, nu_fixed=5.0, k_init=5)
        a = fit(data, prior, VbConfig(seed=3))
        b = fit(data, prior, VbConfig(seed=3))
        for cm_a, cm_b in zip(a.classes, b.classes):
            assert cm_a.elbo_trace == cm_b.elbo_trace
            assert np.array_equal(cm_a.components.m, cm_b.components.m)
            assert np.array_equal(cm_a.components.W, cm_b.components.W)

    def test_training_log_lines(self):
        data = two_blob_dataset(seed=61, n_per_class=50)
        prior = build_default_prior(data, nu_fixed=5.0, k_init=1)
        lines = []
        tc = fit(data, prior, VbConfig(seed=0), log_sink=lines.append)
        assert lines
        assert all("class=" in ln and "elbo=" in ln and "components=" in ln for ln in lines)
        fields = [dict(f.split("=") for f in ln.split()) for ln in lines]
        cids = [int(f["class"]) for f in fields]
        assert cids == sorted(cids)
        assert len(lines) == sum(len(cm.elbo_trace) for cm in tc.classes)
        for cm in tc.classes:
            iters = [int(f["iter"]) for f in fields if int(f["class"]) == cm.class_id]
            assert iters == list(range(1, len(cm.elbo_trace) + 1))

    def test_non_convergence_flag(self):
        data = two_blob_dataset(seed=71, n_per_class=200)
        prior = build_default_prior(data, nu_fixed=5.0, k_init=5)
        tc = fit(data, prior, VbConfig(seed=0, max_iters=2))
        assert any(not cm.converged for cm in tc.classes)

    def test_class_prior_is_uniform_on_unbalanced_data(self):
        data = two_blob_dataset(seed=81, n_per_class=100)
        unbalanced = FeatureDataset(
            data.features[:150],
            data.labels[:150],
            data.trials[:150],
            data.participants[:150],
        )  # 100 rows of class 1, 50 of class 2
        prior = build_default_prior(unbalanced, nu_fixed=5.0, k_init=1)
        tc = fit(unbalanced, prior, VbConfig(seed=0))
        assert np.allclose(np.exp(tc.class_log_prior), [0.5, 0.5])

    @pytest.mark.parametrize("nu", [1e-3, 0.3, 5.0, 200.0])
    def test_components_store_the_given_nu_exactly(self, nu):
        rng = np.random.default_rng(8)
        data = FeatureDataset(
            features=rng.standard_normal((120, 8)),
            labels=np.repeat([1, 2], 60),
            trials=np.ones(120, int),
            participants=np.ones(120, int),
        )
        prior = build_default_prior(data, nu_fixed=nu, k_init=3)
        tc = fit(data, prior, VbConfig(seed=0, max_iters=15))
        for cm in tc.classes:
            assert np.all(cm.nu == nu)

    def test_ml_nu_keeps_the_fit_at_each_chosen_nu(self):
        data = two_blob_dataset(seed=91, n_per_class=60)
        prior = build_default_prior(data, nu_fixed=5.0, k_init=2)
        cfg = VbConfig(seed=4, max_iters=40)
        tc = fit_ml_nu(data, prior, cfg)
        grid = [fit(data, replace(prior, nu_fixed=float(nu)), cfg) for nu in vb._ML_NU_GRID]
        for i, cm in enumerate(tc.classes):
            nu = float(cm.nu[0])
            assert nu in vb._ML_NU_GRID and np.all(cm.nu == nu)
            # fit_ml_nu keeps fit's model of the class at its chosen nu, bit for bit
            want = fit(data, replace(prior, nu_fixed=nu), cfg).classes[i]
            assert cm.elbo_trace == want.elbo_trace
            assert cm.n_components == want.n_components
            for key, expected in vars(want.components).items():
                assert np.array_equal(getattr(cm.components, key), expected), key
            # no grid value gives the class a higher final bound
            assert max(other.classes[i].elbo_trace[-1] for other in grid) == cm.elbo_trace[-1]

    def test_one_factorisation_and_update_per_iteration(self, monkeypatch):
        # what the benchmark's spans around these module attributes count: the
        # classes train in lockstep, so each update runs once per iteration of
        # the batch, whose length is that of the longest-running class
        calls = dict.fromkeys(
            ("e_step", "m_step", "elbo", "cholesky", "component_cache", "mahalanobis_sq_batch"),
            0,
        )
        for name in calls:
            original = getattr(vb, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(vb, name, counted)
        data = two_blob_dataset(seed=21, n_per_class=150)
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        tc = fit(data, prior, VbConfig(seed=21))
        iterations = max(len(cm.elbo_trace) for cm in tc.classes)
        assert sum(cm.n_pruned for cm in tc.classes) > 0  # the pruning path ran
        assert len({len(cm.elbo_trace) for cm in tc.classes}) > 1  # a class left early
        assert calls["e_step"] == calls["elbo"] == iterations
        assert calls["m_step"] == calls["component_cache"] == iterations + 1
        assert calls["cholesky"] == calls["component_cache"]
        # the distances expand over the batch's row statistics, not the kernel
        assert calls["mahalanobis_sq_batch"] == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VbConfig(max_iters=0)


def class_sizes_dataset(seed, sizes, spreads, d=2):
    """Classes of the given sizes, each two sub-blobs ``3 * spread`` apart."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for cid, (n, spread) in enumerate(zip(sizes, spreads), start=1):
        side = np.where(rng.integers(0, 2, n) == 1, 1.5, -1.5)[:, None]
        feats.append(4.0 * rng.standard_normal(d) + spread * side + rng.standard_normal((n, d)))
        labels.append(np.full(n, cid))
    ones = np.ones(sum(sizes), int)
    return FeatureDataset(np.vstack(feats), np.concatenate(labels), ones, ones)


def assert_fits_agree(got, want):
    """A class fit in a batch against its fit alone: the same iterations, pruning
    and convergence, bounds within 1e-12 relative, and each posterior array
    within 1e-12 of its largest entry. Padding and masking change the order
    in which numpy sums some terms, so equality is not bit for bit."""
    assert len(got.elbo_trace) == len(want.elbo_trace)
    assert (got.n_pruned, got.converged) == (want.n_pruned, want.converged)
    assert np.allclose(got.elbo_trace, want.elbo_trace, rtol=1e-12, atol=0.0)
    for key, expected in vars(want.components).items():
        actual = getattr(got.components, key)
        assert actual.shape == expected.shape, key
        assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max(), key


def assert_classes_match_their_fits_alone(tc, data, prior, config):
    """Each class of a batched fit against the fit of that class alone (a batch of one)."""
    for idx, cm in enumerate(tc.classes):
        rows = data.features[data.labels == cm.class_id]
        (alone,) = vb._fit_lockstep([rows], [cm.class_id], [[config.seed, idx]], prior, config)
        assert_fits_agree(cm, alone)


class TestLockstep:
    """The classes of one fit train as a batch; each matches its fit alone."""

    def test_unequal_class_sizes(self):
        data = class_sizes_dataset(0, (40, 90, 25), (0.0, 2.0, 1.0))
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        config = VbConfig(seed=0)
        assert_classes_match_their_fits_alone(fit(data, prior, config), data, prior, config)

    def test_class_with_fewer_rows_than_initial_components(self):
        data = class_sizes_dataset(0, (40, 90, 4), (0.0, 2.0, 1.0))
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        config = VbConfig(seed=0)
        tc = fit(data, prior, config)
        # the small class starts with 4 components, the others with 6
        assert [cm.n_components + cm.n_pruned for cm in tc.classes] == [6, 6, 4]
        assert_classes_match_their_fits_alone(tc, data, prior, config)

    def test_classes_converging_far_apart(self):
        data = class_sizes_dataset(3, (40, 90, 30), (0.0, 2.0, 1.0))
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        config = VbConfig(seed=3)
        tc = fit(data, prior, config)
        lengths = [len(cm.elbo_trace) for cm in tc.classes]
        assert max(lengths) - min(lengths) >= 10
        assert all(cm.converged for cm in tc.classes)
        assert_classes_match_their_fits_alone(tc, data, prior, config)

    def test_one_class_hits_the_cap_while_others_converge(self):
        data = class_sizes_dataset(3, (40, 90, 30), (0.0, 2.0, 1.0))
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        lengths = sorted(len(cm.elbo_trace) for cm in fit(data, prior, VbConfig(seed=3)).classes)
        config = VbConfig(seed=3, max_iters=lengths[-2] + 2)
        tc = fit(data, prior, config)
        assert [cm.converged for cm in tc.classes].count(False) == 1
        assert max(len(cm.elbo_trace) for cm in tc.classes) == config.max_iters
        assert_classes_match_their_fits_alone(tc, data, prior, config)

    def test_training_log_matches_the_fits_alone(self):
        data = class_sizes_dataset(3, (40, 90, 30), (0.0, 2.0, 1.0))
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        config = VbConfig(seed=3)
        lines = []
        fit(data, prior, config, log_sink=lines.append)
        alone = []
        for idx, cid in enumerate(data.class_ids):
            rows = data.features[data.labels == cid]
            vb._fit_lockstep([rows], [cid], [[3, idx]], prior, config, alone.append)
        assert lines == alone

    def test_bound_matches_the_reference_at_every_iteration(self, monkeypatch):
        # classes of 40, 90 and 4 rows, so two are padded and the small one
        # starts with 4 of the batch's 6 columns; each class's bound, on its
        # own rows and live columns, against the full per-element bound
        data = class_sizes_dataset(0, (40, 90, 4), (0.0, 2.0, 1.0))
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        traces, seen = {}, set()
        original = vb.elbo

        def checked(r, b, post, cache, terms):
            bounds = original(r, b, post, cache, terms)
            for j, (cid, n, k) in enumerate(
                zip(cache.batch.class_ids, cache.batch.n_rows, cache.live.sum(axis=1))
            ):
                seen.update({"padded"} if n < r.shape[1] else set())
                seen.update({"masked"} if k < r.shape[2] else set())
                own = Posteriors(**{key: value[j, :k] for key, value in vars(post).items()})
                rows = (data.features[data.labels == cid], r[j, :n, :k], b[j, :n, :k])
                assert bounds[j] == pytest.approx(reference_elbo(*rows, own, prior), rel=1e-12)
                trace = traces.setdefault(cid, [])
                assert not trace or bounds[j] >= trace[-1]
                trace.append(bounds[j])
            return bounds

        monkeypatch.setattr(vb, "elbo", checked)
        blocks = [data.features[data.labels == cid] for cid in data.class_ids]
        seeds = [[0, i] for i in range(len(blocks))]
        models = vb._fit_lockstep(blocks, data.class_ids, seeds, prior, VbConfig(seed=0))
        assert seen == {"padded", "masked"}
        assert sum(cm.n_pruned for cm in models) > 0
        assert [traces[cm.class_id] for cm in models] == [list(cm.elbo_trace) for cm in models]

    def test_padding_rows_carry_no_weight(self):
        batch, post, prior, cache = two_class_state()
        assert batch.n_rows.tolist() == [6, 4]
        assert np.array_equal(batch.xc[1, 4:], np.repeat(batch.xc[1, :1], 2, axis=0))
        r, _ = e_step(cache, prior.nu_fixed)
        assert np.array_equal(r[1, 4:], np.zeros((2, 2)))
        assert np.allclose(r[0].sum(axis=1), 1.0) and np.allclose(r[1, :4].sum(axis=1), 1.0)
        # with no padding row every row weighs 1
        unpadded = ClassBatch.pad([batch.xc[0], batch.xc[0][::-1]], (3, 7), prior)
        assert np.array_equal(unpadded.weight, np.ones((2, 6, 1)))
        r, _ = e_step(component_cache(unpadded, post, cache.live), prior.nu_fixed)
        assert np.allclose(r.sum(axis=2), 1.0)

    def test_classes_are_batched_within_the_size_budget(self):
        # B * n * k * d of a batch stays within vb._BATCH_NUMBERS (2**16)
        blocks = [np.zeros((n, 8)) for n in (50, 50, 2000, 40, 30)]
        assert vb._lockstep_groups(blocks, k_init=10) == [[0, 1], [2], [3, 4]]
        assert vb._lockstep_groups(blocks, k_init=1) == [[0, 1, 2, 3], [4]]

    def test_split_batches_match_one_batch(self, monkeypatch):
        data = class_sizes_dataset(3, (40, 90, 30), (0.0, 2.0, 1.0))
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        config = VbConfig(seed=3)
        one_lines, split_lines = [], []
        one = fit(data, prior, config, log_sink=one_lines.append)
        monkeypatch.setattr(vb, "_BATCH_NUMBERS", 1)  # every class trains alone
        split = fit(data, prior, config, log_sink=split_lines.append)
        assert split_lines == one_lines
        for got, want in zip(split.classes, one.classes):
            assert_fits_agree(got, want)

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_a_class_far_from_the_prior_mean_agrees_less_closely(self, offset):
        # the sub-cluster class lies about offset / 2 from the prior mean, in
        # units of the prior's scale, and a batch sums some of its terms in
        # another order than a lone fit does; the distance amplifies that.
        # Measured, batched against alone: beta moved by 1.8e-12 of its
        # largest entry at 1e3 (means and scales 3.9e-14, the bound 7.4e-11)
        # and by 6.5e-7 at 1e6 (the bound 5.9e-6), the near class by 3.9e-16
        data = near_and_far_classes(offset)
        prior = build_default_prior(data.subset(data.labels == 1), nu_fixed=5.0, k_init=4)
        config = VbConfig(seed=0)
        tc = fit(data, prior, config)
        alone = [
            vb._fit_lockstep([data.features[data.labels == cid]], [cid], [[0, i]], prior, config)[0]
            for i, cid in enumerate(tc.class_ids)
        ]
        near, far = tc.classes
        assert_fits_agree(near, alone[0])
        assert len(far.elbo_trace) == len(alone[1].elbo_trace)
        assert (far.n_components, far.n_pruned, far.converged) == (
            alone[1].n_components, alone[1].n_pruned, alone[1].converged,
        )
        _, labels = predict_batch(tc, data.features)
        _, labels_alone = predict_batch(replace(tc, classes=tuple(alone)), data.features)
        assert np.array_equal(labels, labels_alone)
        if offset == 1e3:
            assert np.allclose(far.elbo_trace, alone[1].elbo_trace, rtol=1e-9, atol=0.0)
            for key, expected in vars(alone[1].components).items():
                scale = np.abs(expected).max()
                tol = 1e-13 if key in ("m", "W") else 1e-11
                assert np.abs(getattr(far.components, key) - expected).max() <= tol * scale, key


class TestFitEach:
    """The classes of several training sets train in shared batches."""

    def test_fold_batch_matches_the_fits_alone(self, lockstep_batches):
        data = class_sizes_dataset(3, (40, 90, 30), (0.0, 2.0, 1.0))
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        config = VbConfig(seed=3)
        fold_of = np.arange(data.n_rows) % 3
        sets = [data.subset(fold_of != fold) for fold in range(3)]
        together = vb.fit_each(sets, prior, config)
        assert lockstep_batches == [9]  # all three sets' classes in one batch
        for got, part in zip(together, sets):
            want = fit(part, prior, config)
            assert got.class_ids == want.class_ids == [1, 2, 3]
            assert np.array_equal(got.class_log_prior, want.class_log_prior)
            for got_class, want_class in zip(got.classes, want.classes):
                assert_fits_agree(got_class, want_class)

    def test_classifiers_list_increasing_class_ids(self):
        # the labels first appear as 7, 2, 5, and skip values
        labels = np.repeat([7, 2, 5], 12)
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((36, 2)) + labels[:, None]
        data = FeatureDataset(feats, labels, np.ones(36, int), np.ones(36, int))
        prior = build_default_prior(data, nu_fixed=5.0)
        config = VbConfig(seed=0, max_iters=20)
        fits = [
            fit(data, prior, config),
            fit_ml_nu(data, prior, config),
            *vb.fit_each([data, data.subset(labels != 2)], prior, config),
        ]
        assert [tc.class_ids for tc in fits] == [[2, 5, 7]] * 3 + [[5, 7]]

    def test_fit_is_fit_each_of_one_set(self):
        data = class_sizes_dataset(3, (40, 90, 30), (0.0, 2.0, 1.0))
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        config = VbConfig(seed=3)
        fit_lines, each_lines = [], []
        one = fit(data, prior, config, log_sink=fit_lines.append)
        (each,) = vb.fit_each([data], prior, config, log_sink=each_lines.append)
        assert fit_lines == each_lines
        assert np.array_equal(one.class_log_prior, each.class_log_prior)
        for a, b in zip(one.classes, each.classes, strict=True):
            assert (a.class_id, a.n_pruned, a.converged) == (b.class_id, b.n_pruned, b.converged)
            assert a.elbo_trace == b.elbo_trace and a.alpha_hat == b.alpha_hat
            assert np.array_equal(a.nu, b.nu)
            for key, value in vars(a.components).items():
                assert np.array_equal(value, getattr(b.components, key)), key


def two_class_state(ids=(3, 7)):
    """A batch of two classes (6 and 4 rows, so two padding rows) and its cache."""
    rng = np.random.default_rng(5)
    prior = simple_prior(d=2, k_init=2)
    batch = ClassBatch.pad([rng.standard_normal((6, 2)), rng.standard_normal((4, 2))], ids, prior)
    r = np.full((2, 6, 2), 0.5) * batch.weight
    post = m_step(batch, r, np.full(r.shape, 2.0), prior)
    live = np.ones((2, 2), dtype=bool)
    return batch, post, prior, component_cache(batch, post, live)


class TestFailuresNameTheClass:
    """A numerical failure names its class: the lowest id when several fail."""

    @pytest.mark.parametrize("dead, message", [
        ([(1, 2)], "class 7: every component vanished for row 2"),
        ([(1, 1), (0, 4)], "class 3: every component vanished for row 4"),
    ])
    def test_dead_row(self, dead, message):
        _, _, prior, cache = two_class_state()
        d2 = cache.d2.copy()
        for member_index, row in dead:
            d2[member_index, row] = np.inf
        with pytest.raises(NumericalFailure, match=f"^{message}$"):
            e_step(replace(cache, d2=d2), prior.nu_fixed)

    @pytest.mark.parametrize("bad, cid", [([1], 7), ([1, 0], 3)])
    def test_non_finite_bound(self, bad, cid):
        _, post, prior, cache = two_class_state()
        r, b = e_step(cache, prior.nu_fixed)
        b[bad] = np.inf
        with np.errstate(all="ignore"), pytest.raises(
            NumericalFailure, match=f"^class {cid}: ELBO term 'latent' is not finite"
        ):
            elbo(r, b, post, cache, prior_terms(prior))

    def test_scale_that_is_not_positive_definite(self):
        batch, post, prior, cache = two_class_state()
        w = post.W.copy()
        w[1, 1] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(
            NumericalFailure, match=r"^class 7: component 1 is not positive definite \(pivot 1\)$"
        ):
            component_cache(batch, replace(post, W=w), cache.live)
