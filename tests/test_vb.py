import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import scalemix.vb as vb
from scalemix.data import FeatureDataset
from scalemix.model import ComponentPosterior, PriorHyperparameters, build_default_prior
from scalemix.predict import predict_batch
from scalemix.vb import (
    Posteriors,
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


def stack(records):
    """The stacked posteriors of a sequence of ComponentPosterior records."""
    return Posteriors(
        alpha=np.array([c.alpha for c in records]),
        beta=np.array([c.beta for c in records]),
        m=np.stack([c.m for c in records]),
        W=np.stack([c.W for c in records]),
        eta=np.array([c.eta for c in records]),
    )


def latent_update(points, records):
    """``(r, a, b)`` of the latent update under the given component records."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    nus = {c.nu for c in records}
    assert len(nus) == 1, "stacked components share one nu"
    cache = component_cache(x, stack(records), simple_prior(d=x.shape[1]))
    return e_step(cache, nus.pop())


def bound(x, r, a, b, post, prior):
    return elbo(r, a, b, post, component_cache(x, post, prior), prior_terms(prior))


def toy_state(seed=7):
    """Two latent/parameter update rounds on a 5-point 1-d problem."""
    rng = np.random.default_rng(seed)
    x = np.array([[0.3], [1.7], [-0.4], [2.2], [0.9]])
    prior = simple_prior()
    r = rng.dirichlet(np.ones(2), size=5)
    post = m_step(x, r, np.full((5, 2), 2.0), np.full((5, 2), 2.0), prior)
    r, a, b = e_step(component_cache(x, post, prior), prior.nu_fixed)
    post = m_step(x, r, a, b, prior)
    return x, (r, a, b), post, prior


EULER_MASCHERONI = 0.5772156649015329


class TestExpectations:
    """Posterior expectations, read from the outputs of the latent update.

    The scale rate ``b = E[delta^2] / 2 + nu / 2`` carries the expected
    squared Mahalanobis distance; at a point on the shared mean, the log
    ratio of two components' responsibilities carries the differences in
    E[log |Sigma|] and E[log pi].
    """

    def test_delta_sq_at_posterior_mean(self):
        comp = ComponentPosterior(1.0, 2.5, [0.4, -0.1], np.eye(2), 6.0, 5.0)
        _, _, b = latent_update(np.array([[0.4, -0.1], [1.4, 0.9]]), [comp])
        # dim / beta, plus eta times the squared distance (2 at the second point)
        assert b[0, 0] == pytest.approx(0.5 * (2.0 / 2.5) + 2.5, rel=1e-12)
        assert b[1, 0] == pytest.approx(0.5 * (2.0 / 2.5 + 6.0 * 2.0) + 2.5, rel=1e-12)

    def test_log_weight_difference(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        comps = [
            ComponentPosterior(alpha, 1.0, [0.0], [[1.0]], 4.0, 5.0) for alpha in (0.8, 1.9)
        ]
        r, _, _ = latent_update(np.array([[0.0], [2.0]]), comps)
        expected = float(mp.digamma(mp.mpf(0.8)) - mp.digamma(mp.mpf(1.9)))
        log_ratio = np.log(r[:, 0] / r[:, 1])
        assert np.allclose(log_ratio, expected, rtol=0.0, atol=1e-12)

    def test_log_sigma_tilde_formula(self):
        # E[log |Sigma|] = -sum_j psi((eta + 1 - j) / 2) - d log 2 + log |W|;
        # psi(2) = 1 - gamma, psi(3) = 3/2 - gamma, psi(7/2) = psi(5/2) + 2/5
        narrow = ComponentPosterior(1.0, 1.0, [0.0, 0.0], np.eye(2), 5.0, 5.0)
        wide = ComponentPosterior(1.0, 1.0, [0.0, 0.0], 2.0 * np.eye(2), 7.0, 5.0)
        r, _, _ = latent_update(np.zeros((1, 2)), [narrow, wide])
        lsig_diff = 0.4 + 0.5 - 2.0 * math.log(2.0)  # narrow minus wide
        log_ratio = math.log(r[0, 0] / r[0, 1])
        assert log_ratio == pytest.approx(-0.5 * lsig_diff, abs=1e-12)

    def test_eta_precondition(self):
        # eta <= dim - 1 would break the digamma arguments; the parameter
        # record already refuses to hold such a value
        with pytest.raises(ValueError):
            ComponentPosterior(1.0, 1.0, [0.0, 0.0], np.eye(2), 0.9, 5.0)


class TestEStep:
    def test_single_component_gives_unit_responsibility(self):
        comp = ComponentPosterior(1.0, 1.0, [0.0], [[1.0]], 3.0, 5.0)
        r, a, _ = latent_update(np.array([[0.1], [5.0], [-2.0]]), [comp])
        assert np.allclose(r, 1.0)
        assert np.allclose(a, (5.0 + 1.0) / 2.0)

    def test_symmetric_components_on_axis(self):
        left = ComponentPosterior(1.0, 2.0, [-1.0], [[1.0]], 3.0, 5.0)
        right = ComponentPosterior(1.0, 2.0, [1.0], [[1.0]], 3.0, 5.0)
        r, _, _ = latent_update(np.array([[0.0]]), [left, right])
        assert r[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_high_precision_reference(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        comps = [
            ComponentPosterior(0.8, 1.5, [-0.5], [[0.9]], 3.2, 2.5),
            ComponentPosterior(1.9, 0.7, [1.2], [[1.8]], 4.1, 2.5),
        ]
        x = np.array([[0.0], [1.0], [-2.0]])
        r, _, _ = latent_update(x, comps)
        alpha_hat = mp.mpf(0.8) + mp.mpf(1.9)
        rows = []
        for xi in x[:, 0]:
            vals = []
            for c in comps:
                eta = mp.mpf(c.eta)
                beta = mp.mpf(c.beta)
                w = mp.mpf(float(c.W[0, 0]))
                nu = mp.mpf(c.nu)
                lsig = -mp.digamma(eta / 2) - mp.log(2) + mp.log(w)
                d2 = 1 / beta + eta * (mp.mpf(float(xi)) - mp.mpf(float(c.m[0]))) ** 2 / w
                lpi = mp.digamma(mp.mpf(c.alpha)) - mp.digamma(alpha_hat)
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
        comps = [
            ComponentPosterior(1.0, 1.0, rng.standard_normal(2), np.eye(2), 5.0, 4.0),
            ComponentPosterior(2.0, 1.5, rng.standard_normal(2), 2 * np.eye(2), 6.0, 4.0),
            ComponentPosterior(0.5, 0.5, rng.standard_normal(2), 0.5 * np.eye(2), 4.0, 4.0),
        ]
        x = rng.standard_normal((200, 2)) * 3
        r, _, _ = latent_update(x, comps)
        assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)
        assert r.sum(axis=0).sum() == pytest.approx(200.0, abs=1e-8)


class TestMStep:
    def test_counts_and_weighted_moments(self):
        # the statistics, read back from the posteriors they produce
        x = np.array([[1.0], [3.0], [5.0]])
        r = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        a = np.full((3, 2), 2.0)
        b = np.array([[2.0, 2.0], [4.0, 1.0], [2.0, 2.0]])
        prior = simple_prior(alpha0=0.5, beta0=2.0, eta0=3.0)
        post = m_step(x, r, a, b, prior)
        assert np.allclose(post.alpha - prior.alpha0, [1.5, 1.5])
        assert np.allclose(post.eta - prior.eta0, [1.5, 1.5])
        # zeta = r * a / b per column
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
        post = m_step(x, np.ones((100, 1)), np.full((100, 1), 3.5), np.full((100, 1), 3.5), prior)
        assert post.alpha[0] == pytest.approx(100.001, rel=1e-12)
        assert post.eta[0] == pytest.approx(103.0, rel=1e-12)

    def test_matches_direct_reference_computation(self):
        # 1-d, 4 points, hand-set responsibilities and scale posteriors
        x = np.array([[0.5], [1.5], [-1.0], [2.0]])
        r = np.array([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4], [0.2, 0.8]])
        a = np.array([[2.0, 2.0]] * 4)
        b = np.array([[1.5, 2.5], [2.0, 1.0], [3.0, 2.0], [1.0, 4.0]])
        prior = simple_prior(alpha0=0.5, beta0=2.0, eta0=3.0, nu=3.0)
        post = m_step(x, r, a, b, prior)
        for k in range(2):
            zeta = r[:, k] * (a[:, k] / b[:, k])
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
        a = np.full((40, 4), 2.5)
        b = rng.uniform(1.0, 4.0, size=(40, 4))
        prior = simple_prior(d=3)
        full = m_step(x, r, a, b, prior)
        keep = np.array([True, False, True, True])
        part = m_step(x, r[:, keep], a[:, keep], b[:, keep], prior)
        for name, values in vars(part).items():
            assert np.allclose(values, getattr(full, name)[keep], rtol=1e-14, atol=0), name

    def test_zero_mass_component_keeps_prior(self):
        x = np.array([[0.5], [1.5]])
        prior = simple_prior()
        r = np.array([[1.0, 0.0], [1.0, 0.0]])
        a = np.full((2, 2), 2.0)
        b = np.full((2, 2), 2.0)
        post = m_step(x, r, a, b, prior)
        assert post.alpha[1] == prior.alpha0
        assert post.beta[1] == prior.beta0
        assert np.array_equal(post.m[1], prior.m0)
        assert np.array_equal(post.W[1], prior.W0)

    def test_prior_dominance_single_point(self):
        # with one data point the posterior mean is a convex combination
        prior = simple_prior(d=1, beta0=1.0, nu=5.0, k_init=1)
        x = np.array([[4.0]])
        post = m_step(x, np.ones((1, 1)), np.full((1, 1), 3.0), np.full((1, 1), 3.0), prior)
        assert prior.m0[0] <= post.m[0, 0] <= 4.0


class TestElbo:
    def test_zero_with_no_data_and_prior_posteriors(self):
        prior = simple_prior(d=2, k_init=3)
        record = ComponentPosterior(
            prior.alpha0, prior.beta0, prior.m0, prior.W0, prior.eta0, prior.nu_fixed
        )
        empty = np.zeros((0, 3))
        value = bound(np.zeros((0, 2)), empty, empty, empty, stack([record] * 3), prior)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_wishart_normaliser_against_mpmath(self):
        # With no data and a posterior equal to the prior except in eta, the
        # bound is minus the KL divergence between two inverse-Wisharts of one
        # scale: (eta0 - eta)/2 sum_j psi((eta + 1 - j)/2) - ln G_d(eta0/2) + ln G_d(eta/2)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50

        def log_multigamma(a, d):
            out = mp.mpf(d * (d - 1)) / 4 * mp.log(mp.pi)
            for j in range(1, d + 1):
                out += mp.loggamma(mp.mpf(a) + mp.mpf(1 - j) / 2)
            return out

        for a, d in ((1.2, 2), (2.5, 4), (7.0, 5), (4.0, 8)):
            base = simple_prior(d=d, k_init=1)
            prior = replace(base, eta0=2.0 * a)
            post = ComponentPosterior(
                base.alpha0, base.beta0, base.m0, base.W0, base.eta0, base.nu_fixed
            )
            empty = np.zeros((0, 1))
            value = bound(np.zeros((0, d)), empty, empty, empty, stack([post]), prior)

            eta = mp.mpf(base.eta0)
            psi_sum = sum(mp.digamma((eta + 1 - j) / 2) for j in range(1, d + 1))
            lg_prior = log_multigamma(a, d)
            lg_post = log_multigamma(eta / 2, d)
            ref = (mp.mpf(2.0 * a) - eta) / 2 * psi_sum - lg_prior + lg_post
            scale = max(1.0, abs(float(lg_prior)), abs(float(lg_post)))
            assert abs(value - float(ref)) <= 1e-12 * scale

    def test_matches_monte_carlo_oracle(self):
        # independent estimate of E_q[ln p(X, Z, U, theta) - ln q(Z, U, theta)]
        x, (r, a, b), post, prior = toy_state(seed=7)
        value = bound(x, r, a, b, post, prior)

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
            u_n = 1.0 / rng.gamma(a[n, z_n], 1.0 / b[n, z_n])
            lp += stats.norm.logpdf(
                x[n, 0], mu_s[rows, z_n], np.sqrt(u_n * sig_s[rows, z_n])
            )
            lp += np.log(pi_s[rows, z_n])
            lp += stats.invgamma.logpdf(u_n, nu / 2, scale=nu / 2)
            lq += np.log(r[n, z_n])
            lq += stats.invgamma.logpdf(u_n, a[n, z_n], scale=b[n, z_n])
        diff = lp - lq
        se = float(diff.std() / math.sqrt(m_draws))
        assert value == pytest.approx(float(diff.mean()), abs=max(5 * se, 0.02))

    def test_non_finite_term_is_named(self):
        x, (r, a, b), post, prior = toy_state()
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError):
            bound(x, r, a, np.full_like(b, np.inf), post, prior)


class TestPrune:
    def test_dead_component_removed(self):
        r = np.array([[1.0 - 1e-12, 1e-12]] * 300)
        a = np.tile([3.0, 4.0], (300, 1))
        r, a, b = prune(r, a, a.copy(), threshold=1e-3)
        assert r.shape == (300, 1)
        assert np.allclose(r, 1.0)
        assert np.array_equal(a, np.full((300, 1), 3.0))

    def test_no_op_when_all_alive(self):
        r = np.full((20, 2), 0.5)
        a = np.full((20, 2), 3.0)
        b = np.full((20, 2), 3.0)
        out = prune(r, a, b, threshold=1e-3)
        assert out[0] is r and out[1] is a and out[2] is b

    def test_refuses_to_prune_everything(self):
        # no component reaches the threshold: the largest one is kept
        r = np.array([[0.3, 0.7]])
        r, a, b = prune(r, np.full((1, 2), 3.0), np.array([[3.0, 4.0]]), threshold=10.0)
        assert np.array_equal(r, [[1.0]])
        assert np.array_equal(b, [[4.0]])


class TestFit:
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
        a = np.full((rows.shape[0], 4), 2.5)
        post = m_step(rows, r, a, a.copy(), prior)
        for _ in range(5):
            r, a, b = e_step(component_cache(rows, post, prior), prior.nu_fixed)
            assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)
            assert r.sum(axis=0).sum() == pytest.approx(rows.shape[0], abs=1e-8)
            post = m_step(rows, r, a, b, prior)

    def test_permutation_equivariance_at_convergence(self, rng):
        data = two_blob_dataset(seed=31, n_per_class=200, centers=((0, 0), (6, 6)))
        perm = rng.permutation(data.n_rows)
        shuffled = FeatureDataset(
            data.features[perm], data.labels[perm], data.trials[perm], data.participants[perm]
        )
        prior = build_default_prior(data, nu_fixed=5.0, k_init=2)
        cfg = VbConfig(seed=9, elbo_rel_tol=1e-12, max_iters=3000)
        tc_a = fit(data, prior, cfg)
        tc_b = fit(shuffled, prior, cfg)
        for cm_a, cm_b in zip(tc_a.classes, tc_b.classes):
            ms_a = sorted(tuple(c.m) for c in cm_a.components)
            ms_b = sorted(tuple(c.m) for c in cm_b.components)
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
            for c_a, c_b in zip(cm_a.components, cm_b.components):
                assert np.array_equal(c_a.m, c_b.m)
                assert np.array_equal(c_a.W, c_b.W)

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

    def test_empirical_class_prior_option(self):
        data = two_blob_dataset(seed=81, n_per_class=100)
        unbalanced = FeatureDataset(
            data.features[:150],
            data.labels[:150],
            data.trials[:150],
            data.participants[:150],
        )  # 100 rows of class 1, 50 of class 2
        prior = build_default_prior(unbalanced, nu_fixed=5.0, k_init=1)
        tc_uni = fit(unbalanced, prior, VbConfig(seed=0), class_prior="uniform")
        tc_emp = fit(unbalanced, prior, VbConfig(seed=0), class_prior="empirical")
        assert np.allclose(np.exp(tc_uni.class_log_prior), [0.5, 0.5])
        assert np.allclose(np.exp(tc_emp.class_log_prior), [100 / 150, 50 / 150])

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
            assert all(c.nu == nu for c in cm.components)

    def test_ml_nu_keeps_the_fit_at_each_chosen_nu(self):
        data = two_blob_dataset(seed=91, n_per_class=60)
        prior = build_default_prior(data, nu_fixed=5.0, k_init=2)
        cfg = VbConfig(seed=4, max_iters=40)
        tc = fit_ml_nu(data, prior, cfg, nu_bounds=(0.5, 50.0), coarse_points=5)
        for i, cm in enumerate(tc.classes):
            nu = cm.components[0].nu
            direct = fit(data, replace(prior, nu_fixed=nu), cfg).classes[i]
            assert cm.elbo_trace == direct.elbo_trace
            assert cm.n_components == direct.n_components
            for c, ref in zip(cm.components, direct.components):
                assert c.nu == ref.nu == nu
                assert (c.alpha, c.beta, c.eta) == (ref.alpha, ref.beta, ref.eta)
                assert np.array_equal(c.m, ref.m)
                assert np.array_equal(c.W, ref.W)

    def test_one_factorisation_and_update_per_iteration(self, monkeypatch):
        # what the benchmark's spans around these module attributes count
        calls = dict.fromkeys(("e_step", "m_step", "elbo", "cholesky"), 0)
        for name in calls:
            original = getattr(vb, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(vb, name, counted)
        data = two_blob_dataset(seed=21, n_per_class=150)
        prior = build_default_prior(data, nu_fixed=5.0, k_init=6)
        tc = fit(data, prior, VbConfig(seed=21))
        iterations = sum(len(cm.elbo_trace) for cm in tc.classes)
        fits = tc.n_classes
        assert sum(cm.n_pruned for cm in tc.classes) > 0  # the pruning path ran
        assert calls["e_step"] == calls["elbo"] == iterations
        assert calls["m_step"] == iterations + fits
        assert calls["cholesky"] <= iterations + fits

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VbConfig(max_iters=0)
        with pytest.raises(ValueError):
            VbConfig(elbo_rel_tol=0.0)
        with pytest.raises(ValueError):
            VbConfig(prune_threshold=-1.0)
