import math
from dataclasses import replace

import numpy as np
import pytest

from scalemix.density import StudentParams, log_marginal_density
from scalemix.model import (
    ClassModel,
    ComponentPosterior,
    PriorHyperparameters,
    TrainedClassifier,
)
from scalemix.data import CHUNK_ROWS
from scalemix.predict import (
    _Mixture,
    class_log_predictive,
    class_posterior,
    classify,
    log_posteriors_over_nu,
    predict_batch,
    prepare,
    sample,
)

from conftest import make_mixture_class, make_student_class


def uniform_classifier(class_models):
    c = len(class_models)
    d = class_models[0].dim
    prior = PriorHyperparameters(0.001, 1.0, np.zeros(d), np.eye(d), d + 1.0, 5.0)
    return TrainedClassifier(
        classes=tuple(class_models),
        class_log_prior=np.full(c, -math.log(c)),
        dim=d,
        prior=prior,
    )


class TestClassLogPredictive:
    def test_single_component_center_value(self):
        cm = make_student_class([1.0, -1.0], np.eye(2) * 0.5, nu=4.0)
        comp = cm.components[0]
        sigma = comp.W / (comp.eta - 2 - 1)
        expected = log_marginal_density(
            [1.0, -1.0], StudentParams(mu=comp.m, sigma=sigma, nu=4.0)
        )
        assert class_log_predictive([1.0, -1.0], cm) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_mixture_weight(self):
        # second component has negligible weight; the first one dominates
        cm = make_mixture_class(
            mus=[[0.0], [5.0]],
            sigmas=[[[1.0]], [[1.0]]],
            nus=[3.0, 3.0],
            counts=[1.0, 1e-14],
        )
        solo = make_student_class([0.0], [[1.0]], nu=3.0)
        for x in ([0.0], [1.5], [-2.0]):
            assert class_log_predictive(x, cm) == pytest.approx(
                class_log_predictive(x, solo), abs=1e-9
            )

    def test_matches_high_precision_mixture_sum(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        cm = make_mixture_class(
            mus=[[-0.8], [1.4]],
            sigmas=[[[0.6]], [[2.1]]],
            nus=[2.0, 2.0],
            counts=[2.0, 3.0],
        )
        for x in (-1.0, 0.0, 2.5):
            total = mp.mpf(0)
            for comp, weight in zip(cm.components, (2.0, 3.0)):
                nu = mp.mpf(comp.nu)
                sig = mp.mpf(float(comp.W[0, 0])) / mp.mpf(comp.eta - 2)
                d2 = (mp.mpf(x) - mp.mpf(float(comp.m[0]))) ** 2 / sig
                dens = (
                    mp.gamma((nu + 1) / 2)
                    / mp.gamma(nu / 2)
                    / mp.sqrt(sig)
                    / (mp.pi * nu) ** mp.mpf(0.5)
                    * (1 + d2 / nu) ** (-(nu + 1) / 2)
                )
                total += mp.mpf(weight) / 5 * dens
            assert class_log_predictive([x], cm) == pytest.approx(
                float(mp.log(total)), rel=1e-10
            )

    def test_eta_guard_names_component(self):
        comp = ComponentPosterior(1.0, 1.0, [0.0, 0.0], np.eye(2), 2.5, 5.0)
        cm = ClassModel(7, (comp,), 1.0, (0.0,), 0)
        with pytest.raises(ValueError, match="component 0 of class 7"):
            class_log_predictive([0.0, 0.0], cm)


class TestClassPosterior:
    def test_identical_classes_split_evenly(self):
        cm1 = make_student_class([0.0, 0.0], np.eye(2), 5.0, class_id=1)
        cm2 = make_student_class([0.0, 0.0], np.eye(2), 5.0, class_id=2)
        tc = uniform_classifier([cm1, cm2])
        post = class_posterior([0.7, -0.3], tc)
        assert np.allclose(np.exp(post.log_probs), [0.5, 0.5], atol=1e-12)

    def test_normalization(self, rng):
        cms = [
            make_student_class(rng.standard_normal(2), np.eye(2) * s, nu, class_id=i + 1)
            for i, (s, nu) in enumerate(((0.5, 2.0), (1.0, 5.0), (2.0, 50.0)))
        ]
        tc = uniform_classifier(cms)
        for _ in range(20):
            x = rng.standard_normal(2) * 4
            post = class_posterior(x, tc)
            assert np.exp(post.log_probs).sum() == pytest.approx(1.0, abs=1e-12)

    def test_finite_even_far_from_data(self):
        cm1 = make_student_class([0.0, 0.0], np.eye(2), 2.0, class_id=1)
        cm2 = make_student_class([4.0, 4.0], np.eye(2), 2.0, class_id=2)
        tc = uniform_classifier([cm1, cm2])
        post = class_posterior([600.0, -700.0], tc)
        assert np.all(np.isfinite(post.log_probs))

    def test_uniform_rescaling_invariance_of_argmax(self, rng):
        # multiplying every class predictive density by the same positive
        # constant (equivalently shifting all log joints) cannot change the
        # winner: the posterior argmax equals the unnormalized-joint argmax
        cm1 = make_student_class([0.0], [[1.0]], 5.0, class_id=1)
        cm2 = make_student_class([3.0], [[1.0]], 5.0, class_id=2)
        d = 1
        prior = PriorHyperparameters(0.001, 1.0, np.zeros(d), np.eye(d), d + 1.0, 5.0)
        base = np.log(np.array([0.3, 0.7]))
        tc = TrainedClassifier((cm1, cm2), base, d, prior)
        for x in rng.uniform(-2, 5, size=30):
            joint = np.array(
                [
                    base[0] + class_log_predictive([x], cm1),
                    base[1] + class_log_predictive([x], cm2),
                ]
            )
            for shift in (0.0, -700.0, 123.4):
                assert classify([x], tc) == int(np.argmax(joint + shift)) + 1


class TestClassify:
    def test_labels_at_class_centers(self):
        cm1 = make_student_class([0.0, 0.0], np.eye(2) * 0.5, 5.0, class_id=1)
        cm2 = make_student_class([5.0, 5.0], np.eye(2) * 0.5, 5.0, class_id=2)
        tc = uniform_classifier([cm1, cm2])
        assert classify([0.0, 0.0], tc) == 1
        assert classify([5.0, 5.0], tc) == 2

    def test_tie_breaks_to_lowest_class_id(self):
        cm1 = make_student_class([-1.0], [[1.0]], 5.0, class_id=1)
        cm2 = make_student_class([1.0], [[1.0]], 5.0, class_id=2)
        tc = uniform_classifier([cm1, cm2])
        assert classify([0.0], tc) == 1

    def test_batch_consistent_with_scalar(self, rng):
        cms = [
            make_student_class(rng.standard_normal(3), np.eye(3), 4.0, class_id=i + 1)
            for i in range(4)
        ]
        tc = uniform_classifier(cms)
        pts = rng.standard_normal((50, 3)) * 2
        log_post, labels = predict_batch(tc, pts)
        for i in range(50):
            assert classify(pts[i], tc) == labels[i]
            row = class_posterior(pts[i], tc).log_probs
            assert np.allclose(row, log_post[i], rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        cm = make_student_class([0.0, 0.0], np.eye(2), 5.0)
        tc = uniform_classifier([cm])
        with pytest.raises(ValueError):
            classify([0.0], tc)


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


class TestWithNu:
    @pytest.mark.parametrize("nu", [1e-3, 0.3, 5.0, 200.0])
    def test_matches_mixture_built_at_that_nu(self, rng, nu):
        d = 8
        cm = make_mixture_class(
            mus=rng.standard_normal((3, d)),
            sigmas=[random_spd(rng, d) for _ in range(3)],
            nus=[2.0, 7.0, 40.0],
            counts=[1.0, 2.5, 0.5],
        )
        at_nu = replace(cm, components=tuple(replace(c, nu=nu) for c in cm.components))
        pts = rng.standard_normal((300, d)) * 3
        swapped = _Mixture(cm).with_nu(nu)
        assert np.array_equal(swapped.log_density(pts), _Mixture(at_nu).log_density(pts))

    def test_shares_whitening_and_leaves_source_untouched(self, rng):
        cm = make_mixture_class(
            mus=[[0.0, 1.0], [2.0, -1.0]],
            sigmas=[np.eye(2), random_spd(rng, 2)],
            nus=[3.0, 3.0],
            counts=[1.0, 1.0],
        )
        mix = _Mixture(cm)
        before = mix.log_density([[0.5, 0.5]])
        swapped = mix.with_nu(50.0)
        assert swapped.stacked_inv is mix.stacked_inv
        assert swapped.log_dets is mix.log_dets
        assert np.all(swapped.nus == 50.0)
        assert np.array_equal(mix.log_density([[0.5, 0.5]]), before)


class TestLogPosteriorsOverNu:
    def test_match_predict_batch_at_each_value(self, rng, monkeypatch):
        # one row past a whitening block: a one-column product takes another
        # BLAS path, so the grid must block its rows exactly as predict_batch
        widths = []
        whiten = _Mixture.whiten

        def recording_whiten(mix, pts_t):
            widths.append(pts_t.shape[1])
            return whiten(mix, pts_t)

        monkeypatch.setattr(_Mixture, "whiten", recording_whiten)
        d = 8
        cms = [
            make_mixture_class(
                mus=rng.standard_normal((2, d)) * 2,
                sigmas=[random_spd(rng, d) for _ in range(2)],
                nus=[5.0, 5.0],
                counts=[1.0, 2.0],
                class_id=i + 1,
            )
            for i in range(3)
        ]
        tc = uniform_classifier(cms)
        pts = rng.standard_normal((CHUNK_ROWS + 1, d)) * 3
        nus = [1e-3, 0.3, 5.0, 200.0]
        predict_batch(tc, pts)
        batch_widths = list(widths)
        widths.clear()
        grid = log_posteriors_over_nu(tc, pts, nus)
        next(grid)  # every whitening happens before the first value is scored
        assert widths == batch_widths == [CHUNK_ROWS] * 3 + [1] * 3
        for nu, log_post in zip(nus, log_posteriors_over_nu(tc, pts, nus)):
            at_nu = replace(
                tc,
                classes=tuple(
                    replace(cm, components=tuple(replace(c, nu=nu) for c in cm.components))
                    for cm in tc.classes
                ),
            )
            expected, _ = predict_batch(at_nu, pts)
            assert np.array_equal(log_post, expected.T)


class TestPrepare:
    def test_idempotent_and_same_predictions(self, rng):
        cms = [
            make_student_class(rng.standard_normal(3), np.eye(3), 4.0, class_id=i + 1)
            for i in range(3)
        ]
        tc = uniform_classifier(cms)
        prepared = prepare(tc)
        assert prepare(prepared) is prepared
        assert list(prepared.class_ids) == tc.class_ids
        assert prepared.dim == 3
        pts = rng.standard_normal((40, 3))
        lp_a, lab_a = predict_batch(tc, pts)
        lp_b, lab_b = predict_batch(prepared, pts)
        assert np.array_equal(lp_a, lp_b)
        assert np.array_equal(lab_a, lab_b)


class TestSample:
    def test_gaussian_limit_mean(self):
        cm = make_student_class([2.0, -3.0], np.eye(2) * 0.25, nu=1e6)
        draws = sample(cm, 40000, seed=1)
        se = 0.5 / math.sqrt(40000)
        assert np.allclose(draws.mean(axis=0), [2.0, -3.0], atol=4 * se)

    def test_heavy_tail_covariance_identity(self):
        # for nu = 3 the covariance is nu/(nu-2) = 3 times the scale matrix;
        # the fourth moment is infinite there, so the sample covariance at
        # n = 1e5 is itself heavy-tailed and the seed is pinned
        sigma = np.array([[0.8, 0.2], [0.2, 0.5]])
        cm = make_student_class([0.0, 0.0], sigma, nu=3.0)
        draws = sample(cm, 100000, seed=11)
        cov = np.cov(draws.T)
        assert np.allclose(cov, 3.0 * sigma, rtol=0.1, atol=0.05)
        # same identity at nu = 5 (finite kurtosis, stable estimate)
        cm5 = make_student_class([0.0, 0.0], sigma, nu=5.0)
        cov5 = np.cov(sample(cm5, 100000, seed=11).T)
        assert np.allclose(cov5, (5.0 / 3.0) * sigma, rtol=0.05, atol=0.02)

    def test_mixture_draw_frequencies(self):
        cm = make_mixture_class(
            mus=[[-10.0], [10.0]],
            sigmas=[[[0.01]], [[0.01]]],
            nus=[50.0, 50.0],
            counts=[0.3, 0.7],
        )
        n = 20000
        draws = sample(cm, n, seed=3)
        frac_right = float(np.mean(draws[:, 0] > 0))
        bound = 3 * math.sqrt(0.7 * 0.3 / n)
        assert abs(frac_right - 0.7) <= bound

    def test_deterministic_per_seed(self):
        cm = make_student_class([0.0], [[1.0]], 5.0)
        a = sample(cm, 100, seed=42)
        b = sample(cm, 100, seed=42)
        c = sample(cm, 100, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_nonpositive_n(self):
        cm = make_student_class([0.0], [[1.0]], 5.0)
        with pytest.raises(ValueError):
            sample(cm, 0, seed=0)
