import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scalemix.density import StudentParams, log_marginal_density
from scalemix.model import (
    ClassModel,
    Posteriors,
    PriorHyperparameters,
    TrainedClassifier,
    build_default_prior,
)
from scalemix.data import BLOCK_ROWS
from scalemix.vb import VbConfig, fit
import scalemix.predict as predict_module
from scalemix.predict import (
    UnscorableRowError,
    _Mixture,
    _grid_terms,
    log_posteriors_over_nu,
    predict_batch,
    prepare,
    sample,
)

from conftest import (
    components_of,
    make_mixture_class,
    make_student_class,
    mixture_log_density,
    two_blob_dataset,
)


def log_predictive(x, cm):
    """Log plug-in predictive of one class at one point."""
    return float(mixture_log_density(_Mixture(cm), x)[0])


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
        post = cm.components
        sigma = post.W[0] / (post.eta[0] - 2 - 1)
        expected = log_marginal_density(
            [1.0, -1.0], StudentParams(mu=post.m[0], sigma=sigma, nu=4.0)
        )
        assert log_predictive([1.0, -1.0], cm) == pytest.approx(expected, rel=1e-12)

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
            assert log_predictive(x, cm) == pytest.approx(
                log_predictive(x, solo), abs=1e-9
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
            post = cm.components
            for j, weight in enumerate((2.0, 3.0)):
                nu = mp.mpf(float(cm.nu[j]))
                sig = mp.mpf(float(post.W[j, 0, 0])) / mp.mpf(float(post.eta[j] - 2))
                d2 = (mp.mpf(x) - mp.mpf(float(post.m[j, 0]))) ** 2 / sig
                dens = (
                    mp.gamma((nu + 1) / 2)
                    / mp.gamma(nu / 2)
                    / mp.sqrt(sig)
                    / (mp.pi * nu) ** mp.mpf(0.5)
                    * (1 + d2 / nu) ** (-(nu + 1) / 2)
                )
                total += mp.mpf(weight) / 5 * dens
            assert log_predictive([x], cm) == pytest.approx(
                float(mp.log(total)), rel=1e-10
            )

    def test_eta_guard_names_component(self):
        post = Posteriors(
            alpha=[1.0, 1.0], beta=[1.0, 1.0], m=np.zeros((2, 2)), W=[np.eye(2)] * 2,
            eta=[5.0, 2.5],
        )
        cm = ClassModel(7, post, [5.0, 5.0], 2.0, (0.0,), 0)
        with pytest.raises(
            ValueError, match=r"component 1 of class 7 has eta = 2.5, needs eta > dim \+ 1 = 3"
        ):
            _Mixture(cm)


class TestClassPosterior:
    def test_identical_classes_split_evenly(self):
        cm1 = make_student_class([0.0, 0.0], np.eye(2), 5.0, class_id=1)
        cm2 = make_student_class([0.0, 0.0], np.eye(2), 5.0, class_id=2)
        tc = uniform_classifier([cm1, cm2])
        log_post, _ = predict_batch(tc, [[0.7, -0.3]])
        assert np.allclose(np.exp(log_post[0]), [0.5, 0.5], atol=1e-12)

    def test_normalization(self, rng):
        cms = [
            make_student_class(rng.standard_normal(2), np.eye(2) * s, nu, class_id=i + 1)
            for i, (s, nu) in enumerate(((0.5, 2.0), (1.0, 5.0), (2.0, 50.0)))
        ]
        tc = uniform_classifier(cms)
        for _ in range(20):
            x = rng.standard_normal(2) * 4
            log_post, _ = predict_batch(tc, [x])
            assert np.exp(log_post[0]).sum() == pytest.approx(1.0, abs=1e-12)

    def test_finite_even_far_from_data(self):
        cm1 = make_student_class([0.0, 0.0], np.eye(2), 2.0, class_id=1)
        cm2 = make_student_class([4.0, 4.0], np.eye(2), 2.0, class_id=2)
        tc = uniform_classifier([cm1, cm2])
        log_post, _ = predict_batch(tc, [[600.0, -700.0]])
        assert np.all(np.isfinite(log_post))

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
                    base[0] + log_predictive([x], cm1),
                    base[1] + log_predictive([x], cm2),
                ]
            )
            for shift in (0.0, -700.0, 123.4):
                assert predict_batch(tc, [[x]])[1][0] == int(np.argmax(joint + shift)) + 1


class TestClassify:
    def test_labels_at_class_centers(self):
        cm1 = make_student_class([0.0, 0.0], np.eye(2) * 0.5, 5.0, class_id=1)
        cm2 = make_student_class([5.0, 5.0], np.eye(2) * 0.5, 5.0, class_id=2)
        tc = uniform_classifier([cm1, cm2])
        assert predict_batch(tc, [[0.0, 0.0]])[1][0] == 1
        assert predict_batch(tc, [[5.0, 5.0]])[1][0] == 2

    def test_tie_breaks_to_lowest_class_id(self):
        cm1 = make_student_class([-1.0], [[1.0]], 5.0, class_id=1)
        cm2 = make_student_class([1.0], [[1.0]], 5.0, class_id=2)
        tc = uniform_classifier([cm1, cm2])
        assert predict_batch(tc, [[0.0]])[1][0] == 1

    def test_batch_consistent_with_scalar(self, rng):
        cms = [
            make_student_class(rng.standard_normal(3), np.eye(3), 4.0, class_id=i + 1)
            for i in range(4)
        ]
        tc = uniform_classifier(cms)
        pts = rng.standard_normal((50, 3)) * 2
        log_post, labels = predict_batch(tc, pts)
        for i in range(50):
            row, label = predict_batch(tc, pts[i : i + 1])
            assert label[0] == labels[i]
            assert np.allclose(row[0], log_post[i], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("width", [2, 3, 7, 1000, BLOCK_ROWS])
    def test_block_width_leaves_every_bit(self, rng, width):
        # no block of one row, whose product numpy rounds differently
        tc = prepare(uniform_classifier(mixture_classes(rng, 3, 3, 4)))
        pts = rng.standard_normal((2 * BLOCK_ROWS + 100, 3)) * 3
        whole, labels = predict_batch(tc, pts)
        blocks = [predict_batch(tc, pts[lo : lo + width]) for lo in range(0, len(pts), width)]
        assert np.array_equal(np.concatenate([b[0] for b in blocks]), whole)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), labels)

    def test_feature_too_large_to_score_names_its_row(self):
        # finite, yet its squared distance to every component overflows: the
        # row is refused, on both scoring paths, never scored as NaN
        data = two_blob_dataset(seed=2, n_per_class=80)
        tc = fit(data, build_default_prior(data, nu_fixed=5.0, k_init=1), VbConfig(seed=0))
        points = np.array([[0.0, 0.0], [1e155, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnscorableRowError, match="^row 1: ") as caught:
                predict_batch(tc, points)
            assert caught.value.row == 1
            with pytest.raises(ValueError, match="^row 1: "):
                log_posteriors_over_nu(tc, points, default_grid(), np.array([0, 0]))
            # one still scores
            log_post, labels = predict_batch(tc, points[:1])
        assert np.isfinite(log_post).all() and labels.tolist() == [1]
        # a worker's error reaches the parent process whole
        again = pickle.loads(pickle.dumps(caught.value))
        assert (type(again), again.row, str(again)) == (UnscorableRowError, 1, str(caught.value))

    def test_dimension_mismatch(self):
        cm = make_student_class([0.0, 0.0], np.eye(2), 5.0)
        tc = uniform_classifier([cm])
        with pytest.raises(ValueError):
            predict_batch(tc, [[0.0]])


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def at_shared_nu(tc, nu):
    """``tc`` with ``nu`` in every component of every class."""
    return replace(
        tc, classes=tuple(replace(cm, nu=np.full(cm.n_components, nu)) for cm in tc.classes)
    )


def default_grid():
    return np.geomspace(1e-3, 200.0, 40)


def mixture_classes(rng, d, k, c):
    """``c`` classes of ``k`` components each, every component at nu = 5."""
    return [
        make_mixture_class(
            mus=rng.standard_normal((k, d)) * 2,
            sigmas=[random_spd(rng, d) for _ in range(k)],
            nus=[5.0] * k,
            counts=list(1.0 + np.arange(k)),
            class_id=i + 1,
        )
        for i in range(c)
    ]


class TestGridKernel:
    def test_rows_match_mixtures_built_at_each_nu(self, rng):
        d = 8
        cm = make_mixture_class(
            mus=rng.standard_normal((3, d)),
            sigmas=[random_spd(rng, d) for _ in range(3)],
            nus=[2.0, 7.0, 40.0],
            counts=[1.0, 2.5, 0.5],
        )
        nus = [1e-3, 0.3, 5.0, 200.0]
        pts = rng.standard_normal((300, d)) * 3
        rows = mixture_log_density(_Mixture(cm), pts, _grid_terms(nus, d))
        assert rows.shape == (len(nus), 300)
        for nu, row in zip(nus, rows):
            at_nu = replace(cm, nu=np.full(3, nu))
            assert np.array_equal(row, mixture_log_density(_Mixture(at_nu), pts))

    def test_one_whitening_per_class_per_block_and_mixtures_untouched(self, rng, monkeypatch):
        whitened = []
        whiten = _Mixture.whiten

        def recording_whiten(mix, pts_t):
            whitened.append((mix, pts_t.shape[1]))
            return whiten(mix, pts_t)

        d = 3
        prepared = prepare(uniform_classifier(mixture_classes(rng, d, 2, 3)))
        pts = rng.standard_normal((BLOCK_ROWS + 5, d))
        before = predict_batch(prepared, pts)[0]
        slots = [
            {name: getattr(mix, name) for name in _Mixture.__slots__}
            for mix in prepared.mixtures
        ]
        copies = [{name: np.copy(value) for name, value in slot.items()} for slot in slots]
        monkeypatch.setattr(_Mixture, "whiten", recording_whiten)
        columns = rng.integers(0, 3, size=pts.shape[0])
        log_posteriors_over_nu(prepared, pts, default_grid(), columns)
        assert whitened == [(mix, BLOCK_ROWS) for mix in prepared.mixtures] + [
            (mix, 5) for mix in prepared.mixtures
        ]
        for mix, slot, copied in zip(prepared.mixtures, slots, copies):
            for name in _Mixture.__slots__:
                assert getattr(mix, name) is slot[name]
                assert np.array_equal(getattr(mix, name), copied[name])
        assert np.array_equal(predict_batch(prepared, pts)[0], before)


class TestMixtureBuild:
    def test_one_factorisation_per_class(self, rng, monkeypatch):
        import scalemix.predict as predict_module

        calls = []
        factorise = predict_module.cholesky

        def counting_cholesky(matrix):
            calls.append(np.shape(matrix))
            return factorise(matrix)

        monkeypatch.setattr(predict_module, "cholesky", counting_cholesky)
        d = 4
        cms = [
            make_mixture_class(
                mus=rng.standard_normal((3, d)),
                sigmas=[random_spd(rng, d) for _ in range(3)],
                nus=[5.0] * 3,
                counts=[1.0, 2.0, 3.0],
                class_id=i + 1,
            )
            for i in range(2)
        ]
        prepared = prepare(uniform_classifier(cms))
        assert calls == [(3, d, d), (3, d, d)]
        assert prepared.mixtures[0].lowers.shape == (3, d, d)

    def test_components_match_single_component_mixtures(self, rng):
        d = 5
        cm = make_mixture_class(
            mus=rng.standard_normal((3, d)),
            sigmas=[random_spd(rng, d) for _ in range(3)],
            nus=[2.0, 7.0, 40.0],
            counts=[1.0, 2.5, 0.5],
        )
        mix = _Mixture(cm)
        for j in range(cm.n_components):
            solo = _Mixture(components_of(cm, slice(j, j + 1)))
            assert np.array_equal(mix.lowers[j], solo.lowers[0])
            assert np.array_equal(mix.stacked_inv[j * d : (j + 1) * d], solo.stacked_inv)
            assert np.array_equal(
                mix.stacked_offset[j * d : (j + 1) * d], solo.stacked_offset
            )
            assert mix.log_dets[j] == solo.log_dets[0]
            assert mix.log_norms[j] == solo.log_norms[0]


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
        tc = uniform_classifier(mixture_classes(rng, 8, 2, 3))
        pts = rng.standard_normal((BLOCK_ROWS + 1, 8)) * 3
        nus = [1e-3, 0.3, 5.0, 200.0]
        predict_batch(tc, pts)
        batch_widths = list(widths)
        widths.clear()
        columns = rng.integers(0, 3, size=pts.shape[0])
        grid = log_posteriors_over_nu(tc, pts, nus, columns)
        assert widths == batch_widths == [BLOCK_ROWS] * 3 + [1] * 3
        for nu, log_post in zip(nus, grid):
            expected, _ = predict_batch(at_shared_nu(tc, nu), pts)
            assert np.array_equal(log_post, expected[np.arange(pts.shape[0]), columns])

    def test_empty_grid(self, rng):
        tc = uniform_classifier(mixture_classes(rng, 2, 2, 2))
        out = log_posteriors_over_nu(tc, np.zeros((7, 2)), [], np.zeros(7, int))
        assert out.shape == (0, 7)

    def test_single_component_classes_match_predict_batch(self, rng):
        cms = [
            make_student_class(rng.standard_normal(3) * 2, random_spd(rng, 3), 4.0, class_id=i + 1)
            for i in range(3)
        ]
        tc = uniform_classifier(cms)
        pts = rng.standard_normal((40, 3)) * 3
        columns = rng.integers(0, 3, size=40)
        nus = default_grid()
        grid = log_posteriors_over_nu(tc, pts, nus, columns)
        for nu, log_post in zip(nus, grid):
            expected, _ = predict_batch(at_shared_nu(tc, nu), pts)
            assert np.array_equal(log_post, expected[np.arange(40), columns])

    @pytest.mark.parametrize("numbers", [1, 5000])
    def test_values_per_pass_leave_every_bit(self, rng, monkeypatch, numbers):
        # one value or four values per pass score what all 40 in one pass do
        tc = uniform_classifier(mixture_classes(rng, 3, 4, 2))
        pts = rng.standard_normal((301, 3)) * 3
        columns = rng.integers(0, 2, size=301)
        whole = log_posteriors_over_nu(tc, pts, default_grid(), columns)
        monkeypatch.setattr(predict_module, "_GRID_NUMBERS", numbers)
        assert np.array_equal(log_posteriors_over_nu(tc, pts, default_grid(), columns), whole)


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
