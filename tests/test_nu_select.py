import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_t

from scalemix.data import BLOCK_ROWS, FeatureDataset
from scalemix.model import PriorHyperparameters, TrainedClassifier, build_default_prior
from scalemix.nu_select import (
    NuSearchConfig,
    conditional_entropy,
    default_nu_grid,
    select_nu,
    stratified_folds,
)
import scalemix.predict as predict_module
from scalemix.predict import sample
from scalemix.vb import VbConfig, fit

from conftest import make_student_class


def labeled(features, labels):
    n = len(labels)
    return FeatureDataset(features, labels, np.ones(n, int), np.ones(n, int))


def two_class_classifier(sep, sigma_scale=1.0, nu=5.0):
    cm1 = make_student_class([0.0, 0.0], np.eye(2) * sigma_scale, nu, class_id=1)
    cm2 = make_student_class([sep, sep], np.eye(2) * sigma_scale, nu, class_id=2)
    prior = PriorHyperparameters(0.001, 1.0, np.zeros(2), np.eye(2), 3.0, nu)
    return TrainedClassifier(
        classes=(cm1, cm2),
        class_log_prior=np.full(2, -math.log(2.0)),
        prior=prior,
    )


def scale_mixture_dataset(nu, seed, n_per_class=500, sep=4.0):
    cm1 = make_student_class([0.0, 0.0], np.eye(2), nu, class_id=1)
    cm2 = make_student_class([sep, sep], np.eye(2), nu, class_id=2)
    x1 = sample(cm1, n_per_class, seed=seed)
    x2 = sample(cm2, n_per_class, seed=seed + 1)
    return labeled(np.vstack([x1, x2]), [1] * n_per_class + [2] * n_per_class)


class TestStratifiedFolds:
    def test_histogram_deviation_at_most_one(self, rng):
        labels = np.concatenate([np.full(53, 1), np.full(41, 2), np.full(17, 3)])
        fold_of = stratified_folds(labels, 5, seed=0)
        for cid, total in ((1, 53), (2, 41), (3, 17)):
            per_fold = [np.sum((fold_of == f) & (labels == cid)) for f in range(5)]
            assert max(per_fold) - min(per_fold) <= 1
            assert sum(per_fold) == total

    def test_requires_enough_rows_per_class(self):
        labels = np.array([1, 1, 1, 2, 2])
        with pytest.raises(ValueError, match="class 2"):
            stratified_folds(labels, 3, seed=0)

    def test_deterministic(self):
        labels = np.tile([1, 2, 3], 30)
        a = stratified_folds(labels, 4, seed=9)
        b = stratified_folds(labels, 4, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_folds", [2, 3, 4, 5])
    def test_every_complement_holds_every_class(self, n_folds):
        # one class per size r in [L, 3L]: a fold holds at most ceil(r / L) < r
        # of a class's rows, so the other folds keep at least one
        sizes = range(n_folds, 3 * n_folds + 1)
        classes = list(range(1, len(sizes) + 1))
        labels = np.repeat(classes, sizes)
        for seed in range(3):
            fold_of = stratified_folds(labels, n_folds, seed)
            for fold in range(n_folds):
                assert np.unique(labels[fold_of != fold]).tolist() == classes


class TestConditionalEntropy:
    def test_zero_for_confident_correct_classifier(self):
        tc = two_class_classifier(sep=60.0, sigma_scale=0.01, nu=100.0)
        valid = labeled(
            np.array([[0.0, 0.0], [60.0, 60.0], [0.1, -0.1], [59.9, 60.1]]),
            [1, 2, 1, 2],
        )
        j = conditional_entropy([100.0], tc, valid)[0]
        assert 0.0 <= j < 1e-8

    def test_uniform_posterior_gives_log_c(self):
        # identical class models make every posterior exactly 1/C
        cm1 = make_student_class([0.0, 0.0], np.eye(2), 5.0, class_id=1)
        cm2 = make_student_class([0.0, 0.0], np.eye(2), 5.0, class_id=2)
        prior = PriorHyperparameters(0.001, 1.0, np.zeros(2), np.eye(2), 3.0, 5.0)
        tc = TrainedClassifier((cm1, cm2), np.full(2, -math.log(2.0)), prior)
        valid = labeled(np.random.default_rng(0).standard_normal((40, 2)), [1, 2] * 20)
        assert conditional_entropy([5.0], tc, valid)[0] == pytest.approx(math.log(2.0), rel=1e-10)

    def test_matches_per_point_reference(self):
        # independent oracle: scipy's multivariate t at each component's
        # expected scale W / (eta - d - 1), with the candidate value swapped in
        tc = two_class_classifier(sep=3.0, nu=4.0)
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((25, 2)) * 2 + 1.5
        lab = rng.integers(1, 3, size=25)
        valid = labeled(pts, lab)

        nu_try = 1.3
        logs = np.array(
            [
                [
                    multivariate_t.logpdf(
                        x, loc=post.m[0], shape=post.W[0] / (post.eta[0] - 2 - 1), df=nu_try
                    )
                    for post in (cm.components for cm in tc.classes)
                ]
                for x in pts
            ]
        ) + tc.class_log_prior
        log_norm = logsumexp(logs, axis=1)
        total = -np.sum(logs[np.arange(25), lab - 1] - log_norm)
        assert conditional_entropy([nu_try], tc, valid)[0] == pytest.approx(
            total / 25, rel=1e-10
        )

    def test_grid_scores_equal_single_value_calls(self):
        # more validation rows than one whitening block, so the grid path must
        # block its matrix products exactly as predict_batch does
        tc = two_class_classifier(sep=2.0, nu=4.0)
        rng = np.random.default_rng(8)
        n = BLOCK_ROWS + 1
        valid = labeled(rng.standard_normal((n, 2)) * 2 + 1.0, rng.integers(1, 3, size=n))
        grid = default_nu_grid()
        scores = conditional_entropy(grid, tc, valid)
        assert scores.shape == grid.shape
        singles = np.array([conditional_entropy([nu], tc, valid)[0] for nu in grid])
        assert np.array_equal(scores, singles)

    def test_grid_scores_over_many_passes_equal_single_value_calls(self, monkeypatch):
        # seven values per pass over the full block, all 40 over the last one
        monkeypatch.setattr(predict_module, "_GRID_NUMBERS", 7 * BLOCK_ROWS)
        tc = two_class_classifier(sep=2.0, nu=4.0)
        rng = np.random.default_rng(9)
        n = BLOCK_ROWS + 3
        valid = labeled(rng.standard_normal((n, 2)) * 2 + 1.0, rng.integers(1, 3, size=n))
        grid = default_nu_grid()
        scores = conditional_entropy(grid, tc, valid)
        singles = np.array([conditional_entropy([nu], tc, valid)[0] for nu in grid])
        assert np.array_equal(scores, singles)

    def test_empty_grid_gives_no_scores(self):
        tc = two_class_classifier(sep=3.0)
        valid = labeled(np.zeros((2, 2)), [1, 2])
        assert conditional_entropy([], tc, valid).shape == (0,)

    def test_label_missing_from_fold_model_rejected(self):
        tc = two_class_classifier(sep=3.0)
        valid = labeled(np.zeros((3, 2)), [2, 3, 1])
        with pytest.raises(ValueError, match=r"^validation labels must be among \[1, 2\], got 3$"):
            conditional_entropy([1.0], tc, valid)

    def test_class_ids_may_skip_values(self):
        tc = two_class_classifier(sep=3.0)
        skipping = replace(tc, classes=(tc.classes[0], replace(tc.classes[1], class_id=5)))
        rng = np.random.default_rng(3)
        feats, labels = rng.standard_normal((30, 2)) * 2, rng.integers(1, 3, size=30)
        grid = default_nu_grid()
        assert np.array_equal(
            conditional_entropy(grid, skipping, labeled(feats, np.where(labels == 2, 5, labels))),
            conditional_entropy(grid, tc, labeled(feats, labels)),
        )

    def test_empty_validation_rejected(self):
        tc = two_class_classifier(sep=3.0)
        empty = FeatureDataset(
            np.empty((0, 2)), np.empty(0, int), np.empty(0, int), np.empty(0, int)
        )
        with pytest.raises(ValueError):
            conditional_entropy([1.0], tc, empty)

    def test_grid_must_be_one_dimensional(self):
        tc = two_class_classifier(sep=3.0)
        valid = labeled(np.zeros((2, 2)), [1, 2])
        for nus in (5.0, [[1.0, 5.0]]):
            with pytest.raises(ValueError, match="1-d"):
                conditional_entropy(nus, tc, valid)

    @pytest.mark.parametrize("nus, bad", [
        ([1.0, math.inf, 0.0], "inf"),
        ([math.nan, 2.0], "nan"),
        ([3.0, 0.0], "0.0"),
        ([-1.5, -math.inf], "-1.5"),
    ])
    def test_grid_value_not_positive_and_finite_rejected(self, nus, bad):
        tc = two_class_classifier(sep=3.0)
        valid = labeled(np.zeros((2, 2)), [1, 2])
        with pytest.raises(ValueError, match=f"^nus must be positive and finite, got {bad}$"):
            conditional_entropy(nus, tc, valid)

    def test_finite_at_grid_extremes_with_far_points(self):
        # log-space evaluation keeps the criterion finite even for extreme
        # tail weights and validation points far from every class
        tc = two_class_classifier(sep=3.0, nu=5.0)
        valid = labeled(np.array([[500.0, -400.0], [1.0, 1.0]]), [1, 2])
        for nu in (1e-3, 200.0):
            j = conditional_entropy([nu], tc, valid)[0]
            assert np.isfinite(j) and j >= 0.0


class TestSelectNu:
    def test_output_is_grid_member(self):
        data = scale_mixture_dataset(nu=2.0, seed=10, n_per_class=120)
        prior = build_default_prior(data, nu_fixed=200.0, k_init=1)
        cfg = NuSearchConfig(folds=3)
        nu_hat = select_nu(data, prior, cfg, vb_config=VbConfig(seed=0))
        assert any(np.isclose(nu_hat, cfg.grid).tolist())

    def test_heavy_tailed_data_selects_small_nu(self):
        data = scale_mixture_dataset(nu=2.0, seed=20, n_per_class=300)
        prior = build_default_prior(data, nu_fixed=200.0, k_init=1)
        nu_hat = select_nu(data, prior, NuSearchConfig(), vb_config=VbConfig(seed=1))
        assert nu_hat <= 10.0

    def test_gaussian_data_selects_large_nu(self):
        data = scale_mixture_dataset(nu=1e6, seed=30, n_per_class=300, sep=6.0)
        prior = build_default_prior(data, nu_fixed=200.0, k_init=1)
        nu_hat = select_nu(data, prior, NuSearchConfig(), vb_config=VbConfig(seed=2))
        assert nu_hat >= 10.0

    def test_single_point_grid(self):
        data = scale_mixture_dataset(nu=5.0, seed=40, n_per_class=60)
        prior = build_default_prior(data, nu_fixed=200.0, k_init=1)
        cfg = NuSearchConfig(folds=2, grid=np.array([3.7]))
        assert select_nu(data, prior, cfg, vb_config=VbConfig(seed=0)) == 3.7

    def test_table_sink_rows(self):
        # the table equals per-fold fits scored one fold at a time, in fold order
        data = scale_mixture_dataset(nu=5.0, seed=50, n_per_class=60)
        prior = build_default_prior(data, nu_fixed=200.0, k_init=3)
        cfg = NuSearchConfig(folds=3, grid=np.array([0.3, 1.0, 10.0, 100.0]))
        rows = []
        nu_hat = select_nu(data, prior, cfg, vb_config=VbConfig(seed=0), table_sink=rows.append)
        # the folds are seeded by the fit's seed
        fold_of = stratified_folds(data.labels, cfg.folds, 0)
        pre_prior = replace(prior, nu_fixed=cfg.nu_pre)
        want = []
        for fold in range(cfg.folds):
            model = fit(data.subset(fold_of != fold), pre_prior, VbConfig(seed=0))
            scores = conditional_entropy(cfg.grid, model, data.subset(fold_of == fold))
            want.extend((fold, float(nu), j) for nu, j in zip(cfg.grid, scores))
        assert [row[:2] for row in rows] == [w[:2] for w in want]
        assert all(type(row[0]) is int and type(row[2]) is float for row in rows)
        table = np.array([row[2] for row in rows])
        assert np.allclose(table, [w[2] for w in want], rtol=1e-12, atol=0.0)
        assert np.all(table >= 0.0)
        per_fold = table.reshape(cfg.folds, cfg.grid.size)
        assert nu_hat == min(cfg.grid[np.argmin(per_fold, axis=1)])

    def test_all_folds_fit_in_one_batch(self, lockstep_batches):
        # 3 classes x 5 folds x 40 training rows, k_init 10, d = 8: the 15 class
        # blocks hold 15 * 40 * 10 * 8 = 48000 numbers, within one batch's budget
        rng = np.random.default_rng(6)
        centres = 3.0 * rng.standard_normal((3, 8))
        data = labeled(
            np.repeat(centres, 50, axis=0) + rng.standard_normal((150, 8)), np.repeat([1, 2, 3], 50)
        )
        prior = build_default_prior(data, nu_fixed=200.0, k_init=10)
        select_nu(data, prior, NuSearchConfig(folds=5), vb_config=VbConfig(seed=0))
        assert lockstep_batches == [15]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            NuSearchConfig(grid=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            NuSearchConfig(folds=1)
        with pytest.raises(ValueError):
            NuSearchConfig(grid=np.array([]))

    @pytest.mark.parametrize("grid", [[1.0, math.nan, 3.0], [1.0, math.inf]])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid values must be finite"):
            NuSearchConfig(grid=np.array(grid))

    @pytest.mark.parametrize("nu_pre", [math.inf, math.nan])
    def test_non_finite_nu_pre_rejected(self, nu_pre):
        with pytest.raises(ValueError, match="nu_pre must be positive and finite"):
            NuSearchConfig(nu_pre=nu_pre)

    def test_default_grid_shape(self):
        grid = default_nu_grid()
        assert grid.shape == (40,)
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(200.0)
        assert np.all(np.diff(grid) > 0)
