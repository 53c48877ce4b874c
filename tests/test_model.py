import json

import numpy as np
import pytest

from scalemix.data import FeatureDataset
from scalemix.model import (
    ClassModel,
    ComponentPosterior,
    PriorHyperparameters,
    TrainedClassifier,
    build_default_prior,
    classifier_from_dict,
    classifier_to_dict,
    load_model,
    save_model,
)
from scalemix.predict import predict_batch
from scalemix.vb import VbConfig, fit

from conftest import two_blob_dataset


def tiny_dataset(rows, labels=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n = rows.shape[0]
    labels = labels if labels is not None else np.ones(n, dtype=int)
    return FeatureDataset(rows, labels, np.ones(n, int), np.ones(n, int))


class TestPriorValidation:
    def test_field_constraints(self):
        with pytest.raises(ValueError):
            PriorHyperparameters(0.0, 1.0, [0.0], [[1.0]], 1.5, 5.0)
        with pytest.raises(ValueError):
            PriorHyperparameters(0.1, -1.0, [0.0], [[1.0]], 1.5, 5.0)
        with pytest.raises(ValueError):
            PriorHyperparameters(0.1, 1.0, [0.0, 0.0], [[1.0, 0], [0, 1.0]], 0.5, 5.0)
        with pytest.raises(ValueError):
            PriorHyperparameters(0.1, 1.0, [0.0], [[1.0]], 1.5, 5.0, k_init=0)

    @pytest.mark.parametrize("nu", [0.0, float("nan"), float("inf")])
    def test_nu_fixed_must_be_positive_and_finite(self, nu):
        with pytest.raises(ValueError, match="nu_fixed must be positive and finite"):
            PriorHyperparameters(0.1, 1.0, [0.0], [[1.0]], 1.5, nu)

    def test_component_posterior_requires_pd_scale(self):
        with pytest.raises(Exception):
            ComponentPosterior(1.0, 1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 4.0, 5.0)

    def test_class_model_checks_alpha_hat(self):
        comp = ComponentPosterior(2.0, 1.0, [0.0], [[1.0]], 3.0, 5.0)
        with pytest.raises(ValueError):
            ClassModel(1, (comp,), alpha_hat=3.0, elbo_trace=(0.0,), n_pruned=0)

    def test_classifier_checks_prior_normalization(self):
        comp = ComponentPosterior(2.0, 1.0, [0.0], [[1.0]], 3.0, 5.0)
        cm = ClassModel(1, (comp,), alpha_hat=2.0, elbo_trace=(0.0,), n_pruned=0)
        prior = PriorHyperparameters(0.1, 1.0, [0.0], [[1.0]], 1.5, 5.0)
        with pytest.raises(ValueError):
            TrainedClassifier((cm,), np.array([-0.5]), 1, prior)


class TestBuildDefaultPrior:
    def test_two_point_example(self):
        ds = tiny_dataset([[0.0, 0.0], [2.0, 2.0]])
        prior = build_default_prior(ds, nu_fixed=5.0, alpha0=0.001)
        assert np.allclose(prior.m0, [1.0, 1.0])
        # unbiased covariance of {(0,0),(2,2)} is [[2,2],[2,2]]; singular up
        # to rounding, so it must come back factorable (jittered if needed)
        assert np.allclose(prior.W0, [[2.0, 2.0], [2.0, 2.0]], atol=1e-6)
        from scalemix.numerics import cholesky

        assert np.all(np.isfinite(cholesky(prior.W0).lower))
        assert prior.eta0 == 3.0
        assert prior.beta0 == 1.0

    def test_eta0_follows_dimension(self, rng):
        feats = rng.standard_normal((50, 4))
        ds = tiny_dataset(feats)
        prior = build_default_prior(ds, nu_fixed=1.0)
        assert prior.eta0 == 5.0

    def test_alpha0_passthrough(self, rng):
        ds = tiny_dataset(rng.standard_normal((20, 3)))
        assert build_default_prior(ds, 1.0, alpha0=0.01).alpha0 == 0.01
        assert build_default_prior(ds, 1.0).alpha0 == 0.001

    def test_zero_variance_feature_jittered(self):
        ds = tiny_dataset([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        prior = build_default_prior(ds, nu_fixed=5.0)
        assert np.all(np.isfinite(prior.W0))

    def test_empty_dataset_rejected(self):
        ds = tiny_dataset(np.empty((0, 2)), labels=np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            build_default_prior(ds, nu_fixed=5.0)

    def test_row_order_invariance(self, rng):
        feats = rng.standard_normal((40, 3))
        ds = tiny_dataset(feats)
        shuffled = tiny_dataset(feats[rng.permutation(40)])
        a = build_default_prior(ds, nu_fixed=2.0)
        b = build_default_prior(shuffled, nu_fixed=2.0)
        assert np.allclose(a.m0, b.m0, atol=1e-12)
        assert np.allclose(a.W0, b.W0, atol=1e-12)


class TestPersistence:
    def test_round_trip_identical_predictions(self, tmp_path, rng):
        data = two_blob_dataset(seed=3)
        prior = build_default_prior(data, nu_fixed=4.0, k_init=3)
        tc = fit(data, prior, VbConfig(seed=1))
        path = tmp_path / "model.json"
        save_model(tc, path)
        back = load_model(path)
        probes = rng.standard_normal((25, 2)) * 3
        lp_a, lab_a = predict_batch(tc, probes)
        lp_b, lab_b = predict_batch(back, probes)
        assert np.array_equal(lab_a, lab_b)
        assert np.array_equal(lp_a, lp_b)  # bit-exact round trip

    def test_dict_round_trip_preserves_parameters(self):
        data = two_blob_dataset(seed=4, n_per_class=60)
        prior = build_default_prior(data, nu_fixed=2.0)
        tc = fit(data, prior, VbConfig(seed=0))
        payload = json.loads(json.dumps(classifier_to_dict(tc)))
        back = classifier_from_dict(payload)
        for cm_a, cm_b in zip(tc.classes, back.classes):
            assert cm_a.class_id == cm_b.class_id
            for c_a, c_b in zip(cm_a.components, cm_b.components):
                assert c_a.alpha == c_b.alpha
                assert c_a.beta == c_b.beta
                assert np.array_equal(c_a.m, c_b.m)
                assert np.array_equal(c_a.W, c_b.W)
                assert c_a.eta == c_b.eta
                assert c_a.nu == c_b.nu

    def test_version_check(self):
        with pytest.raises(ValueError):
            classifier_from_dict({"format_version": 999})
