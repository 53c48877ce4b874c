import json
import re

import numpy as np
import pytest

from scalemix.data import FeatureDataset
from scalemix.model import (
    ClassModel,
    Posteriors,
    PriorHyperparameters,
    TrainedClassifier,
    build_default_prior,
    classifier_from_dict,
    classifier_to_dict,
    load_model,
    save_model,
)
from scalemix.predict import predict_batch, prepare
from scalemix.vb import VbConfig, fit

from conftest import two_blob_dataset


def one_component_class(alpha, beta, m, W, eta, nu, alpha_hat=None, class_id=1):
    post = Posteriors([alpha], [beta], [m], [W], [eta])
    alpha_hat = alpha if alpha_hat is None else alpha_hat
    return ClassModel(class_id, post, [nu], alpha_hat, (0.0,), 0)


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

    def test_class_model_requires_pd_scale(self):
        with pytest.raises(ValueError, match="class 1: component 0 is not positive definite"):
            one_component_class(1.0, 1.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], 4.0, 5.0)

    @pytest.mark.parametrize("j", [0, 2])
    def test_non_pd_member_names_component_and_class(self, j):
        w = np.stack([np.eye(3)] * 3)
        w[j] = np.diag([1.0, -1.0, 1.0])
        post = Posteriors(np.ones(3), np.ones(3), np.zeros((3, 3)), w, np.full(3, 6.0))
        with pytest.raises(
            ValueError, match=rf"^class 4: component {j} is not positive definite \(pivot 1\)$"
        ):
            ClassModel(4, post, np.full(3, 5.0), 3.0, (0.0,), 0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", 0.0, "alpha, beta, and nu must all be positive"),
            ("beta", -1.0, "alpha, beta, and nu must all be positive"),
            ("nu", 0.0, "alpha, beta, and nu must all be positive"),
            ("eta", 0.9, "eta must exceed dim - 1 = 1, got 0.9"),
            ("alpha", np.nan, "alpha is not finite"),
            ("nu", np.inf, "nu is not finite"),
            ("m", [np.nan, 0.0], "m is not finite"),
        ],
    )
    def test_class_model_constraints_name_component(self, field, value, message):
        good = dict(alpha=1.0, beta=1.0, m=[0.0, 0.0], W=np.eye(2), eta=4.0, nu=5.0)
        columns = {key: [v, v] for key, v in good.items()}
        columns[field][1] = value
        nu = columns.pop("nu")
        post = Posteriors(**columns)
        alpha_hat = sum(columns["alpha"])
        with pytest.raises(ValueError, match=f"^component 1 of class 3: {re.escape(message)}$"):
            ClassModel(3, post, nu, alpha_hat, (0.0,), 0)

    def test_class_model_copies_and_freezes_its_arrays(self):
        post = Posteriors(
            np.ones(1), np.ones(1), np.zeros((1, 2)), np.eye(2)[None], np.full(1, 4.0)
        )
        cm = ClassModel(1, post, np.full(1, 5.0), 1.0, (0.0,), 0)
        post.m[0, 0] = 7.0
        assert cm.components.m[0, 0] == 0.0
        for arr in (cm.components.alpha, cm.components.m, cm.components.W, cm.nu):
            assert not arr.flags.writeable

    def test_class_model_checks_alpha_hat(self):
        with pytest.raises(ValueError):
            one_component_class(2.0, 1.0, [0.0], [[1.0]], 3.0, 5.0, alpha_hat=3.0)

    @pytest.mark.parametrize(
        "class_ids, message",
        [
            ([1, 1, 3], "class records 0 and 1 both have class_id 1"),
            ([1, -7, 3], "class -7: class_id must be at least 1"),
        ],
    )
    def test_class_ids_must_be_distinct_and_positive(self, class_ids, message):
        prior = PriorHyperparameters(0.1, 1.0, [0.0], [[1.0]], 1.5, 5.0)
        classes = [
            one_component_class(1.0, 1.0, [0.0], [[1.0]], 3.0, 5.0, class_id=cid)
            for cid in (1, 2, 3)
        ]
        payload = classifier_to_dict(
            TrainedClassifier(tuple(classes), np.log(np.full(3, 1 / 3)), 1, prior)
        )
        for record, cid in zip(payload["classes"], class_ids):
            record["class_id"] = cid
        with pytest.raises(ValueError, match=f"^{message}$"):
            classifier_from_dict(payload)

    def test_classifier_checks_prior_normalization(self):
        cm = one_component_class(2.0, 1.0, [0.0], [[1.0]], 3.0, 5.0)
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

    def test_non_uniform_class_prior_loads_and_predicts(self, tmp_path):
        # training writes a uniform prior; a model file may hold any normalised one
        classes = tuple(
            one_component_class(2.0, 1.0, [0.0], [[1.0]], 3.0, 5.0, class_id=cid)
            for cid in (1, 2)
        )
        prior = PriorHyperparameters(0.1, 1.0, [0.0], [[1.0]], 1.5, 5.0)
        path = tmp_path / "model.json"
        save_model(TrainedClassifier(classes, np.log([0.75, 0.25]), 1, prior), path)
        back = load_model(path)
        assert np.array_equal(back.class_log_prior, np.log([0.75, 0.25]))
        log_post, _ = predict_batch(back, [[0.3]])
        # identical classes: the posterior is the class prior
        assert np.allclose(np.exp(log_post[0]), [0.75, 0.25], atol=1e-12)

    def test_dict_round_trip_preserves_parameters(self):
        data = two_blob_dataset(seed=4, n_per_class=60)
        prior = build_default_prior(data, nu_fixed=2.0)
        tc = fit(data, prior, VbConfig(seed=0))
        payload = json.loads(json.dumps(classifier_to_dict(tc)))
        back = classifier_from_dict(payload)
        for cm_a, cm_b in zip(tc.classes, back.classes):
            assert cm_a.class_id == cm_b.class_id
            for key in ("alpha", "beta", "m", "W", "eta"):
                assert np.array_equal(getattr(cm_a.components, key), getattr(cm_b.components, key))
            assert np.array_equal(cm_a.nu, cm_b.nu)

    def test_prepare_rejects_eta_without_finite_expected_scale(self, tmp_path):
        # eta in (dim - 1, dim + 1] is a valid posterior but has no plug-in
        # predictive, so the loaded model is refused when it is prepared
        data = two_blob_dataset(seed=4, n_per_class=60)
        tc = fit(data, build_default_prior(data, nu_fixed=2.0), VbConfig(seed=0))
        payload = classifier_to_dict(tc)
        payload["classes"][0]["components"][0]["eta"] = 2.5
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(
            ValueError, match=r"component 0 of class 1 has eta = 2.5, needs eta > dim \+ 1 = 3"
        ):
            prepare(load_model(path))

    def test_version_check(self):
        with pytest.raises(ValueError):
            classifier_from_dict({"format_version": 999})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"format_version": 1}, "model has no 'dim' field"),
            ([], "model must be a JSON object, got list"),
        ],
    )
    def test_malformed_payload_is_named(self, payload, message):
        with pytest.raises(ValueError, match=message):
            classifier_from_dict(payload)

    def test_missing_component_field_names_its_record(self):
        data = two_blob_dataset(seed=4, n_per_class=30)
        payload = classifier_to_dict(fit(data, build_default_prior(data, 2.0), VbConfig(seed=0)))
        del payload["classes"][1]["components"][0]["W"]
        with pytest.raises(ValueError, match="component 0 of class record 1 has no 'W' field"):
            classifier_from_dict(payload)
