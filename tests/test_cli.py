import concurrent.futures
import json
import math
import multiprocessing
import os
import re
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import scalemix
from scalemix import data as _data
from scalemix.cli import (
    EXIT_DATA,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WORKER,
    _BLAS_THREAD_VARS,
    _GRID_MAX_SIDE,
    _GRID_MIN_STEP,
    _RANGES,
    _predict_slice,
    _report_text,
    _subcommands,
    _write_svg_heatmap,
    _write_table,
    build_parser,
    main,
)
from scalemix.data import (
    BLOCK_ROWS,
    DataFormatError,
    FeatureDataset,
    format_rows,
    generate_simulation,
    load_csv,
    save_csv,
)
from scalemix.model import load_model
from scalemix.numerics import NotPositiveDefiniteError
from scalemix.predict import predict_batch, prepare
from scalemix.vb import NumericalFailure

from conftest import two_blob_dataset


def write_protocol_csv(path, seed=5, participants=(1, 2), trials=4, n=20, spread=0.4):
    rng = np.random.default_rng(seed)
    centers = {1: (0.0, 0.0), 2: (8.0, 0.0), 3: (0.0, 8.0)}
    feats, labels, trial_col, part_col = [], [], [], []
    for pid in participants:
        for trial in range(1, trials + 1):
            for cid, ctr in centers.items():
                feats.append(rng.standard_normal((n, 2)) * spread + np.asarray(ctr))
                labels += [cid] * n
                trial_col += [trial] * n
                part_col += [pid] * n
    ds = FeatureDataset(np.vstack(feats), labels, trial_col, part_col)
    save_csv(ds, path)
    return ds


def _raise_on_short_slice(classifier, points):
    """``predict_batch``, except that the short slice ending an input raises."""
    if points.shape[0] < BLOCK_ROWS:
        raise RuntimeError("prediction failed")
    return predict_batch(classifier, points)


def _exit_on_short_slice(classifier, points):
    """``predict_batch``, except that the short slice ending an input ends the process."""
    if points.shape[0] < BLOCK_ROWS:
        os._exit(1)
    return predict_batch(classifier, points)


@pytest.fixture
def train_csv(tmp_path):
    data = two_blob_dataset(seed=2, n_per_class=80)
    path = tmp_path / "train.csv"
    save_csv(data, path)
    return path


class TestSimulate:
    def test_default_outputs(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--out-dir", str(out), "--seed", "0"]) == EXIT_OK
        for name in ("shared_nu", "ml_nu", "gaussian"):
            grid = (out / f"boundary_{name}.csv").read_text().splitlines()
            assert grid[0] == "x1,x2,posterior_c1,posterior_c2,argmax"
            assert len(grid) - 1 == 161 * 161
        train_lines = (out / "simulation_train.csv").read_text().splitlines()
        assert len(train_lines) - 1 == 210

    def test_no_outliers_flag(self, tmp_path):
        out = tmp_path / "sim"
        assert (
            main(["simulate", "--out-dir", str(out), "--no-outliers", "--seed", "1"])
            == EXIT_OK
        )
        lines = (out / "simulation_train.csv").read_text().splitlines()[1:]
        labels = [int(ln.split(",")[2]) for ln in lines]
        assert labels.count(1) == 100

    def test_svg_emission(self, tmp_path):
        out = tmp_path / "sim"
        assert (
            main(
                [
                    "simulate", "--out-dir", str(out), "--seed", "0",
                    "--grid-step", "0.5", "--svg",
                ]
            )
            == EXIT_OK
        )
        svg = (out / "heatmap_shared_nu.svg").read_text()
        assert svg.startswith("<svg") and "<rect" in svg

    @pytest.mark.parametrize("grid_step", [0.05, 0.3, 0.5, 3, 8])
    def test_svg_cells_follow_the_per_point_rule(self, tmp_path, grid_step):
        _, grid = generate_simulation(grid_step=grid_step)
        rng = np.random.default_rng(4)
        post1 = rng.uniform(0.0, 1.0, grid.n_rows)
        post1[:4] = [0.5, 0.0, 1.0, np.nextafter(0.5, 0.0)]
        # each point placed by its coordinates, and coloured by its own branch
        xs = np.unique(grid.features[:, 0])
        n, px = xs.shape[0], 4
        lines = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{n * px}" height="{n * px}" '
            f'viewBox="0 0 {n * px} {n * px}">'
        ]
        for (x1, x2), p in zip(grid.features.tolist(), post1.tolist()):
            col = int(round((x1 - xs[0]) / (xs[1] - xs[0])))
            row = int(round((x2 - xs[0]) / (xs[1] - xs[0])))
            if p >= 0.5:
                v = int(255 - 175 * ((p - 0.5) * 2.0))
                fill = f"rgb(255,{v},{v})"
            else:
                v = int(255 - 175 * ((0.5 - p) * 2.0))
                fill = f"rgb({v},{v},255)"
            lines.append(
                f'<rect x="{col * px}" y="{n * px - (row + 1) * px}" width="{px}" '
                f'height="{px}" fill="{fill}"/>'
            )
        path = tmp_path / "heat.svg"
        _write_svg_heatmap(path, grid, post1)
        assert path.read_text() == "\n".join(lines + ["</svg>"]) + "\n"

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            assert (
                main(
                    [
                        "simulate", "--out-dir", str(out), "--seed", "4",
                        "--grid-step", "0.25", "--threads", threads,
                    ]
                )
                == EXIT_OK
            )
            outs.append(out)
        for fname in ("simulation_train.csv", "boundary_shared_nu.csv", "boundary_ml_nu.csv"):
            blobs = [(o / fname).read_bytes() for o in outs]
            assert blobs[0] == blobs[1] == blobs[2]


class TestTrain:
    def test_writes_model_and_logs(self, tmp_path, train_csv, capsys):
        model = tmp_path / "model.json"
        code = main(
            ["train", "--data", str(train_csv), "--model-out", str(model), "--nu", "5"]
        )
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "class=1" in err and "elbo=" in err
        payload = json.loads(model.read_text())
        assert payload["format_version"] == 1
        assert len(payload["classes"]) == 2

    def test_bit_identical_reruns(self, tmp_path, train_csv):
        models = []
        for name in ("m1.json", "m2.json"):
            path = tmp_path / name
            assert (
                main(
                    [
                        "train", "--data", str(train_csv), "--model-out", str(path),
                        "--nu", "5", "--k-init", "4", "--seed", "9",
                    ]
                )
                == EXIT_OK
            )
            models.append(path.read_bytes())
        assert models[0] == models[1]

    def test_component_cap_on_unimodal_classes(self, tmp_path, train_csv):
        model = tmp_path / "model.json"
        assert (
            main(
                [
                    "train", "--data", str(train_csv), "--model-out", str(model),
                    "--nu", "5", "--k-init", "10", "--seed", "0",
                ]
            )
            == EXIT_OK
        )
        payload = json.loads(model.read_text())
        for cm in payload["classes"]:
            assert len(cm["components"]) <= 3

    def test_k_init_past_int64_starts_one_component_per_row(self, tmp_path, train_csv):
        model = tmp_path / "model.json"
        argv = [
            "train", "--data", str(train_csv), "--model-out", str(model), "--nu", "5",
            "--k-init", str(10**20),
        ]
        assert main(argv) == EXIT_OK
        payload = json.loads(model.read_text())
        assert payload["prior"]["k_init"] == 10**20
        labels = load_csv(train_csv).labels
        for cm in payload["classes"]:
            rows = int((labels == cm["class_id"]).sum())
            assert cm["n_pruned"] == rows - len(cm["components"])

    def test_select_nu_reports_grid_member(self, tmp_path, train_csv, capsys):
        model = tmp_path / "model.json"
        code = main(
            [
                "train", "--data", str(train_csv), "--model-out", str(model),
                "--select-nu", "--folds", "2", "--nu-grid", "0.5,5,50",
            ]
        )
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "selected nu" in err
        selected = float(err.split("selected nu =")[1].splitlines()[0])
        assert selected in (0.5, 5.0, 50.0)
        table = Path(str(model) + ".nu_search.csv").read_text().splitlines()
        assert table[0] == "fold,nu,J"
        assert len(table) == 1 + 2 * 3

    def test_nu_flags_mutually_exclusive(self, tmp_path, train_csv):
        code = main(
            [
                "train", "--data", str(train_csv), "--model-out",
                str(tmp_path / "m.json"), "--nu", "5", "--select-nu",
            ]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--select-nu", "--nu-grid", "1,nan,3"], "got nan"),
            (["--select-nu", "--nu-grid", "1,inf"], "got inf"),
            (["--nu", "nan"], "got nan"),
            (["--nu", "inf"], "got inf"),
            (["--select-nu", "--nu-pre", "inf"], "got inf"),
        ],
    )
    def test_non_finite_nu_is_usage_error_before_any_fit(
        self, tmp_path, train_csv, capsys, monkeypatch, flags, named
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before the flags were checked")

        monkeypatch.setattr("scalemix.cli.fit", no_fit)
        monkeypatch.setattr("scalemix.nu_select.fit_each", no_fit)
        code = main(
            ["train", "--data", str(train_csv), "--model-out", str(tmp_path / "m.json")]
            + flags
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and named in err
        assert not (tmp_path / "m.json").exists()

    def test_missing_nu_is_usage_error(self, tmp_path, train_csv):
        code = main(
            ["train", "--data", str(train_csv), "--model-out", str(tmp_path / "m.json")]
        )
        assert code == EXIT_USAGE

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            [
                "train", "--data", str(tmp_path / "nope.csv"), "--model-out",
                str(tmp_path / "m.json"), "--nu", "5",
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("nu", [["--nu", "5"], ["--select-nu", "--folds", "2"]])
    def test_missing_model_directory_fails_before_any_fit(self, tmp_path, train_csv, capsys, nu):
        model = tmp_path / "missing" / "m.json"
        argv = ["train", "--data", str(train_csv), "--model-out", str(model), *nu]
        assert main(argv) == EXIT_DATA
        # no class= iteration line: nothing was fit
        err = capsys.readouterr().err
        assert err == f"data error: cannot write {model}: its directory does not exist\n"

    def test_collinear_rows_train_on_a_jittered_prior(self, tmp_path):
        # every row lies on x2 = x1 + 1, so the sample covariance is singular,
        # yet it factorises on a second pivot of 2.1e-8
        data = tmp_path / "line.csv"
        data.write_text(
            "f1,f2,label,trial,participant\n1,2,1,1,1\n3,4,2,1,1\n1.5,2.5,1,1,1\n3.5,4.5,2,1,1\n"
        )
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--model-out", str(model), "--nu", "5"]) == 0
        assert load_model(model).class_ids == [1, 2]

    # the draws of seeds 0-199 whose W0 factorises on a pivot ratio of 3.0e-14 to
    # 2.2e-13, under 16 (d + 1) eps times the features' largest |mean| / std (7e4-1.6e5)
    @pytest.mark.parametrize("seed", [31, 50, 61, 87, 168])
    def test_planar_rows_far_from_zero_train_on_a_jittered_prior(self, tmp_path, seed):
        # 60 rows on a plane, features scaled 1e-3 to 1e3 about a mean of 100:
        # centring rounds the smallest feature's spread away
        rng = np.random.default_rng(seed)
        basis = rng.standard_normal((2, 3))
        coef = rng.standard_normal((60, 2))
        feats = coef @ basis * np.array([1e-3, 1.0, 1e3])[rng.permutation(3)] + 100.0
        ones = np.ones(60, int)
        data = tmp_path / "plane.csv"
        save_csv(FeatureDataset(feats, np.repeat([1, 2], 30), ones, ones), data)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--model-out", str(model), "--nu", "5"]) == 0
        assert load_model(model).class_ids == [1, 2]

    def test_out_of_range_integer_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("f1,label,trial,participant\n1.5,99999999999999999999,1,1\n")
        code = main(
            ["train", "--data", str(data), "--model-out", str(tmp_path / "m.json"), "--nu", "5"]
        )
        assert code == EXIT_DATA
        assert "row 2, column label" in capsys.readouterr().err

    def test_label_below_one_is_data_error_naming_row(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        data.write_text("f1,label,trial,participant\n1.5,0,1,1\n2.5,1,1,1\n")
        code = main(
            ["train", "--data", str(data), "--model-out", str(tmp_path / "m.json"), "--nu", "5"]
        )
        assert code == EXIT_DATA
        assert (
            f"{data}: row 2, column label: not a positive integer ('0')"
            in capsys.readouterr().err
        )

    def test_iteration_cap_gives_distinct_exit_code(self, tmp_path, train_csv):
        code = main(
            [
                "train", "--data", str(train_csv), "--model-out",
                str(tmp_path / "m.json"), "--nu", "5", "--k-init", "8",
                "--max-iters", "2", "--seed", "0",
            ]
        )
        assert code == EXIT_NO_CONVERGENCE
        assert (tmp_path / "m.json").exists()  # model still written

    def test_config_file_precedence(self, tmp_path, train_csv):
        config = tmp_path / "run.conf"
        config.write_text("nu = 5\nk-init = 10\nseed = 3\n# comment\n")
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        # config alone
        assert (
            main(
                [
                    "train", "--data", str(train_csv), "--model-out", str(m1),
                    "--config", str(config),
                ]
            )
            == EXIT_OK
        )
        # flag overrides the config's k-init
        assert (
            main(
                [
                    "train", "--data", str(train_csv), "--model-out", str(m2),
                    "--config", str(config), "--k-init", "1",
                ]
            )
            == EXIT_OK
        )
        p1 = json.loads(m1.read_text())
        p2 = json.loads(m2.read_text())
        assert p1["prior"]["k_init"] == 10
        assert p2["prior"]["k_init"] == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, train_csv):
        config = tmp_path / "run.conf"
        config.write_text("nu = 5\nwibble = 3\n")
        code = main(
            [
                "train", "--data", str(train_csv), "--model-out",
                str(tmp_path / "m.json"), "--config", str(config),
            ]
        )
        assert code == EXIT_USAGE


    @pytest.mark.parametrize("value", ["ture", "on", "2", ""])
    def test_unreadable_config_boolean_is_usage_error(self, tmp_path, train_csv, capsys, value):
        config = tmp_path / "run.conf"
        config.write_text(f"select_nu = {value}\nnu = 5\n")
        model = tmp_path / "m.json"
        code = main(
            [
                "train", "--data", str(train_csv), "--model-out", str(model),
                "--config", str(config),
            ]
        )
        assert code == EXIT_USAGE
        assert f"config key select_nu: cannot parse {value!r}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("value", ["No", "FALSE", "0"])
    def test_config_boolean_spellings(self, tmp_path, train_csv, value):
        config = tmp_path / "run.conf"
        config.write_text(f"select_nu = {value}\nnu = 5\n")
        code = main(
            [
                "train", "--data", str(train_csv), "--model-out",
                str(tmp_path / "m.json"), "--config", str(config),
            ]
        )
        assert code == EXIT_OK


class TestPredict:
    def make_model(self, tmp_path, train_csv):
        model = tmp_path / "model.json"
        main(["train", "--data", str(train_csv), "--model-out", str(model), "--nu", "5"])
        return model

    def test_predictions_csv(self, tmp_path, train_csv):
        model = self.make_model(tmp_path, train_csv)
        out = tmp_path / "pred"
        assert (
            main(
                [
                    "predict", "--model", str(model), "--data", str(train_csv),
                    "--out-dir", str(out),
                ]
            )
            == EXIT_OK
        )
        lines = (out / "predictions.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["f1", "f2", "label", "trial", "participant"]
        assert header[5] == "pred_label"
        assert header[6:] == ["log_posterior_1", "log_posterior_2"]
        rows = [ln.split(",") for ln in lines[1:]]
        acc = np.mean([r[5] == r[2] for r in rows])
        assert acc >= 0.99
        # log posteriors normalize
        for r in rows[:20]:
            total = math.exp(float(r[6])) + math.exp(float(r[7]))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_feature_count_must_match_the_model(self, tmp_path, train_csv, capsys):
        model = self.make_model(tmp_path, train_csv)
        wide = tmp_path / "wide.csv"
        wide.write_text("f1,f2,f3,label,trial,participant\n0.5,1.5,2.5,1,1,1\n")
        out = tmp_path / "pred"
        argv = ["predict", "--model", str(model), "--data", str(wide), "--out-dir", str(out)]
        assert main(argv) == EXIT_DATA
        assert f"{wide}: expected 2 feature columns, found 3" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_input_gives_header_only(self, tmp_path, train_csv):
        model = self.make_model(tmp_path, train_csv)
        empty = tmp_path / "empty.csv"
        empty.write_text("f1,f2,label,trial,participant\n")
        out = tmp_path / "pred"
        assert (
            main(
                ["predict", "--model", str(model), "--data", str(empty), "--out-dir", str(out)]
            )
            == EXIT_OK
        )
        lines = (out / "predictions.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_dimension_mismatch_exit_code(self, tmp_path, train_csv):
        model = self.make_model(tmp_path, train_csv)
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2,f3,label,trial,participant\n1,2,3,1,1,1\n")
        assert (
            main(["predict", "--model", str(model), "--data", str(bad), "--out-dir", str(tmp_path)])
            == EXIT_DATA
        )

    def test_malformed_row_names_line(self, tmp_path, train_csv, capsys):
        model = self.make_model(tmp_path, train_csv)
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2,label,trial,participant\n1.0,oops,1,1,1\n")
        assert (
            main(["predict", "--model", str(model), "--data", str(bad), "--out-dir", str(tmp_path)])
            == EXIT_DATA
        )
        assert "row 2" in capsys.readouterr().err

    def test_model_without_expected_scale_fails_before_reading_data(
        self, tmp_path, train_csv, capsys
    ):
        model = self.make_model(tmp_path, train_csv)
        payload = json.loads(model.read_text())
        payload["classes"][1]["components"][0]["eta"] = 2.5
        model.write_text(json.dumps(payload))
        out = tmp_path / "pred"
        # the data file does not exist: reading it would fail with another message
        argv = [
            "predict", "--model", str(model), "--data", str(tmp_path / "absent.csv"),
            "--out-dir", str(out),
        ]
        assert main(argv) == EXIT_DATA
        assert "component 0 of class 2 has eta = 2.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("dim",), None, "model: 'dim' is not a JSON integer"),
            (("class_log_prior", 0), math.nan, "class_log_prior is not finite"),
            (("prior", "alpha0"), math.nan, "prior: alpha0 must be finite"),
            (("prior", "beta0"), None, "prior: 'beta0' is not a JSON number"),
            (("prior", "m0", 0), math.inf, "prior: m0 must be finite"),
            (("prior", "W0", 0, 1), math.nan, "prior: W0 must be finite"),
            (("prior", "eta0"), "3", "prior: 'eta0' is not a JSON number"),
            (("prior", "nu_fixed"), math.inf, "prior: nu_fixed must be positive and finite"),
            (("prior", "k_init"), 1.5, "prior: 'k_init' is not a JSON integer"),
            (("classes", 1, "class_id"), None, "class record 1: 'class_id' is not a JSON integer"),
            (("classes", 1, "class_id"), 1, "class records 0, 1: class_ids 1, 1 do not increase"),
            (("classes", 1, "class_id"), 0, "class 0: class_id must be at least 1"),
            (("classes", 1, "alpha_hat"), math.nan, "class 2: alpha_hat nan does not match"),
            (("classes", 1, "n_pruned"), None, "class record 1: 'n_pruned' is not a JSON integer"),
            (("classes", 1, "converged"), None, "class record 1: 'converged' is not a JSON bool"),
            (("classes", 1, "converged"), "no", "class record 1: 'converged' is not a JSON bool"),
            (
                ("classes", 1, "elbo_trace", 0),
                None,
                "class record 1: 'elbo_trace' is not a JSON array of numbers",
            ),
            (("classes", 1, "elbo_trace", 0), math.nan, "class 2: elbo_trace is not finite"),
            (
                ("classes", 1, "components", 0, "alpha"),
                None,
                "component 0 of class record 1: 'alpha' is not a JSON number",
            ),
            (("classes", 1, "components", 0, "alpha"), math.inf, "component 0 of class 2: alpha"),
            (
                ("classes", 1, "components", 0, "alpha"),
                10**400,
                "component 0 of class record 1: 'alpha' is not a JSON number",
            ),
            (("prior", "eta0"), -(10**400), "prior: 'eta0' is not a JSON number"),
            (("classes", 1, "components", 0, "beta"), math.nan, "component 0 of class 2: beta"),
            (
                ("classes", 1, "components", 0, "m", 0),
                None,
                "component 0 of class record 1: 'm' is not a JSON array of numbers of shape (2,)",
            ),
            (("classes", 1, "components", 0, "m", 1), math.nan, "component 0 of class 2: m"),
            (("classes", 1, "components", 0, "W", 0, 1), math.nan, "component 0 of class 2: W"),
            (("classes", 1, "components", 0, "eta"), math.nan, "component 0 of class 2: eta"),
            (("classes", 1, "components", 0, "nu"), math.inf, "component 0 of class 2: nu"),
            (("classes", 0, "class_id"), 3, "class records 0, 1: class_ids 3, 2 do not increase"),
        ],
    )
    def test_bad_model_leaf_fails_before_reading_data(
        self, tmp_path, train_csv, capsys, path, value, message
    ):
        model = self.make_model(tmp_path, train_csv)
        payload = json.loads(model.read_text())
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        model.write_text(json.dumps(payload))
        out = tmp_path / "pred"
        argv = [
            "predict", "--model", str(model), "--data", str(tmp_path / "absent.csv"),
            "--out-dir", str(out),
        ]
        assert main(argv) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"format_version": 1}', "model has no 'dim' field"),
            ("[]", "model must be a JSON object, got list"),
            ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ],
    )
    def test_malformed_model_file_is_a_data_error_naming_the_file(
        self, tmp_path, train_csv, capsys, text, message
    ):
        model = tmp_path / "model.json"
        model.write_text(text)
        out = tmp_path / "pred"
        argv = ["predict", "--model", str(model), "--data", str(train_csv), "--out-dir", str(out)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {model}: {message}\n"
        assert not out.exists()

    def test_multi_chunk_output_matches_row_by_row_reference(self, tmp_path, train_csv):
        model = self.make_model(tmp_path, train_csv)
        n = 2 * BLOCK_ROWS + 1
        rng = np.random.default_rng(4)
        data = FeatureDataset(
            rng.standard_normal((n, 2)) * 3.0 + 2.0,
            rng.integers(1, 3, n),
            rng.integers(1, 5, n),
            rng.integers(1, 3, n),
        )
        path = tmp_path / "long.csv"
        save_csv(data, path)
        out = tmp_path / "pred"
        argv = ["predict", "--model", str(model), "--data", str(path), "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        # reference: one whole-file batch, written one numpy scalar at a time
        classifier = load_model(model)
        log_post, labels = predict_batch(classifier, data.features)
        lines = ["f1,f2,label,trial,participant,pred_label,log_posterior_1,log_posterior_2"]
        for i in range(n):
            cells = [repr(float(v)) for v in data.features[i]]
            cells += [
                str(int(data.labels[i])),
                str(int(data.trials[i])),
                str(int(data.participants[i])),
                str(int(labels[i])),
            ]
            cells += [repr(float(v)) for v in log_post[i]]
            lines.append(",".join(cells))
        expected = ("\n".join(lines) + "\n").encode()
        assert (out / "predictions.csv").read_bytes() == expected

    def three_chunk_input(self, tmp_path):
        """2 full slices and 5 rows, holding edge-case floats and large ids."""
        n = 2 * BLOCK_ROWS + 5
        rng = np.random.default_rng(12)
        feats = rng.standard_normal((n, 2)) * 3.0 + 2.0
        rows = [0, BLOCK_ROWS - 1, BLOCK_ROWS, n - 1]
        feats[rows] = [[-0.0, 5e-324], [1e16, 1e-05], [-1e-05, -0.0], [5e-324, -1e16]]
        trials = rng.integers(1, 5, n)
        trials[rows] = 2**62
        participants = rng.integers(1, 3, n)
        participants[rows] = np.iinfo(np.int64).max
        path = tmp_path / "edge.csv"
        save_csv(FeatureDataset(feats, rng.integers(1, 3, n), trials, participants), path)
        return path

    def test_pooled_output_is_byte_identical_to_in_process(
        self, tmp_path, train_csv, monkeypatch
    ):
        model = self.make_model(tmp_path, train_csv)
        path = self.three_chunk_input(tmp_path)
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
            out = tmp_path / f"pred{workers}"
            argv = ["predict", "--model", str(model), "--data", str(path), "--out-dir", str(out)]
            assert main(argv) == EXIT_OK
            assert multiprocessing.active_children() == []
            outputs.append((out / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1]
        for line in outputs[0].splitlines()[1:]:
            if line.startswith(b"-0.0,5e-324,"):
                assert line.split(b",")[3:5] == [b"4611686018427387904", b"9223372036854775807"]
                break
        else:
            raise AssertionError("the edge-case row is missing")

    def test_single_chunk_predict_builds_no_pool(self, tmp_path, train_csv, monkeypatch):
        model = self.make_model(tmp_path, train_csv)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built for one slice")

        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "pred"
        argv = ["predict", "--model", str(model), "--data", str(train_csv), "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        assert (out / "predictions.csv").exists()

    # only a forked worker can die: in one process the exit would end the caller
    @pytest.mark.parametrize(
        "predictor, workers",
        [(_raise_on_short_slice, 1), (_raise_on_short_slice, 2), (_exit_on_short_slice, 2)],
    )
    def test_worker_failure_leaves_earlier_output(
        self, tmp_path, train_csv, monkeypatch, capsys, predictor, workers
    ):
        model = self.make_model(tmp_path, train_csv)
        path = self.three_chunk_input(tmp_path)
        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
        monkeypatch.setattr("scalemix.cli.predict_batch", predictor)
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "predictions.csv").write_bytes(b"earlier output\n")
        argv = ["predict", "--model", str(model), "--data", str(path), "--out-dir", str(kept)]
        if predictor is _exit_on_short_slice:
            assert main(argv) == EXIT_WORKER
            assert "worker failure:" in capsys.readouterr().err
        else:
            # the job's own exception arrives as itself, in a worker as in process
            with pytest.raises(RuntimeError, match="^prediction failed$"):
                main(argv)
        assert (kept / "predictions.csv").read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in kept.iterdir()) == ["predictions.csv"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_data_error_leaves_no_partial_output(
        self, tmp_path, train_csv, capsys, monkeypatch, workers
    ):
        # the bad row lies past the first slice, so it is parsed by map_in_workers
        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
        model = self.make_model(tmp_path, train_csv)
        data = two_blob_dataset(seed=9, n_per_class=10_000)
        path = tmp_path / "bad.csv"
        save_csv(data, path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(99, "\n")  # physical line 100 is blank
        cells = lines[17999].split(",")
        cells[1] = "abc"  # physical line 18000, column f2: past the first chunk
        lines[17999] = ",".join(cells)
        path.write_text("".join(lines))
        argv = ["predict", "--model", str(model), "--data", str(path), "--out-dir"]

        fresh = tmp_path / "fresh"
        assert main(argv + [str(fresh)]) == EXIT_DATA
        assert "row 18000, column f2" in capsys.readouterr().err
        assert list(fresh.glob("*")) == []  # no predictions.csv, no temporary file

        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "predictions.csv").write_bytes(b"earlier output\n")
        assert main(argv + [str(kept)]) == EXIT_DATA
        assert (kept / "predictions.csv").read_bytes() == b"earlier output\n"
        assert sorted(p.name for p in kept.iterdir()) == ["predictions.csv"]
        assert multiprocessing.active_children() == []

    # line 3 is the first slice's first row, line 2 * BLOCK_ROWS lies in the second slice
    @pytest.mark.parametrize("lineno", [3, 2 * BLOCK_ROWS])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_feature_too_large_to_score_is_data_error(
        self, tmp_path, train_csv, capsys, monkeypatch, workers, lineno
    ):
        # finite, but its squared distances overflow: refused, never written as nan
        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
        model = self.make_model(tmp_path, train_csv)
        capsys.readouterr()
        path = tmp_path / "huge.csv"
        save_csv(two_blob_dataset(seed=9, n_per_class=BLOCK_ROWS), path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(1, "\n")  # physical line 2 is blank
        lines[lineno - 1] = "1e200," + lines[lineno - 1].split(",", 1)[1]
        path.write_text("".join(lines))
        out = tmp_path / "pred"
        argv = ["predict", "--model", str(model), "--data", str(path), "--out-dir", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {path}: row {lineno}: a feature is too large to score\n"
        )
        assert list(out.glob("*")) == []  # no predictions.csv, no temporary file
        assert multiprocessing.active_children() == []

    def echo_input(self, tmp_path, unscorable_line=None):
        """Three slices of CRLF lines, with no newline after the last.

        The first slice holds non-canonical cells and blank lines, blank
        lines lie about its end, and a non-ASCII cell that
        Python's ``float`` reads sends the last slice down the per-row
        parse. ``unscorable_line``, when given, is the physical line whose
        first cell becomes ``1e200``. Returns the path and the lines.
        """
        n = 2 * BLOCK_ROWS + 6
        rng = np.random.default_rng(21)
        rows = [
            f"{f1!r},{f2!r},{label},{trial},1"
            for (f1, f2), label, trial in zip(
                (rng.standard_normal((n, 2)) * 3.0 + 2.0).tolist(),
                rng.integers(1, 3, n).tolist(),
                rng.integers(1, 5, n).tolist(),
            )
        ]
        rows[0] = "1.50, 2,1,+3,1"
        rows[1] = "1E0,-0.0,+2, 4,1"
        rows[2] = " 2,+3.0,1,1,+1"
        rows[-3] = "\u0663.\u0665,1,2,1,1"  # Arabic-Indic digits: 3.5
        # blanks inside the first slice, and about the end of its last row
        for at, blank in [(BLOCK_ROWS, ""), (BLOCK_ROWS - 1, "  "), (5, ""), (3, "\t")]:
            rows.insert(at, blank)
        lines = ["f1,f2,label,trial,participant", *rows]
        if unscorable_line is not None:
            lines[unscorable_line - 1] = "1e200," + lines[unscorable_line - 1].split(",", 1)[1]
        path = tmp_path / "echo.csv"
        path.write_bytes("\r\n".join(lines).encode("utf-8"))
        return path, lines

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_echo_their_input_text(self, tmp_path, train_csv, monkeypatch, workers):
        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
        model = self.make_model(tmp_path, train_csv)
        path, lines = self.echo_input(tmp_path)
        with open(path, encoding="utf-8") as fh:
            next(fh)
            slices = list(_data._line_slices(fh))
        # a blank line among the first slice's last rows, one opening the second
        assert [len(rows) for rows, _ in slices] == [BLOCK_ROWS, BLOCK_ROWS, 6]
        assert lines[BLOCK_ROWS + 2].strip() == lines[BLOCK_ROWS + 4].strip() == ""
        assert slices[0][1][-2:] == [BLOCK_ROWS + 2, BLOCK_ROWS + 4]
        assert slices[1][1][0] == BLOCK_ROWS + 6
        assert not slices[2][0][-1].endswith("\n")
        out = tmp_path / "pred"
        argv = ["predict", "--model", str(model), "--data", str(path), "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        assert multiprocessing.active_children() == []

        text = (out / "predictions.csv").read_text(encoding="utf-8")
        assert "\r" not in text and text.endswith("\n")
        written = text.splitlines()[1:]
        given = [line for line in lines[1:] if line.strip()]
        assert len(written) == len(given)
        data = load_csv(path)
        log_post, labels = predict_batch(load_model(model), data.features)
        tails = format_rows(labels[:, None], log_post).splitlines()
        for row, line, tail in zip(written, given, tails):
            assert row == f"{line},{tail}"
        # the echoed cells read back to the values load_csv reads, bit for bit
        cells = [row.split(",") for row in written]
        feats = np.array([[float(c) for c in r[:2]] for r in cells])
        ids = np.array([[int(c) for c in r[2:5]] for r in cells])
        assert feats.tobytes() == data.features.tobytes()
        assert np.array_equal(ids, np.column_stack([data.labels, data.trials, data.participants]))
        assert written[0].startswith("1.50, 2,1,+3,1,")

    # a blank line in the first slice; a row in the slice parsed row by row
    @pytest.mark.parametrize("lineno", [7, 2 * BLOCK_ROWS + 6])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_unscorable_row_among_echoed_rows_names_its_line(
        self, tmp_path, train_csv, capsys, monkeypatch, workers, lineno
    ):
        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
        model = self.make_model(tmp_path, train_csv)
        capsys.readouterr()
        path, lines = self.echo_input(tmp_path, unscorable_line=lineno)
        assert "\u0663" in "".join(lines[2 * BLOCK_ROWS + 1 :])
        out = tmp_path / "pred"
        argv = ["predict", "--model", str(model), "--data", str(path), "--out-dir", str(out)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {path}: row {lineno}: a feature is too large to score\n"
        )
        assert list(out.glob("*")) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blank_lines_leave_the_predictions_unchanged(
        self, tmp_path, train_csv, monkeypatch, workers
    ):
        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
        model = self.make_model(tmp_path, train_csv)
        rng = np.random.default_rng(3)
        n = 2 * BLOCK_ROWS + 10
        feats = rng.standard_normal((n, 2)) * 3.0 + 2.0
        ones = np.ones(n, dtype=int)
        plain = tmp_path / "plain.csv"
        save_csv(FeatureDataset(feats, rng.integers(1, 3, n), ones, ones), plain)
        lines = plain.read_text().splitlines(keepends=True)
        # before data rows 1 and 4 in the first slice, among the lines that
        # top it up, at the first slice boundary and before the last row
        for row in sorted([0, 3, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, n - 1])[::-1]:
            lines.insert(row + 1, "\n" if row % 2 else " \t \n")
        blank = tmp_path / "blank.csv"
        blank.write_text("".join(lines) + "  ")
        outputs = []
        for path in (plain, blank):
            out = tmp_path / path.stem
            argv = ["predict", "--model", str(model), "--data", str(path), "--out-dir", str(out)]
            assert main(argv) == EXIT_OK
            outputs.append((out / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == n + 1
        assert multiprocessing.active_children() == []

    def test_tied_rows_take_the_lowest_class_id(self, tmp_path, train_csv):
        model = self.make_model(tmp_path, train_csv)
        doc = json.loads(model.read_text())
        # two identical classes: every row ties
        doc["classes"] = [dict(doc["classes"][0], class_id=cid) for cid in (1, 3)]
        model.write_text(json.dumps(doc))
        out = tmp_path / "pred"
        argv = ["predict", "--model", str(model), "--data", str(train_csv), "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        header, *rows = (out / "predictions.csv").read_text().splitlines()
        assert header.endswith(",pred_label,log_posterior_1,log_posterior_3")
        cells = [row.split(",") for row in rows]
        assert len(cells) == 160 and all(c[-3] == "1" and c[-2] == c[-1] for c in cells)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_echo_of_canonical_rows_is_format_rows_of_their_values(
        self, tmp_path, train_csv, seed
    ):
        # the rows save_csv writes are format_rows text, so echoing them
        # gives the bytes that formatting their parsed values would
        model = self.make_model(tmp_path, train_csv)
        prepared = prepare(load_model(model))
        rng = np.random.default_rng(seed)
        n = BLOCK_ROWS + 300
        # full 53-bit mantissas over exponents from subnormal to 2**330
        feats = np.ldexp(rng.uniform(-1.0, 1.0, (n, 2)), rng.integers(-1074, 331, (n, 2)))
        feats[:6] = [[-0.0, 5e-324], [1e16, -1e16], [0.1, 1e-310], [-5e-324, 0.0],
                     [2.0**-1022, -(2.0**-1023)], [1e-05, 123456789.0]]
        top = np.iinfo(np.int64).max
        ids = np.column_stack([
            rng.integers(1, top, n, endpoint=True),
            rng.integers(-top - 1, top, n, endpoint=True),
            rng.integers(-top - 1, top, n, endpoint=True),
        ])
        ids[:3] = [[top, top, -top - 1], [1, 0, top], [top, -1, 1]]
        path = tmp_path / "canonical.csv"
        save_csv(FeatureDataset(feats, *ids.T), path)
        with open(path, encoding="utf-8") as fh:
            names = _data._read_header(fh, path, 2)
            for rows, linenos in _data._line_slices(fh):
                parsed, parsed_ids = _data._parse_chunk(rows, linenos, path, names)
                log_post, labels = predict_batch(prepared, parsed)
                expected = format_rows(parsed, np.column_stack([parsed_ids, labels]), log_post)
                assert _predict_slice(rows, linenos, path, names, prepared) == expected


class TestEvaluate:
    def test_combination_enumeration_and_metrics(self, tmp_path):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, trials=4)
        out = tmp_path / "ev"
        assert (
            main(
                [
                    "evaluate", "--data", str(data_path), "--nu", "5",
                    "--out-dir", str(out), "--seed", "0",
                ]
            )
            == EXIT_OK
        )
        combos = (out / "combinations.csv").read_text().splitlines()[1:]
        # floor(4 / 3) = 1 training trial, C(4, 1) = 4 combinations per participant
        assert len(combos) == 2 * 4
        for pid in ("1", "2"):
            assert sum(1 for ln in combos if ln.startswith(pid + ",")) == 4
        metrics = dict(
            ln.split(",") for ln in (out / "metrics.csv").read_text().splitlines()[1:]
        )
        assert float(metrics["accuracy"]) == 1.0
        assert float(metrics["participant_accuracy_mean"]) == 1.0
        assert float(metrics["precision_1"]) == 1.0
        assert float(metrics["recall_3"]) == 1.0
        timings = (out / "timings.csv").read_text().splitlines()
        assert timings[0] == "participant,combination,tune_s,train_s,predict_us_per_record"
        assert len(timings) - 1 == 8
        # tuning time is zero when the tail weight was given explicitly
        assert all(float(ln.split(",")[2]) == 0.0 for ln in timings[1:])
        conf = (out / "confusion.csv").read_text().splitlines()
        assert len(conf) == 4  # header + 3 classes

    def test_no_trial_leakage_between_splits(self, tmp_path):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=5)
        out = tmp_path / "ev"
        assert (
            main(
                [
                    "evaluate", "--data", str(data_path), "--nu", "5",
                    "--out-dir", str(out), "--trials-train", "2",
                ]
            )
            == EXIT_OK
        )
        combos = (out / "combinations.csv").read_text().splitlines()[1:]
        assert len(combos) == math.comb(5, 2)
        seen = set()
        for ln in combos:
            train_trials = ln.split(",")[2]
            assert train_trials not in seen
            seen.add(train_trials)
            assert len(train_trials.split(";")) == 2

    def test_combinations_list_their_training_trials_in_order(self, tmp_path):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=4)
        out = tmp_path / "ev"
        assert (
            main(
                [
                    "evaluate", "--data", str(data_path), "--nu", "5",
                    "--out-dir", str(out), "--trials-train", "2",
                ]
            )
            == EXIT_OK
        )
        combos = (out / "combinations.csv").read_text().splitlines()[1:]
        assert ",".join(ln.split(",")[2] for ln in combos) == "1;2,1;3,1;4,2;3,2;4,3;4"

    def test_subsample_keeps_all_classes(self, tmp_path):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=4, n=40)
        out = tmp_path / "ev"
        assert (
            main(
                [
                    "evaluate", "--data", str(data_path), "--nu", "5",
                    "--out-dir", str(out), "--subsample", "0.2",
                ]
            )
            == EXIT_OK
        )
        combos = (out / "combinations.csv").read_text().splitlines()[1:]
        n_train = {int(ln.split(",")[3]) for ln in combos}
        assert n_train == {24}  # 20% of 120 rows, stratified over 3 classes

    def test_baseline_probability_of_superiority(self, tmp_path):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, trials=3)
        baseline = tmp_path / "base.csv"
        baseline.write_text("participant,accuracy\n1,0.5\n2,0.5\n")
        out = tmp_path / "ev"
        assert (
            main(
                [
                    "evaluate", "--data", str(data_path), "--nu", "5",
                    "--out-dir", str(out), "--baseline", str(baseline),
                ]
            )
            == EXIT_OK
        )
        metrics = dict(
            ln.split(",") for ln in (out / "metrics.csv").read_text().splitlines()[1:]
        )
        assert float(metrics["probability_of_superiority"]) == 1.0

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1,0.5\n2,abc\n", "line 3: accuracy must be a number in [0, 1] ('abc')"),
            ("1,0.5\n2,nan\n", "line 3: accuracy must be a number in [0, 1] ('nan')"),
            ("1,1.7\n2,0.5\n", "line 2: accuracy must be a number in [0, 1] ('1.7')"),
            ("1,0.5\n2,0.5,9\n", "line 3: 3 cells, expected 2"),
            ("1,0.5\nx,0.5\n", "line 3: participant is not an integer ('x')"),
            ("1,0.5\n2,0.5\n1,0.6\n", "line 4: participant 1 is listed twice"),
            ("1,0.5\n", "baseline is missing participants [2]"),
            # one line: str.splitlines would also end a line at the record separator
            ("1,0.5\x1e2,0.5\n", "line 2: 3 cells, expected 2"),
        ],
        ids=["not_a_number", "nan", "above_one", "cell_count", "participant", "duplicate",
             "missing", "record_separator"],
    )
    def test_bad_baseline_fails_before_any_fit(self, tmp_path, capsys, monkeypatch, rows, message):
        import scalemix.cli as cli

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the baseline was checked")

        monkeypatch.setattr(cli, "fit", no_fit)
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, trials=3)
        baseline = tmp_path / "base.csv"
        baseline.write_text("participant,accuracy\n" + rows)
        out = tmp_path / "ev"
        code = main(
            [
                "evaluate", "--data", str(data_path), "--nu", "5",
                "--out-dir", str(out), "--baseline", str(baseline),
            ]
        )
        assert code == EXIT_DATA
        assert f"data error: {baseline}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_blank_lines_are_skipped(self, tmp_path):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, trials=3)
        baseline = tmp_path / "base.csv"
        baseline.write_text("participant,accuracy\n1,0.5\n\n2,0.5\n")
        out = tmp_path / "ev"
        assert (
            main(
                [
                    "evaluate", "--data", str(data_path), "--nu", "5",
                    "--out-dir", str(out), "--baseline", str(baseline),
                ]
            )
            == EXIT_OK
        )
        assert "probability_of_superiority,1.0" in (out / "metrics.csv").read_text()

    def test_insufficient_trials_is_data_error(self, tmp_path):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=2)
        code = main(
            [
                "evaluate", "--data", str(data_path), "--nu", "5",
                "--out-dir", str(tmp_path / "ev"), "--trials-train", "2",
            ]
        )
        assert code == EXIT_DATA

    def test_too_few_trials_for_any_participant_fails_before_any_fit(
        self, tmp_path, capsys, monkeypatch
    ):
        # participant 1 can train on 2 of its 4 trials, participant 2 not on 2 of 2
        first, second = tmp_path / "p1.csv", tmp_path / "p2.csv"
        write_protocol_csv(first, participants=(1,), trials=4)
        write_protocol_csv(second, participants=(2,), trials=2)
        data_path = tmp_path / "proto.csv"
        data_path.write_text(first.read_text() + second.read_text().split("\n", 1)[1])

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before every split was checked")

        monkeypatch.setattr("scalemix.cli.fit", no_fit)
        out = tmp_path / "ev"
        code = main(
            [
                "evaluate", "--data", str(data_path), "--nu", "5",
                "--out-dir", str(out), "--trials-train", "2",
            ]
        )
        assert code == EXIT_DATA
        assert "participant 2: cannot train on 2 of 2 trials" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_participant_is_named_before_any_fit(self, tmp_path, capsys, monkeypatch):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1, -3, -2), trials=3)

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before every participant was checked")

        monkeypatch.setattr("scalemix.cli.fit", no_fit)
        out = tmp_path / "ev"
        code = main(["evaluate", "--data", str(data_path), "--nu", "5", "--out-dir", str(out)])
        assert code == EXIT_DATA
        assert "participant -3: a participant id must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_k_init_past_int64_evaluates(self, tmp_path):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=3, n=10)
        argv = [
            "evaluate", "--data", str(data_path), "--nu", "5", "--out-dir", str(tmp_path / "ev"),
            "--k-init", str(10**20),
        ]
        assert main(argv) == EXIT_OK

    def test_missing_class_on_a_training_side_fails_before_any_fit(
        self, tmp_path, capsys, monkeypatch
    ):
        # one participant; trial 2 holds no row of class 3, so the combination
        # that trains on trial 2 alone lacks a class
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=3)
        lines = data_path.read_text().splitlines()
        header = lines[0].split(",")
        label, trial = header.index("label"), header.index("trial")
        kept = [
            ln for ln in lines[1:]
            if not (ln.split(",")[label] == "3" and ln.split(",")[trial] == "2")
        ]
        assert len(kept) < len(lines) - 1
        data_path.write_text("\n".join([lines[0]] + kept) + "\n")

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before every training side was checked")

        monkeypatch.setattr("scalemix.cli.fit", no_fit)
        out = tmp_path / "ev"
        code = main(
            [
                "evaluate", "--data", str(data_path), "--nu", "5",
                "--out-dir", str(out), "--trials-train", "1",
            ]
        )
        assert code == EXIT_DATA
        assert (
            "participant 1 combination 1: training side is missing some class"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_too_few_rows_for_the_folds_fails_before_any_fit(
        self, tmp_path, capsys, monkeypatch
    ):
        # 4 rows per class and trial: a training side of one trial cannot
        # be dealt into the default 5 folds
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=3, n=4)

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before every training side was checked")

        monkeypatch.setattr("scalemix.cli.fit", no_fit)
        out = tmp_path / "ev"
        code = main(["evaluate", "--data", str(data_path), "--select-nu", "--out-dir", str(out)])
        assert code == EXIT_DATA
        assert (
            "participant 1 combination 0: class 1 has 4 training rows, fewer than 5 folds"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def evaluate_outputs(self, out, capsys):
        """Every output of an evaluate run but timings.csv, then stdout and stderr."""
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "timings.csv"}
        assert sorted(files) == [
            "combinations.csv", "confusion.csv", "metrics.csv", "participants.csv", "report.txt",
        ]
        return files, capsys.readouterr()

    def test_pooled_combinations_are_byte_identical_to_in_process(
        self, tmp_path, capsys, monkeypatch
    ):
        # overlapping classes, so that each combination scores differently
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, trials=3, spread=6.0)
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
            out = tmp_path / f"ev{workers}"
            argv = ["evaluate", "--data", str(data_path), "--select-nu", "--out-dir", str(out)]
            assert main(argv + ["--seed", "4"]) == EXIT_OK
            assert multiprocessing.active_children() == []
            outputs.append(self.evaluate_outputs(out, capsys))
        assert outputs[0] == outputs[1]

    def test_pool_has_at_most_one_worker_per_combination(self, tmp_path, monkeypatch):
        sizes = []

        class SizedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SizedPool)
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=3)
        argv = ["evaluate", "--data", str(data_path), "--nu", "5"]
        assert main(argv + ["--out-dir", str(tmp_path / "ev")]) == EXIT_OK
        assert sizes == [3]
        assert multiprocessing.active_children() == []

    def test_one_worker_builds_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built for one worker")

        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=3)
        out = tmp_path / "ev"
        argv = ["evaluate", "--data", str(data_path), "--nu", "5", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        assert len((out / "combinations.csv").read_text().splitlines()) == 1 + 3

    @staticmethod
    def failing_training(error):
        """A ``_train_classifier`` that fails with ``error(trial)`` on every combination.

        Each combination of a 3-trial participant trains on one trial. The
        first one fails last, so the failure reported is the first in job
        order, not the first in time. ``error`` None ends the worker process.
        """

        def train(data, *args, **kwargs):
            (trial,) = np.unique(data.trials).tolist()
            if trial == 1:
                time.sleep(0.3)
            if error is None:
                os._exit(1)
            raise error(trial)

        return train

    @pytest.mark.parametrize(
        "error, code, message",
        [
            (
                lambda t: NumericalFailure(f"class 2 diverged on trial {t}"),
                EXIT_NUMERIC,
                "numeric failure: class 2 diverged on trial 1\n",
            ),
            (
                lambda t: NotPositiveDefiniteError(0, t),
                EXIT_NUMERIC,
                "numeric failure: component 1 is not positive definite (pivot 0)\n",
            ),
            (
                lambda t: DataFormatError(f"no rows left in trial {t}"),
                EXIT_DATA,
                "data error: no rows left in trial 1\n",
            ),
        ],
        ids=["numerical_failure", "not_positive_definite", "data_format"],
    )
    def test_failure_in_a_worker_exits_as_in_process(
        self, tmp_path, capsys, monkeypatch, error, code, message
    ):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=3)
        monkeypatch.setattr("scalemix.cli._train_classifier", self.failing_training(error))
        for workers in (1, 2):
            monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
            out = tmp_path / f"ev{workers}"
            argv = ["evaluate", "--data", str(data_path), "--nu", "5", "--out-dir", str(out)]
            assert main(argv) == code
            assert capsys.readouterr() == ("", message)
            assert multiprocessing.active_children() == []

    def test_dead_worker_exits_with_worker_failure(self, tmp_path, capsys, monkeypatch):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=3)
        monkeypatch.setattr("scalemix.cli._train_classifier", self.failing_training(None))
        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: 2)
        argv = ["evaluate", "--data", str(data_path), "--nu", "5"]
        assert main(argv + ["--out-dir", str(tmp_path / "ev")]) == EXIT_WORKER
        assert capsys.readouterr().err.startswith("worker failure: a worker process died")
        assert multiprocessing.active_children() == []

    def test_blas_threads_survive_the_fork(self, tmp_path):
        # a program that embeds the package: numpy loads before scalemix.cli,
        # so the CLI's one BLAS thread cannot apply, and the parent has just
        # run a product large enough to set OpenBLAS's threads to work; the
        # workers train, so they call BLAS after the fork
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, trials=3)
        argv = ["evaluate", "--data", str(data_path), "--select-nu", "--out-dir", str(tmp_path)]
        probe = (
            "import sys, numpy as np, scalemix.cli, scalemix.data\n"
            "a = np.random.default_rng(0).random((600, 600))\n"
            "(a @ a).sum()\n"
            "scalemix.data._usable_cpus = lambda: 2\n"
            f"sys.exit(scalemix.cli.main({argv!r}))\n"
        )
        src = str(Path(scalemix.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
            env=dict(env, PYTHONPATH=src),
        )
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert len((tmp_path / "combinations.csv").read_text().splitlines()) == 1 + 2 * 3

    def test_deterministic_artifacts_across_threads(self, tmp_path):
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, trials=3)
        blobs = []
        for name, threads in (("a", "1"), ("b", "2")):
            out = tmp_path / name
            assert (
                main(
                    [
                        "evaluate", "--data", str(data_path), "--nu", "5",
                        "--out-dir", str(out), "--seed", "1", "--threads", threads,
                    ]
                )
                == EXIT_OK
            )
            blobs.append(
                b"".join(
                    (out / f).read_bytes()
                    for f in (
                        "combinations.csv", "participants.csv", "metrics.csv",
                        "confusion.csv", "report.txt",
                    )
                )
            )
        assert blobs[0] == blobs[1]

    def test_small_tables_are_pinned_byte_for_byte(self, tmp_path, monkeypatch):
        # three separated classes; three rows sitting inside class 1 are
        # labelled 2 or 3, so every table holds fractions other than 0 and 1
        # while every prediction stays clear-cut
        ds = write_protocol_csv(tmp_path / "raw.csv", trials=3, n=10)
        labels = ds.labels.copy()
        labels[[0, 31, 95]] = [2, 3, 2]
        data_path = tmp_path / "proto.csv"
        save_csv(FeatureDataset(ds.features, labels, ds.trials, ds.participants), data_path)
        baseline = tmp_path / "base.csv"
        baseline.write_text("participant,accuracy\n1,0.98\n2,0.95\n")
        out = tmp_path / "ev"
        argv = ["evaluate", "--data", str(data_path), "--nu", "5", "--out-dir", str(out)]
        assert main(argv + ["--baseline", str(baseline)]) == EXIT_OK
        assert {f: (out / f).read_text() for f in PINNED_TABLES} == PINNED_TABLES
        # the search table's scores are stand-ins, so it pins only the rendering
        monkeypatch.setattr(
            "scalemix.nu_select.conditional_entropy",
            lambda nus, model, valid: np.asarray(nus) / 3.0 + valid.n_rows,
        )
        model = tmp_path / "m.json"
        argv = ["train", "--data", str(data_path), "--model-out", str(model), "--select-nu"]
        assert main(argv + ["--folds", "2", "--nu-grid", "0.5,5,50"]) == EXIT_OK
        assert Path(str(model) + ".nu_search.csv").read_text() == (
            "fold,nu,J\n"
            "0,0.5,91.16666666666667\n0,5.0,92.66666666666667\n0,50.0,107.66666666666667\n"
            "1,0.5,89.16666666666667\n1,5.0,90.66666666666667\n1,50.0,105.66666666666667\n"
        )

    def test_tables_cover_only_the_classes_present(self, tmp_path):
        # labels 1 and 3: no class 2 row, column or metric, and no class 2
        # diluting the macro means (which read 0.6444 with one)
        rng = np.random.default_rng(0)
        feats, labels, trials = [], [], []
        for cid, centre in ((1, 0.0), (3, 3.0)):
            for trial in (1, 2, 3):
                feats.append(centre + rng.standard_normal((30, 2)))
                labels += [cid] * 30
                trials += [trial] * 30
        data_path = tmp_path / "skip.csv"
        save_csv(FeatureDataset(np.vstack(feats), labels, trials, np.ones(180, int)), data_path)
        out = tmp_path / "ev"
        argv = ["evaluate", "--data", str(data_path), "--nu", "5", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        metrics = [ln.split(",")[0] for ln in (out / "metrics.csv").read_text().splitlines()]
        assert [m for m in metrics if m.startswith(("precision_", "recall_"))] == [
            "precision_1", "precision_3", "recall_1", "recall_3",
        ]
        assert (out / "confusion.csv").read_text() == "true\\pred,1,3\n1,174,6\n3,6,174\n"
        assert (out / "report.txt").read_text() == (
            "accuracy              0.9667\nmacro precision       0.9667\n"
            "macro recall          0.9667\n\nclass  precision  recall\n"
            "    1     0.9667  0.9667\n    3     0.9667  0.9667\n"
        )

    def test_class_never_predicted_reads_zero_precision(self, tmp_path, monkeypatch):
        def never_three(classifier, points):
            log_post, pred = predict_batch(classifier, points)
            return log_post, np.minimum(pred, 2)

        monkeypatch.setattr("scalemix.cli.predict_batch", never_three)
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=3)
        out = tmp_path / "ev"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["evaluate", "--data", str(data_path), "--nu", "5", "--out-dir", str(out)])
        assert code == EXIT_OK
        metrics = dict(ln.split(",") for ln in (out / "metrics.csv").read_text().splitlines())
        assert (metrics["precision_3"], metrics["recall_3"]) == ("0.0", "0.0")
        assert metrics["precision_2"] == "0.5"
        assert (out / "confusion.csv").read_text().splitlines()[3] == "3,0,120,0"

    def test_peak_memory_does_not_grow_with_the_combination_count(self, tmp_path, monkeypatch):
        # each combination's sides are built as its job runs and only its
        # confusion matrix is kept, so 70 combinations need no more memory
        # than 8 (about 1.1x here); keeping every side and every
        # prediction until the end would take about 6x
        import tracemalloc

        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: 1)
        data_path = tmp_path / "proto.csv"
        write_protocol_csv(data_path, participants=(1,), trials=8, n=40)
        peaks = {}
        tracemalloc.start()
        try:
            for s in (1, 4):
                tracemalloc.reset_peak()
                argv = [
                    "evaluate", "--data", str(data_path), "--nu", "5", "--k-init", "1",
                    "--max-iters", "2", "--trials-train", str(s),
                    "--out-dir", str(tmp_path / f"ev{s}"),
                ]
                assert main(argv) in (EXIT_OK, EXIT_NO_CONVERGENCE)
                peaks[s] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        combos = (tmp_path / "ev4" / "combinations.csv").read_text().splitlines()[1:]
        assert len(combos) == math.comb(8, 4)
        assert peaks[4] < 1.5 * peaks[1], peaks


INPUTS = Path(__file__).resolve().parent.parent / "benchmarks" / "inputs.py"


@pytest.mark.parametrize("line", [101, 1101])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_feature_too_large_to_train_on_is_data_error(tmp_path, capsys, command, line):
    # the benchmark's protocol input, seed 1 (1200 rows), with one feature at
    # 1e200 on physical line `line`: its covariance would overflow, so the
    # prior could not be built; line 1101 lies in the second slice of rows
    make_protocol = runpy.run_path(str(INPUTS))["make_protocol"]
    path = make_protocol(tmp_path, 1, 0, participants=2, trials=4, rows_per_class=50)["data"]
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(5, "\n")  # physical line 6 is blank
    lines.insert(1049, "\n")  # and so is line 1050
    lines[line - 1] = "1e200," + lines[line - 1].split(",", 1)[1]
    path.write_text("".join(lines))
    out, model = tmp_path / "out", tmp_path / "model.json"
    argv = {
        "train": ["train", "--model-out", str(model)],
        "evaluate": ["evaluate", "--out-dir", str(out)],
    }[command] + ["--data", str(path), "--nu", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {path}: row {line}: a feature is too large to train on\n"
    )
    assert not out.exists() and not model.exists()


@pytest.mark.parametrize("blank", [False, True])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, row", [(20, 95), (200, 1100)])
def test_evaluate_names_the_line_of_a_test_row_too_large_to_score(
    tmp_path, capsys, monkeypatch, workers, blank, n, row
):
    # 3 trials of 2n rows at the 1e-4 scale, where a feature of 1e152 is too
    # large to score but not to train on; data row `row` lies in trial 3, so
    # it is a test row of the first combination, which trains on trial 1
    # alone; row 1100 lies in the second slice of rows
    monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
    rng = np.random.default_rng(0)
    centres = np.tile(np.repeat([[0.0, 0.0], [4.0, 0.0]], n, axis=0), (3, 1))
    feats = 1e-4 * (rng.standard_normal((6 * n, 2)) + centres)
    labels, trials = np.tile(np.repeat([1, 2], n), 3), np.repeat([1, 2, 3], 2 * n)
    path = tmp_path / "data.csv"
    save_csv(FeatureDataset(feats, labels, trials, np.ones(6 * n, int)), path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row + 1].split(",")
    lines[row + 1] = ",".join([cells[0], "1e152"] + cells[2:])  # f2 on line row + 2
    if blank:
        lines.insert(5, "\n")  # physical line 6 is blank
    path.write_text("".join(lines))
    out = tmp_path / "out"
    argv = ["evaluate", "--data", str(path), "--nu", "5", "--trials-train", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out-dir", str(out)]) == EXIT_DATA
    lineno = row + 2 + blank
    assert capsys.readouterr().err == (
        f"data error: {path}: row {lineno}: a feature is too large to score\n"
    )
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


# the characters other than a newline at which str.splitlines ends a line
LINE_BREAKS_BUT_NEWLINE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("reader", ["data", "config", "baseline"])
@pytest.mark.parametrize("char", LINE_BREAKS_BUT_NEWLINE, ids=lambda c: f"U+{ord(c):04X}")
def test_every_reader_ends_a_line_only_at_a_newline(tmp_path, capsys, reader, char):
    # line 2 holds the character, line 3 is blank and line 4 holds the fault;
    # float() and int() refuse \x1c-\x1e, so in a data row or a baseline row
    # the character sits on a line of its own, which both read as blank
    data_path, config, baseline = tmp_path / "data.csv", tmp_path / "a.cfg", tmp_path / "b.csv"
    write_protocol_csv(data_path, trials=3)
    out, model = tmp_path / "out", tmp_path / "m.json"
    argv = ["train", "--data", str(data_path), "--model-out", str(model)]
    if reader == "data":
        header, *rows = data_path.read_text().splitlines(keepends=True)
        fault_row = "abc," + rows[0].split(",", 1)[1]
        data_path.write_text("".join([header, char + "\n", "\n", fault_row, *rows]))
        argv += ["--nu", "5"]
        fault, path, code = "abc", data_path, EXIT_DATA
        message = "data error: {path}: row {line}, column f1: not a number ('abc')"
    elif reader == "config":
        config.write_text(f"# settings{char}\n\nnu = 5\nseed 3\n")
        argv += ["--config", str(config)]
        fault, path, code = "seed 3", config, EXIT_USAGE
        message = "usage error: {path}:{line}: expected 'key = value', got 'seed 3'"
    else:
        baseline.write_text(f"participant,accuracy\n{char}\n\n1,abc\n2,0.5\n")
        argv = ["evaluate", "--data", str(data_path), "--out-dir", str(out), "--nu", "5"]
        argv += ["--baseline", str(baseline)]
        fault, path, code = "abc", baseline, EXIT_DATA
        message = "data error: {path}: line {line}: accuracy must be a number in [0, 1] ('abc')"
    with open(path, encoding="utf-8") as fh:
        line = next(n for n, text in enumerate(fh, start=1) if fault in text)
    assert line == 4
    assert main(argv) == code
    assert capsys.readouterr().err == message.format(path=path, line=line) + "\n"
    assert not out.exists() and not model.exists()


class TestTables:
    def test_csv_and_table_render(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [
            ("accuracy", 0.7), ("precision_1", 4 / 6), ("precision_2", np.float64(0.75)),
            ("n_test", np.int64(12)), ("train_trials", "1;3"),
        ]
        _write_table(path, "metric,value", rows)
        assert path.read_text() == (
            f"metric,value\naccuracy,0.7\nprecision_1,{4 / 6!r}\nprecision_2,0.75\n"
            "n_test,12\ntrain_trials,1;3\n"
        )
        _write_table(path, "fold,nu,J", [])
        assert path.read_text() == "fold,nu,J\n"
        table = _report_text(0.7, [1, 3], np.array([4 / 6, 0.75]), np.array([0.8, 0.6]))
        # no wall-clock rows: the report is byte-reproducible
        assert table.splitlines() == [
            "accuracy              0.7000",
            "macro precision       0.7083",
            "macro recall          0.7000",
            "",
            "class  precision  recall",
            "    1     0.6667  0.8000",
            "    3     0.7500  0.6000",
        ]


# evaluate's tables for the input of test_small_tables_are_pinned_byte_for_byte
PINNED_TABLES = {
    "combinations.csv": (
        "participant,combination,train_trials,n_train,n_test,accuracy\n"
        "1,0,1,30,60,0.9833333333333333\n1,1,2,30,60,0.9833333333333333\n"
        "1,2,3,30,60,0.9666666666666667\n2,0,1,30,60,1.0\n"
        "2,1,2,30,60,0.9833333333333333\n2,2,3,30,60,0.9833333333333333\n"
    ),
    "participants.csv": (
        "participant,n_combinations,accuracy_mean,accuracy_std\n"
        "1,3,0.9777777777777777,0.007856742013183834\n"
        "2,3,0.9888888888888889,0.007856742013183886\n"
    ),
    "metrics.csv": (
        "metric,value\naccuracy,0.9833333333333333\n"
        "precision_1,0.95\nprecision_2,1.0\nprecision_3,1.0\n"
        "recall_1,1.0\nrecall_2,0.967741935483871\nrecall_3,0.9836065573770492\n"
        "participant_accuracy_mean,0.9833333333333334\n"
        "participant_accuracy_std,0.005555555555555591\n"
        "probability_of_superiority,0.5\n"
    ),
    "confusion.csv": "true\\pred,1,2,3\n1,114,0,0\n2,4,120,0\n3,2,0,120\n",
    "report.txt": (
        "accuracy              0.9833\nmacro precision       0.9833\n"
        "macro recall          0.9838\n\nclass  precision  recall\n"
        "    1     0.9500  1.0000\n    2     1.0000  0.9677\n    3     1.0000  0.9836\n"
    ),
}


def _readme_flags():
    """Each subcommand's flags as README's "Flags, by subcommand" list names them.

    The list's first item holds the flags of every subcommand; ``evaluate``'s
    "the same training flags as `train`" stands for those that ``train``'s
    item lists after "the training flags".
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Flags, by subcommand:\n\n", 1)[1].split("\n\n", 1)[0]
    items = [" ".join(item.split()) for item in section.split("\n- ")]
    items[0] = items[0].removeprefix("- ")
    flags = {}
    for item in items:
        name, text = item.split(": ", 1)
        flags[name.strip("`")] = text
    common = re.findall(r"`(--[\w-]+)`", flags.pop("every subcommand"))
    training = re.findall(r"`(--[\w-]+)`", flags["train"].split("the training flags", 1)[1])
    return {
        name: sorted(
            common + re.findall(r"`(--[\w-]+)`", text)
            + (training if "the same training flags as `train`" in text else [])
        )
        for name, text in flags.items()
    }


def test_readme_lists_each_subcommands_flags():
    declared = {
        name: sorted(
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        for name, parser in _subcommands(build_parser()).items()
    }
    assert _readme_flags() == declared


def _options():
    """(command, option) for every option a config file may set, from the parser."""
    return [
        (name, action)
        for name, parser in _subcommands(build_parser()).items()
        for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    ]


def _failing_argv(command, tmp_path):
    """``(junk, argv)``: ``command argv`` fails with a data error before any fit.

    ``junk`` names a file that is no CSV, model or directory.
    """
    junk = str(tmp_path / "junk")
    Path(junk).write_text("not a csv\n")
    argv = {
        "simulate": ["--out-dir", junk],
        "train": ["--data", junk, "--model-out", str(tmp_path / "m.json"), "--nu", "5"],
        "predict": ["--model", junk, "--data", junk],
        "evaluate": ["--data", junk, "--nu", "5", "--out-dir", str(tmp_path / "ev")],
    }[command]
    return junk, [command] + argv


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("train --data {header} --model-out {model} --nu 5", EXIT_DATA, "{header}: no rows"),
        ("evaluate --data {header} --out-dir {out} --nu 5", EXIT_DATA, "{header}: no rows"),
        ("train --data {proto} --nu 5", EXIT_USAGE, "--data and --model-out are required"),
        ("predict --model {out}/m.json --out-dir {out}", EXIT_USAGE, "--model and --data are"),
        ("evaluate --out-dir {out} --nu 5", EXIT_USAGE, "--data is required"),
        (
            "train --data {proto} --model-out {out}/m.json --nu 5 --config {missing}",
            EXIT_DATA,
            "data error: cannot read config file {missing}",
        ),
        (
            "train --data {proto} --model-out {out}/m.json --config {no_equals}",
            EXIT_USAGE,
            "usage error: {no_equals}:3: expected 'key = value'",
        ),
        (
            "evaluate --data {proto} --out-dir {out} --nu 5 --baseline {bad_header}",
            EXIT_DATA,
            "data error: {bad_header}: expected header participant,accuracy",
        ),
        (
            "evaluate --data {proto} --out-dir {out} --nu 5 --baseline {late_header}",
            EXIT_DATA,
            "data error: {late_header}: expected header participant,accuracy",
        ),
    ],
    ids=[
        "train-no-rows", "evaluate-no-rows", "train-no-model-out", "predict-no-data",
        "evaluate-no-data", "missing-config", "config-line-without-equals", "baseline-header",
        "baseline-header-not-on-line-1",
    ],
)
def test_error_exit_code_and_message(tmp_path, capsys, argv, code, message):
    files = {
        name: tmp_path / name
        for name in (
            "header", "proto", "missing", "no_equals", "bad_header", "late_header", "out", "model",
        )
    }
    files["header"].write_text("f1,f2,label,trial,participant\n")
    write_protocol_csv(files["proto"], trials=3)
    files["no_equals"].write_text("# settings\nnu = 5\nseed 3\n")
    files["bad_header"].write_text("participant,acc\n1,0.5\n2,0.5\n")
    files["late_header"].write_text("\nparticipant,accuracy\n1,0.5\n2,0.5\n")
    assert main([token.format(**files) for token in argv.split()]) == code
    assert message.format(**files) in capsys.readouterr().err
    assert not files["out"].exists() and not files["model"].exists()


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", ["simulate", "train", "predict", "evaluate"])
    def test_subcommand_help_shows_defaults(self, capsys, command):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        shown = [
            action.help % {"default": action.default}
            for name, action in _options()
            if name == command and "%(default)s" in (action.help or "")
        ]
        assert shown and all(help_text in text for help_text in shown)

    @pytest.mark.parametrize(
        "command, action", [pytest.param(c, a, id=f"{c}-{a.dest}") for c, a in _options()]
    )
    def test_every_option_is_a_config_key(self, tmp_path, command, action):
        junk, argv = _failing_argv(command, tmp_path)
        (flag,) = action.option_strings
        value = "yes" if action.nargs == 0 else {int: "2", float: "0.5"}.get(action.type, junk)
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag[2:]} = {value}\n")
        as_flag = [flag] if action.nargs == 0 else [flag, value]
        assert main(argv + as_flag) == main(argv + ["--config", str(config)])

    @pytest.mark.parametrize("command", ["simulate", "train", "predict", "evaluate"])
    @pytest.mark.parametrize("key", ["config", "help", "func", "wibble"])
    def test_config_key_that_is_no_option_is_usage_error(self, tmp_path, command, key):
        _, argv = _failing_argv(command, tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = x\n")
        assert main(argv + ["--config", str(config)]) == EXIT_USAGE

    def test_predict_ignores_seed_and_threads_from_config(self, tmp_path, train_csv):
        model = tmp_path / "model.json"
        main(["train", "--data", str(train_csv), "--model-out", str(model), "--nu", "5"])
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\nthreads = 2\n")
        outputs = []
        for name, extra in (("plain", []), ("configured", ["--config", str(config)])):
            out = tmp_path / name
            argv = ["predict", "--model", str(model), "--data", str(train_csv)]
            assert main(argv + ["--out-dir", str(out)] + extra) == EXIT_OK
            outputs.append((out / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_import_skips_unused_scipy_submodules(self):
        # the process pool of predict is imported only when used; scipy.special
        # already loads concurrent.futures itself (through numpy.testing), but
        # not its process module
        unused = (
            "scipy.signal", "scipy.integrate", "scipy.optimize", "scipy.linalg",
            "multiprocessing", "concurrent.futures.process",
        )
        probe = f"import sys, scalemix.cli; print([m for m in {unused!r} if m in sys.modules])"
        src = str(Path(scalemix.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.stdout.strip() == "[]"

    def test_simulate_skips_scipy_optimize(self, tmp_path):
        # fit_ml_nu picks each class's nu from a grid of fits, with no scalar search
        argv = ["simulate", "--out-dir", str(tmp_path), "--grid-step", "0.5"]
        probe = (
            f"import sys, scalemix.cli; code = scalemix.cli.main({argv!r}); "
            "print(code, 'scipy.optimize' in sys.modules)"
        )
        src = str(Path(scalemix.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.stdout.splitlines()[-1] == f"{EXIT_OK} False"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--k-init", "0"),
            ("train", "--alpha0", "0"),
            ("train", "--alpha0", "-1"),
            ("train", "--alpha0", "inf"),
            ("train", "--alpha0", "nan"),
            ("train", "--max-iters", "0"),
            ("train", "--seed", "-1"),
            ("evaluate", "--k-init", "-2"),
            ("evaluate", "--alpha0", "-0.5"),
            ("evaluate", "--max-iters", "0"),
            ("evaluate", "--subsample", "0"),
            ("evaluate", "--subsample", "-1"),
            ("evaluate", "--subsample", "1.5"),
            ("evaluate", "--subsample", "nan"),
            ("evaluate", "--trials-train", "0"),
            ("evaluate", "--trials-train", "-1"),
            ("evaluate", "--seed", "-1"),
        ],
    )
    def test_out_of_range_value_is_usage_error_before_reading_data(
        self, tmp_path, capsys, command, flag, value, source
    ):
        # --data names no file: reading it would be a data error
        out = tmp_path / "out"
        argv = [command, "--data", str(tmp_path / "missing.csv"), "--nu", "5"]
        if command == "train":
            argv += ["--model-out", str(out / "m.json")]
        else:
            argv += ["--out-dir", str(out)]
        if source == "flag":
            argv += [flag, value]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{flag[2:]} = {value}\n")
            argv += ["--config", str(config)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seed", "-1"),
            ("--grid-step", "0"),
            ("--grid-step", "-0.5"),
            ("--grid-step", "nan"),
            ("--grid-step", "inf"),
            # 8 / 1e-320 overflows to an infinite number of grid steps
            ("--grid-step", "1e-320"),
            # the largest double below the smallest step, 0.008
            ("--grid-step", "0.007999999999999998"),
        ],
    )
    def test_simulate_out_of_range_value_is_usage_error_before_creating_output(
        self, tmp_path, capsys, flag, value, source
    ):
        out = tmp_path / "sim"
        argv = ["simulate", "--out-dir", str(out)]
        if source == "flag":
            argv += [flag, value]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{flag[2:]} = {value}\n")
            argv += ["--config", str(config)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err
        assert not out.exists()

    def test_smallest_grid_step_gives_the_largest_grid(self):
        ok, _ = _RANGES["grid_step"]
        assert ok(0.05) and ok(_GRID_MIN_STEP) and _GRID_MIN_STEP == 0.008
        assert not ok(np.nextafter(_GRID_MIN_STEP, 0.0))
        # generate_simulation's point count a side at the smallest accepted step
        assert round(8 / _GRID_MIN_STEP) + 1 == _GRID_MAX_SIDE

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--folds", "1", "folds"),
            ("--nu-pre", "0", "nu_pre"),
            ("--nu-grid", "abc", "nu_grid"),
            ("--nu-grid", "5,1", "grid"),
            # an empty grid, not the default one
            ("--nu-grid", "", "grid must be nonempty"),
        ],
    )
    def test_bad_selection_setting_is_usage_error_before_reading_data(
        self, tmp_path, capsys, command, flag, value, named, source
    ):
        # --data names no file: reading it would be a data error
        out = tmp_path / "out"
        argv = [command, "--data", str(tmp_path / "missing.csv"), "--select-nu"]
        if command == "train":
            argv += ["--model-out", str(out / "m.json")]
        else:
            argv += ["--out-dir", str(out)]
        if source == "flag":
            argv += [flag, value]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{flag[2:]} = {value}\n")
            argv += ["--config", str(config)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and named in err
        assert not out.exists()


class TestBlasThreads:
    """Fresh interpreters, with no BLAS thread variable set unless a test sets one."""

    @staticmethod
    def run(argv, preexec_fn=None, **env):
        src = str(Path(scalemix.__file__).resolve().parents[1])
        clean = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, check=True, timeout=120,
            env=dict(clean, PYTHONPATH=src, **env), preexec_fn=preexec_fn,
        ).stdout.strip()

    def test_package_import_loads_no_numpy(self):
        assert self.run(["-c", "import sys, scalemix; print('numpy' in sys.modules)"]) == "False"

    def test_cli_import_runs_one_thread(self):
        # threads are counted where Linux lists them and the BLAS is OpenBLAS
        probe = (
            "import os, sys, scalemix.cli, numpy\n"
            "blas = numpy.__config__.CONFIG['Build Dependencies']['blas']['name']\n"
            "counted = sys.platform == 'linux' and 'openblas' in blas\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'],"
            " len(os.listdir('/proc/self/task')) if counted else 1)\n"
        )
        assert self.run(["-c", probe]) == "1 1"

    @pytest.mark.parametrize("name", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
    def test_explicit_thread_variable_wins(self, name):
        probe = (
            "import json, os, scalemix.cli\n"
            "print(json.dumps({v: os.environ.get(v) for v in scalemix.cli._BLAS_THREAD_VARS}))\n"
        )
        shown = json.loads(self.run(["-c", probe], **{name: "2"}))
        assert shown == {v: "2" if v == name else None for v in _BLAS_THREAD_VARS}

    def test_program_that_loaded_numpy_first_keeps_its_environment(self):
        # the variable could no longer reach BLAS, only the program's own children
        probe = "import os, numpy, scalemix.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert self.run(["-c", probe]) == "None"

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two usable CPUs",
    )
    def test_train_writes_the_same_model_on_one_cpu_and_on_all(self, tmp_path):
        # 1563 rows a class is the smallest at which OpenBLAS 0.3.31, given two
        # threads, splits m_step's (10 x n) @ (n x 64) product zeta' xx so that it
        # rounds differently from one thread (first over 1e6 multiply-adds)
        rng = np.random.default_rng(0)
        n, d = 1563, 8
        rows = rng.standard_normal((2 * n, d)) / np.sqrt(rng.chisquare(5, (2 * n, 1)) / 5)
        rows[n:] += 6.0
        labels = [1] * n + [2] * n
        data = tmp_path / "big.csv"
        save_csv(FeatureDataset(rows, labels, [1] * (2 * n), [1] * (2 * n)), data)
        cpus = os.sched_getaffinity(0)
        models = []
        for name, allowed in (("one", {min(cpus)}), ("all", cpus)):
            model = tmp_path / f"{name}.json"
            self.run(
                [
                    "-m", "scalemix.cli", "train", "--data", str(data), "--model-out",
                    str(model), "--nu", "5", "--k-init", "10",
                ],
                preexec_fn=lambda allowed=allowed: os.sched_setaffinity(0, allowed),
            )
            models.append(model.read_bytes())
        assert models[0] == models[1]
