import concurrent.futures
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import scalemix
from scalemix.cli import (
    EXIT_DATA,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WORKER,
    _report_text,
    _subcommands,
    _write_table,
    build_parser,
    main,
)
from scalemix.data import (
    BLOCK_ROWS,
    DataFormatError,
    FeatureDataset,
    format_rows,
    save_csv,
)
from scalemix.model import load_model
from scalemix.numerics import NotPositiveDefiniteError
from scalemix.predict import predict_batch
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


def _raise_on_short_slice(*blocks):
    """``format_rows``, except that the short slice ending an input raises."""
    if blocks[0].shape[0] < BLOCK_ROWS:
        raise RuntimeError("formatter failed")
    return format_rows(*blocks)


def _exit_on_short_slice(*blocks):
    """``format_rows``, except that the short slice ending an input ends the process."""
    if blocks[0].shape[0] < BLOCK_ROWS:
        os._exit(1)
    return format_rows(*blocks)


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
            (("classes", 1, "class_id"), 1, "class records 0 and 1 both have class_id 1"),
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
        "payload, message",
        [({"format_version": 1}, "model has no 'dim' field"), ([], "must be a JSON object")],
    )
    def test_malformed_model_file_is_a_data_error(
        self, tmp_path, train_csv, capsys, payload, message
    ):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "pred"
        argv = ["predict", "--model", str(model), "--data", str(train_csv), "--out-dir", str(out)]
        assert main(argv) == EXIT_DATA
        assert message in capsys.readouterr().err
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
        "formatter, workers",
        [(_raise_on_short_slice, 1), (_raise_on_short_slice, 2), (_exit_on_short_slice, 2)],
    )
    def test_worker_failure_leaves_earlier_output(
        self, tmp_path, train_csv, monkeypatch, capsys, formatter, workers
    ):
        model = self.make_model(tmp_path, train_csv)
        path = self.three_chunk_input(tmp_path)
        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
        monkeypatch.setattr("scalemix.cli.format_rows", formatter)
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "predictions.csv").write_bytes(b"earlier output\n")
        argv = ["predict", "--model", str(model), "--data", str(path), "--out-dir", str(kept)]
        if formatter is _exit_on_short_slice:
            assert main(argv) == EXIT_WORKER
            assert "worker failure:" in capsys.readouterr().err
        else:
            # the job's own exception arrives as itself, in a worker as in process
            with pytest.raises(RuntimeError, match="^formatter failed$"):
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
        ],
        ids=["not_a_number", "nan", "above_one", "cell_count", "participant", "duplicate",
             "missing"],
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
        # the workers train, so they call BLAS; here the parent has just run
        # a product large enough to set OpenBLAS's threads to work
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
        table = _report_text(0.7, np.array([4 / 6, 0.75]), np.array([0.8, 0.6]))
        # no wall-clock rows: the report is byte-reproducible
        assert table.splitlines() == [
            "accuracy              0.7000",
            "macro precision       0.7083",
            "macro recall          0.7000",
            "",
            "class  precision  recall",
            "    1     0.6667  0.8000",
            "    2     0.7500  0.6000",
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
        [("--seed", "-1"), ("--grid-step", "0"), ("--grid-step", "-0.5"), ("--grid-step", "nan")],
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

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--folds", "1", "folds"),
            ("--nu-pre", "0", "nu_pre"),
            ("--nu-grid", "abc", "nu_grid"),
            ("--nu-grid", "5,1", "grid"),
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
