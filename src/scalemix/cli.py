"""Command-line interface: simulate, train, predict, evaluate.

Every command is deterministic for a fixed seed and fixed flags (timing
measurements land in a separate ``timings.csv``, the one file exempt from
byte-reproducibility). Flag values take precedence over an optional
``key = value`` config file, which takes precedence over built-in
defaults.

Exit codes: 0 success, 1 output-formatting worker failure, 2 usage error,
3 data error, 4 numeric failure, 5 non-convergence.
"""

import argparse
import itertools
import math
import os
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (
    DataFormatError,
    FormatWorkerError,
    generate_simulation,
    iter_csv,
    load_csv,
    save_csv,
    split_by_trials,
    subsample,
    write_chunks,
    write_rows,
)
from .density import QuadratureError
from .metrics import (
    MetricsReport,
    accuracy,
    confusion_matrix,
    precision_recall,
    probability_of_superiority,
)
from .model import build_default_prior, load_model, save_model
from .nu_select import NuSearchConfig, select_nu
from .numerics import NotPositiveDefiniteError
from .predict import predict_batch, prepare
from .vb import NumericalFailure, VbConfig, fit, fit_ml_nu

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_NO_CONVERGENCE = 5


class UsageError(Exception):
    pass


def _read_config_file(path):
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _resolve(args, spec):
    """Merge CLI values, config file values, and defaults (in that order)."""
    merged = {}
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, (coerce, default) in spec.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None and cli_value is not False:
            merged[key] = cli_value
        elif key in file_values:
            raw = file_values[key]
            try:
                merged[key] = _BOOLEANS[raw.lower()] if coerce is bool else coerce(raw)
            except (KeyError, ValueError):
                raise UsageError(f"config key {key}: cannot parse {raw!r}") from None
        else:
            merged[key] = default
    unknown = set(file_values) - {k for k in spec}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return merged


# the values no fit can use: flag -> (test, requirement)
_RANGES = {
    "nu": (lambda v: v > 0 and math.isfinite(v), "positive and finite"),
    "k_init": (lambda v: v >= 1, "at least 1"),
    "alpha0": (lambda v: v > 0 and math.isfinite(v), "positive and finite"),
    "max_iters": (lambda v: v >= 1, "at least 1"),
    "subsample": (lambda v: 0 < v <= 1, "in (0, 1]"),
}


def _check_ranges(cfg):
    """Reject an out-of-range value, before any data is read or anything created."""
    for key, (ok, requirement) in _RANGES.items():
        value = cfg.get(key)
        if value is not None and not ok(value):
            flag = "--" + key.replace("_", "-")
            raise UsageError(f"{flag} must be {requirement}, got {value!r}")


def _parse_nu_grid(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"nu_grid must list numbers, got {text!r}") from None
    if not values:
        raise ValueError("empty grid")
    return np.asarray(values)


def _posterior_grid_rows(classifier, grid):
    log_post, labels = predict_batch(classifier, grid.features)
    post = np.exp(log_post)
    return post, labels


def _write_boundary_csv(path, grid, post, labels):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,posterior_c1,posterior_c2,argmax\n")
        write_rows(fh, grid.features, post, labels[:, None])


def _heat_color(p):
    # diverging blue (class 2) -> white -> red (class 1)
    if p >= 0.5:
        w = (p - 0.5) * 2.0
        r, g, b = 255, int(255 - 175 * w), int(255 - 175 * w)
    else:
        w = (0.5 - p) * 2.0
        r, g, b = int(255 - 175 * w), int(255 - 175 * w), 255
    return f"rgb({r},{g},{b})"


def _write_svg_heatmap(path, grid, post1, cell_px=4):
    xs = np.unique(grid.features[:, 0])
    n = xs.shape[0]
    size = n * cell_px
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for i in range(grid.n_rows):
        col = int(round((grid.features[i, 0] - xs[0]) / (xs[1] - xs[0]))) if n > 1 else 0
        row = int(round((grid.features[i, 1] - xs[0]) / (xs[1] - xs[0]))) if n > 1 else 0
        x = col * cell_px
        y = size - (row + 1) * cell_px
        lines.append(
            f'<rect x="{x}" y="{y}" width="{cell_px}" height="{cell_px}" '
            f'fill="{_heat_color(float(post1[i]))}"/>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_simulate(args):
    spec = {
        "out_dir": (str, "."),
        "seed": (int, 0),
        "nu": (float, 5.0),
        "k_init": (int, 1),
        "alpha0": (float, 0.001),
        "no_outliers": (bool, False),
        "grid_step": (float, 0.05),
        "svg": (bool, False),
        "threads": (int, 1),  # accepted and ignored: training runs on one thread
    }
    cfg = _resolve(args, spec)
    _check_ranges(cfg)
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    train, grid = generate_simulation(
        seed=cfg["seed"], with_outliers=not cfg["no_outliers"], grid_step=cfg["grid_step"]
    )
    save_csv(train, out / "simulation_train.csv")
    save_csv(grid, out / "simulation_grid.csv")
    vb_cfg = VbConfig(seed=cfg["seed"])

    shared_prior = build_default_prior(
        train, nu_fixed=cfg["nu"], k_init=cfg["k_init"], alpha0=cfg["alpha0"]
    )
    gaussian_prior = build_default_prior(
        train, nu_fixed=1e6, k_init=cfg["k_init"], alpha0=cfg["alpha0"]
    )
    runs = {
        "shared_nu": fit(train, shared_prior, vb_cfg),
        "ml_nu": fit_ml_nu(train, shared_prior, vb_cfg),
        "gaussian": fit(train, gaussian_prior, vb_cfg),
    }
    for name, classifier in runs.items():
        post, labels = _posterior_grid_rows(classifier, grid)
        _write_boundary_csv(out / f"boundary_{name}.csv", grid, post, labels)
        if cfg["svg"]:
            _write_svg_heatmap(out / f"heatmap_{name}.svg", grid, post[:, 0])
    return EXIT_OK


def _search_config(cfg):
    """ν search settings, None without --select-nu: checked before any data is read."""
    if not cfg["select_nu"]:
        return None
    try:
        grid = _parse_nu_grid(cfg["nu_grid"]) if cfg["nu_grid"] else None
        return NuSearchConfig(
            folds=cfg["folds"], nu_pre=cfg["nu_pre"], grid=grid, seed=cfg["seed"]
        )
    except ValueError as exc:
        raise UsageError(f"invalid selection settings: {exc}") from None


def _train_classifier(data, cfg, search, log_sink=None, table_sink=None):
    """Shared train path: returns (classifier, nu_used, tune_seconds).

    ``search`` is the ν search settings, or None to train at ``cfg["nu"]``.
    """
    vb_cfg = VbConfig(seed=cfg["seed"], max_iters=cfg["max_iters"])
    tune_s = 0.0
    nu = cfg["nu"]
    if search is not None:
        start = time.perf_counter()
        nu = select_nu(
            data,
            build_default_prior(
                data, nu_fixed=search.nu_pre, k_init=cfg["k_init"], alpha0=cfg["alpha0"]
            ),
            search,
            vb_config=vb_cfg,
            table_sink=table_sink,
        )
        tune_s = time.perf_counter() - start
    prior = build_default_prior(
        data, nu_fixed=nu, k_init=cfg["k_init"], alpha0=cfg["alpha0"]
    )
    classifier = fit(data, prior, vb_cfg, log_sink=log_sink)
    return classifier, nu, tune_s


_TRAIN_SPEC = {
    "data": (str, None),
    "model_out": (str, None),
    "nu": (float, None),
    "select_nu": (bool, False),
    "nu_pre": (float, 200.0),
    "nu_grid": (str, ""),
    "folds": (int, 5),
    "k_init": (int, 1),
    "alpha0": (float, 0.001),
    "seed": (int, 0),
    "threads": (int, 1),  # accepted and ignored: training runs on one thread
    "max_iters": (int, 500),
}


def cmd_train(args):
    cfg = _resolve(args, _TRAIN_SPEC)
    if not cfg["data"] or not cfg["model_out"]:
        raise UsageError("--data and --model-out are required")
    if cfg["nu"] is not None and cfg["select_nu"]:
        raise UsageError("--nu and --select-nu are mutually exclusive")
    if cfg["nu"] is None and not cfg["select_nu"]:
        raise UsageError("either --nu or --select-nu is required")
    _check_ranges(cfg)
    search = _search_config(cfg)
    data = load_csv(cfg["data"])
    if data.n_rows == 0:
        raise DataFormatError(f"{cfg['data']}: no training rows")
    table_lines = []
    classifier, nu, _ = _train_classifier(
        data,
        cfg,
        search,
        log_sink=lambda line: print(line, file=sys.stderr),
        table_sink=table_lines.append,
    )
    if cfg["select_nu"]:
        print(f"selected nu = {nu!r}", file=sys.stderr)
        table_path = Path(str(cfg["model_out"]) + ".nu_search.csv")
        table_path.write_text("\n".join(table_lines) + "\n", encoding="utf-8")
    save_model(classifier, cfg["model_out"])
    if not all(cm.converged for cm in classifier.classes):
        bad = [cm.class_id for cm in classifier.classes if not cm.converged]
        print(f"warning: classes {bad} hit the iteration cap", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_predict(args):
    spec = {
        "model": (str, None),
        "data": (str, None),
        "out_dir": (str, "."),
    }
    cfg = _resolve(args, spec)
    if not cfg["model"] or not cfg["data"]:
        raise UsageError("--model and --data are required")
    classifier = load_model(cfg["model"])
    chunks = iter_csv(cfg["data"], schema=classifier.dim)
    # the header and the first chunk are checked before anything is created
    first = next(chunks)
    prepared = prepare(classifier)
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    ids = classifier.class_ids
    header = (
        [f"f{i + 1}" for i in range(classifier.dim)]
        + ["label", "trial", "participant", "pred_label"]
        + [f"log_posterior_{cid}" for cid in ids]
    )
    # rows go to a temporary file that replaces predictions.csv only once
    # every row is written, so a bad row or a failed worker leaves no
    # partial output
    partial = out / f".predictions.csv.{os.getpid()}.tmp"

    def classified():
        for chunk in itertools.chain([first], chunks):
            if chunk.n_rows:
                log_post, labels = predict_batch(prepared, chunk.features)
                row_ids = np.column_stack(
                    [chunk.labels, chunk.trials, chunk.participants, labels]
                )
                yield chunk.features, row_ids, log_post

    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            write_chunks(fh, classified())
        os.replace(partial, out / "predictions.csv")
    finally:
        partial.unlink(missing_ok=True)
    return EXIT_OK


def _load_baseline(path, participants):
    """Baseline accuracy per participant, checked line by line.

    Blank lines are skipped, as in the data CSV. Every participant in
    ``participants`` must have a row.
    """
    lines = [
        (lineno, line)
        for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        )
        if line.strip()
    ]
    if not lines or lines[0][1] != "participant,accuracy":
        raise DataFormatError(f"{path}: expected header participant,accuracy")
    out = {}
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 2:
            raise DataFormatError(f"{path}: line {lineno}: {len(cells)} cells, expected 2")
        try:
            pid = int(cells[0])
        except ValueError:
            raise DataFormatError(
                f"{path}: line {lineno}: participant is not an integer ({cells[0]!r})"
            ) from None
        try:
            acc = float(cells[1])
        except ValueError:
            acc = math.nan
        if not 0.0 <= acc <= 1.0:
            raise DataFormatError(
                f"{path}: line {lineno}: accuracy must be a number in [0, 1] ({cells[1]!r})"
            )
        if pid in out:
            raise DataFormatError(f"{path}: line {lineno}: participant {pid} is listed twice")
        out[pid] = acc
    missing = [pid for pid in participants if pid not in out]
    if missing:
        raise DataFormatError(f"{path}: baseline is missing participants {missing}")
    return out


def cmd_evaluate(args):
    spec = dict(_TRAIN_SPEC)
    spec.pop("data")
    spec.pop("model_out")
    spec.update(
        {
            "data": (str, None),
            "out_dir": (str, "."),
            "trials_train": (int, None),
            "subsample": (float, 1.0),
            "baseline": (str, None),
        }
    )
    cfg = _resolve(args, spec)
    if not cfg["data"]:
        raise UsageError("--data is required")
    if cfg["nu"] is not None and cfg["select_nu"]:
        raise UsageError("--nu and --select-nu are mutually exclusive")
    if cfg["nu"] is None and not cfg["select_nu"]:
        raise UsageError("either --nu or --select-nu is required")
    _check_ranges(cfg)
    search = _search_config(cfg)
    data = load_csv(cfg["data"])
    if data.n_rows == 0:
        raise DataFormatError(f"{cfg['data']}: no rows")
    participants = sorted(int(v) for v in np.unique(data.participants))
    # the baseline is checked before any fit and before anything is created
    baseline = _load_baseline(cfg["baseline"], participants) if cfg["baseline"] else None
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    all_class_ids = data.class_ids
    n_classes = max(all_class_ids)

    combo_rows = []
    timing_rows = []
    per_participant = {}
    pooled_pred = []
    pooled_truth = []
    for pid in participants:
        part = data.subset(data.participants == pid)
        trial_ids = sorted(int(t) for t in np.unique(part.trials))
        t_count = len(trial_ids)
        s = cfg["trials_train"] if cfg["trials_train"] is not None else max(1, t_count // 3)
        if not 0 < s < t_count:
            raise DataFormatError(
                f"participant {pid}: cannot train on {s} of {t_count} trials"
            )
        accs = []
        for combo_idx, (plan, train_part, test_part) in enumerate(
            split_by_trials(part, s)
        ):
            child_seed = int(
                np.random.SeedSequence([cfg["seed"], pid, combo_idx]).generate_state(1)[0]
            )
            if cfg["subsample"] < 1.0:
                train_part = subsample(train_part, cfg["subsample"], child_seed)
            if sorted(train_part.class_ids) != all_class_ids:
                raise DataFormatError(
                    f"participant {pid} combination {combo_idx}: training side is "
                    f"missing some class; more trials are needed"
                )
            run_cfg = dict(cfg, seed=child_seed)
            run_search = replace(search, seed=child_seed) if search else None
            start = time.perf_counter()
            classifier, nu, tune_s = _train_classifier(train_part, run_cfg, run_search)
            train_s = time.perf_counter() - start - tune_s
            start = time.perf_counter()
            _, pred = predict_batch(classifier, test_part.features)
            predict_s = time.perf_counter() - start
            acc = accuracy(pred, test_part.labels)
            accs.append(acc)
            pooled_pred.append(pred)
            pooled_truth.append(test_part.labels)
            combo_rows.append(
                (
                    pid,
                    combo_idx,
                    ";".join(str(t) for t in sorted(plan.train_trials)),
                    train_part.n_rows,
                    test_part.n_rows,
                    acc,
                )
            )
            timing_rows.append(
                (
                    pid,
                    combo_idx,
                    tune_s,
                    train_s,
                    predict_s * 1e6 / max(test_part.n_rows, 1),
                )
            )
        per_participant[pid] = np.asarray(accs)

    def render(v):
        return repr(float(v)) if isinstance(v, float) else str(v)

    with open(out / "combinations.csv", "w", encoding="utf-8") as fh:
        fh.write("participant,combination,train_trials,n_train,n_test,accuracy\n")
        for row in combo_rows:
            fh.write(",".join(render(v) for v in row) + "\n")
    with open(out / "timings.csv", "w", encoding="utf-8") as fh:
        fh.write("participant,combination,tune_s,train_s,predict_us_per_record\n")
        for row in timing_rows:
            fh.write(",".join(render(v) for v in row) + "\n")
    with open(out / "participants.csv", "w", encoding="utf-8") as fh:
        fh.write("participant,n_combinations,accuracy_mean,accuracy_std\n")
        for pid, accs in per_participant.items():
            fh.write(f"{pid},{accs.shape[0]},{float(accs.mean())!r},{float(accs.std())!r}\n")

    pred = np.concatenate(pooled_pred)
    truth = np.concatenate(pooled_truth)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prec, rec = precision_recall(pred, truth, n_classes)
    conf = confusion_matrix(pred, truth, n_classes)
    report = MetricsReport(
        accuracy=accuracy(pred, truth),
        per_class_precision=prec,
        per_class_recall=rec,
        confusion=conf,
    )
    metrics_lines = report.to_csv()
    participant_means = np.asarray([float(v.mean()) for v in per_participant.values()])
    metrics_lines += f"participant_accuracy_mean,{float(participant_means.mean())!r}\n"
    metrics_lines += f"participant_accuracy_std,{float(participant_means.std())!r}\n"
    if baseline is not None:
        ps = probability_of_superiority(
            [float(accs.mean()) for accs in per_participant.values()],
            [baseline[pid] for pid in per_participant],
        )
        metrics_lines += f"probability_of_superiority,{ps!r}\n"
    (out / "metrics.csv").write_text(metrics_lines, encoding="utf-8")
    (out / "confusion.csv").write_text(report.confusion_csv(), encoding="utf-8")
    (out / "report.txt").write_text(report.to_table(), encoding="utf-8")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scalemix",
        description="Scale mixture model classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file (flags win)")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument(
            "--threads",
            type=int,
            help="accepted for compatibility; training runs on one thread",
        )

    p = sub.add_parser("simulate", help="two-class synthetic benchmark and boundaries")
    add_common(p)
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--nu", type=float, help="shared degrees of freedom (default 5)")
    p.add_argument("--k-init", dest="k_init", type=int, help="initial components")
    p.add_argument("--alpha0", type=float, help="Dirichlet concentration")
    p.add_argument("--no-outliers", dest="no_outliers", action="store_true", default=None)
    p.add_argument("--grid-step", dest="grid_step", type=float, help="grid step (default 0.05)")
    p.add_argument("--svg", action="store_true", default=None, help="emit SVG heatmaps")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit a classifier from a feature CSV")
    add_common(p)
    p.add_argument("--data", help="training CSV")
    p.add_argument("--model-out", dest="model_out", help="output model path")
    p.add_argument("--nu", type=float, help="fixed shared degrees of freedom")
    p.add_argument("--select-nu", dest="select_nu", action="store_true", default=None)
    p.add_argument("--nu-pre", dest="nu_pre", type=float, help="pre-training value (default 200)")
    p.add_argument("--nu-grid", dest="nu_grid", help="comma-separated candidate grid")
    p.add_argument("--folds", type=int, help="selection folds (default 5)")
    p.add_argument("--k-init", dest="k_init", type=int, help="initial components")
    p.add_argument("--alpha0", type=float, help="Dirichlet concentration")
    p.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify a feature CSV with a saved model")
    add_common(p)
    p.add_argument("--model", help="model path")
    p.add_argument("--data", help="input CSV")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="trial-wise cross-participant protocol")
    add_common(p)
    p.add_argument("--data", help="dataset CSV with trial/participant columns")
    p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--trials-train", dest="trials_train", type=int, help="training trials per split (default floor(T/3))")
    p.add_argument("--subsample", type=float, help="training subsample fraction")
    p.add_argument("--nu", type=float, help="fixed shared degrees of freedom")
    p.add_argument("--select-nu", dest="select_nu", action="store_true", default=None)
    p.add_argument("--nu-pre", dest="nu_pre", type=float)
    p.add_argument("--nu-grid", dest="nu_grid")
    p.add_argument("--folds", type=int)
    p.add_argument("--k-init", dest="k_init", type=int)
    p.add_argument("--alpha0", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--baseline", help="per-participant accuracy CSV for the superiority effect size")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalFailure, NotPositiveDefiniteError, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FormatWorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
