"""Command-line interface: simulate, train, predict, evaluate.

Every command is deterministic for a fixed seed and fixed flags (timing
measurements land in a separate ``timings.csv``, the one file exempt from
byte-reproducibility). Each setting is declared once, in
:func:`build_parser`, with its type and default. A ``--config`` file of
``key = value`` lines, keyed by the subcommand's own flag names, replaces
those defaults; flags on the command line win over it.

Exit codes: 0 success, 1 worker process failure, 2 usage error, 3 data
error, 4 numeric failure, 5 non-convergence.
"""

import argparse
import math
import os
import sys
import time
import warnings
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as _data
from .data import (
    BLOCK_ROWS,
    DataFormatError,
    WorkerError,
    format_rows,
    generate_simulation,
    load_csv,
    map_in_workers,
    save_csv,
    split_by_trials,
    subsample,
    write_rows,
)
from .metrics import accuracy, confusion_matrix, precision_recall, probability_of_superiority
from .model import build_default_prior, load_model, save_model
from .nu_select import NuSearchConfig, select_nu
from .numerics import NotPositiveDefiniteError
from .predict import UnscorableRowError, predict_batch, prepare
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


def _config_defaults(parser, path):
    """The config file at ``path`` as defaults for a subcommand's ``parser``.

    Its keys are the parser's options other than --help and --config. Each
    value is read by its option's own type; a switch takes one of ``_BOOLEANS``.
    """
    settings = {a.dest: a for a in parser._actions if a.option_strings}
    del settings["help"], settings["config"]
    values = _read_config_file(path)
    unknown = set(values) - set(settings)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    defaults = {}
    for key, raw in values.items():
        action = settings[key]
        try:
            defaults[key] = (
                _BOOLEANS[raw.lower()] if action.nargs == 0 else (action.type or str)(raw)
            )
        except (KeyError, ValueError):
            raise UsageError(f"config key {key}: cannot parse {raw!r}") from None
    return defaults


# the values no command can use: flag -> (test, requirement)
_RANGES = {
    "nu": (lambda v: v > 0 and math.isfinite(v), "positive and finite"),
    "k_init": (lambda v: v >= 1, "at least 1"),
    "alpha0": (lambda v: v > 0 and math.isfinite(v), "positive and finite"),
    "max_iters": (lambda v: v >= 1, "at least 1"),
    "subsample": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "trials_train": (lambda v: v >= 1, "at least 1"),
    "seed": (lambda v: v >= 0, "at least 0"),
    "grid_step": (lambda v: v > 0 and math.isfinite(v), "positive and finite"),
}


def _check_ranges(args):
    """Reject an out-of-range value, before any data is read or anything created."""
    for key, (ok, requirement) in _RANGES.items():
        value = getattr(args, key, None)
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


def _write_table(path, header, rows):
    """A small CSV table: floats as ``repr(float(v))``, other values as ``str(v)``."""
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _report_text(acc, precision, recall):
    """``report.txt``: accuracy, macro precision and recall, then one line per class."""
    lines = [
        f"accuracy              {acc:.4f}",
        f"macro precision       {precision.mean():.4f}",
        f"macro recall          {recall.mean():.4f}",
        "",
        "class  precision  recall",
        *(f"{c:>5}  {p:>9.4f}  {r:>6.4f}" for c, (p, r) in enumerate(zip(precision, recall), 1)),
    ]
    return "\n".join(lines) + "\n"


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
    _check_ranges(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, grid = generate_simulation(
        seed=args.seed, with_outliers=not args.no_outliers, grid_step=args.grid_step
    )
    save_csv(train, out / "simulation_train.csv")
    save_csv(grid, out / "simulation_grid.csv")
    vb_cfg = VbConfig(seed=args.seed)

    shared_prior = build_default_prior(
        train, nu_fixed=args.nu, k_init=args.k_init, alpha0=args.alpha0
    )
    gaussian_prior = build_default_prior(
        train, nu_fixed=1e6, k_init=args.k_init, alpha0=args.alpha0
    )
    runs = {
        "shared_nu": fit(train, shared_prior, vb_cfg),
        "ml_nu": fit_ml_nu(train, shared_prior, vb_cfg),
        "gaussian": fit(train, gaussian_prior, vb_cfg),
    }
    for name, classifier in runs.items():
        log_post, labels = predict_batch(classifier, grid.features)
        post = np.exp(log_post)
        _write_boundary_csv(out / f"boundary_{name}.csv", grid, post, labels)
        if args.svg:
            _write_svg_heatmap(out / f"heatmap_{name}.svg", grid, post[:, 0])
    return EXIT_OK


def _search_config(args):
    """Check --nu xor --select-nu; the ν search settings, None without --select-nu."""
    if args.nu is not None and args.select_nu:
        raise UsageError("--nu and --select-nu are mutually exclusive")
    if args.nu is None and not args.select_nu:
        raise UsageError("either --nu or --select-nu is required")
    if not args.select_nu:
        return None
    try:
        grid = _parse_nu_grid(args.nu_grid) if args.nu_grid else None
        return NuSearchConfig(folds=args.folds, nu_pre=args.nu_pre, grid=grid)
    except ValueError as exc:
        raise UsageError(f"invalid selection settings: {exc}") from None


def _train_classifier(data, args, seed, search, log_sink=None, table_sink=None):
    """Shared train path: returns (classifier, nu_used, tune_seconds).

    ``search`` is the ν search settings, or None to train at ``args.nu``.
    """
    vb_cfg = VbConfig(seed=seed, max_iters=args.max_iters)
    tune_s = 0.0
    nu = args.nu if search is None else search.nu_pre
    prior = build_default_prior(data, nu_fixed=nu, k_init=args.k_init, alpha0=args.alpha0)
    if search is not None:
        start = time.perf_counter()
        nu = select_nu(data, prior, search, vb_config=vb_cfg, table_sink=table_sink)
        tune_s = time.perf_counter() - start
        # the data's mean, covariance and any jitter are kept; only nu changes
        prior = replace(prior, nu_fixed=nu)
    classifier = fit(data, prior, vb_cfg, log_sink=log_sink)
    return classifier, nu, tune_s


def cmd_train(args):
    if not args.data or not args.model_out:
        raise UsageError("--data and --model-out are required")
    _check_ranges(args)
    search = _search_config(args)
    data = load_csv(args.data)
    if data.n_rows == 0:
        raise DataFormatError(f"{args.data}: no training rows")
    table_rows = []
    classifier, nu, _ = _train_classifier(
        data,
        args,
        args.seed,
        search,
        log_sink=lambda line: print(line, file=sys.stderr),
        table_sink=table_rows.append,
    )
    if args.select_nu:
        print(f"selected nu = {nu!r}", file=sys.stderr)
        _write_table(args.model_out + ".nu_search.csv", "fold,nu,J", table_rows)
    save_model(classifier, args.model_out)
    if not all(cm.converged for cm in classifier.classes):
        bad = [cm.class_id for cm in classifier.classes if not cm.converged]
        print(f"warning: classes {bad} hit the iteration cap", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_predict(args):
    if not args.model or not args.data:
        raise UsageError("--model and --data are required")
    # a model that cannot predict fails here, before --data is read
    prepared = prepare(load_model(args.model))
    header = (
        [f"f{i + 1}" for i in range(prepared.dim)]
        + ["label", "trial", "participant", "pred_label"]
        + [f"log_posterior_{cid}" for cid in prepared.class_ids.tolist()]
    )
    with open(args.data, encoding="utf-8") as fh:
        names = _data._read_header(fh, args.data, prepared.dim)
        jobs = (
            (lines, lineno, args.data, names, prepared)
            for lines, lineno in _data._line_slices(fh, BLOCK_ROWS, 2)
        )
        # the header and the first slice are checked before anything is created
        first = _predict_slice(*next(jobs))
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # rows go to a temporary file that replaces predictions.csv only once
        # every row is written, so a bad row or a failed worker leaves no
        # partial output
        partial = out / f".predictions.csv.{os.getpid()}.tmp"
        try:
            # closing: a failed write must not leave a pool to the garbage collector
            with open(partial, "w", encoding="utf-8") as dest, closing(
                map_in_workers(_predict_slice, jobs)
            ) as texts:
                dest.write(",".join(header) + "\n" + first)
                for text in texts:
                    dest.write(text)
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


def _run_combination(train_part, test_features, args, seed, search):
    """One combination of ``evaluate``: train, then label the test rows.

    Returns ``(pred, tune_s, train_s, predict_s)``, the predicted labels and
    the seconds spent tuning ν, training and predicting. It runs in a
    worker process when the combinations are spread over several.
    """
    start = time.perf_counter()
    classifier, _, tune_s = _train_classifier(train_part, args, seed, search)
    train_s = time.perf_counter() - start - tune_s
    start = time.perf_counter()
    _, pred = predict_batch(classifier, test_features)
    return pred, tune_s, train_s, time.perf_counter() - start


def _predict_slice(lines, first_lineno, path, names, prepared):
    """``predict``'s output rows for one slice of input lines, as text.

    ``lines`` are the physical lines of ``path`` numbered from
    ``first_lineno``, with feature columns ``names``; they are parsed,
    classified by ``prepared`` and formatted. The first slice runs in the
    main process, the others through :func:`map_in_workers`.
    """
    feats, ids = _data._parse_chunk(lines, first_lineno, path, names)
    try:
        log_post, labels = predict_batch(prepared, feats)
    except UnscorableRowError as exc:
        # blank lines hold no row
        lineno = [n for n, line in enumerate(lines, first_lineno) if not line.isspace()][exc.row]
        raise DataFormatError(f"{path}: row {lineno}: a feature is too large to score") from None
    return format_rows(feats, np.column_stack([ids, labels]), log_post)


def _combinations(data, trials_train, args, search):
    """The jobs of ``evaluate``, each checked before any fit.

    Returns ``(combos, jobs)``: per combination, ``(pid, combo_idx,
    train_trials, n_train, test_labels)`` and the arguments of
    :func:`_run_combination`, in participant then combination order.
    Every training side, after ``--subsample`` (which keeps at least one
    row of each class), must hold every class, and with ``--select-nu``
    at least ``--folds`` rows of each.
    """
    all_class_ids = data.class_ids
    combos, jobs = [], []
    for pid in sorted(trials_train):
        part = data.subset(data.participants == pid)
        for combo_idx, (train_trials, train_part, test_part) in enumerate(
            split_by_trials(part, trials_train[pid])
        ):
            where = f"participant {pid} combination {combo_idx}"
            if train_part.class_ids != all_class_ids:
                raise DataFormatError(
                    f"{where}: training side is missing some class; more trials are needed"
                )
            child_seed = int(
                np.random.SeedSequence([args.seed, pid, combo_idx]).generate_state(1)[0]
            )
            if args.subsample < 1.0:
                train_part = subsample(train_part, args.subsample, child_seed)
            if search is not None:
                class_ids, counts = np.unique(train_part.labels, return_counts=True)
                if counts.min() < search.folds:
                    cid = int(class_ids[np.argmin(counts)])
                    raise DataFormatError(
                        f"{where}: class {cid} has {counts.min()} training rows, "
                        f"fewer than {search.folds} folds"
                    )
            combos.append(
                (pid, combo_idx, ";".join(map(str, train_trials)), train_part.n_rows,
                 test_part.labels)
            )
            jobs.append((train_part, test_part.features, args, child_seed, search))
    return combos, jobs


def cmd_evaluate(args):
    if not args.data:
        raise UsageError("--data is required")
    _check_ranges(args)
    search = _search_config(args)
    data = load_csv(args.data)
    if data.n_rows == 0:
        raise DataFormatError(f"{args.data}: no rows")
    participants = sorted(int(v) for v in np.unique(data.participants))
    # the split sizes, the baseline and every training side are checked
    # before any fit and before anything is created
    trials_train = {}
    for pid in participants:
        t_count = np.unique(data.trials[data.participants == pid]).size
        s = args.trials_train if args.trials_train is not None else max(1, t_count // 3)
        if not 0 < s < t_count:
            raise DataFormatError(f"participant {pid}: cannot train on {s} of {t_count} trials")
        trials_train[pid] = s
    baseline = _load_baseline(args.baseline, participants) if args.baseline else None
    n_classes = max(data.class_ids)
    combos, jobs = _combinations(data, trials_train, args, search)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # each combination is an independent job, so they spread over one
    # worker process per usable CPU; results come back in job order
    results = list(map_in_workers(_run_combination, jobs))

    combo_rows, timing_rows, per_participant = [], [], {}
    for (pid, combo_idx, train_trials, n_train, truth), result in zip(combos, results):
        pred, tune_s, train_s, predict_s = result
        acc = accuracy(pred, truth)
        per_participant.setdefault(pid, []).append(acc)
        combo_rows.append((pid, combo_idx, train_trials, n_train, truth.shape[0], acc))
        n_test = max(truth.shape[0], 1)
        timing_rows.append((pid, combo_idx, tune_s, train_s, predict_s * 1e6 / n_test))
    participant_rows = [(pid, len(a), np.mean(a), np.std(a)) for pid, a in per_participant.items()]
    participant_means = np.array([row[2] for row in participant_rows])

    pred = np.concatenate([result[0] for result in results])
    truth = np.concatenate([combo[4] for combo in combos])
    acc = accuracy(pred, truth)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prec, rec = precision_recall(pred, truth, n_classes)
    conf = confusion_matrix(pred, truth, n_classes)
    class_ids = range(1, n_classes + 1)
    metric_rows = [
        ("accuracy", acc),
        *((f"precision_{cid}", v) for cid, v in zip(class_ids, prec)),
        *((f"recall_{cid}", v) for cid, v in zip(class_ids, rec)),
        ("participant_accuracy_mean", participant_means.mean()),
        ("participant_accuracy_std", participant_means.std()),
    ]
    if baseline is not None:
        ps = probability_of_superiority(participant_means, [baseline[p] for p in per_participant])
        metric_rows.append(("probability_of_superiority", ps))
    _write_table(
        out / "combinations.csv",
        "participant,combination,train_trials,n_train,n_test,accuracy",
        combo_rows,
    )
    _write_table(
        out / "timings.csv",
        "participant,combination,tune_s,train_s,predict_us_per_record",
        timing_rows,
    )
    _write_table(
        out / "participants.csv",
        "participant,n_combinations,accuracy_mean,accuracy_std",
        participant_rows,
    )
    _write_table(out / "metrics.csv", "metric,value", metric_rows)
    _write_table(
        out / "confusion.csv",
        "true\\pred," + ",".join(map(str, class_ids)),
        [(cid, *counts) for cid, counts in zip(class_ids, conf.tolist())],
    )
    (out / "report.txt").write_text(_report_text(acc, prec, rec), encoding="utf-8")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scalemix",
        description="Scale mixture model classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file (flags win)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
        p.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility and ignored",
        )

    def add_out_dir(p):
        p.add_argument("--out-dir", default=".", help="output directory (default %(default)s)")

    def add_prior(p):
        p.add_argument(
            "--k-init", type=int, default=1, help="initial components (default %(default)s)"
        )
        p.add_argument(
            "--alpha0", type=float, default=0.001,
            help="Dirichlet concentration (default %(default)s)",
        )

    def add_training(p):
        p.add_argument("--nu", type=float, help="fixed shared degrees of freedom")
        p.add_argument("--select-nu", action="store_true")
        p.add_argument(
            "--nu-pre", type=float, default=200.0, help="pre-training nu (default %(default)s)"
        )
        p.add_argument("--nu-grid", help="comma-separated candidate grid")
        p.add_argument(
            "--folds", type=int, default=5, help="selection folds (default %(default)s)"
        )
        add_prior(p)
        p.add_argument(
            "--max-iters", type=int, default=500, help="iteration cap (default %(default)s)"
        )

    p = sub.add_parser("simulate", help="two-class synthetic benchmark and boundaries")
    add_common(p)
    add_out_dir(p)
    p.add_argument(
        "--nu", type=float, default=5.0, help="shared degrees of freedom (default %(default)s)"
    )
    add_prior(p)
    p.add_argument("--no-outliers", action="store_true")
    p.add_argument("--grid-step", type=float, default=0.05, help="grid step (default %(default)s)")
    p.add_argument("--svg", action="store_true", help="emit SVG heatmaps")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit a classifier from a feature CSV")
    add_common(p)
    p.add_argument("--data", help="training CSV")
    p.add_argument("--model-out", help="output model path")
    add_training(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify a feature CSV with a saved model")
    add_common(p)
    p.add_argument("--model", help="model path")
    p.add_argument("--data", help="input CSV")
    add_out_dir(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="trial-wise cross-participant protocol")
    add_common(p)
    p.add_argument("--data", help="dataset CSV with trial/participant columns")
    add_out_dir(p)
    p.add_argument(
        "--trials-train", type=int, help="training trials per split (default floor(T/3))"
    )
    p.add_argument(
        "--subsample", type=float, default=1.0,
        help="training subsample fraction (default %(default)s)",
    )
    add_training(p)
    p.add_argument(
        "--baseline", help="per-participant accuracy CSV for the superiority effect size"
    )
    p.set_defaults(func=cmd_evaluate)
    return parser


def _subcommands(parser):
    """The subcommand parsers of :func:`build_parser`, by name."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        if args.config:
            # the file's values become the subcommand's defaults, so flags still win
            command = _subcommands(parser)[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalFailure, NotPositiveDefiniteError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
