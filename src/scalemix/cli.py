"""Command-line interface: simulate, train, predict, evaluate.

Every command is deterministic for a fixed seed and fixed flags (timing
measurements land in a separate ``timings.csv``, the one file exempt from
byte-reproducibility). Each setting is declared once, in
:func:`build_parser`, with its type and default. A ``--config`` file of
``key = value`` lines, keyed by the subcommand's own flag names, replaces
those defaults; flags on the command line win over it.

Importing this module before numpy sets ``OPENBLAS_NUM_THREADS=1`` unless
one of ``_BLAS_THREAD_VARS`` is already set, so each process runs one BLAS
thread and its outputs do not depend on the CPU count. An explicit value
above 1 may move the last bits of a fit on a large class; a BLAS that
ignores the variable (Accelerate, or MKL without ``MKL_NUM_THREADS``) keeps
its own threads. A program that loaded numpy first keeps its own setting.

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

# the forked workers of `evaluate` and `predict` give the parallelism, and a
# BLAS that splits a product over threads rounds it differently on each CPU
# count; BLAS reads these as it loads, so this acts only before numpy does
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
if "numpy" not in sys.modules and not any(os.environ.get(v) for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import data as _data
from .data import (
    DataFormatError,
    WorkerError,
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
    """The ``key = value`` lines of the file at ``path``, by key; ``#`` starts a comment.

    A line ends only at a newline, as in iterating the opened file, so errors name physical lines.
    """
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
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


# points a side of simulate's grid, which spans [0, 8], at most: at 1001
# (step 0.008, 1 002 001 rows) simulate took 8 s on 2 vCPUs, peaked at
# 181 MB and wrote 184 MB; each halving of the step quadruples all three
_GRID_MAX_SIDE = 1001
_GRID_MIN_STEP = 8 / (_GRID_MAX_SIDE - 1)

# the values no command can use: flag -> (test, requirement)
_RANGES = {
    "nu": (lambda v: v > 0 and math.isfinite(v), "positive and finite"),
    "k_init": (lambda v: v >= 1, "at least 1"),
    "alpha0": (lambda v: v > 0 and math.isfinite(v), "positive and finite"),
    "max_iters": (lambda v: v >= 1, "at least 1"),
    "subsample": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "trials_train": (lambda v: v >= 1, "at least 1"),
    "seed": (lambda v: v >= 0, "at least 0"),
    "grid_step": (
        lambda v: _GRID_MIN_STEP <= v < math.inf,
        f"finite and at least {_GRID_MIN_STEP} (at most {_GRID_MAX_SIDE} points a side)",
    ),
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
    return np.asarray(values)


def _write_table(path, header, rows):
    """A small CSV table: floats as ``repr(float(v))``, other values as ``str(v)``."""
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _report_text(acc, class_ids, precision, recall):
    """``report.txt``: accuracy, macro precision and recall, then one line per class id."""
    lines = [
        f"accuracy              {acc:.4f}",
        f"macro precision       {precision.mean():.4f}",
        f"macro recall          {recall.mean():.4f}",
        "",
        "class  precision  recall",
        *(f"{c:>5}  {p:>9.4f}  {r:>6.4f}" for c, p, r in zip(class_ids, precision, recall)),
    ]
    return "\n".join(lines) + "\n"


def _write_boundary_csv(path, grid, post, labels):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,posterior_c1,posterior_c2,argmax\n")
        write_rows(fh, grid.features, post, labels[:, None])


def _heat_colors(post1):
    """SVG fill per class-1 posterior: diverging blue (class 2) -> white -> red (class 1)."""
    shades = (255 - 175 * (np.abs(post1 - 0.5) * 2.0)).astype(int).tolist()
    return [
        f"rgb(255,{v},{v})" if red else f"rgb({v},{v},255)"
        for v, red in zip(shades, (post1 >= 0.5).tolist())
    ]


# side of one grid cell of an SVG heatmap, in pixels
_SVG_CELL_PX = 4


def _write_svg_heatmap(path, grid, post1):
    # point i of generate_simulation's n x n grid is column i // n and row i % n
    n = math.isqrt(grid.n_rows)
    size = n * _SVG_CELL_PX
    cols, rows = np.divmod(np.arange(grid.n_rows), n)
    xs = (cols * _SVG_CELL_PX).tolist()
    ys = (size - (rows + 1) * _SVG_CELL_PX).tolist()
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        *(
            f'<rect x="{x}" y="{y}" width="{_SVG_CELL_PX}" height="{_SVG_CELL_PX}" '
            f'fill="{fill}"/>'
            for x, y, fill in zip(xs, ys, _heat_colors(post1))
        ),
        "</svg>",
    ]
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
    runs = {
        "shared_nu": fit(train, shared_prior, vb_cfg),
        "ml_nu": fit_ml_nu(train, shared_prior, vb_cfg),
        "gaussian": fit(train, replace(shared_prior, nu_fixed=1e6), vb_cfg),
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
        grid = _parse_nu_grid(args.nu_grid) if args.nu_grid is not None else None
        return NuSearchConfig(folds=args.folds, nu_pre=args.nu_pre, grid=grid)
    except ValueError as exc:
        raise UsageError(f"invalid selection settings: {exc}") from None


def _row_error(path, row, problem):
    """A ``DataFormatError`` naming data row ``row`` (from 0) of ``path`` by its line."""
    with open(path, encoding="utf-8") as fh:
        next(fh)  # the header
        for rows, linenos in _data._line_slices(fh):
            if row < len(rows):
                return DataFormatError(f"{path}: row {linenos[row]}: {problem}")
            row -= len(rows)


def _load_training_csv(path):
    """``load_csv(path)``, refusing a file with no rows or a feature too large to train on.

    A feature is too large when four times its square, times the file's row
    count, overflows: below that the sample covariance of any subset of
    the rows, and so the default prior of any training side, is finite.
    The error names the first such row by its physical line.
    """
    data = load_csv(path)
    if data.n_rows == 0:
        raise DataFormatError(f"{path}: no rows")
    limit = math.sqrt(np.finfo(float).max / (4 * data.n_rows))
    too_large = np.flatnonzero((np.abs(data.features) > limit).any(axis=1))
    if too_large.size:
        raise _row_error(path, int(too_large[0]), "a feature is too large to train on")
    return data


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
    # a model that cannot be written fails here, before the data is read and fit
    if not Path(args.model_out).parent.is_dir():
        raise DataFormatError(f"cannot write {args.model_out}: its directory does not exist")
    data = _load_training_csv(args.data)
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
    bad = [cm.class_id for cm in classifier.classes if not cm.converged]
    if bad:
        print(f"warning: classes {bad} hit the iteration cap", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_predict(args):
    if not args.model or not args.data:
        raise UsageError("--model and --data are required")
    # a model that cannot predict fails here, before --data is read
    prepared = prepare(load_model(args.model))
    with open(args.data, encoding="utf-8") as fh:
        names = _data._read_header(fh, args.data, prepared.dim)
        header = [
            *names, *_data._ID_COLUMNS, "pred_label",
            *(f"log_posterior_{cid}" for cid in prepared.class_ids.tolist()),
        ]
        jobs = (
            (rows, linenos, args.data, names, prepared)
            for rows, linenos in _data._line_slices(fh)
        )
        # closing: a failed write must not leave a pool to the garbage collector
        with closing(map_in_workers(_predict_slice, jobs)) as texts:
            # the header and the first slice are checked before anything is created
            first = next(texts)
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            # rows go to a temporary file that replaces predictions.csv only
            # once every row is written, so a bad row or a failed worker
            # leaves no partial output
            partial = out / f".predictions.csv.{os.getpid()}.tmp"
            try:
                with open(partial, "w", encoding="utf-8") as dest:
                    dest.write(",".join(header) + "\n" + first)
                    for text in texts:
                        dest.write(text)
                os.replace(partial, out / "predictions.csv")
            finally:
                partial.unlink(missing_ok=True)
    return EXIT_OK


def _load_baseline(path, participants):
    """Baseline accuracy per participant, checked line by line.

    The header ``participant,accuracy`` is line 1. The rows after it are
    read by :func:`~scalemix.data._line_slices`, so blank lines are skipped
    and lines numbered as in the data CSV. Every participant in
    ``participants`` must have a row.
    """
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "participant,accuracy":
            raise DataFormatError(f"{path}: expected header participant,accuracy")
        lines = [
            (lineno, row.rstrip("\n"))
            for rows, linenos in _data._line_slices(fh)
            for lineno, row in zip(linenos, rows)
        ]
    out = {}
    for lineno, line in lines:
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
    missing = sorted(set(participants) - out.keys())
    if missing:
        raise DataFormatError(f"{path}: baseline is missing participants {missing}")
    return out


def _run_combination(train_part, test_part, test_rows, args, seed, search):
    """One combination of ``evaluate``: train, then label and score the test side.

    ``test_rows`` is an index array of the data row of ``args.data`` (from
    0) of each test row, which names a row that cannot be scored. Returns
    ``(conf, acc, tune_s, train_s, predict_s)``: the confusion matrix over
    every class, the accuracy, and the seconds spent tuning ν, training
    and predicting. It runs in a worker process when the combinations are
    spread over several.
    """
    start = time.perf_counter()
    classifier, _, tune_s = _train_classifier(train_part, args, seed, search)
    train_s = time.perf_counter() - start - tune_s
    start = time.perf_counter()
    try:
        _, pred = predict_batch(classifier, test_part.features)
    except UnscorableRowError as exc:
        raise _row_error(args.data, test_rows[exc.row], "a feature is too large to score") from None
    predict_s = time.perf_counter() - start
    conf = confusion_matrix(pred, test_part.labels, train_part.class_ids)
    return conf, accuracy(pred, test_part.labels), tune_s, train_s, predict_s


def _predict_slice(rows, linenos, path, names, prepared):
    """``predict``'s output rows for one slice of input rows, as text.

    ``rows`` are data rows of ``path`` on physical lines ``linenos``, as
    :func:`~scalemix.data._line_slices` gives them, with feature columns
    ``names``; each is echoed as given, less its newline, then its
    ``pred_label`` and log posteriors. Every slice runs through
    :func:`map_in_workers`.
    """
    feats, _ = _data._parse_chunk(rows, linenos, path, names)
    try:
        log_post, labels = predict_batch(prepared, feats)
    except UnscorableRowError as exc:
        raise DataFormatError(
            f"{path}: row {linenos[exc.row]}: a feature is too large to score"
        ) from None
    echoed = (row.rstrip("\n") for row in rows)
    posts = (",".join(map(repr, post)) for post in log_post.tolist())
    return "".join(f"{r},{c},{p}\n" for r, c, p in zip(echoed, labels.tolist(), posts))


def _combinations(data, args, search):
    """The combinations of ``evaluate``, each checked and built as it is reached.

    Yields ``(record, job)`` in participant then combination order:
    ``record`` is ``(pid, combo_idx, train_trials, n_train)`` and ``job``
    the arguments of :func:`_run_combination`. Each participant, in id
    order, needs a non-negative id and a split size s (``--trials-train``,
    by default a third of its T trials, at least 1) with 0 < s < T,
    checked before its combinations are reached. Every training side,
    after ``--subsample`` (which keeps at least one row of each class),
    must hold every class, and with ``--select-nu`` at least ``--folds``
    rows of each. One pass checks the whole plan before any fit; a second
    builds each job's sides only when the job is taken.
    """
    all_class_ids = data.class_ids
    for pid in np.unique(data.participants).tolist():
        if pid < 0:
            # the id seeds the participant's combinations, as a SeedSequence entry
            raise DataFormatError(f"participant {pid}: a participant id must be non-negative")
        rows = np.flatnonzero(data.participants == pid)
        part = data.subset(rows)
        t_count = np.unique(part.trials).size
        s = args.trials_train if args.trials_train is not None else max(1, t_count // 3)
        if not 0 < s < t_count:
            raise DataFormatError(f"participant {pid}: cannot train on {s} of {t_count} trials")
        for combo_idx, (train_trials, train_part, test_part, test_at) in enumerate(
            split_by_trials(part, s)
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
            record = (pid, combo_idx, ";".join(map(str, train_trials)), train_part.n_rows)
            yield record, (train_part, test_part, rows[test_at], args, child_seed, search)


def cmd_evaluate(args):
    if not args.data:
        raise UsageError("--data is required")
    _check_ranges(args)
    search = _search_config(args)
    data = _load_training_csv(args.data)
    # the plan and the baseline are checked before any fit or output
    plan = [record for record, _ in _combinations(data, args, search)]
    baseline = _load_baseline(args.baseline, [r[0] for r in plan]) if args.baseline else None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # each combination is an independent job, so they spread over one
    # worker process per usable CPU; results come back in job order
    jobs = (job for _, job in _combinations(data, args, search))
    results = map_in_workers(_run_combination, jobs)
    class_ids = data.class_ids
    conf = np.zeros((len(class_ids), len(class_ids)), dtype=int)
    combo_rows, timing_rows, per_participant = [], [], {}
    for (pid, combo_idx, train_trials, n_train), result in zip(plan, results):
        combo_conf, acc, tune_s, train_s, predict_s = result
        conf += combo_conf
        n_test = int(combo_conf.sum())
        per_participant.setdefault(pid, []).append(acc)
        combo_rows.append((pid, combo_idx, train_trials, n_train, n_test, acc))
        timing_rows.append((pid, combo_idx, tune_s, train_s, predict_s * 1e6 / n_test))
    participant_rows = [(pid, len(a), np.mean(a), np.std(a)) for pid, a in per_participant.items()]
    participant_means = np.array([row[2] for row in participant_rows])

    acc = float(np.trace(conf) / conf.sum())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prec, rec = precision_recall(conf, class_ids)
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
    (out / "report.txt").write_text(_report_text(acc, class_ids, prec, rec), encoding="utf-8")
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
    p.add_argument(
        "--grid-step", type=float, default=0.05,
        help=f"grid step, at least {_GRID_MIN_STEP} and rounded so that it divides 8 "
        "evenly (default %(default)s)",
    )
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
