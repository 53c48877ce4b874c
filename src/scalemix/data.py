"""Dataset handling: CSV ingestion, trial-wise splits, subsampling, and the
two-class synthetic benchmark.

A feature dataset is a matrix of D-dimensional rows, each carrying a class
label, a trial id, and a participant id. The CSV form uses the header
``f1,...,fD,label,trial,participant``; floats are rendered with repr
semantics (up to 17 significant digits) so a save/load round trip is
bit-exact.

Files are read in slices of ``BLOCK_ROWS`` data rows by ``_line_slices``,
the one reader that drops blank and whitespace-only lines and numbers each
row by its physical line: ``load_csv`` parses every slice and keeps the
whole dataset, ``predict`` classifies and writes each slice as it goes.
numpy parses each slice of printable ASCII text: there it accepts no
cell that Python's ``float`` and ``int`` reject, and reads the same values.
When a slice holds any other character, when numpy fails on it, or when it
holds a non-finite feature or a label below 1, the slice is parsed again
row by row, and the first bad cell is reported by physical line number and
column name.

Rows are written by one rule, ``format_rows``, ``BLOCK_ROWS`` rows at a
time; ``predict`` echoes its input rows instead. ``map_in_workers`` runs
independent jobs, in process or in forked workers, one per usable CPU, and
yields their results in job order: ``predict`` classifies every slice of
its input there, and ``evaluate`` runs its trial combinations, each
cut by ``split_by_trials`` only as its job is taken.
"""

import itertools
import os
import sys
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "DataFormatError",
    "FeatureDataset",
    "generate_simulation",
    "load_csv",
    "save_csv",
    "split_by_trials",
    "subsample",
]

# rows per slice of CSV input, per formatting call and per whitening block
# of batch prediction; a slice's text and predict's output for it stay
# small, so a worker's reply through the pipe leaves no large buffers behind
BLOCK_ROWS = 1024

_ID_COLUMNS = ("label", "trial", "participant")

# numpy's cell parser reads some text outside printable ASCII differently
# from Python (it takes \x1c-\x1f for spaces and turns some non-ASCII
# letters into digits), so a slice holding any such character is parsed
# row by row
_PLAIN_ASCII = bytes(range(0x20, 0x7F)) + b"\n"


class DataFormatError(ValueError):
    """Malformed dataset file or inconsistent dataset contents."""


def _frozen(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FeatureDataset:
    """Feature matrix with per-row label, trial, and participant ids."""

    features: np.ndarray
    labels: np.ndarray
    trials: np.ndarray
    participants: np.ndarray

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=float))
        if feats.size == 0:
            feats = feats.reshape(0, feats.shape[1] if feats.ndim == 2 else 0)
        labels = np.asarray(self.labels, dtype=int)
        trials = np.asarray(self.trials, dtype=int)
        parts = np.asarray(self.participants, dtype=int)
        n = feats.shape[0]
        if not (labels.shape == trials.shape == parts.shape == (n,)):
            raise DataFormatError(
                f"column lengths disagree: {n} rows vs labels {labels.shape}, "
                f"trials {trials.shape}, participants {parts.shape}"
            )
        if n and not np.all(np.isfinite(feats)):
            raise DataFormatError("features must be finite")
        if n and labels.min() < 1:
            raise DataFormatError("labels must be positive integers")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labels))
        object.__setattr__(self, "trials", _frozen(trials))
        object.__setattr__(self, "participants", _frozen(parts))

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    @property
    def class_ids(self):
        return np.unique(self.labels).tolist()  # in increasing order

    def subset(self, mask):
        mask = np.asarray(mask)
        return FeatureDataset(*(getattr(self, f.name)[mask] for f in fields(self)))


SIMULATION_MEANS = ((2.5, 2.5), (5.0, 5.0))
SIMULATION_VAR = 0.5
SIMULATION_N_PER_CLASS = 100
SIMULATION_N_OUTLIERS = 10
SIMULATION_RANGE = (0.0, 8.0)
OUTLIER_RANGE = (0.0, 7.0)


def generate_simulation(seed=0, with_outliers=True, grid_step=0.05):
    """Two well-separated Gaussian classes plus uniform outliers on class 1.

    Returns ``(train, grid)``. Training data holds 100 draws per class from
    isotropic Gaussians at (2.5, 2.5) and (5, 5) with variance 0.5; when
    ``with_outliers`` is set, 10 points uniform on [0, 7]^2 are appended to
    class 1 (110 class-1 rows total). The evaluation grid covers
    [0, 8]^2 with the optimal labels of the clean generating mixture
    (equidistance ties go to class 1). Its step is ``grid_step`` rounded so
    that it divides 8 evenly, into at least one step: 3 becomes 8/3, and
    17 becomes 8.
    """

    def one_trial(feats, labels):
        ones = np.ones(feats.shape[0], dtype=int)
        return FeatureDataset(feats, labels, ones, ones)

    rng = np.random.default_rng(seed)
    sd = np.sqrt(SIMULATION_VAR)
    blocks = []
    labels = []
    for cid, mean in enumerate(SIMULATION_MEANS, start=1):
        pts = np.asarray(mean) + sd * rng.standard_normal((SIMULATION_N_PER_CLASS, 2))
        blocks.append(pts)
        labels.extend([cid] * SIMULATION_N_PER_CLASS)
    if with_outliers:
        lo, hi = OUTLIER_RANGE
        outliers = rng.uniform(lo, hi, size=(SIMULATION_N_OUTLIERS, 2))
        blocks.append(outliers)
        labels.extend([1] * SIMULATION_N_OUTLIERS)
    train = one_trial(np.vstack(blocks), np.asarray(labels))

    lo, hi = SIMULATION_RANGE
    steps = max(1, int(round((hi - lo) / grid_step)))
    axis = np.linspace(lo, hi, steps + 1)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    grid_pts = np.column_stack([g1.ravel(), g2.ravel()])
    mu1, mu2 = (np.asarray(m) for m in SIMULATION_MEANS)
    d1 = ((grid_pts - mu1) ** 2).sum(axis=1)
    d2 = ((grid_pts - mu2) ** 2).sum(axis=1)
    return train, one_trial(grid_pts, np.where(d1 <= d2, 1, 2))


def format_rows(*blocks):
    """CSV text of 2-D column blocks placed side by side, one line per row.

    Each cell is the ``repr`` of its ``tolist()`` value: the shortest text
    that reads back to the same double, or a plain decimal integer.
    """
    rows = zip(*(block.tolist() for block in blocks))
    return "".join(",".join(map(repr, itertools.chain(*row))) + "\n" for row in rows)


def write_rows(fh, *blocks):
    """Write column blocks as ``format_rows`` text, ``BLOCK_ROWS`` rows at a time."""
    for start in range(0, blocks[0].shape[0], BLOCK_ROWS):
        fh.write(format_rows(*(block[start : start + BLOCK_ROWS] for block in blocks)))


class WorkerError(RuntimeError):
    """A worker process died."""


def _usable_cpus():
    """CPUs this process may run on; 1 where fork is missing.

    ``map_in_workers`` reads this many jobs ahead and forks at most this
    many workers, whatever the jobs are. A forked worker starts with the
    package already imported; a spawned one would import scipy again,
    which costs more than a slice of ``predict`` or a small ``evaluate``
    combination.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return 1
    import multiprocessing

    return cpus if "fork" in multiprocessing.get_all_start_methods() else 1


def map_in_workers(fn, jobs):
    """``fn(*job)`` for each of ``jobs``, in order, in process or in forked workers.

    The first jobs, at most one per usable CPU, are read ahead. With fewer
    than two of them, every job runs here, one at a time. Otherwise that
    many workers are forked; later jobs are taken from ``jobs`` as results
    are collected, at most two per worker in flight, and each result is
    yielded in the order of its job, so a caller can check the first
    result before it creates anything. An exception that ``jobs`` or ``fn``
    raises is raised here as itself; of the workers' exceptions, the one
    of the earliest job in that order. A worker that dies raises
    ``WorkerError``. Either way the pending jobs are cancelled, and every
    worker has exited once this generator finishes, raises or is closed.

    A forked worker calls ``fn`` with the parent's modules as they were at
    the fork, patched attributes included, and with the parent's BLAS thread
    count: one under the CLI with no BLAS thread variable set, so results do
    not depend on the CPU count. An explicit value above 1, or a BLAS that
    ignores the variable (Accelerate, or MKL without ``MKL_NUM_THREADS``),
    may move the last bits on large classes. The test
    ``test_blas_threads_survive_the_fork`` runs a pool after the parent has
    started OpenBLAS's threads.
    """
    jobs = iter(jobs)
    ahead = list(itertools.islice(jobs, _usable_cpus()))
    if len(ahead) < 2:
        for job in itertools.chain(ahead, jobs):
            yield fn(*job)
        return

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # a worker flushes the standard streams as it exits, so text buffered
    # at the fork would be written once more by each worker
    sys.stdout.flush()
    sys.stderr.flush()
    workers = len(ahead)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    pending = deque()

    def oldest():
        try:
            return pending.popleft().result()
        except BrokenProcessPool as exc:
            raise WorkerError(f"a worker process died: {exc}") from exc

    try:
        for job in itertools.chain(ahead, jobs):
            pending.append(pool.submit(fn, *job))
            if len(pending) == 2 * workers:
                yield oldest()
        while pending:
            yield oldest()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def save_csv(dataset, path):
    """Write a dataset in the canonical CSV form."""
    d = dataset.dim
    header = ",".join([f"f{i + 1}" for i in range(d)] + list(_ID_COLUMNS))
    ids = np.column_stack([dataset.labels, dataset.trials, dataset.participants])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        write_rows(fh, dataset.features, ids)


def _read_header(fh, path, dim=None):
    """Feature column names of a canonical CSV header, checked.

    ``dim``, when given, is the number of feature columns it must have.
    """
    first = fh.readline()
    if not first:
        raise DataFormatError(f"{path}: empty file (missing header)")
    line = first.rstrip("\n")
    header = line.split(",")
    if len(header) < 4 or tuple(header[-3:]) != _ID_COLUMNS:
        raise DataFormatError(
            f"{path}: header must end with {','.join(_ID_COLUMNS)}, got {line!r}"
        )
    d = len(header) - 3
    expected = [f"f{i + 1}" for i in range(d)]
    if header[:d] != expected:
        raise DataFormatError(
            f"{path}: feature columns must be {','.join(expected)}, got {header[:d]}"
        )
    if dim is not None and d != dim:
        raise DataFormatError(f"{path}: expected {dim} feature columns, found {d}")
    return header[:d]


def _parse_rows(rows, linenos, path, names):
    """Per-row parse of data ``rows``, on physical lines ``linenos``.

    The first malformed cell raises a ``DataFormatError`` naming its row
    (physical line) and column.
    """
    d = len(names)
    feats = np.empty((len(rows), d))
    ids = np.empty((len(rows), 3), dtype=np.int64)
    for row, (lineno, line) in enumerate(zip(linenos, rows)):
        cells = line.rstrip("\n").split(",")
        if len(cells) != d + 3:
            raise DataFormatError(
                f"{path}: row {lineno} has {len(cells)} cells, expected {d + 3}"
            )
        for j, name in enumerate(names):
            try:
                value = float(cells[j])
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {lineno}, column {name}: not a number ({cells[j]!r})"
                ) from None
            if not np.isfinite(value):
                raise DataFormatError(
                    f"{path}: row {lineno}, column {name}: non-finite value"
                )
            feats[row, j] = value
        for j, name in enumerate(_ID_COLUMNS):
            cell = cells[d + j]
            try:
                ids[row, j] = int(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {lineno}, column {name}: not an integer ({cell!r})"
                ) from None
            except OverflowError:
                raise DataFormatError(
                    f"{path}: row {lineno}, column {name}: integer out of range ({cell!r})"
                ) from None
            if j == 0 and ids[row, j] < 1:
                raise DataFormatError(
                    f"{path}: row {lineno}, column {name}: not a positive integer ({cell!r})"
                )
    return feats, ids


def _parse_chunk(rows, linenos, path, names):
    """``(features, ids)`` of one slice's data ``rows``, on physical lines ``linenos``.

    Parsed by numpy first, per row on doubt.
    """
    text = "".join(rows)
    if rows and text.isascii() and not text.encode("ascii").translate(None, _PLAIN_ASCII):
        try:
            table = np.loadtxt(
                rows, delimiter=",", comments=None, ndmin=1,
                dtype=[("f", float, (len(names),)), ("ids", np.int64, (3,))],
            )
        except (ValueError, OverflowError):
            pass
        else:
            if (
                len(table) == len(rows)
                and np.isfinite(table["f"]).all()
                and (table["ids"][:, 0] >= 1).all()
            ):
                return np.ascontiguousarray(table["f"]), np.ascontiguousarray(table["ids"])
    return _parse_rows(rows, linenos, path, names)


def _line_slices(fh):
    """``(rows, linenos)`` of consecutive slices of ``fh``'s data rows.

    ``fh`` is past its header, at line 2. ``rows`` are a slice's data rows
    as read, blank and whitespace-only lines dropped, and ``linenos`` the
    list of their physical line numbers. Each slice holds ``BLOCK_ROWS``
    rows, except the last, which holds fewer (possibly none), so there is
    always at least one.
    """
    rows, linenos = [], []
    for lineno, line in enumerate(fh, 2):
        if not line.isspace():
            rows.append(line)
            linenos.append(lineno)
            if len(rows) == BLOCK_ROWS:
                yield rows, linenos
                rows, linenos = [], []
    yield rows, linenos


def load_csv(path):
    """Read a dataset written in the canonical CSV form, whole.

    The feature dimension is the header's. Errors name the offending row
    and column; non-finite cells are rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        names = _read_header(fh, path)
        parsed = [
            _parse_chunk(rows, linenos, path, names) for rows, linenos in _line_slices(fh)
        ]
    feats, ids = (np.concatenate(cols) for cols in zip(*parsed))
    return FeatureDataset(
        features=feats, labels=ids[:, 0], trials=ids[:, 1], participants=ids[:, 2]
    )


def split_by_trials(dataset, s):
    """Every train/test partition using ``s`` of the distinct trials for training.

    Checks ``0 < s < T`` for its T distinct trials at once, then returns an
    iterator that builds, as it is read, one ``(train_trials, train, test,
    test_index)`` entry per size-``s`` combination of trial ids, in
    lexicographic order, from one mask. ``train_trials`` is the combination,
    a sorted tuple; ``test`` holds every other trial, and ``test_index`` is
    the position in ``dataset`` of each of its rows.
    """
    trial_ids = sorted(int(t) for t in np.unique(dataset.trials))
    t = len(trial_ids)
    if not 0 < s < t:
        raise ValueError(f"need 0 < s < {t} distinct trials, got s = {s}")
    return (
        (combo, dataset.subset(mask), dataset.subset(~mask), np.flatnonzero(~mask))
        for combo in itertools.combinations(trial_ids, s)
        for mask in [np.isin(dataset.trials, combo)]
    )


def subsample(dataset, fraction, seed):
    """Stratified uniform subsample without replacement.

    Each class contributes ``round(fraction * class_count)`` rows (at least
    one), preserving class proportions within one row. Rows are first put
    in a canonical sort order so the selected multiset depends only on the
    data multiset, the fraction, and the seed, never on input row order.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    order = np.lexsort(
        tuple(dataset.features[:, j] for j in reversed(range(dataset.dim)))
        + (dataset.participants, dataset.trials, dataset.labels)
    )
    keep = []
    for cid in dataset.class_ids:
        rows = order[dataset.labels[order] == cid]
        take = max(1, int(round(fraction * rows.shape[0])))
        chosen = rng.choice(rows.shape[0], size=min(take, rows.shape[0]), replace=False)
        keep.extend(rows[np.sort(chosen)])
    return dataset.subset(np.asarray(keep, dtype=int))
