"""Dataset handling: CSV ingestion, trial-wise splits, subsampling, and the
two-class synthetic benchmark.

A feature dataset is a matrix of D-dimensional rows, each carrying a class
label, a trial id, and a participant id. The CSV form uses the header
``f1,...,fD,label,trial,participant``; floats are rendered with repr
semantics (up to 17 significant digits) so a save/load round trip is
bit-exact.

Files are read in slices of ``BLOCK_ROWS`` data rows (blank lines are
skipped and do not count): ``load_csv`` parses every slice and keeps the
whole dataset, ``predict`` classifies and writes each slice as it goes.
numpy parses each slice of printable ASCII text: there it accepts no
cell that Python's ``float`` and ``int`` reject, and reads the same values.
When a slice holds any other character, when numpy fails on it, or when it
holds a non-finite feature or a label below 1, the slice is parsed again
row by row, and the first bad cell is reported by physical line number and
column name.

Rows are written by one rule, ``format_rows``, ``BLOCK_ROWS`` rows at a
time. ``map_in_workers`` runs independent jobs, in process or in forked
worker processes, one per usable CPU, and yields their results in job
order: ``predict`` parses, classifies and formats each slice of its input
there, and ``evaluate`` runs its trial combinations.
"""

import itertools
import os
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataFormatError",
    "FeatureDataset",
    "WorkerError",
    "format_rows",
    "generate_simulation",
    "load_csv",
    "map_in_workers",
    "save_csv",
    "split_by_trials",
    "subsample",
    "write_rows",
]

# rows per slice of CSV input, per formatting call and per whitening block
# of batch prediction; the text of one slice and the floats of its
# tolist() stay small, which also keeps a worker's reply through the pipe
# from leaving large buffers behind in the caller
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
        return sorted(int(v) for v in np.unique(self.labels))

    def subset(self, mask):
        mask = np.asarray(mask)
        return FeatureDataset(
            features=self.features[mask],
            labels=self.labels[mask],
            trials=self.trials[mask],
            participants=self.participants[mask],
        )


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
    [0, 8]^2 at ``grid_step`` with the optimal labels of the clean
    generating mixture (equidistance ties go to class 1).
    """
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
    feats = np.vstack(blocks)
    n = feats.shape[0]
    train = FeatureDataset(
        features=feats,
        labels=np.asarray(labels),
        trials=np.ones(n, dtype=int),
        participants=np.ones(n, dtype=int),
    )

    lo, hi = SIMULATION_RANGE
    steps = int(round((hi - lo) / grid_step))
    axis = np.linspace(lo, hi, steps + 1)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    grid_pts = np.column_stack([g1.ravel(), g2.ravel()])
    mu1, mu2 = (np.asarray(m) for m in SIMULATION_MEANS)
    d1 = ((grid_pts - mu1) ** 2).sum(axis=1)
    d2 = ((grid_pts - mu2) ** 2).sum(axis=1)
    grid_labels = np.where(d1 <= d2, 1, 2)
    grid = FeatureDataset(
        features=grid_pts,
        labels=grid_labels,
        trials=np.ones(grid_pts.shape[0], dtype=int),
        participants=np.ones(grid_pts.shape[0], dtype=int),
    )
    return train, grid


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
    yielded in the order of its job. An exception that ``jobs`` or ``fn``
    raises is raised here as itself; of the workers' exceptions, the one
    of the earliest job in that order. A worker that dies raises
    ``WorkerError``. Either way the pending jobs are cancelled, and every
    worker has exited once this generator finishes, raises or is closed.

    A forked worker calls ``fn`` with the parent's modules as they were at
    the fork, patched attributes included. ``fn`` may call BLAS: the test
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


def _parse_rows(lines, first_lineno, path, names):
    """Per-row parse of physical lines numbered from ``first_lineno``.

    Blank lines are skipped. The first malformed cell raises a
    ``DataFormatError`` naming its row (physical line) and column.
    """
    d = len(names)
    feats = np.empty((len(lines), d))
    ids = np.empty((len(lines), 3), dtype=np.int64)
    row = 0
    for lineno, line in enumerate(lines, start=first_lineno):
        if line.isspace():
            continue
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
        row += 1
    return feats[:row], ids[:row]


def _parse_chunk(lines, first_lineno, path, names):
    """Features and id columns of one slice: numpy first, per row on doubt."""
    rows = [ln for ln in lines if not ln.isspace()]
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
    return _parse_rows(lines, first_lineno, path, names)


def _line_slices(fh, rows, lineno):
    """``(lines, first line number)`` of consecutive slices of ``fh``'s lines.

    ``lineno`` numbers the next line of ``fh``. Each slice holds ``rows``
    data rows (blank lines are kept but not counted), except the last,
    which holds fewer (possibly none), so there is always at least one.
    """
    while True:
        lines = list(itertools.islice(fh, rows))
        short = len(lines) < rows
        blank = sum(map(str.isspace, lines))
        # top up past blank lines so every slice but the last is full
        while blank and not short:
            more = list(itertools.islice(fh, blank))
            lines += more
            short = len(more) < blank
            blank = sum(map(str.isspace, more))
        yield lines, lineno
        if short:
            return
        lineno += len(lines)


def load_csv(path):
    """Read a dataset written in the canonical CSV form, whole.

    The feature dimension is the header's. Errors name the offending row
    and column; non-finite cells are rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        names = _read_header(fh, path)
        parsed = [
            _parse_chunk(lines, lineno, path, names)
            for lines, lineno in _line_slices(fh, BLOCK_ROWS, 2)
        ]
    feats, ids = (np.concatenate(cols) for cols in zip(*parsed))
    return FeatureDataset(
        features=feats, labels=ids[:, 0], trials=ids[:, 1], participants=ids[:, 2]
    )


def split_by_trials(dataset, s):
    """All train/test partitions using ``s`` of the distinct trials for training.

    Returns a list of one ``(train_trials, train, test)`` entry per
    size-``s`` combination of trial ids, in lexicographic order of the
    sorted ids; ``train_trials`` is that combination, a sorted tuple. The
    test side holds every other trial, so no trial appears on both sides.
    """
    trial_ids = sorted(int(t) for t in np.unique(dataset.trials))
    t = len(trial_ids)
    if not 0 < s < t:
        raise ValueError(f"need 0 < s < {t} distinct trials, got s = {s}")
    out = []
    for combo in itertools.combinations(trial_ids, s):
        mask = np.isin(dataset.trials, list(combo))
        out.append((combo, dataset.subset(mask), dataset.subset(~mask)))
    return out


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
