import concurrent.futures
import itertools
import math
import multiprocessing
import time

import numpy as np
import pytest

from scalemix.data import (
    BLOCK_ROWS,
    DataFormatError,
    FeatureDataset,
    _line_slices,
    generate_simulation,
    load_csv,
    map_in_workers,
    save_csv,
    split_by_trials,
    subsample,
)


class TestGenerateSimulation:
    def test_class_counts(self):
        train, _ = generate_simulation(seed=0)
        assert int(np.sum(train.labels == 1)) == 110
        assert int(np.sum(train.labels == 2)) == 100

    def test_no_outlier_variant(self):
        train, _ = generate_simulation(seed=0, with_outliers=False)
        assert int(np.sum(train.labels == 1)) == 100

    def test_deterministic_per_seed(self):
        a_train, a_grid = generate_simulation(seed=7)
        b_train, b_grid = generate_simulation(seed=7)
        c_train, _ = generate_simulation(seed=8)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_grid.features, b_grid.features)
        assert not np.array_equal(a_train.features, c_train.features)

    def test_class_two_mean_concentration(self):
        train, _ = generate_simulation(seed=3)
        mean2 = train.features[train.labels == 2].mean(axis=0)
        bound = 3 * math.sqrt(0.5 / 100)
        assert np.all(np.abs(mean2 - 5.0) <= bound)

    def test_grid_shape_and_labels(self):
        _, grid = generate_simulation(seed=0)
        assert grid.n_rows == 161 * 161
        assert grid.features.min() == 0.0
        assert grid.features.max() == 8.0
        # optimal rule for equal isotropic covariances: nearer mean wins
        d1 = ((grid.features - [2.5, 2.5]) ** 2).sum(axis=1)
        d2 = ((grid.features - [5.0, 5.0]) ** 2).sum(axis=1)
        assert np.array_equal(grid.labels, np.where(d1 <= d2, 1, 2))

    @pytest.mark.parametrize(
        "step, axis",
        [(0.05, np.linspace(0.0, 8.0, 161)), (3.0, np.linspace(0.0, 8.0, 4)),
         (17.0, [0.0, 8.0])],
    )
    def test_grid_step_divides_the_range_in_at_least_one_step(self, step, axis):
        # a step is rounded so that it divides 8 evenly: 3 becomes 8/3, and
        # 17 becomes 8 rather than no step at all
        _, grid = generate_simulation(seed=0, grid_step=step)
        assert np.array_equal(np.unique(grid.features[:, 0]), axis)
        assert np.array_equal(np.unique(grid.features[:, 1]), axis)
        assert grid.n_rows == len(axis) ** 2

    def test_outliers_within_range(self):
        train, _ = generate_simulation(seed=5)
        outliers = train.features[100:110]
        assert outliers.min() >= 0.0
        assert outliers.max() <= 7.0


class TestCsvRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        n = 37
        ds = FeatureDataset(
            rng.standard_normal((n, 3)) * math.pi,
            rng.integers(1, 4, n),
            rng.integers(1, 5, n),
            rng.integers(1, 3, n),
        )
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)
        assert np.array_equal(ds.trials, back.trials)
        assert np.array_equal(ds.participants, back.participants)

    def test_small_well_formed_file(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(
            "f1,f2,label,trial,participant\n"
            "0.5,1.5,1,1,1\n"
            "2.5,3.5,2,1,1\n"
            "4.5,5.5,1,2,1\n"
        )
        ds = load_csv(path)
        assert ds.n_rows == 3
        assert ds.dim == 2

    def test_nan_cell_rejected_with_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,label,trial,participant\n1.0,1,1,1\nNaN,1,1,1\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,label,trial,participant\nok,1,1,1\n")
        with pytest.raises(DataFormatError, match="row 2.*f1"):
            load_csv(path)

    @pytest.mark.parametrize("label", ["0", "-2"])
    def test_label_below_one_names_file_and_row(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"f1,label,trial,participant\n1.5,{label},1,1\n2.5,1,1,1\n")
        with pytest.raises(DataFormatError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == (
            f"{path}: row 2, column label: not a positive integer ({label!r})"
        )

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,label,trial\n1.0,1,1\n")
        with pytest.raises(DataFormatError, match="header"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file (missing header)"),
            (
                "f1,f3,label,trial,participant\n",
                "feature columns must be f1,f2, got ['f1', 'f3']",
            ),
            ("f1,label,trial,participant\n1.0,1,1,1\n2.0,1,1\n", "row 3 has 3 cells, expected 4"),
        ],
    )
    def test_malformed_file_named_with_its_fault(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f1,f2,label,trial,participant\n")
        ds = load_csv(path)
        assert ds.n_rows == 0
        assert ds.dim == 2


class TestChunkedCsv:
    """Files longer than one slice, and cells the numpy fast path would misread."""

    def dataset(self, rng, n, d=3):
        return FeatureDataset(
            rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d)),
            rng.integers(1, 16, n),
            rng.integers(1, 7, n),
            rng.integers(1, 4, n),
        )

    def with_blank_lines(self, path, physical_lines):
        lines = path.read_text().splitlines(keepends=True)
        for lineno in sorted(physical_lines):
            lines.insert(lineno - 1, "\n" if lineno % 2 else "  \t\n")
        path.write_text("".join(lines))

    def test_round_trip_bit_exact_across_chunks(self, tmp_path, rng):
        ds = self.dataset(rng, 2 * BLOCK_ROWS + 5)
        path = tmp_path / "long.csv"
        save_csv(ds, path)
        # data row r sits on physical line r + 1; straddle the first boundary
        self.with_blank_lines(path, [BLOCK_ROWS, BLOCK_ROWS + 2, BLOCK_ROWS + 3, BLOCK_ROWS + 6])
        back = load_csv(path)
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(np.signbit(ds.features), np.signbit(back.features))
        assert np.array_equal(ds.labels, back.labels)
        assert np.array_equal(ds.trials, back.trials)
        assert np.array_equal(ds.participants, back.participants)

    @staticmethod
    def slices(path):
        """``(rows, linenos)`` of each ``BLOCK_ROWS`` slice past the header."""
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            return list(_line_slices(fh))

    def test_slices_hold_full_row_blocks_despite_blank_lines(self, tmp_path, rng):
        ds = self.dataset(rng, 2 * BLOCK_ROWS + 5, d=1)
        path = tmp_path / "long.csv"
        save_csv(ds, path)
        blanks = [3, 10, BLOCK_ROWS + 1, BLOCK_ROWS + 9]
        self.with_blank_lines(path, blanks)
        # three blank lines in the first slice and one in the second
        slices = self.slices(path)
        assert [len(rows) for rows, _ in slices] == [BLOCK_ROWS, BLOCK_ROWS, 5]
        starts = [2, BLOCK_ROWS + 5, 2 * BLOCK_ROWS + 6, 2 * BLOCK_ROWS + 11]
        assert [list(linenos) for _, linenos in slices] == [
            [n for n in range(lo, hi) if n not in blanks] for lo, hi in zip(starts, starts[1:])
        ]
        lines = path.read_text().splitlines(keepends=True)
        for rows, linenos in slices:
            assert rows == [lines[n - 1] for n in linenos]

    def test_exact_multiple_ends_with_empty_slice(self, tmp_path, rng):
        path = tmp_path / "exact.csv"
        save_csv(self.dataset(rng, BLOCK_ROWS, d=1), path)
        assert [(len(rows), linenos) for rows, linenos in self.slices(path)] == [
            (BLOCK_ROWS, list(range(2, BLOCK_ROWS + 2))), (0, [])
        ]

    def test_every_slice_is_numbered_by_a_list(self, tmp_path, rng):
        path = tmp_path / "long.csv"
        save_csv(self.dataset(rng, 2 * BLOCK_ROWS + 5, d=1), path)
        self.with_blank_lines(path, [BLOCK_ROWS + 9])
        (_, first), (_, second), (_, last) = self.slices(path)
        assert type(first) is list and first == list(range(2, BLOCK_ROWS + 2))
        assert type(second) is list and BLOCK_ROWS + 9 not in second
        assert type(last) is list and last == list(range(2 * BLOCK_ROWS + 3, 2 * BLOCK_ROWS + 8))

    @staticmethod
    def reference_slices(path):
        """``_line_slices`` as a filter of ``enumerate(fh, 2)`` cut into ``BLOCK_ROWS`` pieces."""
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            kept = [(n, line) for n, line in enumerate(fh, 2) if not line.isspace()]
        pieces = [kept[lo : lo + BLOCK_ROWS] for lo in range(0, len(kept) + 1, BLOCK_ROWS)]
        return [([line for _, line in piece], [n for n, _ in piece]) for piece in pieces]

    @pytest.mark.parametrize("n", [BLOCK_ROWS, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 5])
    @pytest.mark.parametrize("blanks", ["none", "boundaries", "random"])
    @pytest.mark.parametrize("newline_at_end", [True, False])
    def test_slices_match_a_filtered_enumerate(self, tmp_path, rng, n, blanks, newline_at_end):
        path = tmp_path / "ref.csv"
        save_csv(self.dataset(rng, n, d=1), path)
        lines = path.read_text().splitlines(keepends=True)
        if blanks == "boundaries":
            # about the first and second slice ends, counted in physical lines
            at = [end - 1 + i for end in (BLOCK_ROWS, 2 * BLOCK_ROWS) for i in range(4)]
            fill = ["\n", "  \n", "\t\n", " \x0c\n"]
            for i, lineno in enumerate(at):
                lines.insert(lineno - 1, fill[i % len(fill)])
        elif blanks == "random":
            fill = ["\n", " \n", "\t\t\n", "\r\n", " \x0c\n"]
            for lineno in sorted(rng.choice(np.arange(2, n + 2), n // 50, replace=False)):
                lines.insert(lineno - 1, fill[rng.integers(len(fill))])
        text = "".join(lines)
        path.write_text(text if newline_at_end else text[:-1], newline="")
        slices = self.slices(path)
        assert slices == self.reference_slices(path)
        assert sum(len(rows) for rows, _ in slices) == n

    def test_blank_and_whitespace_lines_are_not_numbered(self, tmp_path, rng):
        path = tmp_path / "blank.csv"
        save_csv(self.dataset(rng, BLOCK_ROWS + 5, d=1), path)
        # "\n" at odd lines, "  \t\n" at even ones; lines 2-1025 hold two,
        # so the first slice reaches past line 1026, which is blank too
        blanks = [5, 8, BLOCK_ROWS + 2]
        self.with_blank_lines(path, blanks)
        with open(path, "a") as fh:
            fh.write(" \t ")  # whitespace with no newline ends the file
        lines = path.read_text().splitlines(keepends=True)
        assert lines[BLOCK_ROWS + 1] == "  \t\n" and lines[4] == "\n"
        (rows, first), (last_rows, last) = self.slices(path)
        assert first == [n for n in range(2, BLOCK_ROWS + 5) if n not in blanks]
        assert last == list(range(BLOCK_ROWS + 5, BLOCK_ROWS + 10))
        assert rows + last_rows == [lines[n - 1] for n in [*first, *last]]
        assert not any(row.isspace() for row in rows + last_rows)

    # past the first slice, or in the first slice after its blank line, which
    # the per-row parse then skips
    @pytest.mark.parametrize("target", [BLOCK_ROWS + 40, 60])
    def test_nan_past_first_chunk_named_by_physical_line(self, tmp_path, rng, target):
        path = tmp_path / "nan.csv"
        save_csv(self.dataset(rng, BLOCK_ROWS + 100, d=2), path)
        self.with_blank_lines(path, [50])
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[target - 1].split(",")
        cells[1] = "nan"
        lines[target - 1] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(DataFormatError, match=f"row {target}, column f2: non-finite"):
            load_csv(path)

    def test_label_below_one_past_first_chunk_named_by_physical_line(self, tmp_path, rng):
        path = tmp_path / "label.csv"
        save_csv(self.dataset(rng, BLOCK_ROWS + 100, d=2), path)
        self.with_blank_lines(path, [50])
        lines = path.read_text().splitlines(keepends=True)
        target = BLOCK_ROWS + 40
        cells = lines[target - 1].split(",")
        cells[2] = "0"
        lines[target - 1] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(DataFormatError, match=f"row {target}, column label: not a positive"):
            load_csv(path)

    @pytest.mark.parametrize(
        "cell, column",
        [("\x1c3", "f1"), ("3\x1f", "label"), ("\u01fe3", "label"), ("3\u0903", "trial")],
    )
    def test_cells_numpy_alone_would_accept_are_rejected(self, tmp_path, cell, column):
        cells = {"f1": "0.5", "label": "1", "trial": "1", "participant": "1"}
        cells[column] = cell
        path = tmp_path / "odd.csv"
        path.write_text(
            "f1,label,trial,participant\n1.5,1,1,1\n" + ",".join(cells.values()) + "\n"
        )
        with pytest.raises(DataFormatError, match=f"row 3, column {column}"):
            load_csv(path)

    def test_cells_only_python_accepts_are_read(self, tmp_path):
        path = tmp_path / "python.csv"
        path.write_text(
            "f1,f2,label,trial,participant\n"
            "1_0.5,\u00a02.5,\u0661,\u00a03 ,1_2\n"
        )
        ds = load_csv(path)
        assert ds.features.tolist() == [[10.5, 2.5]]
        assert (ds.labels.tolist(), ds.trials.tolist(), ds.participants.tolist()) == (
            [1], [3], [12]
        )

    def test_out_of_range_integer_named(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("f1,label,trial,participant\n1.5,99999999999999999999,1,1\n")
        with pytest.raises(DataFormatError, match="row 2, column label: integer out of range"):
            load_csv(path)



def _square_slowly(i):
    """``i * i``, later for every third job, so replies arrive out of job order."""
    if i % 3 == 0:
        time.sleep(0.02)
    return i * i


class TestMapInWorkers:
    def test_pool_bounds_what_it_holds(self, monkeypatch):
        workers = 2
        monkeypatch.setattr("scalemix.data._usable_cpus", lambda: workers)
        sizes = []

        class SizedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SizedPool)
        results = []
        held = []

        def jobs():
            for i in range(40):
                # a job is held from when it is pulled until its result is yielded
                held.append(i + 1 - len(results))
                yield (i,)

        for result in map_in_workers(_square_slowly, jobs()):
            results.append(result)
        assert multiprocessing.active_children() == []
        assert sizes == [workers]
        assert results == [i * i for i in range(40)]
        assert max(held) == 2 * workers


class TestSplitByTrials:
    def make(self, trials):
        trials = np.asarray(trials)
        n = trials.shape[0]
        return FeatureDataset(
            np.arange(n, dtype=float)[:, None], np.ones(n, int), trials, np.ones(n, int)
        )

    def test_combination_count_t4_s1(self):
        ds = self.make(np.repeat([1, 2, 3, 4], 5))
        assert len(list(split_by_trials(ds, 1))) == 4

    def test_combination_count_t6_s2(self):
        ds = self.make(np.repeat([1, 2, 3, 4, 5, 6], 2))
        assert len(list(split_by_trials(ds, 2))) == math.comb(6, 2)

    def test_partition_property(self):
        ds = self.make(np.repeat([1, 2, 3, 4], 3))
        for _, train, test, test_index in split_by_trials(ds, 2):
            assert train.n_rows + test.n_rows == ds.n_rows
            joined = np.sort(
                np.concatenate([train.features[:, 0], test.features[:, 0]])
            )
            assert np.array_equal(joined, ds.features[:, 0])
            assert np.array_equal(test.features, ds.features[test_index])

    def test_no_trial_leakage(self):
        ds = self.make(np.repeat([1, 2, 3, 4, 5], 4))
        for train_trials, train, test, _ in split_by_trials(ds, 2):
            assert set(np.unique(train.trials)) == set(train_trials)
            assert set(np.unique(test.trials)) == {1, 2, 3, 4, 5} - set(train_trials)

    def test_lexicographic_order(self):
        ds = self.make(np.repeat([1, 2, 3], 2))
        combos = [train_trials for train_trials, *_ in split_by_trials(ds, 2)]
        assert combos == list(itertools.combinations([1, 2, 3], 2))

    def test_invalid_s(self):
        ds = self.make(np.repeat([1, 2], 3))
        with pytest.raises(ValueError):
            split_by_trials(ds, 2)
        with pytest.raises(ValueError):
            split_by_trials(ds, 0)

    def test_invalid_s_raises_before_iteration(self):
        # the check runs when the iterator is made, not when it is first read
        ds = self.make(np.repeat([1, 2, 3], 2))
        with pytest.raises(ValueError, match="got s = 0"):
            split_by_trials(ds, 0)

    def test_first_split_builds_one_pair_of_subsets(self, monkeypatch):
        ds = self.make(np.repeat([1, 2, 3, 4, 5, 6], 2))
        built = []
        subset = FeatureDataset.subset
        monkeypatch.setattr(
            FeatureDataset, "subset", lambda self, mask: built.append(1) or subset(self, mask)
        )
        splits = split_by_trials(ds, 3)
        assert built == []
        train_trials, train, test, _ = next(splits)
        assert train_trials == (1, 2, 3) and len(built) == 2
        assert (train.n_rows, test.n_rows) == (6, 6)


class TestSubsample:
    def balanced(self, rng, n_per_class=100, classes=10):
        feats = rng.standard_normal((n_per_class * classes, 2))
        labels = np.repeat(np.arange(1, classes + 1), n_per_class)
        n = feats.shape[0]
        return FeatureDataset(feats, labels, np.ones(n, int), np.ones(n, int))

    def test_five_percent_of_balanced(self, rng):
        ds = self.balanced(rng)
        out = subsample(ds, 0.05, seed=0)
        assert out.n_rows == 50
        for cid in range(1, 11):
            assert int(np.sum(out.labels == cid)) == 5

    def test_full_fraction_is_identity_as_multiset(self, rng):
        ds = self.balanced(rng, n_per_class=20, classes=3)
        out = subsample(ds, 1.0, seed=1)
        assert out.n_rows == ds.n_rows
        a = np.sort(ds.features, axis=0)
        b = np.sort(out.features, axis=0)
        assert np.allclose(a, b)

    def test_at_least_one_row_per_class(self, rng):
        ds = self.balanced(rng, n_per_class=3, classes=4)
        out = subsample(ds, 0.01, seed=2)
        for cid in range(1, 5):
            assert int(np.sum(out.labels == cid)) >= 1

    def test_deterministic(self, rng):
        ds = self.balanced(rng)
        a = subsample(ds, 0.1, seed=5)
        b = subsample(ds, 0.1, seed=5)
        assert np.array_equal(a.features, b.features)

    def test_row_order_invariance(self, rng):
        ds = self.balanced(rng, n_per_class=30, classes=2)
        perm = rng.permutation(ds.n_rows)
        shuffled = FeatureDataset(
            ds.features[perm], ds.labels[perm], ds.trials[perm], ds.participants[perm]
        )
        a = subsample(ds, 0.2, seed=9)
        b = subsample(shuffled, 0.2, seed=9)
        rows_a = {tuple(r) for r in a.features}
        rows_b = {tuple(r) for r in b.features}
        assert rows_a == rows_b

    def test_fraction_validation(self, rng):
        ds = self.balanced(rng, n_per_class=5, classes=2)
        with pytest.raises(ValueError):
            subsample(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            subsample(ds, 1.5, seed=0)


class TestDatasetValidation:
    def test_labels_must_be_positive(self):
        with pytest.raises(DataFormatError):
            FeatureDataset(np.zeros((2, 1)), [0, 1], [1, 1], [1, 1])

    def test_non_finite_rejected(self):
        with pytest.raises(DataFormatError):
            FeatureDataset(np.array([[np.inf]]), [1], [1], [1])

    def test_length_mismatch(self):
        with pytest.raises(DataFormatError):
            FeatureDataset(np.zeros((3, 1)), [1, 1], [1, 1, 1], [1, 1, 1])
