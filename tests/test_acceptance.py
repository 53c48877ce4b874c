"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion is asserted at its stated tolerance; nothing here is tuned
to the host beyond fixed seeds.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from scalemix.cli import main as cli_main
from scalemix.data import FeatureDataset, generate_simulation, save_csv
from scalemix.density import (
    StudentParams,
    log_marginal_density,
    quadrature_marginal_density,
)
from scalemix.features import SignalBlock, butterworth2_lowpass
from scalemix.metrics import accuracy
from scalemix.model import (
    ClassModel,
    Posteriors,
    PriorHyperparameters,
    TrainedClassifier,
    build_default_prior,
)
from scalemix.nu_select import NuSearchConfig, select_nu
from scalemix.predict import _Mixture, predict_batch, sample
from scalemix.vb import VbConfig, fit, fit_ml_nu

from conftest import make_student_class, mixture_log_density


def report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {verdict} criterion {num}: {detail}")
    return ok


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def diagonal_flips(classifier, resolution=3201):
    ts = np.linspace(0.0, 8.0, resolution)
    _, labels = predict_batch(classifier, np.column_stack([ts, ts]))
    change = np.flatnonzero(np.diff(labels) != 0)
    return ts[change + 1]


def test_c01_density_closed_form_matches_quadrature():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for d in (1, 2, 3, 4):
        for nu in (0.5, 1.0, 2.0, 5.0, 20.0, 100.0):
            for _ in range(20):
                p = StudentParams(
                    mu=rng.standard_normal(d), sigma=random_spd(rng, d), nu=nu
                )
                x = p.mu + rng.standard_normal(d) * 2.0
                oracle = quadrature_marginal_density(x, p)
                closed = math.exp(log_marginal_density(x, p))
                worst = max(worst, abs(closed / oracle - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    assert report(
        1, ok, f"closed vs quadrature worst rel dev {worst:.2e} in {elapsed:.1f}s"
    )


def test_c02_gaussian_limit_of_predictive():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for d in (1, 2, 3):
        sigma = random_spd(rng, d)
        mu = rng.standard_normal(d)
        cm = make_student_class(mu, sigma, nu=1e6)
        mix = _Mixture(cm)
        plug_sigma = cm.components.W[0] / (cm.components.eta[0] - d - 1.0)
        mvn = stats.multivariate_normal(mean=mu, cov=plug_sigma)
        inv = np.linalg.inv(plug_sigma)
        checked = 0
        while checked < 50:
            x = mu + rng.standard_normal(d) * np.sqrt(np.diag(plug_sigma)).max()
            delta = x - mu
            if float(delta @ inv @ delta) > 9.0:
                continue
            checked += 1
            dev = abs(float(mixture_log_density(mix, x)[0]) - mvn.logpdf(x))
            worst = max(worst, dev)
    ok = worst < 1e-3
    assert report(2, ok, f"nu=1e6 vs analytic normal, worst |dlog| {worst:.2e}")


def test_c03_elbo_monotonicity_over_seeded_fits():
    start = time.perf_counter()
    worst_drop = 0.0
    runs = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        k_true = int(rng.integers(1, 4))
        centers = rng.standard_normal((k_true, d)) * 3.0
        rows = []
        for i in range(k_true):
            rows.append(rng.standard_normal((500 // k_true + 1, d)) * 0.8 + centers[i])
        feats = np.vstack(rows)[:500]
        data = FeatureDataset(
            feats, np.ones(500, int), np.ones(500, int), np.ones(500, int)
        )
        prior = build_default_prior(data, nu_fixed=5.0, k_init=3, alpha0=0.001)
        tc = fit(data, prior, VbConfig(seed=seed))
        for cm in tc.classes:
            diffs = np.diff(cm.elbo_trace)
            if diffs.size:
                worst_drop = min(worst_drop, float(diffs.min()))
        runs += 1
    elapsed = time.perf_counter() - start
    ok = worst_drop >= -1e-8 and elapsed < 120.0
    assert report(
        3, ok, f"{runs} fits, worst ELBO increment {worst_drop:.2e} in {elapsed:.1f}s"
    )


def _simulation_fits():
    train, grid = generate_simulation(seed=0)
    clean, _ = generate_simulation(seed=0, with_outliers=False)
    cfg = VbConfig(seed=0)
    shared_prior = build_default_prior(train, nu_fixed=5.0, k_init=1, alpha0=0.001)
    clean_prior = build_default_prior(clean, nu_fixed=5.0, k_init=1, alpha0=0.001)
    return (
        fit(train, shared_prior, cfg),
        fit(clean, clean_prior, cfg),
        fit_ml_nu(train, shared_prior, cfg),
        grid,
    )


def test_c04_simulation_boundary_contrast():
    start = time.perf_counter()
    tc_shared, tc_clean, tc_ml, _ = _simulation_fits()
    flips_clean = diagonal_flips(tc_clean)
    flips_shared = diagonal_flips(tc_shared)
    flips_ml = diagonal_flips(tc_ml)
    assert flips_clean.size >= 1 and flips_shared.size >= 1 and flips_ml.size >= 1
    clean_boundary = float(flips_clean[0])
    # shared tail weight: the contaminated boundary stays put
    shared_dev = float(np.max(np.abs(flips_shared - clean_boundary)))
    # per-class likelihood-estimated tail weight: the flip locus extends
    # toward (and past) class 2 as the contaminated class's region expands
    ml_shift = float(np.max(flips_ml - clean_boundary))
    elapsed = time.perf_counter() - start
    ok = shared_dev <= 0.15 and ml_shift >= 0.15 and elapsed < 60.0
    assert report(
        4,
        ok,
        f"shared-nu boundary dev {shared_dev:.3f} (need <= 0.15), ml-nu locus "
        f"shift {ml_shift:.3f} toward class 2 (need >= 0.15), {elapsed:.1f}s",
    )


def test_c04_simulation_grid_accuracy():
    """Whole-grid accuracy threshold; a known-red check, kept at full strength.

    The fitted heavy-tailed densities disagree with the optimal labels far
    from both classes: polynomial tails make the asymptotic decision
    surface a cone whose direction is set by the difference in fitted
    scale-matrix anisotropy, and at 100 points per class the sampling
    noise of those matrices (entry SE about 0.05) swings 1 to 5 percent of
    the 161 x 161 lattice, concentrated in the far corners. Measured over
    12 dataset draws and tail weights 0.5 to 7 the whole-grid accuracy is
    0.89 to 0.99 (mean about 0.95), so the 0.98 threshold holds only for
    lucky draws; the contaminated-versus-clean boundary contrast that the
    threshold was meant to capture is asserted by the companion test.
    """
    tc_shared, _, _, grid = _simulation_fits()
    _, labels = predict_batch(tc_shared, grid.features)
    grid_acc = accuracy(labels, grid.labels)
    ok = grid_acc >= 0.98
    report(4, ok, f"grid accuracy {grid_acc:.4f} against optimal labels (need >= 0.98)")
    assert ok, f"grid accuracy {grid_acc:.4f} fell below 0.98"


def test_c05_pruning_on_unimodal_classes():
    successes = 0
    for run in range(20):
        k_init = run % 10 + 1
        rng = np.random.default_rng(500 + run)
        feats = np.vstack(
            [
                rng.standard_normal((500, 2)) * 0.7,
                rng.standard_normal((500, 2)) * 0.9 + [4.0, 4.0],
            ]
        )
        data = FeatureDataset(
            feats,
            np.concatenate([np.ones(500, int), np.full(500, 2)]),
            np.ones(1000, int),
            np.ones(1000, int),
        )
        prior = build_default_prior(data, nu_fixed=5.0, k_init=k_init, alpha0=0.001)
        tc = fit(data, prior, VbConfig(seed=run))
        if all(cm.n_components <= 3 for cm in tc.classes):
            successes += 1
    ok = successes >= 18
    assert report(5, ok, f"{successes}/20 runs ended with <= 3 components per class")


def _scale_mixture_data(nu, seed, n_per_class, sep):
    cm1 = make_student_class([0.0, 0.0], np.eye(2), nu, class_id=1)
    cm2 = make_student_class([sep, sep], np.eye(2), nu, class_id=2)
    x1 = sample(cm1, n_per_class, seed=seed)
    x2 = sample(cm2, n_per_class, seed=seed + 1)
    return FeatureDataset(
        np.vstack([x1, x2]),
        [1] * n_per_class + [2] * n_per_class,
        np.ones(2 * n_per_class, int),
        np.ones(2 * n_per_class, int),
    )


def test_c06_nu_selection_sanity():
    start = time.perf_counter()
    heavy = _scale_mixture_data(nu=1.0, seed=600, n_per_class=500, sep=4.0)
    prior = build_default_prior(heavy, nu_fixed=200.0, k_init=1, alpha0=0.001)
    nu_heavy = select_nu(heavy, prior, NuSearchConfig(folds=5), vb_config=VbConfig(seed=0))
    t_heavy = time.perf_counter() - start

    start = time.perf_counter()
    gauss = _scale_mixture_data(nu=1e6, seed=601, n_per_class=500, sep=6.0)
    prior = build_default_prior(gauss, nu_fixed=200.0, k_init=1, alpha0=0.001)
    nu_gauss = select_nu(gauss, prior, NuSearchConfig(folds=5), vb_config=VbConfig(seed=0))
    t_gauss = time.perf_counter() - start

    ok = nu_heavy <= 10.0 and nu_gauss >= 10.0 and t_heavy < 300.0 and t_gauss < 300.0
    assert report(
        6,
        ok,
        f"heavy-tailed data -> nu {nu_heavy:.4g} (need <= 10) in {t_heavy:.1f}s; "
        f"gaussian data -> nu {nu_gauss:.4g} (need >= 10) in {t_gauss:.1f}s",
    )


def _sine_ratio(fc, fs, freq, seconds=6.0):
    t = np.arange(int(seconds * fs)) / fs
    block = SignalBlock(np.sin(2 * math.pi * freq * t)[:, None], fs=fs)
    out = butterworth2_lowpass(block, fc)
    tail = slice(2 * t.shape[0] // 3, None)
    basis = np.column_stack(
        [np.sin(2 * math.pi * freq * t[tail]), np.cos(2 * math.pi * freq * t[tail])]
    )
    coef, *_ = np.linalg.lstsq(basis, out.samples[tail, 0], rcond=None)
    return float(np.hypot(*coef))


def test_c07_butterworth_frequency_response():
    fs, fc = 2000.0, 10.0
    at_fc_db = 20.0 * math.log10(_sine_ratio(fc, fs, fc))
    at_decade_db = 20.0 * math.log10(_sine_ratio(fc, fs, 10 * fc))
    ok = abs(at_fc_db + 3.0) <= 0.15 and at_decade_db <= -38.0
    assert report(
        7,
        ok,
        f"cutoff response {at_fc_db:.3f} dB (need -3 +- 0.15), decade up "
        f"{at_decade_db:.1f} dB (need <= -38)",
    )


def test_c08_prediction_throughput():
    rng = np.random.default_rng(800)
    d, c, k = 8, 15, 3
    classes = []
    for cid in range(1, c + 1):
        alphas, means, scales = [], [], []
        for _ in range(k):
            a = rng.standard_normal((d, d)) * 0.2
            scales.append((a @ a.T + np.eye(d)) * 500.0)
            alphas.append(1.0 + rng.random())
            means.append(rng.standard_normal(d) * 3.0)
        post = Posteriors(
            alpha=np.array(alphas),
            beta=np.ones(k),
            m=np.array(means),
            W=np.array(scales),
            eta=np.full(k, d + 1.0 + 500.0),
        )
        classes.append(
            ClassModel(
                class_id=cid,
                components=post,
                nu=np.full(k, 5.0),
                alpha_hat=sum(alphas),
                elbo_trace=(0.0,),
                n_pruned=0,
            )
        )
    prior = PriorHyperparameters(0.001, 1.0, np.zeros(d), np.eye(d), d + 1.0, 5.0, k)
    tc = TrainedClassifier(tuple(classes), np.full(c, -math.log(c)), d, prior)
    points = rng.standard_normal((100000, d)) * 3.0
    predict_batch(tc, points[:2000])  # warm caches
    per_record = []
    for _ in range(5):
        start = time.perf_counter()
        predict_batch(tc, points)
        per_record.append((time.perf_counter() - start) * 1e6 / points.shape[0])
    best = min(per_record)
    median = sorted(per_record)[len(per_record) // 2]
    ok = median < 10.0
    assert report(
        8,
        ok,
        f"median {median:.2f} us/record (best {best:.2f}) over {points.shape[0]} "
        f"records, D={d} C={c} K={k} (need < 10)",
    )


def test_c09_protocol_fidelity(tmp_path):
    rng = np.random.default_rng(900)
    centers = {1: (0.0, 0.0), 2: (9.0, 0.0), 3: (0.0, 9.0)}
    feats, labels, trials, parts = [], [], [], []
    t_count = 5
    for pid in (1, 2):
        for trial in range(1, t_count + 1):
            for cid, ctr in centers.items():
                feats.append(rng.standard_normal((25, 2)) * 0.3 + np.asarray(ctr))
                labels += [cid] * 25
                trials += [trial] * 25
                parts += [pid] * 25
    data = FeatureDataset(np.vstack(feats), labels, trials, parts)
    data_path = tmp_path / "protocol.csv"
    save_csv(data, data_path)
    baseline = tmp_path / "baseline.csv"
    baseline.write_text("participant,accuracy\n1,0.9\n2,0.9\n")
    out = tmp_path / "eval"
    code = cli_main(
        [
            "evaluate", "--data", str(data_path), "--nu", "5",
            "--out-dir", str(out), "--seed", "0", "--baseline", str(baseline),
        ]
    )
    combos = (out / "combinations.csv").read_text().splitlines()[1:]
    s = t_count // 3
    expected = math.comb(t_count, s)
    per_participant_counts = [
        sum(1 for ln in combos if ln.startswith(f"{pid},")) for pid in (1, 2)
    ]
    leak_free = True
    for ln in combos:
        train_trials = set(int(v) for v in ln.split(",")[2].split(";"))
        if len(train_trials) != s:
            leak_free = False
    metrics = dict(
        ln.split(",") for ln in (out / "metrics.csv").read_text().splitlines()[1:]
    )
    shape_ok = all(
        key in metrics
        for key in (
            "accuracy", "precision_1", "precision_2", "precision_3",
            "recall_1", "recall_2", "recall_3", "probability_of_superiority",
        )
    )
    acc = float(metrics["accuracy"])
    ps = float(metrics["probability_of_superiority"])
    ok = (
        code == 0
        and per_participant_counts == [expected, expected]
        and leak_free
        and shape_ok
        and acc == 1.0
        and ps == 1.0
    )
    assert report(
        9,
        ok,
        f"s=floor({t_count}/3)={s}, combinations per participant "
        f"{per_participant_counts} (need {expected}), accuracy {acc}, PS {ps}",
    )


def test_c10_command_determinism(tmp_path):
    train_data = tmp_path / "train.csv"
    data, _ = generate_simulation(seed=12)
    save_csv(data, train_data)
    proto = tmp_path / "proto.csv"
    rng = np.random.default_rng(1010)
    feats, labels, trials, parts = [], [], [], []
    for pid in (1, 2):
        for trial in (1, 2, 3):
            for cid, ctr in ((1, (0.0, 0.0)), (2, (7.0, 7.0))):
                feats.append(rng.standard_normal((15, 2)) * 0.5 + np.asarray(ctr))
                labels += [cid] * 15
                trials += [trial] * 15
                parts += [pid] * 15
    save_csv(FeatureDataset(np.vstack(feats), labels, trials, parts), proto)

    def run_all(tag, threads):
        root = tmp_path / tag
        sim = root / "sim"
        model = root / "model.json"
        pred = root / "pred"
        ev = root / "eval"
        root.mkdir()
        assert cli_main(
            [
                "simulate", "--out-dir", str(sim), "--seed", "3",
                "--grid-step", "0.25", "--threads", threads,
            ]
        ) == 0
        assert cli_main(
            [
                "train", "--data", str(train_data), "--model-out", str(model),
                "--nu", "5", "--k-init", "3", "--seed", "3", "--threads", threads,
            ]
        ) == 0
        assert cli_main(
            [
                "predict", "--model", str(model), "--data", str(train_data),
                "--out-dir", str(pred), "--threads", threads,
            ]
        ) == 0
        assert cli_main(
            [
                "evaluate", "--data", str(proto), "--nu", "5", "--out-dir", str(ev),
                "--seed", "3", "--threads", threads,
            ]
        ) == 0
        blob = b""
        for path in sorted(root.rglob("*")):
            if path.is_file() and path.name != "timings.csv":
                blob += path.relative_to(root).as_posix().encode() + path.read_bytes()
        return blob

    blobs = [run_all("r1", "1"), run_all("r2", "1"), run_all("r3", "4")]
    ok = blobs[0] == blobs[1] == blobs[2]
    assert report(
        10, ok, "simulate/train/predict/evaluate byte-identical across reruns and threads"
    )
