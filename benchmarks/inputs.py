"""Seeded input generator for the benchmark workloads.

Uses numpy only, never the package under test, so the program receives
nothing but the files written here. The same ``(seed, index)`` writes the
same bytes. Every float is written with ``repr`` (shortest round-trip
text), the form the package's CSV reader and model loader read back
bit-exactly.

Cluster centres sit at a fixed distance from the origin, so class
separation, and with it accuracy, varies little between seeds.
"""

import json
import math

import numpy as np

DIM = 8


def _rng(seed, workload, index):
    return np.random.default_rng([seed, workload, index])


def _centres(rng, count, radius):
    """Points at ``radius`` from the origin: mutually orthogonal when at
    most ``DIM`` of them, else in independent random directions."""
    if count <= DIM:
        q, _ = np.linalg.qr(rng.standard_normal((DIM, count)))
        return radius * q.T
    u = rng.standard_normal((count, DIM))
    return radius * u / np.linalg.norm(u, axis=1, keepdims=True)


def _random_scale(rng):
    a = rng.standard_normal((DIM, DIM)) * 0.3
    return a @ a.T + np.eye(DIM)


def _student_t(rng, n, mean, lower, nu):
    """Rows ``mean + sqrt(u) L z`` with ``u ~ IG(nu/2, nu/2)``."""
    u = 1.0 / rng.gamma(shape=0.5 * nu, scale=2.0 / nu, size=n)
    z = rng.standard_normal((n, mean.shape[0]))
    return mean + np.sqrt(u)[:, None] * (z @ lower.T)


def write_csv(path, features, labels, trials=None, participants=None):
    """Feature CSV: ``f1..fD,label,trial,participant``, one row per sample."""
    n, d = features.shape
    ones = np.ones(n, dtype=int)
    trials = ones if trials is None else trials
    participants = ones if participants is None else participants
    header = ",".join([f"f{i + 1}" for i in range(d)] + ["label", "trial", "participant"])
    lines = [header]
    for row, lab, tri, par in zip(
        features.tolist(), labels.tolist(), trials.tolist(), participants.tolist()
    ):
        lines.append(",".join(map(repr, row)) + f",{lab},{tri},{par}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def c08_model(rng, classes, components):
    """Model document in the package's JSON format, shaped like check c08."""
    d = DIM
    centres = _centres(rng, classes * components, 6.0)
    doc_classes = []
    for cid in range(1, classes + 1):
        comps = []
        for j in range(components):
            a = rng.standard_normal((d, d)) * 0.2
            w = (a @ a.T + np.eye(d)) * 500.0
            comps.append(
                {
                    "alpha": 1.0 + float(rng.random()),
                    "beta": 1.0,
                    "m": centres[(cid - 1) * components + j].tolist(),
                    "W": (0.5 * (w + w.T)).tolist(),
                    "eta": d + 1.0 + 500.0,
                    "nu": 5.0,
                }
            )
        doc_classes.append(
            {
                "class_id": cid,
                "alpha_hat": sum(c["alpha"] for c in comps),
                "n_pruned": 0,
                "converged": True,
                "elbo_trace": [0.0],
                "components": comps,
            }
        )
    return {
        "format_version": 1,
        "dim": d,
        "prior": {
            "alpha0": 0.001,
            "beta0": 1.0,
            "m0": [0.0] * d,
            "W0": np.eye(d).tolist(),
            "eta0": d + 1.0,
            "nu_fixed": 5.0,
            "k_init": components,
        },
        "class_log_prior": [-math.log(classes)] * classes,
        "classes": doc_classes,
    }


def make_predict(out_dir, seed, index, rows):
    """A 15-class x 3-component model and rows drawn from its own classes."""
    rng = _rng(seed, 2, index)
    model = c08_model(rng, classes=15, components=3)
    (out_dir / "model.json").write_text(json.dumps(model, indent=1) + "\n", encoding="utf-8")
    labels = rng.integers(1, len(model["classes"]) + 1, size=rows)
    feats = np.empty((rows, DIM))
    for cm in model["classes"]:
        in_class = np.flatnonzero(labels == cm["class_id"])
        alphas = np.array([c["alpha"] for c in cm["components"]])
        which = rng.choice(alphas.shape[0], size=in_class.shape[0], p=alphas / alphas.sum())
        for j, comp in enumerate(cm["components"]):
            idx = in_class[which == j]
            sigma = np.array(comp["W"]) / (comp["eta"] - DIM - 1.0)
            feats[idx] = _student_t(
                rng, idx.shape[0], np.array(comp["m"]), np.linalg.cholesky(sigma), comp["nu"]
            )
    write_csv(out_dir / "data.csv", feats, labels)
    return {
        "data": out_dir / "data.csv",
        "model": out_dir / "model.json",
        "model_doc": model,
        "features": feats,
        "labels": labels,
    }


def make_protocol(out_dir, seed, index, participants, trials, rows_per_class):
    """Multi-participant, multi-trial dataset for the trial-wise protocol.

    Each participant has its own class centres; each trial shifts every
    centre by a small offset, as electrode placement does between sessions.
    """
    rng = _rng(seed, 3, index)
    classes = 3
    blocks = []
    for pid in range(1, participants + 1):
        centres = _centres(rng, classes, 7.0)
        lowers = [np.linalg.cholesky(_random_scale(rng)) for _ in range(classes)]
        for tid in range(1, trials + 1):
            shift = rng.standard_normal(DIM) * 0.2
            for c in range(classes):
                rows = _student_t(rng, rows_per_class, centres[c] + shift, lowers[c], 5.0)
                blocks.append((rows, c + 1, tid, pid))
    n = rows_per_class
    write_csv(
        out_dir / "data.csv",
        np.concatenate([b[0] for b in blocks]),
        np.concatenate([np.full(n, b[1]) for b in blocks]),
        np.concatenate([np.full(n, b[2]) for b in blocks]),
        np.concatenate([np.full(n, b[3]) for b in blocks]),
    )
    # evaluate trains on every size-floor(T/3) combination of each participant's trials
    combinations = participants * math.comb(trials, max(1, trials // 3))
    return {"data": out_dir / "data.csv", "combinations": combinations}
