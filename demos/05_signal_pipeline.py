# End to end on synthetic multichannel signals: envelope-modulated noise ->
# rectification -> low-pass smoothing -> training -> classification.
#
# Two "gestures" are simulated as bursts with different per-channel
# activation profiles; the smoothed amplitudes are the features.

import numpy as np

from scalemix import (
    SignalBlock,
    VbConfig,
    build_default_prior,
    fit,
    pipeline_rect_smooth,
    predict_batch,
)
from scalemix.metrics import accuracy, confusion_matrix, precision_recall

fs = 2000.0
seconds = 4.0
rng = np.random.default_rng(42)

# per-channel gains for the two gestures (3 channels)
profiles = {1: np.array([1.0, 0.2, 0.6]), 2: np.array([0.3, 1.1, 0.5])}


def gesture_block(label, trial, seed):
    g = np.random.default_rng(seed)
    t = np.arange(int(seconds * fs)) / fs
    envelope = np.clip(np.sin(np.pi * t / seconds), 0.0, None)  # rise and fall
    noise = g.standard_normal((t.shape[0], 3))
    samples = noise * envelope[:, None] * profiles[label][None, :]
    labels = np.full(t.shape[0], label)
    return SignalBlock(samples=samples, fs=fs, labels=labels, trial=trial)


# %%
# Build train and test sets from separate trials, dropping the first second
# of each block (the rise is ambiguous by construction).

def block_to_features(block):
    ds = pipeline_rect_smooth(block, fc=2.0)
    keep = np.arange(ds.n_rows) >= int(fs)
    return ds.subset(keep)


train_parts = [block_to_features(gesture_block(c, trial=1, seed=10 + c)) for c in (1, 2)]
test_parts = [block_to_features(gesture_block(c, trial=2, seed=20 + c)) for c in (1, 2)]

from scalemix import FeatureDataset

def stack(parts):
    return FeatureDataset(
        np.vstack([p.features for p in parts]),
        np.concatenate([p.labels for p in parts]),
        np.concatenate([p.trials for p in parts]),
        np.concatenate([p.participants for p in parts]),
    )

train, test = stack(train_parts), stack(test_parts)
print(f"train rows {train.n_rows}, test rows {test.n_rows}, dim {train.dim}")

# %%
# Train with a modest shared tail weight and score the held-out trial.

prior = build_default_prior(train, nu_fixed=2.0, k_init=3, alpha0=0.001)
tc = fit(train, prior, VbConfig(seed=0))
_, pred = predict_batch(tc, test.features)
print("held-out accuracy:", round(accuracy(pred, test.labels), 4))
conf = confusion_matrix(pred, test.labels, train.class_ids)
prec, rec = precision_recall(conf, train.class_ids)
print("precision per class:", np.round(prec, 4), " recall per class:", np.round(rec, 4))
print("components per class:", [cm.n_components for cm in tc.classes])
