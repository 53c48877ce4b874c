# The two-class synthetic benchmark: outlier robustness with a shared tail
# weight vs per-class likelihood-estimated tail weights.
#
# Writes boundary grids to ./sim_demo/ (same files the CLI `simulate`
# command produces) and prints where the decision flips along the diagonal.

from pathlib import Path

import numpy as np

from scalemix import (
    VbConfig,
    build_default_prior,
    fit,
    fit_ml_nu,
    generate_simulation,
    predict_batch,
)
from scalemix.metrics import accuracy

out_dir = Path("sim_demo")
out_dir.mkdir(exist_ok=True)

# %%
# 100 points per class from two isotropic Gaussians, plus 10 uniform
# outliers appended to class 1.

train, grid = generate_simulation(seed=0)
clean, _ = generate_simulation(seed=0, with_outliers=False)
print("class counts:", {c: int(np.sum(train.labels == c)) for c in train.class_ids})

cfg = VbConfig(seed=0)
prior = build_default_prior(train, nu_fixed=5.0, k_init=1, alpha0=0.001)
prior_clean = build_default_prior(clean, nu_fixed=5.0, k_init=1, alpha0=0.001)

models = {
    "clean, shared nu=5": fit(clean, prior_clean, cfg),
    "contaminated, shared nu=5": fit(train, prior, cfg),
    "contaminated, ML nu per class": fit_ml_nu(train, prior, cfg),
}

# %%
# Where does the predicted class flip along the diagonal x2 = x1?

ts = np.linspace(0, 8, 3201)
diag = np.column_stack([ts, ts])
for name, tc in models.items():
    _, labels = predict_batch(tc, diag)
    flips = ts[1:][np.diff(labels) != 0]
    _, grid_labels = predict_batch(tc, grid.features)
    acc = accuracy(grid_labels, grid.labels)
    nus = [round(float(cm.nu[0]), 2) for cm in tc.classes]
    print(f"{name:32s} flips at {np.round(flips, 3)}  grid agreement {acc:.3f}  nu {nus}")

# %%
# Posterior over the full grid, written as CSV for plotting.

for name, tc in models.items():
    tag = name.split(",")[0].replace(" ", "_") + ("_ml" if "ML" in name else "")
    log_post, labels = predict_batch(tc, grid.features)
    post = np.exp(log_post)
    path = out_dir / f"boundary_{tag}.csv"
    with open(path, "w") as fh:
        fh.write("x1,x2,posterior_c1,posterior_c2,argmax\n")
        for i in range(grid.n_rows):
            fh.write(
                f"{grid.features[i, 0]},{grid.features[i, 1]},"
                f"{post[i, 0]},{post[i, 1]},{labels[i]}\n"
            )
    print("wrote", path)
