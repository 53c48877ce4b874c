# Discriminative selection of the shared tail-weight parameter by held-out
# mutual information: the criterion curve J(nu) and the selected value on
# heavy-tailed vs Gaussian data.

import numpy as np

from scalemix import (
    ClassModel,
    FeatureDataset,
    NuSearchConfig,
    Posteriors,
    VbConfig,
    build_default_prior,
    select_nu,
)
from scalemix.predict import sample


def exact_student_class(mu, nu, class_id):
    # one component, stacked; a large eta makes the plug-in scale equal the
    # identity exactly
    post = Posteriors(
        alpha=np.ones(1),
        beta=np.ones(1),
        m=np.array([mu]),
        W=np.eye(2)[None] * 4096.0,
        eta=np.full(1, 2 + 1 + 4096.0),
    )
    return ClassModel(class_id, post, np.full(1, nu), (0.0,), 0)


def make_data(nu, seed, n=400, sep=4.0):
    cm1 = exact_student_class([0.0, 0.0], nu, class_id=1)
    cm2 = exact_student_class([sep, sep], nu, class_id=2)
    x = np.vstack([sample(cm1, n, seed=seed), sample(cm2, n, seed=seed + 1)])
    return FeatureDataset(
        x, [1] * n + [2] * n, np.ones(2 * n, int), np.ones(2 * n, int)
    )


for name, nu_true in (("heavy-tailed (nu = 1)", 1.0), ("gaussian (nu = 1e6)", 1e6)):
    data = make_data(nu_true, seed=3)
    prior = build_default_prior(data, nu_fixed=200.0, k_init=1, alpha0=0.001)
    rows = []
    nu_hat = select_nu(
        data,
        prior,
        NuSearchConfig(folds=5),
        vb_config=VbConfig(seed=0),
        table_sink=rows.append,
    )
    print(f"{name}: selected nu = {nu_hat:g}")
    # print fold 0's criterion at a few grid points
    fold0 = [(nu, j) for fold, nu, j in rows if fold == 0]
    print("  fold 0 J(nu) samples:")
    for nu, j in fold0[::8]:
        print(f"    nu = {nu:9.4g}   J = {j:.4f}")
