from dataclasses import replace

import numpy as np
import pytest

import scalemix.vb as vb
from scalemix.data import FeatureDataset
from scalemix.model import ClassModel, Posteriors
from scalemix.numerics import mahalanobis_sq_batch


def make_mixture_class(mus, sigmas, nus, counts, class_id=1):
    """ClassModel with several components, each an exact Student-t.

    Uses a large eta so W / (eta - dim - 1) reproduces each sigma to full
    precision, with the Dirichlet weights set from ``counts``.
    """
    mus = np.asarray(mus, dtype=float).reshape(len(counts), -1)
    d = mus.shape[1]
    k = mus.shape[0]
    sigmas = np.asarray(sigmas, dtype=float).reshape(k, d, d)
    return ClassModel(
        class_id=class_id,
        components=Posteriors(
            alpha=np.asarray(counts, dtype=float),
            beta=np.ones(k),
            m=mus,
            W=sigmas * 4096.0,
            eta=np.full(k, d + 1.0 + 4096.0),
        ),
        nu=np.asarray(nus, dtype=float),
        elbo_trace=(0.0,),
        n_pruned=0,
    )


def make_student_class(mu, sigma, nu, class_id=1, weight_counts=None):
    """ClassModel whose plug-in predictive is exactly Student-t(mu, sigma, nu)."""
    counts = weight_counts if weight_counts is not None else [1.0]
    k = len(counts)
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    return make_mixture_class([mu] * k, [sigma] * k, [nu] * k, counts, class_id)


def components_of(cm, index):
    """``cm`` keeping only the components at ``index`` (a slice or an index array)."""
    post = cm.components
    return replace(
        cm,
        components=Posteriors(
            post.alpha[index], post.beta[index], post.m[index], post.W[index], post.eta[index]
        ),
        nu=cm.nu[index],
    )


def mixture_log_density(mix, points, grid=None):
    """Log plug-in predictive of a prepared class mixture at each row of ``points``.

    ``grid``, from ``predict._grid_terms`` of a ``(G, 1)`` array, gives one
    row per shared value; without it each component takes its own.
    """
    pts_t = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)).T)
    d2 = mahalanobis_sq_batch(pts_t, mix.means, mix.factor)
    return mix.log_density_d2(d2, mix.terms if grid is None else grid)


def two_blob_dataset(seed, n_per_class=200, centers=((0.0, 0.0), (4.0, 4.0)), scale=0.7):
    rng = np.random.default_rng(seed)
    feats = []
    labels = []
    for cid, ctr in enumerate(centers, start=1):
        feats.append(rng.standard_normal((n_per_class, len(ctr))) * scale + np.asarray(ctr))
        labels.extend([cid] * n_per_class)
    feats = np.vstack(feats)
    n = feats.shape[0]
    return FeatureDataset(
        features=feats,
        labels=np.asarray(labels),
        trials=np.ones(n, dtype=int),
        participants=np.ones(n, dtype=int),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def lockstep_batches(monkeypatch):
    """The size of each batch that ``vb._fit_lockstep`` trains, in call order."""
    sizes = []
    original = vb._fit_lockstep

    def counted(blocks, *args, **kwargs):
        sizes.append(len(blocks))
        return original(blocks, *args, **kwargs)

    monkeypatch.setattr(vb, "_fit_lockstep", counted)
    return sizes
