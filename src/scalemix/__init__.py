"""Bayesian classification with finite mixtures of multivariate scale
mixture (Student-t) models.

Per-class generative models are trained by variational inference with
conjugate Dirichlet and Gaussian-inverse-Wishart priors; redundant mixture
components prune themselves, the shared tail-weight parameter is selected
by held-out mutual information, and classification evaluates a closed-form
plug-in posterior predictive. A feature pipeline (rectification, low-pass
smoothing, windowed mean absolute value), dataset utilities, evaluation
metrics, and a command-line interface round out the package.
"""

from .data import (
    DataFormatError,
    FeatureDataset,
    generate_simulation,
    load_csv,
    save_csv,
    split_by_trials,
    subsample,
)
from .density import (
    QuadratureError,
    StudentParams,
    log_marginal_density,
    quadrature_marginal_density,
)
from .features import (
    FilterCoeffs,
    SignalBlock,
    butter2_coeffs,
    butterworth2_lowpass,
    mav_window,
    pipeline_rect_smooth,
    rectify,
)
from .metrics import (
    accuracy,
    confusion_matrix,
    precision_recall,
    probability_of_superiority,
)
from .model import (
    ClassModel,
    Posteriors,
    PriorHyperparameters,
    TrainedClassifier,
    build_default_prior,
    classifier_from_dict,
    classifier_to_dict,
    load_model,
    save_model,
)
from .nu_select import (
    NuSearchConfig,
    conditional_entropy,
    default_nu_grid,
    select_nu,
    stratified_folds,
)
from .numerics import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    cholesky,
    log_det,
    mahalanobis_sq_batch,
)
from .predict import (
    predict_batch,
    prepare,
    sample,
)
from .vb import (
    NumericalFailure,
    VbConfig,
    e_step,
    elbo,
    fit,
    fit_ml_nu,
    m_step,
    prune,
)

__version__ = "0.1.0"
