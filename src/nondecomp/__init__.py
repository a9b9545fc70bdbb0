"""Low-rank estimation with threshold tuning for non-decomposable
multi-label metrics under missing labels.

The pipeline: fit a trace-regularized (or factored) parameter matrix on
the observed entries with a strongly proper loss, score every entry, then
sweep a shared threshold that maximizes the chosen metric on the training
observations.
"""

from .config import ExperimentConfig, TASKS, UsageError
from .dataset_io import (
    DatasetFormatError,
    ModelFormatError,
    PlotSeries,
    ResultRow,
    SparseDataset,
    emit_plot,
    load_model,
    mask_observations,
    parse_dataset,
    save_model,
    write_dataset,
    write_results_csv,
)
from .estimator import (
    DenseModel,
    FactoredModel,
    FitReport,
    NumericalError,
    ObservationSet,
    SolverConfig,
    default_lambda,
    default_lambda_score_norm,
    fit_alt_min,
    fit_plugin_baseline,
    fit_prox_grad,
    grad_empirical,
    nuclear_norm,
    objective,
    predict_scores,
    prox_nuclear,
    recovery_error,
)
from .harness import run_task
from .losses import (
    LOSS_NAMES,
    ExponentialLoss,
    GaussianLoss,
    LogisticLoss,
    PULossWrapper,
    SquaredLoss,
    get_loss,
    sigmoid,
)
from .metrics import (
    METRIC_REGISTRY,
    Confusion,
    MetricEval,
    MetricSpec,
    ThresholdResult,
    all_negative_threshold,
    apply_threshold,
    confusion_grouped,
    confusion_micro,
    eval_metric,
    eval_metric_info,
    get_metric,
    threshold_sweep,
)
from .sampler import (
    NOISE_MODELS,
    OmegaDistribution,
    SyntheticSpec,
    gen_features,
    gen_lowrank_W,
    generate_problem,
    pu_flip,
    sample_labels,
    sample_omega,
)

__version__ = "0.1.0"
