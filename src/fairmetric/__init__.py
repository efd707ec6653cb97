"""Learning Mahalanobis similarity metrics from absolute human ratings."""

from .core import (
    COMPAS_SCALE,
    SURVEY_SCALE,
    CellStats,
    EvalReport,
    ExperimentConfig,
    LabeledDataset,
    MahalanobisMetric,
    RatingScale,
    TripletSet,
)
from .constraints import sample_triplets
from .evaluation import knn_l1, knn_l2, knn_predict, run_experiment, sigma_sweep
from .ingest import (
    FeatureSchema,
    SurveyRecord,
    attach_labels,
    default_schema,
    load_defendants,
    load_survey,
    standardize,
)
from .learners import (
    OptimizerTrace,
    euclidean_baseline,
    fit_lmnn,
    fit_lsml,
    fit_mmc,
    load_metric,
    precision_baseline,
    save_metric,
)
from .numerics import covariance, psd_project, safe_inverse
from .survey import bail_rate_table, confidence_accuracy_table

__all__ = [
    "COMPAS_SCALE",
    "SURVEY_SCALE",
    "CellStats",
    "EvalReport",
    "ExperimentConfig",
    "FeatureSchema",
    "LabeledDataset",
    "MahalanobisMetric",
    "OptimizerTrace",
    "RatingScale",
    "SurveyRecord",
    "TripletSet",
    "attach_labels",
    "bail_rate_table",
    "confidence_accuracy_table",
    "covariance",
    "default_schema",
    "euclidean_baseline",
    "fit_lmnn",
    "fit_lsml",
    "fit_mmc",
    "knn_l1",
    "knn_l2",
    "knn_predict",
    "load_defendants",
    "load_metric",
    "load_survey",
    "precision_baseline",
    "psd_project",
    "run_experiment",
    "safe_inverse",
    "sample_triplets",
    "save_metric",
    "sigma_sweep",
    "standardize",
]
