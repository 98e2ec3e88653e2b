"""From-scratch binary classifiers, SMOTE rebalancing, CV, and metrics."""

from .base import Dataset, ModelKind, model_from_json, model_to_json
from .linear import (
    LinearSVMModel,
    LogRegModel,
    logreg_gradient,
    logreg_loss,
    train_linear_svm,
    train_logreg,
)
from .sampling import needs_smote, smote
from .trees import ForestModel, GBTModel, train_gbt, train_random_forest
from .validation import Metrics, compute_metrics, kfold_cv, stratified_folds

__all__ = [
    "Dataset",
    "ModelKind",
    "Metrics",
    "LogRegModel",
    "LinearSVMModel",
    "ForestModel",
    "GBTModel",
    "compute_metrics",
    "kfold_cv",
    "stratified_folds",
    "logreg_loss",
    "logreg_gradient",
    "model_from_json",
    "model_to_json",
    "needs_smote",
    "smote",
    "train_logreg",
    "train_linear_svm",
    "train_random_forest",
    "train_gbt",
]
