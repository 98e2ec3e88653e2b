"""From-scratch binary classifiers, SMOTE rebalancing, CV, and metrics."""

from .base import Dataset, ModelKind
from .linear import LinearModel, logreg_gradient, logreg_loss, train_linear_svm, train_logreg
from .sampling import needs_smote, smote
from .trees import ForestModel, GBTModel, train_gbt, train_random_forest
from .validation import Metrics, compute_metrics, kfold_cv, stratified_folds

# the model class of each kind; a saved model is read by the kind it is stored under
MODEL_TYPES = {
    ModelKind.LOGREG: LinearModel,
    ModelKind.LINEAR_SVM: LinearModel,
    ModelKind.RANDOM_FOREST: ForestModel,
    ModelKind.GBT: GBTModel,
}

__all__ = [
    "Dataset",
    "ModelKind",
    "MODEL_TYPES",
    "Metrics",
    "LinearModel",
    "ForestModel",
    "GBTModel",
    "compute_metrics",
    "kfold_cv",
    "stratified_folds",
    "logreg_loss",
    "logreg_gradient",
    "needs_smote",
    "smote",
    "train_logreg",
    "train_linear_svm",
    "train_random_forest",
    "train_gbt",
]
