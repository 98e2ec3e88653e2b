"""Dataset container and the model kind registry shared by all learners."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..core import ValidationError, seed_entropy

MODEL_SCHEMA_VERSION = 1


class ModelKind(Enum):
    LOGREG = "logreg"
    LINEAR_SVM = "linear_svm"
    RANDOM_FOREST = "random_forest"
    GBT = "gbt"


# Fixed iteration order wherever "all four kinds" are trained or voted.
KIND_ORDER = (
    ModelKind.LOGREG,
    ModelKind.LINEAR_SVM,
    ModelKind.RANDOM_FOREST,
    ModelKind.GBT,
)


@dataclass(frozen=True)
class Dataset:
    """Rows of (vector, binary label, participant id), held as arrays."""

    vectors: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int, values in {0, 1}
    participant_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise ValidationError("dataset vectors must be a 2-D array")
        n = self.vectors.shape[0]
        if self.labels.shape != (n,) or len(self.participant_ids) != n:
            raise ValidationError("dataset rows misaligned across fields")
        bad = set(np.unique(self.labels)) - {0, 1}
        if bad:
            raise ValidationError(f"labels must be 0/1, found {sorted(bad)}")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            vectors=self.vectors[indices],
            labels=self.labels[indices],
            participant_ids=tuple(self.participant_ids[i] for i in indices),
        )

    def class_counts(self) -> tuple[int, int]:
        ones = int(self.labels.sum())
        return len(self) - ones, ones

    def canonical_order(self) -> np.ndarray:
        """Row permutation sorted by row id (``participant_ids``).

        All seeded sampling is performed on this ordering so results do not
        depend on how the caller happened to arrange rows. Row ids must be
        unique: point ids, and ``synthetic_NNNNN`` for SMOTE's rows.
        """
        ids = np.array(self.participant_ids, dtype=str)
        order = np.argsort(ids, kind="stable")
        ranked = ids[order]
        repeats = np.flatnonzero(ranked[1:] == ranked[:-1])
        if len(repeats):
            raise ValidationError(f"row id {str(ranked[repeats[0]])!r} is not unique")
        return order

    def canonicalized(self) -> "Dataset":
        return self.subset(self.canonical_order())


def derive_seed(seed: int, *parts: object) -> int:
    """Deterministically mix a root seed with context labels."""
    state = np.random.SeedSequence(seed_entropy(seed, *parts)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def check_batch(datasets: list[Dataset], seeds: list[int], kind: str) -> None:
    """The preconditions every ``train_*_many`` trainer shares."""
    if len(seeds) != len(datasets):
        raise ValidationError(f"{len(datasets)} datasets but {len(seeds)} seeds")
    if len({ds.dim for ds in datasets}) > 1:
        raise ValidationError(f"{kind} datasets differ in dimension")


def model_to_json(model) -> dict:
    """Serialize any trained model to a JSON-ready dict with a schema tag."""
    doc = model.to_json()
    doc["schema_version"] = MODEL_SCHEMA_VERSION
    doc["kind"] = model.kind.value
    return doc


def model_from_json(doc: dict):
    from .linear import LinearSVMModel, LogRegModel
    from .trees import ForestModel, GBTModel

    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValidationError(f"unsupported model schema version: {version!r}")
    kind = ModelKind(doc["kind"])
    loaders = {
        ModelKind.LOGREG: LogRegModel.from_json,
        ModelKind.LINEAR_SVM: LinearSVMModel.from_json,
        ModelKind.RANDOM_FOREST: ForestModel.from_json,
        ModelKind.GBT: GBTModel.from_json,
    }
    return loaders[kind](doc)
