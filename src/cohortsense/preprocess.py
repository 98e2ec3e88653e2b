"""Raw weekly records to fixed-length vectors.

Per-batch hygiene (outlier removal, imputation) is recomputed on every
incoming week; the encoding vocabulary, min-max scaler, and PCA projection
are fitted once and frozen so the projected geometry stays comparable
across weeks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import SEGMENT_ORDER, FeatureRecord, ValidationError, WeeklyBatch

log = logging.getLogger(__name__)

PIPELINE_SCHEMA_VERSION = 1

IQR_FACTOR = 1.5


def _feature_names(records: list[FeatureRecord]) -> tuple[list[str], list[str]]:
    continuous: set[str] = set()
    categorical: set[str] = set()
    for rec in records:
        continuous.update(rec.continuous)
        categorical.update(rec.categorical)
    return sorted(continuous), sorted(categorical)


def remove_outliers(records: list[FeatureRecord]) -> list[FeatureRecord]:
    """Drop records with any continuous value outside the 1.5*IQR fence.

    Quartiles are computed per feature over the batch's observed values;
    missing values never mark a record as an outlier. Survivor order is
    preserved.
    """
    if not records:
        return []
    cont_names, _ = _feature_names(records)
    fences: dict[str, tuple[float, float]] = {}
    for name in cont_names:
        values = [
            rec.continuous[name]
            for rec in records
            if rec.continuous.get(name) is not None
        ]
        if not values:
            raise ValidationError(f"feature {name!r} has no observed values")
        q1, q3 = np.percentile(values, [25, 75])
        iqr = q3 - q1
        fences[name] = (q1 - IQR_FACTOR * iqr, q3 + IQR_FACTOR * iqr)

    survivors = []
    for rec in records:
        ok = True
        for name, value in rec.continuous.items():
            if value is None:
                continue
            lo, hi = fences[name]
            if value < lo or value > hi:
                ok = False
                break
        if ok:
            survivors.append(rec)
    return survivors


def _mode(tokens: list[str]) -> str:
    counts: dict[str, int] = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    best = max(counts.values())
    # tie-break: lexicographically smallest token, for determinism
    return min(tok for tok, c in counts.items() if c == best)


def impute(records: list[FeatureRecord]) -> list[FeatureRecord]:
    """Fill gaps with the per-participant per-segment median (continuous)
    or mode (categorical), falling back to batch-level statistics.

    Observed values are never altered. A feature with no observed value
    anywhere in the batch is an error.
    """
    if not records:
        return []
    cont_names, cat_names = _feature_names(records)

    group_cont: dict[tuple, dict[str, list[float]]] = {}
    group_cat: dict[tuple, dict[str, list[str]]] = {}
    batch_cont: dict[str, list[float]] = {name: [] for name in cont_names}
    batch_cat: dict[str, list[str]] = {name: [] for name in cat_names}
    for rec in records:
        key = (rec.participant_id, rec.segment)
        gc = group_cont.setdefault(key, {n: [] for n in cont_names})
        gk = group_cat.setdefault(key, {n: [] for n in cat_names})
        for name in cont_names:
            value = rec.continuous.get(name)
            if value is not None:
                gc[name].append(value)
                batch_cont[name].append(value)
        for name in cat_names:
            token = rec.categorical.get(name)
            if token is not None:
                gk[name].append(token)
                batch_cat[name].append(token)

    for name in cont_names:
        if not batch_cont[name]:
            raise ValidationError(f"feature {name!r} has no observed values to impute from")
    for name in cat_names:
        if not batch_cat[name]:
            raise ValidationError(f"feature {name!r} has no observed values to impute from")

    batch_median = {name: float(np.median(vals)) for name, vals in batch_cont.items()}
    batch_mode = {name: _mode(vals) for name, vals in batch_cat.items()}

    filled = []
    for rec in records:
        key = (rec.participant_id, rec.segment)
        cont = {}
        for name in cont_names:
            value = rec.continuous.get(name)
            if value is None:
                group_vals = group_cont[key][name]
                value = float(np.median(group_vals)) if group_vals else batch_median[name]
            cont[name] = value
        cat = {}
        for name in cat_names:
            token = rec.categorical.get(name)
            if token is None:
                group_vals = group_cat[key][name]
                token = _mode(group_vals) if group_vals else batch_mode[name]
            cat[name] = token
        filled.append(
            FeatureRecord(
                participant_id=rec.participant_id,
                week=rec.week,
                day=rec.day,
                segment=rec.segment,
                continuous=cont,
                categorical=cat,
            )
        )
    return filled


def encode_onehot(token: str | None, vocabulary: tuple[str, ...]) -> np.ndarray:
    """Indicator row for one token; unseen (or missing) encodes all-zeros."""
    row = np.zeros(len(vocabulary))
    if token is not None and token in vocabulary:
        row[vocabulary.index(token)] = 1.0
    return row


@dataclass(frozen=True)
class FittedScaler:
    feature_min: np.ndarray
    feature_max: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.feature_max < self.feature_min):
            raise ValidationError("scaler max must be >= min for every feature")


def scaler_fit(matrix: np.ndarray) -> FittedScaler:
    if matrix.size == 0:
        raise ValidationError("cannot fit a scaler on empty data")
    return FittedScaler(
        feature_min=matrix.min(axis=0).astype(float),
        feature_max=matrix.max(axis=0).astype(float),
    )


def scaler_apply(scaler: FittedScaler, matrix: np.ndarray) -> np.ndarray:
    """Map x to (x - min) / (max - min), clamped to [0, 1]; constants to 0."""
    span = scaler.feature_max - scaler.feature_min
    out = np.zeros_like(matrix, dtype=float)
    nonconst = span > 0
    out[:, nonconst] = (matrix[:, nonconst] - scaler.feature_min[nonconst]) / span[nonconst]
    return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class FittedProjector:
    mean: np.ndarray
    components: np.ndarray  # (k, d), orthonormal rows
    explained_variance_ratio: np.ndarray  # (k,), descending


def pca_fit(matrix: np.ndarray, variance_target: float) -> FittedProjector:
    """Deterministic eigendecomposition of the covariance matrix.

    Retains the smallest prefix of components whose variance ratios reach
    the target, floored at two when a second nonzero component exists.
    Component signs are fixed so each row's largest-magnitude entry is
    positive.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 1:
        raise ValidationError("PCA needs a matrix with >= 2 rows and >= 1 column")
    if not 0 < variance_target <= 1:
        raise ValidationError(f"variance target must lie in (0, 1], got {variance_target}")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]

    total = eigvals.sum()
    if total <= 0 or eigvals[0] <= 0:
        raise ValidationError("PCA input has zero variance (all rows equal)")
    rank = int((eigvals > eigvals[0] * 1e-12).sum())

    ratios = eigvals / total
    cumulative = np.cumsum(ratios)
    k = int(np.searchsorted(cumulative, variance_target - 1e-12) + 1)
    k = min(max(k, 2), rank)

    components = eigvecs[:, :k].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return FittedProjector(
        mean=mean,
        components=components,
        explained_variance_ratio=ratios[:k],
    )


def pca_project_matrix(projector: FittedProjector, matrix: np.ndarray) -> np.ndarray:
    return (np.asarray(matrix, dtype=float) - projector.mean) @ projector.components.T


def pca_reconstruct(projector: FittedProjector, coords: np.ndarray) -> np.ndarray:
    return projector.mean + projector.components.T @ np.asarray(coords, dtype=float)


@dataclass(frozen=True)
class ParticipantVector:
    participant_id: str
    week: int
    values: np.ndarray


@dataclass(frozen=True)
class FittedPipeline:
    """Frozen preprocessing state: feature order, vocabularies, scaler, PCA."""

    continuous_features: tuple[str, ...]
    categorical_features: tuple[str, ...]
    vocabularies: dict[str, tuple[str, ...]]
    scaler: FittedScaler
    projector: FittedProjector

    def block_width(self) -> int:
        return len(self.continuous_features) + sum(
            len(v) for v in self.vocabularies.values()
        )


def _segment_mean_matrix(
    records: list[FeatureRecord],
    continuous_features: list[str] | tuple[str, ...],
    categorical_features: list[str] | tuple[str, ...],
    vocabularies: dict[str, tuple[str, ...]],
) -> tuple[list[str], np.ndarray]:
    """Per participant: per-segment feature means, segment blocks concatenated.

    Records must already be imputed. A participant missing every record of
    one segment falls back to their own all-segment mean for that block.
    Rows are summed in day order, so the means do not depend on the order
    of the records in the batch.
    """
    width = len(continuous_features) + sum(len(vocabularies[c]) for c in categorical_features)

    def record_row(rec: FeatureRecord) -> np.ndarray:
        parts = [np.array([rec.continuous[name] for name in continuous_features])]
        for name in categorical_features:
            parts.append(encode_onehot(rec.categorical.get(name), vocabularies[name]))
        return np.concatenate(parts) if parts else np.empty(0)

    by_participant: dict[str, dict] = {}
    for rec in sorted(records, key=lambda r: r.day):
        entry = by_participant.setdefault(
            rec.participant_id, {seg: [] for seg in SEGMENT_ORDER}
        )
        entry[rec.segment].append(record_row(rec))

    pids = sorted(by_participant)
    matrix = np.zeros((len(pids), width * len(SEGMENT_ORDER)))
    for i, pid in enumerate(pids):
        entry = by_participant[pid]
        all_rows = [row for seg_rows in entry.values() for row in seg_rows]
        overall = np.mean(all_rows, axis=0)
        for s, seg in enumerate(SEGMENT_ORDER):
            rows = entry[seg]
            block = np.mean(rows, axis=0) if rows else overall
            matrix[i, s * width : (s + 1) * width] = block
    return pids, matrix


def fit_pipeline(records: list[FeatureRecord], variance_target: float) -> FittedPipeline:
    """Clean one batch, then freeze vocabulary, scaler, and projection."""
    cleaned = impute(remove_outliers(list(records)))
    if not cleaned:
        raise ValidationError("cannot fit the preprocessing pipeline on an empty batch")
    cont, cat = _feature_names(cleaned)
    vocabularies = {}
    for name in cat:
        tokens = sorted({rec.categorical[name] for rec in cleaned})
        vocabularies[name] = tuple(tokens)
    _, matrix = _segment_mean_matrix(cleaned, cont, cat, vocabularies)
    scaler = scaler_fit(matrix)
    scaled = scaler_apply(scaler, matrix)
    projector = pca_fit(scaled, variance_target)
    return FittedPipeline(
        continuous_features=tuple(cont),
        categorical_features=tuple(cat),
        vocabularies=vocabularies,
        scaler=scaler,
        projector=projector,
    )


def vectorize_week(
    batch: WeeklyBatch, pipeline: FittedPipeline
) -> tuple[list[ParticipantVector], list[str]]:
    """Produce one projected vector per participant for the batch's week.

    Returns the vectors plus the ids of participants omitted because no
    record of theirs survived cleaning (callers log these).
    """
    cleaned = impute(remove_outliers(list(batch.records)))
    present = {rec.participant_id for rec in batch.records}
    if not cleaned:
        return [], sorted(present)
    pids, matrix = _segment_mean_matrix(
        cleaned,
        pipeline.continuous_features,
        pipeline.categorical_features,
        pipeline.vocabularies,
    )
    scaled = scaler_apply(pipeline.scaler, matrix)
    projected = pca_project_matrix(pipeline.projector, scaled)
    vectors = [
        ParticipantVector(participant_id=pid, week=batch.week, values=projected[i])
        for i, pid in enumerate(pids)
    ]
    omitted = sorted(present - set(pids))
    for pid in omitted:
        log.warning("participant %s omitted in week %d: no surviving records", pid, batch.week)
    return vectors, omitted


def pipeline_to_json(pipeline: FittedPipeline) -> dict:
    return {
        "schema_version": PIPELINE_SCHEMA_VERSION,
        "continuous_features": list(pipeline.continuous_features),
        "categorical_features": list(pipeline.categorical_features),
        "vocabularies": {k: list(v) for k, v in pipeline.vocabularies.items()},
        "scaler_min": pipeline.scaler.feature_min.tolist(),
        "scaler_max": pipeline.scaler.feature_max.tolist(),
        "pca_mean": pipeline.projector.mean.tolist(),
        "pca_components": pipeline.projector.components.tolist(),
        "pca_explained_variance_ratio": pipeline.projector.explained_variance_ratio.tolist(),
    }


def pipeline_from_json(doc: dict) -> FittedPipeline:
    version = doc.get("schema_version")
    if version != PIPELINE_SCHEMA_VERSION:
        raise ValidationError(f"unsupported pipeline schema version: {version!r}")
    return FittedPipeline(
        continuous_features=tuple(doc["continuous_features"]),
        categorical_features=tuple(doc["categorical_features"]),
        vocabularies={k: tuple(v) for k, v in doc["vocabularies"].items()},
        scaler=FittedScaler(
            feature_min=np.array(doc["scaler_min"], dtype=float),
            feature_max=np.array(doc["scaler_max"], dtype=float),
        ),
        projector=FittedProjector(
            mean=np.array(doc["pca_mean"], dtype=float),
            components=np.array(doc["pca_components"], dtype=float),
            explained_variance_ratio=np.array(
                doc["pca_explained_variance_ratio"], dtype=float
            ),
        ),
    )
