"""Weekly batches of raw rows to fixed-length vectors.

Per-batch hygiene (outlier removal, imputation) is recomputed on every
incoming week; the encoding vocabulary, min-max scaler, and PCA projection
are fitted once and frozen so the projected geometry stays comparable
across weeks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import SEGMENT_ORDER, ValidationError, WeeklyBatch

log = logging.getLogger(__name__)

IQR_FACTOR = 1.5


def remove_outliers(batch: WeeklyBatch) -> np.ndarray:
    """Mask of the rows with no continuous value outside the 1.5*IQR fence.

    Quartiles are computed per feature over the batch's observed values;
    missing values never mark a row as an outlier.
    """
    keep = np.ones(len(batch.records), dtype=bool)
    if not keep.size:
        return keep
    for j, name in enumerate(batch.continuous_features):
        column = batch.records[:, j]
        observed = column[~np.isnan(column)]
        if not observed.size:
            raise ValidationError(f"feature {name!r} has no observed values")
        q1, q3 = np.percentile(observed, [25, 75])
        iqr = q3 - q1
        keep &= ~((column < q1 - IQR_FACTOR * iqr) | (column > q3 + IQR_FACTOR * iqr))
    return keep


def impute(batch: WeeklyBatch, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kept rows' values and category codes, gaps filled with the
    per-participant per-segment median (continuous) or mode (categorical),
    falling back to batch-level statistics over the kept rows.

    Observed values are never altered. A mode tie goes to the lowest code,
    which is the smallest token. A feature with no observed value among the
    kept rows is an error.
    """
    rows = np.flatnonzero(keep)
    values, codes = batch.records[rows], batch.categories[rows]
    if not rows.size:
        return values, codes
    group = batch.participants[rows] * len(SEGMENT_ORDER) + batch.segments[rows]
    keys, member, sizes = np.unique(group, return_inverse=True, return_counts=True)
    starts = np.cumsum(sizes) - sizes
    names = batch.continuous_features + batch.categorical_features
    ncont = len(batch.continuous_features)
    for j, column in enumerate([*values.T, *codes.T]):
        missing = np.isnan(column) if j < ncont else column < 0
        if missing.all():
            raise ValidationError(
                f"week {batch.week}: feature {names[j]!r} has no observed values to impute from"
            )
        if not missing.any():
            continue
        observed = np.bincount(member[~missing], minlength=len(keys))
        if j < ncont:
            # rows by group, then by value with the gaps last: a group's
            # observed values start its slice, in order
            ranked = column[np.lexsort((column, group))]
            low = ranked[starts + (observed - 1) // 2]
            high = ranked[starts + observed // 2]
            fill = np.where(observed % 2 == 1, low, (low + high) / 2)
            fallback = float(np.median(column[~missing]))
        else:
            width = len(batch.tokens[j - ncont])
            counts = np.bincount(
                member[~missing] * width + column[~missing], minlength=len(keys) * width
            ).reshape(len(keys), width)
            fill = counts.argmax(axis=1)
            fallback = counts.sum(axis=0).argmax()
        column[missing] = np.where(observed > 0, fill, fallback)[member[missing]]
    return values, codes


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

    cumulative = np.cumsum(eigvals / total)
    k = int(np.searchsorted(cumulative, variance_target - 1e-12) + 1)
    k = min(max(k, 2), rank)

    components = eigvecs[:, :k].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return FittedProjector(mean=mean, components=components)


def pca_project_matrix(projector: FittedProjector, matrix: np.ndarray) -> np.ndarray:
    return (np.asarray(matrix, dtype=float) - projector.mean) @ projector.components.T


@dataclass(frozen=True)
class FittedPipeline:
    """Frozen preprocessing state: feature order, vocabularies, scaler, PCA.
    The vocabularies are keyed by the categorical features, in order."""

    continuous_features: tuple[str, ...]
    vocabularies: dict[str, tuple[str, ...]]
    scaler: FittedScaler
    projector: FittedProjector

    @property
    def categorical_features(self) -> tuple[str, ...]:
        return tuple(self.vocabularies)


def _segment_mean_matrix(
    batch: WeeklyBatch,
    keep: np.ndarray,
    values: np.ndarray,
    codes: np.ndarray,
    continuous_features: tuple[str, ...],
    vocabularies: dict[str, tuple[str, ...]],
) -> tuple[list[str], np.ndarray]:
    """Per participant: per-segment feature means, segment blocks concatenated.

    ``values`` and ``codes`` are the imputed rows of ``batch`` that ``keep``
    selects. Each vocabulary's feature gives one-hot columns, in the
    vocabularies' order; a token outside its vocabulary encodes all-zeros.
    A participant missing every row of one segment falls back to their own
    all-segment mean for that block. Rows are summed in day order (segment order, then
    day order, for that mean), so the means do not depend on the order of
    the rows in the batch.
    """
    rows = np.flatnonzero(keep)
    parts = [values[:, [batch.continuous_features.index(n) for n in continuous_features]]]
    for name, vocab in vocabularies.items():
        j = batch.categorical_features.index(name)
        index = np.array([vocab.index(t) if t in vocab else -1 for t in batch.tokens[j]], dtype=int)
        parts.append((index[codes[:, j]][:, None] == np.arange(len(vocab))).astype(float))
    order = np.lexsort((batch.days[rows], batch.segments[rows], batch.participants[rows]))
    full = np.concatenate(parts, axis=1)[order]
    participant, segment = batch.participants[rows][order], batch.segments[rows][order]

    present, member = np.unique(participant, return_inverse=True)
    n, width, nseg = len(present), full.shape[1], len(SEGMENT_ORDER)
    column, cell = np.arange(width), member * nseg + segment

    def binned_sums(keys: np.ndarray, bins: int) -> np.ndarray:
        # bincount adds each bin's rows in row order, as a slice's sum over axis 0 does
        flat = (keys[:, None] * width + column).ravel()
        return np.bincount(flat, weights=full.ravel(), minlength=bins * width)

    sums = binned_sums(cell, n * nseg).reshape(n, nseg, width)
    counts = np.bincount(cell, minlength=n * nseg).reshape(n, nseg, 1)
    overall = binned_sums(member, n).reshape(n, 1, width) / np.bincount(member).reshape(n, 1, 1)
    matrix = np.where(counts > 0, sums / np.maximum(counts, 1), overall)
    pids = [batch.participant_ids[c] for c in present.tolist()]
    return pids, matrix.reshape(n, nseg * width)


def _clean(batch: WeeklyBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outlier mask and the surviving rows' imputed values and codes."""
    keep = remove_outliers(batch)
    return (keep, *impute(batch, keep))


def fit_pipeline(batch: WeeklyBatch, variance_target: float) -> FittedPipeline:
    """Clean one batch, then freeze vocabulary, scaler, and projection."""
    keep, values, codes = _clean(batch)
    if not keep.any():
        raise ValidationError(
            f"week {batch.week}: cannot fit the preprocessing pipeline on an empty batch"
        )
    vocabularies = {
        name: tuple(batch.tokens[j][c] for c in np.unique(codes[:, j]).tolist())
        for j, name in enumerate(batch.categorical_features)
    }
    _, matrix = _segment_mean_matrix(
        batch, keep, values, codes, batch.continuous_features, vocabularies
    )
    scaler = scaler_fit(matrix)
    scaled = scaler_apply(scaler, matrix)
    try:
        projector = pca_fit(scaled, variance_target)
    except ValidationError as exc:
        raise ValidationError(f"week {batch.week}: {exc}") from None
    return FittedPipeline(
        continuous_features=batch.continuous_features,
        vocabularies=vocabularies,
        scaler=scaler,
        projector=projector,
    )


def vectorize_week(
    batch: WeeklyBatch, pipeline: FittedPipeline
) -> tuple[list[str], np.ndarray, list[str]]:
    """Project one vector per participant for the batch's week.

    Returns the participant ids in sorted order, their vectors as the rows
    of one matrix, and the ids of participants omitted because no row of
    theirs survived cleaning (callers log these). The batch must hold every
    feature the pipeline reads: the engine's batch check refuses one that
    lacks any.
    """
    keep, values, codes = _clean(batch)
    pids, projected = [], np.empty((0, len(pipeline.projector.components)))
    if keep.any():
        pids, matrix = _segment_mean_matrix(
            batch, keep, values, codes, pipeline.continuous_features, pipeline.vocabularies
        )
        projected = pca_project_matrix(pipeline.projector, scaler_apply(pipeline.scaler, matrix))
    omitted = sorted(set(batch.participant_ids) - set(pids))
    for pid in omitted:
        log.warning("participant %s omitted in week %d: no surviving records", pid, batch.week)
    return pids, projected, omitted


def pipeline_to_json(pipeline: FittedPipeline) -> dict:
    return {
        "continuous_features": list(pipeline.continuous_features),
        "vocabularies": {k: list(v) for k, v in pipeline.vocabularies.items()},
        "scaler_min": pipeline.scaler.feature_min.tolist(),
        "scaler_max": pipeline.scaler.feature_max.tolist(),
        "pca_mean": pipeline.projector.mean.tolist(),
        "pca_components": pipeline.projector.components.tolist(),
    }


def pipeline_from_json(doc: dict) -> FittedPipeline:
    """The pipeline `pipeline_to_json` wrote. Its arrays must be finite and,
    a component row each, as wide as the segment-mean vectors: a block per
    segment of the continuous features and the vocabularies' tokens."""
    continuous = tuple(doc["continuous_features"])
    vocabularies = {k: tuple(v) for k, v in doc["vocabularies"].items()}
    width = len(SEGMENT_ORDER) * (len(continuous) + sum(map(len, vocabularies.values())))
    keys = ("scaler_min", "scaler_max", "pca_mean", "pca_components")
    arrays = {key: np.array(doc[key], dtype=float) for key in keys}
    for key, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValidationError(f"pipeline {key} are not finite")
        if values.ndim != 1 + (key == "pca_components") or values.shape[-1] != width:
            raise ValidationError(
                f"pipeline {key} is not {width} wide, as its features and vocabularies give"
            )
    return FittedPipeline(
        continuous_features=continuous,
        vocabularies=vocabularies,
        scaler=FittedScaler(feature_min=arrays["scaler_min"], feature_max=arrays["scaler_max"]),
        projector=FittedProjector(mean=arrays["pca_mean"], components=arrays["pca_components"]),
    )
