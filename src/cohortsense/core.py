"""Shared domain types: weekly batches, labels, config.

Everything here is an immutable value object; instances can be shared freely
across threads. Score thresholds, day segments and the engine-wide knob set
live here so every other module works against one vocabulary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

SCORE_MIN = 10
SCORE_MAX = 40


class ValidationError(ValueError):
    """Raised when an input value violates a documented precondition."""


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


class DaySegment(Enum):
    NIGHT = "night"
    MORNING = "morning"
    AFTERNOON = "afternoon"
    EVENING = "evening"


# Fixed order used everywhere a vector is built from per-segment blocks.
SEGMENT_ORDER = (
    DaySegment.NIGHT,
    DaySegment.MORNING,
    DaySegment.AFTERNOON,
    DaySegment.EVENING,
)


def validate_score(score: int) -> int:
    if not isinstance(score, (int,)) or isinstance(score, bool):
        raise ValidationError(f"questionnaire score must be an integer, got {score!r}")
    if score < SCORE_MIN or score > SCORE_MAX:
        raise ValidationError(
            f"questionnaire score {score} outside valid range [{SCORE_MIN}, {SCORE_MAX}]"
        )
    return score


def label_from_score(score: int, threshold: int = 20) -> int:
    """Binarize a questionnaire sum: 1 iff strictly above the threshold."""
    validate_score(score)
    return 1 if score > threshold else 0


def apportion(amount: int, weights: dict, capacity: dict) -> dict:
    """Split ``amount`` over the keys of ``weights`` by largest remainder.

    Each key first gets the floor of ``amount * weight / total``, capped by
    its capacity; the rest is handed out one at a time, round-robin in order
    of falling fractional part (ties by key), to keys with room left.
    """
    if amount > sum(capacity.values()):
        raise ConfigError(f"cannot apportion {amount} within capacity {sum(capacity.values())}")
    total = sum(weights.values())
    ideal = {k: amount * w / total if total else 0.0 for k, w in weights.items()}
    counts = {k: min(math.floor(x), capacity[k]) for k, x in ideal.items()}
    order = sorted(ideal, key=lambda k: (-(ideal[k] - math.floor(ideal[k])), k))
    remaining = amount - sum(counts.values())
    while remaining > 0:
        for k in order:
            if remaining > 0 and counts[k] < capacity[k]:
                counts[k] += 1
                remaining -= 1
    return counts


def seed_entropy(seed: int, *parts: object) -> np.ndarray:
    """SeedSequence entropy words for a root seed and context labels: the
    seed's two 32-bit halves, then an int part's low 32 bits or the UTF-8
    bytes of any other part's ``str``. They come as a uint32 array, which
    SeedSequence takes as it is; a list of the same words gives the same
    state, but is converted one int at a time."""
    words = [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF]
    for part in parts:
        if isinstance(part, int):
            words.append(part & 0xFFFFFFFF)
        else:
            words.extend(str(part).encode("utf-8"))
    return np.array(words, dtype=np.uint32)


def equal_fields(self, other: object) -> bool:
    """``==`` of dataclasses: arrays equal by value, a float array's NaN equal to NaN."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if isinstance(a, np.ndarray):
            if not np.array_equal(a, b, equal_nan=a.dtype.kind == "f"):
                return False
        elif a != b:
            return False
    return True


@dataclass(frozen=True, eq=False)
class WeeklyBatch:
    """One study week's rows as columns, plus known ground-truth scores.

    Row i belongs to ``participant_ids[participants[i]]`` (ids sorted), on
    the ISO day ``days[i]``, in segment ``SEGMENT_ORDER[segments[i]]``.
    ``records[i, j]`` is its value of ``continuous_features[j]`` (NaN when
    missing), so ``len(records)`` is the row count; ``categories[i, j]``
    indexes ``tokens[j]``, the token table of ``categorical_features[j]``
    sorted by token (-1 when missing).
    """

    week: int
    participant_ids: tuple[str, ...]
    participants: np.ndarray
    days: np.ndarray
    segments: np.ndarray
    continuous_features: tuple[str, ...]
    records: np.ndarray
    categorical_features: tuple[str, ...]
    tokens: tuple[tuple[str, ...], ...]
    categories: np.ndarray
    labels: dict[str, int]  # participant_id -> questionnaire score

    def __post_init__(self) -> None:
        if self.week < 1:
            raise ValidationError(f"week {self.week} below 1")
        known = set(self.participant_ids)
        for pid in self.labels:
            if pid not in known:
                raise ValidationError(
                    f"labeled participant {pid} has no records in week {self.week}"
                )

    @classmethod
    def from_columns(
        cls,
        week: int,
        participant_ids,
        days,
        segments,
        continuous: dict,
        categorical: dict,
        labels: dict[str, int],
    ) -> "WeeklyBatch":
        """Build a batch from per-row columns: participant ids, ISO days,
        segment codes, one float column per continuous feature (NaN where
        missing) and one token column per categorical feature (None where
        missing). Feature names are sorted; the id and token tables are
        derived here."""
        table, participants = np.unique(np.asarray(participant_ids, dtype=str), return_inverse=True)
        n = len(participants)
        records = np.empty((n, len(continuous)))
        for j, name in enumerate(sorted(continuous)):
            records[:, j] = continuous[name]
        tables, categories = [], np.empty((n, len(categorical)), dtype=np.int64)
        for j, name in enumerate(sorted(categorical)):
            tables.append(tuple(sorted({t for t in categorical[name] if t is not None})))
            code = {t: c for c, t in enumerate(tables[-1])}
            categories[:, j] = [code.get(t, -1) for t in categorical[name]]
        return cls(
            week=week,
            participant_ids=tuple(table.tolist()),
            participants=participants.reshape(n).astype(np.int64),
            days=np.asarray(days, dtype=str).reshape(n),
            segments=np.asarray(segments, dtype=np.int64).reshape(n),
            continuous_features=tuple(sorted(continuous)),
            records=records,
            categorical_features=tuple(sorted(categorical)),
            tokens=tuple(tables),
            categories=categories,
            labels=dict(labels),
        )

    __eq__ = equal_fields


def _within(default, interval: str):
    """A config field whose value must lie in `interval`, e.g. "(0, 1]"."""
    return field(default=default, metadata={"interval": interval})


def _check_fields(config) -> None:
    """Raise ConfigError unless each field has its type and lies in its interval.

    A float field takes an int or a float, an int field only an int; a bool
    is neither. NaN and infinities lie in no interval.
    """
    for f in fields(config):
        if "interval" not in f.metadata:
            continue
        value, interval = getattr(config, f.name), f.metadata["interval"]
        types = (int, float) if f.type == "float" else (int,)
        if isinstance(value, bool) or not isinstance(value, types):
            noun = "a number" if f.type == "float" else "an integer"
            raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
        low, high = (float(x) for x in interval[1:-1].split(","))
        above = value > low if interval[0] == "(" else value >= low
        below = value < high if interval[-1] == ")" else value <= high
        if not (above and below):
            raise ConfigError(f"{f.name} must lie in {interval}, got {value!r}")


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters for the four classifier kinds (invented defaults)."""

    logreg_l2: float = _within(1e-3, "[0, inf)")
    svm_l2: float = _within(1e-3, "(0, inf)")
    forest_trees: int = _within(100, "[1, 10000]")
    forest_depth: int = _within(8, "[1, inf)")
    gbt_rounds: int = _within(100, "[1, 10000]")
    gbt_depth: int = _within(3, "[1, inf)")
    gbt_learning_rate: float = _within(0.1, "(0, 1]")  # shrinkage

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for the weekly replay pipeline.

    ``eps`` and ``density_fraction`` drive the incremental clustering,
    ``score_threshold`` the label binarization, ``cv_folds`` and
    ``smote_neighbors`` the validation loop.
    """

    eps: float = _within(0.5, "(0, inf)")
    density_fraction: float = _within(0.1, "(0, 1)")
    min_pts_floor: int = _within(5, "[1, inf)")
    cv_folds: int = _within(10, "[2, inf)")
    smote_neighbors: int = _within(5, "[1, inf)")
    score_threshold: int = _within(20, f"[{SCORE_MIN}, {SCORE_MAX})")
    pca_variance_target: float = _within(0.90, "(0, 1]")
    rng_seed: int = _within(42, "[0, inf)")
    holdout_fraction: float = _within(0.2, "(0, 1)")
    min_cohort_size: int = _within(15, "[1, inf)")
    min_class_count: int = _within(5, "[1, inf)")
    learners: LearnerConfig = field(default_factory=LearnerConfig)

    def __post_init__(self) -> None:
        _check_fields(self)
        if not isinstance(self.learners, LearnerConfig):
            raise ConfigError(f"learners must be a LearnerConfig, got {self.learners!r}")


def _config_from_mapping(data: dict) -> EngineConfig:
    known = {f.name for f in fields(EngineConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = dict(data)
    if "learners" in kwargs:
        sub = kwargs["learners"]
        if not isinstance(sub, dict):
            raise ConfigError("learners section must be an object")
        sub_known = {f.name for f in fields(LearnerConfig)}
        sub_unknown = sorted(set(sub) - sub_known)
        if sub_unknown:
            raise ConfigError(f"unknown learner config keys: {', '.join(sub_unknown)}")
        kwargs["learners"] = LearnerConfig(**sub)
    return EngineConfig(**kwargs)


def load_config(path: str | Path) -> EngineConfig:
    """Load an EngineConfig from a UTF-8 JSON file; unknown keys are rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return _config_from_mapping(data)


def make_out_dir(out_dir: str | Path) -> Path:
    """Make an output directory and its missing parents. The nearest path
    that exists (a symbolic link to nothing counts), the directory itself or
    one of its parents, must be a directory; else ValidationError, first."""
    out = Path(out_dir)
    nearest = next(path for path in (out, *out.parents) if path.is_symlink() or path.exists())
    if not nearest.is_dir():
        what = "it" if nearest == out else nearest
        raise ValidationError(f"cannot make output directory {out_dir}: {what} is not a directory")
    out.mkdir(parents=True, exist_ok=True)
    return out
