"""Shared domain types: feature records, weekly batches, labels, config.

Everything here is an immutable value object; instances can be shared freely
across threads. Score thresholds, day segmentation and the engine-wide knob
set live here so every other module works against one vocabulary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

SCORE_MIN = 10
SCORE_MAX = 40

MINUTES_PER_DAY = 1440


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

# Half-open [start, end) minute windows; each minute belongs to exactly one.
_SEGMENT_BOUNDS = (
    (0, 360, DaySegment.NIGHT),
    (360, 720, DaySegment.MORNING),
    (720, 1080, DaySegment.AFTERNOON),
    (1080, 1440, DaySegment.EVENING),
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


def segment_of(minutes_since_midnight: int) -> DaySegment:
    """Map a minute of the day onto its segment (half-open windows)."""
    m = minutes_since_midnight
    if m < 0 or m >= MINUTES_PER_DAY:
        raise ValidationError(
            f"time of day {m} outside [0, {MINUTES_PER_DAY}) minutes"
        )
    for start, end, seg in _SEGMENT_BOUNDS:
        if start <= m < end:
            return seg
    raise AssertionError("unreachable: segment windows partition the day")


@dataclass(frozen=True)
class FeatureRecord:
    """One participant-segment-day row of named behavioral features.

    ``continuous`` maps feature name to a float (None marks a missing value
    awaiting imputation); ``categorical`` maps feature name to a token
    (None likewise missing).
    """

    participant_id: str
    week: int
    day: str  # ISO date
    segment: DaySegment
    continuous: dict[str, float | None]
    categorical: dict[str, str | None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.week < 1:
            raise ValidationError(f"week {self.week} below 1")


@dataclass(frozen=True)
class WeeklyBatch:
    """All records plus known ground-truth scores for one study week."""

    week: int
    records: tuple[FeatureRecord, ...]
    labels: dict[str, int]  # participant_id -> questionnaire score

    def __post_init__(self) -> None:
        for rec in self.records:
            if rec.week != self.week:
                raise ValidationError(
                    f"record for {rec.participant_id} has week {rec.week}, "
                    f"batch is week {self.week}"
                )
        present = {rec.participant_id for rec in self.records}
        for pid in self.labels:
            if pid not in present:
                raise ValidationError(
                    f"labeled participant {pid} has no records in week {self.week}"
                )


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

    logreg_iterations: int = _within(500, "[1, inf)")
    logreg_step: float = _within(0.1, "(0, inf)")
    logreg_l2: float = _within(1e-3, "[0, inf)")
    svm_epochs: int = _within(500, "[1, inf)")
    svm_l2: float = _within(1e-3, "(0, inf)")
    forest_trees: int = _within(100, "[1, inf)")
    forest_depth: int = _within(8, "[1, inf)")
    gbt_rounds: int = _within(100, "[1, inf)")
    gbt_depth: int = _within(3, "[1, inf)")
    gbt_learning_rate: float = _within(0.1, "(0, inf)")

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
    # 0 = fit preprocessing once at week 1
    refit_every_n_weeks: int = _within(0, "[0, inf)")
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
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return _config_from_mapping(data)
