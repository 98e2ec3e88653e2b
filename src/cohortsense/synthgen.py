"""Deterministic 10-week synthetic cohort generator.

Group structure, sizes, and label distributions mirror the reported
behavioral-group dynamics: three stable cohorts, a fourth emerging in week
five, reabsorbed in week eight, re-emerging for weeks nine and ten.

Ordinal behavioral descriptors map to a normalized per-feature scale
(high/frequent 1.0, moderate/average/regular 0.6, low/fewer/short 0.3,
variable 0.6 with doubled spread). Within a group, later-interval profile
changes are compressed toward the group's first-interval anchor so each
cohort stays one density-connected region across the whole stream while
distinct groups keep full-scale separation.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import repeat
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    SEGMENT_ORDER,
    ConfigError,
    ValidationError,
    WeeklyBatch,
    apportion,
    seed_entropy,
    validate_score,
)
from .forking import side_by_side

FEATURES = (
    "physical_activity",
    "call_count",
    "sms_count",
    "bluetooth_unique",
    "location_changes",
    "phone_usage_min",
    "sleep_duration",
)

CATEGORICAL_FEATURE = "social_context"

GROUP_TOKENS = {
    "G1": "high_social",
    "G2": "balanced",
    "G3": "withdrawn",
    "G4": "variable_rhythm",
}

ORDINAL_SCALE = {
    "high": 1.0,
    "frequent": 1.0,
    "moderate": 0.6,
    "average": 0.6,
    "regular": 0.6,
    "variable": 0.6,
    "low": 0.3,
    "fewer": 0.3,
    "short": 0.3,
}

BASE_SPREAD = 0.08  # per-participant trait offset, normalized scale
DAY_NOISE = 0.05  # per-record observation noise
VARIABLE_SPREAD_FACTOR = 2.0
DRIFT_COMPRESSION = 0.25  # cross-interval mean drift kept inside eps reach
MISSING_CELL_RATE = 0.05
OUTLIER_RECORD_RATE = 0.01
OUTLIER_FACTOR = 10.0
LONELY_SHIFT = 0.42
SCORE_THRESHOLD = 20

STUDY_START = date(2019, 4, 1)

# Behavioral descriptors per (group, week interval); None inherits the
# group's previous interval. "reduced"/"increased" move one ordinal step
# relative to the previous interval.
_DESCRIPTORS: dict[str, list[tuple[tuple[int, int], dict[str, str | None], tuple[int, int]]]] = {
    "G1": [
        ((1, 4), dict(physical_activity="high", call_count="frequent",
                      sms_count="frequent", bluetooth_unique="high",
                      location_changes="regular", phone_usage_min="moderate",
                      sleep_duration="average"), (10, 18)),
        ((5, 7), dict(physical_activity="high", call_count="frequent",
                      sms_count="frequent", bluetooth_unique="high",
                      location_changes="regular", phone_usage_min="moderate",
                      sleep_duration="average"), (10, 22)),
        ((8, 8), dict(physical_activity="high", call_count="frequent",
                      sms_count="frequent", bluetooth_unique="high",
                      location_changes="regular", phone_usage_min="moderate",
                      sleep_duration="average"), (10, 20)),
        ((9, 10), dict(physical_activity="high", call_count="frequent",
                       sms_count="frequent", bluetooth_unique="high",
                       location_changes="regular", phone_usage_min="moderate",
                       sleep_duration="average"), (10, 20)),
    ],
    "G2": [
        ((1, 4), dict(physical_activity="high", call_count="average",
                      sms_count="average", bluetooth_unique="average",
                      location_changes=None, phone_usage_min="moderate",
                      sleep_duration="average"), (15, 26)),
        ((5, 7), dict(physical_activity="reduced", call_count="fewer",
                      sms_count="fewer", bluetooth_unique="average",
                      location_changes="moderate", phone_usage_min="increased",
                      sleep_duration="reduced"), (15, 32)),
        ((8, 8), dict(physical_activity="high", call_count="average",
                      sms_count="average", bluetooth_unique="average",
                      location_changes=None, phone_usage_min="regular",
                      sleep_duration="average"), (15, 25)),
        ((9, 10), dict(physical_activity="high", call_count="average",
                       sms_count="average", bluetooth_unique="average",
                       location_changes=None, phone_usage_min="regular",
                       sleep_duration="average"), (16, 32)),
    ],
    "G3": [
        ((1, 4), dict(physical_activity="low", call_count="fewer",
                      sms_count="fewer", bluetooth_unique="fewer",
                      location_changes="moderate", phone_usage_min="high",
                      sleep_duration="short"), (16, 30)),
        ((5, 7), dict(physical_activity="low", call_count="fewer",
                      sms_count=None, bluetooth_unique="average",
                      location_changes="fewer", phone_usage_min="high",
                      sleep_duration="short"), (18, 36)),
        ((8, 8), dict(physical_activity="low", call_count="variable",
                      sms_count="variable", bluetooth_unique="fewer",
                      location_changes="moderate", phone_usage_min="high",
                      sleep_duration="short"), (18, 36)),
        ((9, 10), dict(physical_activity="low", call_count="variable",
                       sms_count="variable", bluetooth_unique="fewer",
                       location_changes="moderate", phone_usage_min="high",
                       sleep_duration="short"), (18, 36)),
    ],
    "G4": [
        ((5, 7), dict(physical_activity="moderate", call_count="variable",
                      sms_count="variable", bluetooth_unique="high",
                      location_changes="regular", phone_usage_min="moderate",
                      sleep_duration="variable"), (14, 28)),
        ((9, 10), dict(physical_activity="low", call_count="variable",
                       sms_count="variable", bluetooth_unique="variable",
                       location_changes="moderate", phone_usage_min="moderate",
                       sleep_duration="average"), (14, 35)),
    ],
}

# Diurnal shapes; one multiplicative weight per segment in SEGMENT_ORDER
# (night, morning, afternoon, evening). Amplitudes stay within ~20% so the
# pooled per-feature interquartile fences keep every segment's honest
# records inside; only the injected x10 outliers fall out.
_RHYTHMS = {
    "day": (0.85, 1.10, 1.12, 0.95),
    "evening": (0.88, 0.95, 1.05, 1.15),
    "night": (1.12, 0.88, 0.92, 1.05),
    "flat": (1.0, 1.0, 1.0, 1.0),
}

_GROUP_RHYTHM = {
    "G1": dict(physical_activity="day", call_count="evening", sms_count="evening",
               bluetooth_unique="day", location_changes="day",
               phone_usage_min="evening", sleep_duration="night"),
    "G2": dict(physical_activity="day", call_count="flat", sms_count="evening",
               bluetooth_unique="day", location_changes="flat",
               phone_usage_min="evening", sleep_duration="night"),
    "G3": dict(physical_activity="flat", call_count="flat", sms_count="flat",
               bluetooth_unique="evening", location_changes="flat",
               phone_usage_min="night", sleep_duration="night"),
    "G4": dict(physical_activity="evening", call_count="night", sms_count="night",
               bluetooth_unique="evening", location_changes="evening",
               phone_usage_min="night", sleep_duration="flat"),
}

# Within-group loneliness signature: lonely members' trait offsets shift
# along a group-specific direction. Each direction runs along a
# between-group axis (so the variance-dominant projection keeps it) and
# the signs conflict across groups: no single pooled axis separates lonely
# from not-lonely, but within one cohort the split is clean.
_LONELY_DIRECTION = {
    "G1": {},
    # G2's lonely members drift toward the withdrawn pole (G3-like behavior)
    "G2": {"physical_activity": -0.70, "call_count": -0.30, "sms_count": -0.30,
           "bluetooth_unique": -0.30, "phone_usage_min": 0.40, "sleep_duration": -0.30},
    # G3's lonely members drift the opposite way along the same axis
    "G3": {"physical_activity": 0.70, "call_count": 0.30, "sms_count": 0.30,
           "bluetooth_unique": 0.30, "phone_usage_min": -0.40, "sleep_duration": 0.30},
    # G4's lonely members drift along the social-intensity axis toward G1
    "G4": {"physical_activity": 0.58, "call_count": 0.58, "sms_count": 0.58},
}

# Weekly target sizes (G1, G2, G3, G4); week 1 anchors at 84/70/51.
_WEEKLY_SIZES = {
    1: (84, 70, 51, 0),
    2: (83, 71, 51, 0),
    3: (84, 69, 52, 0),
    4: (82, 71, 52, 0),
    5: (40, 20, 30, 115),
    6: (38, 20, 27, 120),
    7: (35, 18, 27, 125),
    8: (84, 70, 51, 0),
    9: (86, 48, 43, 28),
    10: (88, 50, 37, 30),
}

GROUPS = ("G1", "G2", "G3", "G4")


@dataclass(frozen=True)
class GroupProfile:
    group_id: str
    week_interval: tuple[int, int]
    feature_means: dict[str, float]
    feature_spreads: dict[str, float]
    score_range: tuple[int, int]
    segment_weights: dict[str, tuple[float, float, float, float]]
    # feature-space displacement direction of lonely members
    lonely_direction: dict[str, float]
    # categorical context token
    social_token: str

    def __post_init__(self) -> None:
        lo, hi = self.score_range
        if lo < 10 or hi > 40:
            raise ValidationError(f"score range {self.score_range} outside [10, 40]")
        if any(s <= 0 for s in self.feature_spreads.values()):
            raise ValidationError("feature spreads must be positive")

    def covers(self, week: int) -> bool:
        return self.week_interval[0] <= week <= self.week_interval[1]


@dataclass(frozen=True)
class CohortPlan:
    total_participants: int
    lonely_count: int
    weekly_group_membership: dict[int, dict[str, frozenset[str]]]

    def __post_init__(self) -> None:
        """Each week's groups are disjoint; every participant is in the final
        week, whose groups draw the scores and traits; and the final week's
        participants number ``total_participants``."""
        rosters: dict[int, set[str]] = {}
        for week, groups in self.weekly_group_membership.items():
            seen: set[str] = set()
            for group, members in groups.items():
                overlap = seen & set(members)
                if overlap:
                    raise ValidationError(
                        f"week {week}: participants {sorted(overlap)[:3]} in "
                        f"multiple groups"
                    )
                seen |= set(members)
            rosters[week] = seen
        final = max(rosters, default=0)
        everyone = rosters.get(final, set())
        for week in sorted(rosters):
            if rosters[week] - everyone:
                raise ValidationError(
                    f"week {week}: participant {min(rosters[week] - everyone)} is in no "
                    f"group of the final week {final}"
                )
        if self.total_participants != len(everyone):
            raise ValidationError(
                f"total_participants is {self.total_participants}, "
                f"but the plan has {len(everyone)} participants"
            )

    def weeks(self) -> list[int]:
        return sorted(self.weekly_group_membership)


def _ordinal_step(value: float, direction: int) -> float:
    scale = sorted({0.3, 0.6, 1.0})
    idx = min(range(len(scale)), key=lambda i: abs(scale[i] - value))
    return scale[max(0, min(len(scale) - 1, idx + direction))]


def build_default_profiles() -> list[GroupProfile]:
    """One profile per (group, week-interval) behavioral-pattern cell.

    Cross-interval mean changes are compressed by DRIFT_COMPRESSION toward
    each group's first-interval anchor; score ranges are kept verbatim.
    """
    profiles = []
    for group, cells in _DESCRIPTORS.items():
        nominal_prev: dict[str, float] = {}
        anchor: dict[str, float] = {}
        for interval, descriptors, score_range in cells:
            nominal: dict[str, float] = {}
            spreads: dict[str, float] = {}
            for feat in FEATURES:
                word = descriptors.get(feat)
                if word is None:
                    nominal[feat] = nominal_prev.get(feat, 0.6)
                    spreads[feat] = BASE_SPREAD
                elif word == "reduced":
                    nominal[feat] = _ordinal_step(nominal_prev[feat], -1)
                    spreads[feat] = BASE_SPREAD
                elif word == "increased":
                    nominal[feat] = _ordinal_step(nominal_prev[feat], +1)
                    spreads[feat] = BASE_SPREAD
                else:
                    nominal[feat] = ORDINAL_SCALE[word]
                    spreads[feat] = BASE_SPREAD * (
                        VARIABLE_SPREAD_FACTOR if word == "variable" else 1.0
                    )
            if not anchor:
                anchor = dict(nominal)
                means = dict(nominal)
            else:
                means = {
                    f: anchor[f] + DRIFT_COMPRESSION * (nominal[f] - anchor[f])
                    for f in FEATURES
                }
            nominal_prev = nominal
            profiles.append(
                GroupProfile(
                    group_id=group,
                    week_interval=interval,
                    feature_means=means,
                    feature_spreads=spreads,
                    score_range=score_range,
                    segment_weights={
                        f: _RHYTHMS[_GROUP_RHYTHM[group][f]] for f in FEATURES
                    },
                    lonely_direction=_LONELY_DIRECTION[group],
                    social_token=GROUP_TOKENS[group],
                )
            )
    return profiles


def build_default_plan() -> CohortPlan:
    """Deterministic membership evolution matching the weekly size targets.

    Groups shed their highest-numbered members when shrinking; freed
    participants fill under-target groups in group order.
    """
    pids = [f"P{i:03d}" for i in range(1, 206)]
    rosters: dict[str, list[str]] = {
        "G1": pids[:84],
        "G2": pids[84:154],
        "G3": pids[154:205],
        "G4": [],
    }
    membership: dict[int, dict[str, frozenset[str]]] = {}
    for week in range(1, 11):
        targets = dict(zip(GROUPS, _WEEKLY_SIZES[week]))
        pool: list[str] = []
        for group in GROUPS:
            excess = len(rosters[group]) - targets[group]
            if excess > 0:
                rosters[group].sort()
                movers = rosters[group][-excess:]
                rosters[group] = rosters[group][:-excess]
                pool.extend(movers)
        pool.sort()
        for group in GROUPS:
            deficit = targets[group] - len(rosters[group])
            if deficit > 0:
                rosters[group].extend(pool[:deficit])
                pool = pool[deficit:]
        if pool:
            raise AssertionError(f"week {week}: unplaced participants {pool}")
        membership[week] = {
            g: frozenset(rosters[g]) for g in GROUPS if rosters[g]
        }
    return CohortPlan(
        total_participants=205, lonely_count=87, weekly_group_membership=membership
    )


def _profile_for(profiles: list[GroupProfile], group: str, week: int) -> GroupProfile:
    for prof in profiles:
        if prof.group_id == group and prof.covers(week):
            return prof
    raise ConfigError(f"no profile covers group {group} in week {week}")


def _sub_rng(seed: int, *parts: object) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed_entropy(seed, *parts)))


def _assign_scores(
    plan: CohortPlan, profiles: list[GroupProfile], seed: int
) -> dict[str, int]:
    """Questionnaire scores within each participant's final-week group range.

    Lonely membership is apportioned per group (largest remainder over the
    above-threshold share of each score range) so the planned lonely count
    is hit exactly; scores then draw uniformly from the matching slice.
    """
    final_week = max(plan.weeks())
    rosters = plan.weekly_group_membership[final_week]
    shares: dict[str, float] = {}
    ranges: dict[str, tuple[int, int]] = {}
    for group, members in rosters.items():
        lo, hi = _profile_for(profiles, group, final_week).score_range
        ranges[group] = (lo, hi)
        above = max(0, hi - SCORE_THRESHOLD)
        shares[group] = len(members) * above / (hi - lo + 1)

    capacity = {
        g: (len(rosters[g]) if ranges[g][1] > SCORE_THRESHOLD else 0) for g in rosters
    }
    if plan.lonely_count > sum(capacity.values()):
        raise ConfigError(
            f"plan wants {plan.lonely_count} lonely participants but score "
            f"ranges only allow {sum(capacity.values())}"
        )
    counts = apportion(plan.lonely_count, shares, capacity)

    scores: dict[str, int] = {}
    for group in sorted(rosters):
        members = sorted(rosters[group])
        lo, hi = ranges[group]
        rng = _sub_rng(seed, "labels", group)
        lonely_ids = set(
            rng.choice(members, size=counts[group], replace=False).tolist()
        ) if counts[group] else set()
        for pid in members:
            if pid in lonely_ids:
                scores[pid] = int(rng.integers(SCORE_THRESHOLD + 1, hi + 1))
            else:
                scores[pid] = int(rng.integers(lo, min(SCORE_THRESHOLD, hi) + 1))
    return scores


def _participant_traits(
    plan: CohortPlan,
    profiles: list[GroupProfile],
    seed: int,
) -> dict[str, np.ndarray]:
    """Each participant's trait offsets, in FEATURES order."""
    final_week = max(plan.weeks())
    traits: dict[str, np.ndarray] = {}
    for group, members in plan.weekly_group_membership[final_week].items():
        prof = _profile_for(profiles, group, final_week)
        for pid in sorted(members):
            rng = _sub_rng(seed, "traits", pid)
            traits[pid] = np.array([rng.normal(0.0, prof.feature_spreads[f]) for f in FEATURES])
    return traits


def _segment_levels(profile: GroupProfile) -> np.ndarray:
    """A profile's (segment, feature) means: each feature's mean times its
    segment weight, in SEGMENT_ORDER and FEATURES order."""
    return np.array(
        [
            [profile.feature_means[f] * profile.segment_weights[f][s] for f in FEATURES]
            for s in range(len(SEGMENT_ORDER))
        ]
    )


def _lonely_displacement(profile: GroupProfile) -> np.ndarray:
    return np.array([LONELY_SHIFT * profile.lonely_direction.get(f, 0.0) for f in FEATURES])


# a participant-week's 28 rows are drawn day by day in SEGMENT_ORDER and
# stored day by day in segment-name order
_SEGMENT_NAME_ORDER = np.argsort([seg.value for seg in SEGMENT_ORDER], kind="stable")
_WEEK_ROWS = (np.arange(7)[:, None] * len(SEGMENT_ORDER) + _SEGMENT_NAME_ORDER).ravel()
_COLUMN_OF_FEATURE = np.argsort(FEATURES, kind="stable")  # FEATURES order -> sorted


def _draw_week_rows(rng: np.random.Generator, noise: np.ndarray, uniforms: np.ndarray) -> None:
    """Fill one participant-week's (28, k) standard normals and (28, k + 2)
    uniforms (outlier, k cells, token) row by row: each row's k normals,
    then its k + 2 uniforms in one call. PCG64 makes one double per 64-bit
    word, in order, so one ``random(k + 2)`` equals ``random()``,
    ``random(k)`` and ``random()`` drawn one after another."""
    for row in range(len(noise)):
        rng.standard_normal(out=noise[row])
        rng.random(out=uniforms[row])


def generate_cohort(
    plan: CohortPlan, profiles: list[GroupProfile], seed: int
) -> list[WeeklyBatch]:
    """Emit one WeeklyBatch per planned week; bit-identical per seed.

    Rows run by participant, day and segment name. Each participant-week
    draws its own rows (``_draw_week_rows``); the rows of a week then turn
    into values together: noise, x10 outlier rows, missing cells and
    missing tokens. Each week draws from its own generators, so the two
    halves of the weeks, generated side by side (`_in_halves`), give the
    bytes of the weeks generated in turn.
    """
    for week in plan.weeks():
        for group in plan.weekly_group_membership[week]:
            _profile_for(profiles, group, week)

    scores = _assign_scores(plan, profiles, seed)
    traits = _participant_traits(plan, profiles, seed)

    k, rows = len(FEATURES), len(_WEEK_ROWS)

    def generate_week(week: int) -> WeeklyBatch:
        groups = plan.weekly_group_membership[week]
        group_of = {pid: group for group, members in groups.items() for pid in members}
        pids = sorted(group_of)
        profile_of = {group: _profile_for(profiles, group, week) for group in groups}
        levels = {group: _segment_levels(p) for group, p in profile_of.items()}
        shifts = {group: _lonely_displacement(p) for group, p in profile_of.items()}
        base = np.empty((len(pids), len(SEGMENT_ORDER), k))
        noise = np.empty((len(pids), rows, k))
        uniforms = np.empty((len(pids), rows, k + 2))
        for i, pid in enumerate(pids):
            group = group_of[pid]
            shift = shifts[group] if scores[pid] > SCORE_THRESHOLD else 0.0
            base[i] = levels[group] + shift + traits[pid]
            _draw_week_rows(_sub_rng(seed, "records", week, pid), noise[i], uniforms[i])
        noise = noise.reshape(len(pids), 7, len(SEGMENT_ORDER), k)
        values = np.maximum(0.0, base[:, None] + DAY_NOISE * noise).reshape(-1, k)
        uniforms = uniforms.reshape(-1, k + 2)
        values[uniforms[:, 0] < OUTLIER_RECORD_RATE] *= OUTLIER_FACTOR
        values[uniforms[:, 1:-1] < MISSING_CELL_RATE] = np.nan
        token_of = {group: p.social_token for group, p in profile_of.items()}
        tokens = np.where(
            uniforms[:, -1] < MISSING_CELL_RATE,
            None,
            np.repeat(np.array([token_of[group_of[pid]] for pid in pids], dtype=object), rows),
        )
        order = (np.arange(len(pids))[:, None] * rows + _WEEK_ROWS).ravel()
        days = [(STUDY_START + timedelta(days=(week - 1) * 7 + d)).isoformat() for d in range(7)]
        return WeeklyBatch.from_columns(
            week=week,
            participant_ids=np.repeat(pids, rows),
            days=np.tile(np.repeat(days, len(SEGMENT_ORDER)), len(pids)),
            segments=np.tile(_WEEK_ROWS % len(SEGMENT_ORDER), len(pids)),
            continuous=dict(zip(sorted(FEATURES), values[order][:, _COLUMN_OF_FEATURE].T)),
            categorical={CATEGORICAL_FEATURE: tokens[order].tolist()},
            labels={pid: scores[pid] for pid in pids},
        )

    return _in_halves(generate_week, plan.weeks(), "generating")


def _in_halves(each: Callable, items: list, doing: str) -> list:
    """``[each(item) for item in items]``, the earlier half in this process
    and the later in one forked helper (`forking.side_by_side`): of two bad
    weeks, the earlier is named."""
    half = (len(items) + 1) // 2
    early, late = side_by_side(
        lambda: [each(item) for item in items[:half]],
        lambda: [each(item) for item in items[half:]],
        f"the helper {doing} the later weeks",
    )
    return early + late


# ---------------------------------------------------------------- file I/O

_CSV_COLUMNS = ("participant_id", "week", "day", "segment") + tuple(sorted(FEATURES)) + (
    CATEGORICAL_FEATURE,
)


_BLOCK_ROWS = 4096  # rows of a week file formatted and written per call


def _csv_cells(values) -> list[str]:
    """Each value as ``csv.writer`` writes it among other cells of a row,
    quoted only if it must be."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    cells = []
    for value in values:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((value, ""))
        cells.append(buffer.getvalue()[: -len(",\r\n")])
    return cells


def _write_week(path: Path, batch: WeeklyBatch) -> None:
    """A week file as ``csv.writer`` writes it row by row, with ``repr`` of
    each value, formatted in blocks of rows one column at a time: a block of
    a feature column is one ``str`` of its list (the same shortest
    round-trip text, NaN written blank); the other cells are looked up in
    tables of each column's distinct values, each quoted once."""
    days, day_codes = np.unique(batch.days, return_inverse=True)
    leads = [f"{p},{batch.week}" for p in _csv_cells(batch.participant_ids)]
    whens = [f"{d},{seg.value}" for d in _csv_cells(days.tolist()) for seg in SEGMENT_ORDER]
    tokens = _csv_cells(batch.tokens[0]) + [""]  # code -1 (missing) reads the blank
    leads, whens, tokens = (np.array(table, dtype=object) for table in (leads, whens, tokens))
    when_codes = day_codes * len(SEGMENT_ORDER) + batch.segments
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_csv_cells(_CSV_COLUMNS)) + "\r\n")
        for start in range(0, len(batch.records), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            features = [
                str(column.tolist())[1:-1].replace("nan", "").split(", ")
                for column in batch.records[rows].T
            ]
            lines = zip(
                leads[batch.participants[rows]].tolist(),
                whens[when_codes[rows]].tolist(),
                *features,
                tokens[batch.categories[rows, 0]].tolist(),
            )
            fh.write("\r\n".join(map(",".join, lines)) + "\r\n")


def write_cohort(out_dir: str | Path, batches: list[WeeklyBatch], plan: CohortPlan) -> None:
    """Write week_<n>.csv files (see `_in_halves`), labels.csv, and plan.json,
    once every batch's features are checked."""
    all_labels: dict[str, int] = {}
    for batch in batches:
        features = batch.continuous_features + batch.categorical_features
        if features != _CSV_COLUMNS[4:]:
            raise ValidationError(f"week {batch.week}: features {features} differ from the file's")
        all_labels.update(batch.labels)
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise ValidationError(f"cannot make output directory {out_dir}: it is a file")
    out.mkdir(parents=True, exist_ok=True)
    _in_halves(lambda batch: _write_week(out / f"week_{batch.week}.csv", batch), batches, "writing")
    with open(out / "labels.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["participant_id", "score"])
        writer.writerows(sorted(all_labels.items()))
    plan_doc = {
        "total_participants": plan.total_participants,
        "lonely_count": plan.lonely_count,
        "weekly_group_membership": {
            str(week): {g: sorted(m) for g, m in groups.items()}
            for week, groups in sorted(plan.weekly_group_membership.items())
        },
    }
    with open(out / "plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plan(path: str | Path) -> CohortPlan:
    """Load a CohortPlan from a UTF-8 JSON file; a file that cannot be read
    or is not UTF-8, or a plan that is not valid JSON, lacks a field or
    holds a value of the wrong kind, raises ValidationError naming the file.
    Both counts are JSON ints, ``lonely_count`` at least 0; the weeks are
    decimal numbers from 1, at least one of them; each group is a list of
    participant ids."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read plan file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
        total, lonely = doc["total_participants"], doc["lonely_count"]
        if type(total) is not int or type(lonely) is not int or lonely < 0:
            raise ValueError(
                f"total_participants {total!r} and lonely_count {lonely!r} must be ints, "
                "lonely_count at least 0"
            )
        membership: dict[int, dict[str, frozenset[str]]] = {}
        for week, groups in doc["weekly_group_membership"].items():
            number = int(week) if week.isascii() and week.isdecimal() else 0
            if number < 1 or number in membership:
                raise ValueError(f"week {week!r} is not a week number from 1, given once")
            for group, members in groups.items():
                if type(members) is not list or not all(type(m) is str for m in members):
                    raise ValueError(f"week {week}: group {group} is not a list of participant ids")
            membership[number] = {g: frozenset(m) for g, m in groups.items()}
        if not membership:
            raise ValueError("the plan has no weeks")
        return CohortPlan(total, lonely, membership)
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise ValidationError(f"malformed plan file {path}: {type(exc).__name__}: {exc}") from exc


_BLOCK_CHARS = 1 << 18  # characters of a file read and split per block


def _plain_columns(fh, width: int) -> list[list[str]] | None:
    """The cells of the rest of an open file as one list per column, if the
    file is plain: it has no ``"``, NUL or lone ``\\r``, no line longer than
    the csv module's field limit, and every nonblank line holds ``width - 1``
    commas. ``csv.reader`` would then split each line at its commas and skip
    the blank ones, which is done here a block of lines at a time, with no
    list per row; the text and lines of a block go before the next is read.
    Any other file gives None, as does a block whose lines do not all end
    in ``\\n`` or all in ``\\r\\n``."""
    limit = csv.field_size_limit()
    columns: list[list[str]] = [[] for _ in range(width)]
    rest = ""
    while True:
        chunk = fh.read(_BLOCK_CHARS)
        text = rest + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        text, rest = text[:cut], text[cut:]
        if len(rest) > limit or '"' in text or "\0" in text:
            return None
        if "\r" in text:
            lines = text.split("\r\n")
            if not text.count("\r") == text.count("\n") == len(lines) - 1:
                return None
        else:
            lines = text.split("\n")
        del text
        if "" in lines:
            lines = list(filter(None, lines))
        if lines:
            if max(map(len, lines)) > limit or set(map(str.count, lines, repeat(","))) != {width - 1}:
                return None
            cells = ",".join(lines).split(",")
            del lines
            for i, column in enumerate(columns):
                column.extend(cells[i::width])
        if not chunk:
            return columns


def _csv_rows(path: Path, columns: tuple[str, ...]) -> tuple[list[str], list[tuple[int, list]]]:
    """The reference read of a CSV file: its header, holding every name in
    ``columns``, and its nonblank rows, each with its line, by ``csv.reader``
    over the file's text, decoded at once. A file that is not UTF-8 (named
    first, at the line of its first bad byte), a cell over the csv module's
    field limit or a missing column raises ValidationError naming the file
    and the line."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}, line {line}: not UTF-8 text: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValidationError(f"{path}, line 1: missing columns {', '.join(missing)}")
        return header, [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from exc


def _read_csv(path: Path, columns: tuple[str, ...], convert):
    """``convert(*cells)`` of a CSV file's data rows, given one sequence of
    cells per name in ``columns``. A plain file (see ``_plain_columns``)
    whose header, read by ``csv.reader``, holds the columns is split into
    columns directly. Any other file, or one that ``convert`` rejects, is
    read by ``_csv_rows``, which names the first fault of its text; then a
    row with fewer cells than the header, or the first row ``convert``
    rejects, raises ValidationError naming its line."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh), [])
            plain = _plain_columns(fh, len(header)) if set(columns) <= set(header) else None
        except (UnicodeDecodeError, csv.Error):
            plain = None  # _csv_rows names the first fault
    if plain is not None:
        try:
            return convert(*[plain[header.index(c)] for c in columns])
        except (ValueError, KeyError, TypeError):
            pass
    header, rows = _csv_rows(path, columns)
    at = [header.index(c) for c in columns]
    if plain is None and all(len(row) >= len(header) for _, row in rows):
        cells = list(zip(*(row for _, row in rows))) or [()] * len(header)
        try:
            return convert(*[cells[i] for i in at])
        except (ValueError, KeyError, TypeError):
            pass
    for line, row in rows:
        try:
            if len(row) < len(header):
                raise ValueError(f"{len(row)} fields, the header has {len(header)}")
            convert(*[(row[i],) for i in at])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"{path}, line {line}: {exc}") from exc
    raise AssertionError(f"{path}: rejected as a whole, yet every row passes")


_SEGMENT_CODE = {seg.value: code for code, seg in enumerate(SEGMENT_ORDER)}


def _repeated_participant(path: Path) -> ValidationError:
    """The error for a labels file that gives a participant a second row,
    naming that row's line."""
    header, rows = _csv_rows(path, ("participant_id",))
    at = header.index("participant_id")
    seen: set[str] = set()
    for line, row in rows:
        if row[at] in seen:
            return ValidationError(f"{path}, line {line}: participant {row[at]} has a second row")
        seen.add(row[at])
    raise AssertionError(f"{path}: no participant has a second row")


def _feature_column(cells) -> np.ndarray:
    """A feature column: blank cells are missing (NaN), any other cell must
    be a finite number. One conversion of the whole column, with ``float``'s
    own parsing and errors."""
    values = np.array([c or "nan" for c in cells], dtype=float)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        if cells[i]:
            raise ValueError(f"feature value {cells[i]!r} is not a finite number")
    return values


def _week_columns(week: int):
    """Converter of a week_<n>.csv file's columns, checked against the file's
    week: distinct week, day and segment cells are checked once each."""

    def convert(pids, weeks, days, segments, *cells):
        for row_week in set(weeks):
            if int(row_week) != week:
                raise ValueError(f"row has week {row_week}, the file is week {week}")
        for day in set(days):
            if date.fromisoformat(day).isoformat() != day:
                raise ValueError(f"day {day!r} is not an ISO date (YYYY-MM-DD)")
        for segment in set(segments):
            if segment not in _SEGMENT_CODE:
                raise ValueError(f"unknown segment {segment!r}")
        features = [_feature_column(column) for column in cells[:-1]]
        tokens = [t or None for t in cells[-1]]
        return pids, days, [_SEGMENT_CODE[seg] for seg in segments], features, tokens

    return convert


def load_batches(data_dir: str | Path) -> list[WeeklyBatch]:
    """Read week_<n>.csv files plus labels.csv back into WeeklyBatch values,
    the week files in two halves side by side (`_in_halves`); a malformed
    file raises ValidationError naming it and, for a bad row, its line, and
    of two bad week files the earlier is named."""
    data = Path(data_dir)
    labels_path = data / "labels.csv"
    if not labels_path.exists():
        raise ValidationError(f"missing labels.csv in {data}")
    rows = _read_csv(
        labels_path,
        ("participant_id", "score"),
        lambda pids, scores: list(zip(pids, [validate_score(int(s)) for s in scores])),
    )
    labels = dict(rows)
    if len(labels) < len(rows):
        raise _repeated_participant(labels_path)

    week_files: dict[int, Path] = {}
    for path in sorted(data.glob("week_*.csv")):
        number = path.stem.removeprefix("week_")
        if not number.isdecimal():
            raise ValidationError(f"{path}: a week file must be named week_<n>.csv")
        week = int(number)
        if week in week_files:
            raise ValidationError(f"{week_files[week]} and {path} are both week {week}")
        week_files[week] = path
    if not week_files:
        raise ValidationError(f"no week_<n>.csv files found in {data}")

    def read_week(week: int) -> WeeklyBatch:
        columns = _read_csv(week_files[week], _CSV_COLUMNS, _week_columns(week))
        pids, days, segments, features, tokens = columns
        present = set(pids)  # keys from labels.csv keep no week row's cells alive
        return WeeklyBatch.from_columns(
            week=week,
            participant_ids=pids,
            days=days,
            segments=segments,
            continuous=dict(zip(sorted(FEATURES), features)),
            categorical={CATEGORICAL_FEATURE: tokens},
            labels={pid: score for pid, score in labels.items() if pid in present},
        )

    return _in_halves(read_week, sorted(week_files), "reading")
