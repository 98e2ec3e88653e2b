"""Evolving group-aware loneliness detection over weekly behavioral batches.

Incremental density clustering discovers behavioral cohorts as weekly
feature batches stream in; a generic classifier set and per-cohort
specialized sets are refreshed each week, and predictions come from
multi-model voting. A deterministic synthetic-cohort generator stands in
for the non-redistributable study data.
"""

from .cluster import ClusterRegistry, ClusterSnapshot, batch_dbscan, track_identity
from .core import (
    DaySegment,
    EngineConfig,
    LearnerConfig,
    WeeklyBatch,
    label_from_score,
    load_config,
)
from .engine import EngineState, WeeklyReport, load, new_state, run_replay, save, step
from .ensemble import ModelPool, ModelSet, VoteOutcome, vote
from .synthgen import (
    CohortPlan,
    GroupProfile,
    build_default_plan,
    build_default_profiles,
    generate_cohort,
    load_batches,
    write_cohort,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterRegistry",
    "ClusterSnapshot",
    "CohortPlan",
    "DaySegment",
    "EngineConfig",
    "EngineState",
    "GroupProfile",
    "LearnerConfig",
    "ModelPool",
    "ModelSet",
    "VoteOutcome",
    "WeeklyBatch",
    "WeeklyReport",
    "batch_dbscan",
    "build_default_plan",
    "build_default_profiles",
    "generate_cohort",
    "label_from_score",
    "load",
    "load_batches",
    "load_config",
    "new_state",
    "run_replay",
    "save",
    "step",
    "track_identity",
    "vote",
    "write_cohort",
]
