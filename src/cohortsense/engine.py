"""Weekly replay orchestration: ingest, cluster, refresh, vote, report.

One `step` per week, strictly in order. The step never mutates its input
state: all work happens on a copy, so any mid-step failure leaves the
caller holding the untouched pre-step state. All randomness derives from
(config.rng_seed, week, purpose), which makes checkpoint resume
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import gzip
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .cluster import ClusterRegistry
from .core import (
    EngineConfig,
    ValidationError,
    WeeklyBatch,
    _config_from_mapping,
    apportion,
    label_from_score,
    validate_score,
)
from .ensemble import (
    EvalRow,
    ModelPool,
    VoteOutcome,
    evaluate_week,
    pool_from_json,
    pool_to_json,
    refresh_generic,
    refresh_specialized,
    vote,
)
from .learners import Dataset
from .learners.base import derive_seed
from .preprocess import (
    FittedPipeline,
    fit_pipeline,
    pipeline_from_json,
    pipeline_to_json,
    vectorize_week,
)
from . import reporting

CHECKPOINT_SCHEMA_VERSION = 1


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, or version-mismatched checkpoints."""


@dataclass
class EngineState:
    config: EngineConfig
    registry: ClusterRegistry
    current_week: int = 0
    pipeline: FittedPipeline | None = None
    pool: ModelPool = field(default_factory=ModelPool)
    holdout: frozenset[str] = frozenset()
    scores: dict[str, int] = field(default_factory=dict)

    @property
    def rows(self) -> list[str]:
        """The labeled point ids in arrival order: those whose participant has a score."""
        return [pt for pt in self.registry.point_ids if _participant(pt) in self.scores]

    def copy(self) -> "EngineState":
        return EngineState(
            config=self.config,
            current_week=self.current_week,
            pipeline=self.pipeline,
            registry=self.registry.copy(),
            pool=ModelPool(
                generic=self.pool.generic, specialized=dict(self.pool.specialized)
            ),
            holdout=self.holdout,
            scores=dict(self.scores),
        )


@dataclass(frozen=True)
class WeeklyReport:
    week: int
    assignments: dict[str, str | None]  # this week's point id -> cohort label
    eval_rows: list[EvalRow]
    votes: dict[str, VoteOutcome]  # participant id -> outcome
    events: tuple[str, ...]

    # the week's counts, all derived from the assignments
    @property
    def cohort_sizes(self) -> dict[str, int]:
        return dict(Counter(sorted(a for a in self.assignments.values() if a is not None)))

    @property
    def noise_count(self) -> int:
        return sum(a is None for a in self.assignments.values())

    @property
    def participants_seen(self) -> int:
        return len(self.assignments)


def new_state(config: EngineConfig) -> EngineState:
    return EngineState(
        config=config,
        registry=ClusterRegistry(
            eps=config.eps,
            density_fraction=config.density_fraction,
            min_pts_floor=config.min_pts_floor,
        ),
    )


MAX_WEEK = 99  # point ids end in a two-digit week, so they sort by (participant, week)


def _point_id(pid: str, week: int) -> str:
    return f"{pid}|w{week:02d}"


def _participant(point_id: str) -> str:
    return point_id.rpartition("|")[0]


def _week_of(point_id: str) -> int:
    return int(point_id.rpartition("|w")[2])


def _check_batch(batch: WeeklyBatch, scores: dict[str, int]) -> None:
    """Reject a week past ``MAX_WEEK``, and a score that differs from the
    known one: a participant's one score labels all of their points."""
    if batch.week > MAX_WEEK:
        raise ValidationError(
            f"batch week {batch.week} above the last replayable week {MAX_WEEK}"
        )
    for pid, score in sorted(batch.labels.items()):
        if scores.get(pid, score) != score:
            raise ValidationError(
                f"week {batch.week}: participant {pid} has score {score}, "
                f"but an earlier week gave {scores[pid]}"
            )


def _pick_holdout(scores: dict[str, int], config: EngineConfig) -> frozenset[str]:
    """Stratified participant hold-out, fixed once labels first arrive."""
    total = len(scores)
    target = int(round(config.holdout_fraction * total))
    by_label: dict[int, list[str]] = {0: [], 1: []}
    for pid in sorted(scores):
        by_label[label_from_score(scores[pid], config.score_threshold)].append(pid)
    sizes = {lab: len(pids) for lab, pids in by_label.items()}
    counts = apportion(target, sizes, sizes)
    rng = np.random.default_rng(derive_seed(config.rng_seed, "holdout"))
    chosen: set[str] = set()
    for lab in sorted(counts):
        if counts[lab]:
            chosen.update(rng.choice(by_label[lab], size=counts[lab], replace=False).tolist())
    return frozenset(chosen)


def step(state: EngineState, batch: WeeklyBatch) -> tuple[EngineState, WeeklyReport]:
    """Run one week: preprocess, cluster, refresh models, vote, evaluate."""
    _check_batch(batch, state.scores)
    if batch.week != state.current_week + 1:
        raise ValidationError(
            f"batch week {batch.week} out of order; expected week "
            f"{state.current_week + 1}"
        )
    if not len(batch.records):
        raise ValidationError(f"week {batch.week}: empty batch")

    st = state.copy()
    week = batch.week
    events: list[str] = []

    # fitted once, at week 1, so that every point shares one projection
    if st.pipeline is None:
        st.pipeline = fit_pipeline(batch, st.config.pca_variance_target)
        events.append(f"week {week}: preprocessing pipeline fitted")

    # this week's participants in id order, with their vectors and points
    pids, X, omitted = vectorize_week(batch, st.pipeline)
    for pid in omitted:
        events.append(f"week {week}: participant {pid} omitted, no surviving records")
    week_points = {pid: _point_id(pid, week) for pid in pids}
    for pid, x in zip(pids, X):
        st.registry.insert(week_points[pid], x)
    snapshot = st.registry.snapshot()

    st.scores.update(batch.labels)
    if not st.holdout and st.scores:
        st.holdout = _pick_holdout(st.scores, st.config)
        events.append(
            f"week {week}: fixed hold-out of {len(st.holdout)} participants"
        )

    # a participant's one score labels every point of theirs
    label = {pid: label_from_score(s, st.config.score_threshold) for pid, s in st.scores.items()}
    # point ids are unique and sort by (participant, week); as the dataset's
    # row ids they give every seeded learner a canonical ordering
    train_ids = [pt for pt in st.rows if _participant(pt) not in st.holdout]
    train = Dataset(
        vectors=st.registry.vectors(train_ids),
        labels=np.array([label[_participant(pt)] for pt in train_ids], dtype=int),
        participant_ids=tuple(train_ids),
    )
    st.pool, gen_events = refresh_generic(
        st.pool, train, st.config, derive_seed(st.config.rng_seed, "generic", week), week
    )
    events.extend(gen_events)
    st.pool, spec_events = refresh_specialized(
        st.pool,
        snapshot,
        train,
        st.config,
        derive_seed(st.config.rng_seed, "specialized", week),
        week,
    )
    events.extend(spec_events)

    label_of = {pt: label for label, members in snapshot.cohorts.items() for pt in members}
    assignments = {pt: label_of.get(pt) for pt in week_points.values()}

    votes: dict[str, VoteOutcome] = {}
    eval_rows: list[EvalRow] = []
    if st.pool.generic is not None:
        held = [pt for pt in week_points.values() if _participant(pt) in st.holdout]
        if not held:
            raise ValidationError(f"week {week}: empty hold-out, cannot evaluate")
        votes = dict(zip(week_points, vote(st.pool, X, list(assignments.values()))))
        eval_rows = evaluate_week(
            [label[_participant(pt)] for pt in held],
            [assignments[pt] for pt in held],
            [votes[_participant(pt)] for pt in held],
        )

    st.current_week = week
    return st, WeeklyReport(
        week=week,
        assignments=assignments,
        eval_rows=eval_rows,
        votes=votes,
        events=tuple(events),
    )


# ---------------------------------------------------------------- checkpoints


def save(state: EngineState, path: str | Path) -> Path:
    """Write the full engine state as a gzip-compressed JSON checkpoint.

    Each point's vector is stored once, in the registry, under its point id;
    its label is derived from its participant's score.
    """
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": asdict(state.config),
        "current_week": state.current_week,
        "pipeline": None if state.pipeline is None else pipeline_to_json(state.pipeline),
        "registry": state.registry.to_json(),
        "pool": pool_to_json(state.pool),
        "holdout": sorted(state.holdout),
        "scores": dict(sorted(state.scores.items())),
    }
    out = Path(path)
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    # write beside the target and rename over it, so that a failed write
    # leaves the previous checkpoint in place; the gzip header names the
    # final file, so the bytes equal a direct write to it
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as raw:
            with gzip.GzipFile(filename=out.name, fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(payload)
            raw.flush()
            os.fsync(raw.fileno())
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return out


def load(path: str | Path) -> EngineState:
    try:
        with gzip.open(path, "rb") as fh:
            payload = fh.read()
        doc = json.loads(payload.decode("utf-8"))
    except (OSError, EOFError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema version {version!r}, "
            f"expected {CHECKPOINT_SCHEMA_VERSION}"
        )
    try:
        return _state_from_json(doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"malformed checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _state_from_json(doc: dict) -> EngineState:
    # keys are picked one by one, so the keys an older writer added (labeled
    # rows, row vectors, the run log, copies of config values, each model
    # set's scope and week, GBT training losses) are ignored
    config_doc = dict(doc["config"])
    # an older writer stored the pipeline refit cadence; only 0, fit once
    # at week 1, is the behaviour a resume can reproduce
    if config_doc.pop("refit_every_n_weeks", 0) != 0:
        raise ValidationError("refit_every_n_weeks must be 0: the pipeline is fitted once")
    config = _config_from_mapping(config_doc)
    registry = ClusterRegistry.from_json(doc["registry"])
    for key in ("eps", "density_fraction", "min_pts_floor"):
        if getattr(registry, key) != getattr(config, key):
            raise ValidationError(f"registry {key} differs from the config's value")
    pipeline = None if doc["pipeline"] is None else pipeline_from_json(doc["pipeline"])
    pool = pool_from_json(doc["pool"])
    # the width the pipeline projects to and the model sets read
    widths = {s.input_dim for s in (pool.generic, *pool.specialized.values()) if s is not None}
    if pipeline is not None:
        widths.add(len(pipeline.projector.components))
    if registry.point_count and widths - {registry.dim}:
        raise ValidationError(
            f"registry vectors have width {registry.dim}; the pipeline and models {sorted(widths)}"
        )
    scores = {pid: validate_score(s) for pid, s in doc["scores"].items()}
    holdout = doc["holdout"]
    if not isinstance(holdout, list) or not set(holdout) <= scores.keys():
        raise ValidationError("hold-out is not a list of scored participant ids")
    week = doc["current_week"]
    last = max(map(_week_of, registry.point_ids), default=0)
    if type(week) is not int or not last <= week <= MAX_WEEK:
        raise ValidationError(f"current week {week!r} is not an int in [{last}, {MAX_WEEK}]")
    return EngineState(
        config=config,
        current_week=week,
        pipeline=pipeline,
        registry=registry,
        pool=pool,
        holdout=frozenset(holdout),
        scores=scores,
    )


# ---------------------------------------------------------------- replay


def run_replay(
    config_or_state: EngineConfig | EngineState,
    batches: list[WeeklyBatch],
    out_dir: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
    plot: bool = False,
) -> tuple[list[WeeklyReport], EngineState]:
    """Fold `step` over consecutive weekly batches, writing reports as files.

    Accepts either a fresh config or a loaded state (resume). Batches must
    cover consecutive weeks continuing from the state's current week. On a
    resume, `runlog.jsonl` and `summary.csv` keep the lines an earlier run
    wrote for the weeks already done, and the charts are drawn from every
    week's summary rows, so the files match those of an uninterrupted
    replay; a fresh replay starts them anew.
    """
    if isinstance(config_or_state, EngineState):
        state = config_or_state
    else:
        state = new_state(config_or_state)

    expected = state.current_week + 1
    scores = dict(state.scores)
    for batch in batches:
        _check_batch(batch, scores)
        scores.update(batch.labels)
        if batch.week != expected:
            raise ValidationError(
                f"missing week {expected}: next batch is week {batch.week}"
            )
        expected += 1

    out = Path(out_dir) if out_dir is not None else None
    start_week = state.current_week
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        reporting.start_run_log(out, keep_through=start_week)

    reports: list[WeeklyReport] = []
    for batch in batches:
        state, report = step(state, batch)
        reports.append(report)
        if out is not None:
            reporting.write_weekly_report(out, report)
            reporting.write_clusters(out, report)
            reporting.write_votes(out, report)
            reporting.append_run_log(out, report)
        if checkpoint_path is not None:
            save(state, checkpoint_path)
    if out is not None and reports:
        reporting.write_summary(out, reports, keep_through=start_week)
        if plot:
            reporting.write_metric_charts(out)
    return reports, state
