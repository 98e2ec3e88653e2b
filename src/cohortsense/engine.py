"""Weekly replay orchestration: ingest, cluster, refresh, vote, report.

One `step` per week, strictly in order. The step never mutates its input
state: it works on copies of the parts it changes in place, so any
mid-step failure leaves the caller holding the untouched pre-step state. All randomness derives from
(config.rng_seed, week, purpose), which makes checkpoint resume
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .cluster import ClusterRegistry, ClusterSnapshot
from .core import (
    EngineConfig,
    ValidationError,
    WeeklyBatch,
    _config_from_mapping,
    apportion,
    label_from_score,
    make_out_dir,
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
from .forking import side_by_side
from .learners import Dataset
from .learners.base import derive_seed
from .preprocess import (
    FittedPipeline,
    clean,
    fit_pipeline,
    pipeline_from_json,
    pipeline_to_json,
    vectorize_week,
)
from . import reporting

CHECKPOINT_SCHEMA_VERSION = 3


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
    # each log's `reporting.chain_digests` through current_week
    log_digests: dict[str, str] = field(
        default_factory=lambda: dict.fromkeys(reporting.LOGS, reporting.START_DIGEST)
    )

    @property
    def rows(self) -> list[str]:
        """The labeled point ids in arrival order: those whose participant has a score."""
        return [pt for pt in self.registry.point_ids if _participant(pt) in self.scores]


@dataclass(frozen=True)
class WeeklyReport:
    week: int
    assignments: dict[str, str | None]  # this week's point id -> cohort label
    eval_rows: list[EvalRow]
    votes: dict[str, VoteOutcome]  # participant id -> outcome
    events: tuple[str, ...]


def new_state(config: EngineConfig) -> EngineState:
    return EngineState(
        config=config,
        registry=ClusterRegistry(
            eps=config.eps,
            density_fraction=config.density_fraction,
            min_pts_floor=config.min_pts_floor,
        ),
    )


MAX_WEEK = 99  # point ids end in a two-digit week, so they sort by participant + "|", then week


def _point_id(pid: str, week: int) -> str:
    return f"{pid}|w{week:02d}"


def _participant(point_id: str) -> str:
    return point_id.rpartition("|")[0]


def _week_of(point_id: str) -> int:
    return int(point_id.rpartition("|w")[2])


def _check_batches(state: EngineState, batches: list[WeeklyBatch]) -> list[tuple]:
    """Refuse the first batch that `step` would refuse, each after the ones
    before it from ``state``; give each batch's pipeline and `clean` result,
    which `step` uses. Refused are a week out of order or past ``MAX_WEEK``,
    an empty batch, a score out of range or unlike the known one (one score
    labels all of a participant's points), a batch lacking a feature of the
    pipeline, a batch that cleaning refuses or, on a fresh state, whose
    pipeline fit fails, and, once the generic set exists, a batch in which
    no hold-out participant has a row that survives cleaning."""
    week, scores, pipeline = state.current_week, dict(state.scores), state.pipeline
    holdout, generic = state.holdout, state.pool.generic is not None
    threshold = state.config.score_threshold
    # participants with points: the generic set's rows, read until it exists
    with_points = set() if generic else set(map(_participant, state.registry.point_ids))
    prepared = []
    for batch in batches:
        week += 1
        if batch.week != week:
            raise ValidationError(f"batch week {batch.week} out of order: missing week {week}")
        if week > MAX_WEEK:
            raise ValidationError(f"batch week {week} above the last replayable week {MAX_WEEK}")
        if not len(batch.records):
            raise ValidationError(f"week {week}: empty batch")
        for pid, score in sorted(batch.labels.items()):
            try:
                validate_score(score)
            except ValidationError as exc:
                raise ValidationError(f"week {week}: participant {pid}: {exc}") from None
            if scores.setdefault(pid, score) != score:
                raise ValidationError(
                    f"week {week}: participant {pid} has score {score}, "
                    f"but an earlier week gave {scores[pid]}"
                )
        wanted = pipeline or batch  # a fresh state fits its pipeline on this batch
        missing = [n for n in wanted.continuous_features if n not in batch.continuous_features]
        missing += [n for n in wanted.categorical_features if n not in batch.categorical_features]
        if missing:
            raise ValidationError(f"week {week}: batch lacks the pipeline's features {missing}")
        try:
            cleaned = clean(batch)
            pipeline = pipeline or fit_pipeline(batch, state.config.pca_variance_target, cleaned)
        except ValidationError as exc:
            raise ValidationError(f"week {week}: {exc}") from None
        prepared.append((pipeline, cleaned))
        codes = np.unique(batch.participants[cleaned[0]]).tolist()
        kept = {batch.participant_ids[c] for c in codes}  # the participants `step` vectorizes
        if not holdout and scores:
            holdout = _pick_holdout(scores, state.config)
        if not generic:  # `refresh_generic` fits once the training rows hold both labels
            with_points |= kept
            train = (with_points & scores.keys()) - holdout
            generic = len({label_from_score(scores[p], threshold) for p in train}) == 2
        if generic and kept.isdisjoint(holdout):
            raise ValidationError(f"week {week}: empty hold-out: no hold-out row survives cleaning")
    return prepared


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


def _refresh_side_by_side(
    pool: ModelPool,
    snapshot: ClusterSnapshot,
    train: Dataset,
    config: EngineConfig,
    week: int,
) -> tuple[ModelPool, list[str]]:
    """Refit the generic set in this process while one forked helper refits
    the specialized sets (`forking.side_by_side`); the events come generic
    first, then specialized.

    The two refreshes share no state and draw every seed from `derive_seed`,
    so side by side they give the bytes they give in turn.
    """
    generic_seed = derive_seed(config.rng_seed, "generic", week)
    specialized_seed = derive_seed(config.rng_seed, "specialized", week)

    def specialized() -> tuple[dict, list[str]]:
        new, events = refresh_specialized(pool, snapshot, train, config, specialized_seed, week)
        return new.specialized, events

    (generic, events), (sets, helper_events) = side_by_side(
        lambda: refresh_generic(pool, train, config, generic_seed, week),
        specialized,
        f"week {week}: the specialized refresh helper",
    )
    return ModelPool(generic=generic.generic, specialized=sets), events + helper_events


def step(state: EngineState, batch: WeeklyBatch, checked=None) -> tuple[EngineState, WeeklyReport]:
    """Run one week: preprocess, cluster, refresh models (the generic and
    specialized sets side by side, see `_refresh_side_by_side`), vote,
    evaluate. ``checked`` is the batch's `_check_batches` entry, when the
    caller has checked it already."""
    pipeline, cleaned = checked or _check_batches(state, [batch])[0]

    # the registry and the scores change in place; every other part is replaced
    st = replace(state, registry=state.registry.copy(), scores=dict(state.scores))
    week = batch.week
    events: list[str] = []

    # one pipeline, fitted on week 1 by the check, so that every point shares it
    if st.pipeline is None:
        st.pipeline = pipeline
        events.append(f"week {week}: preprocessing pipeline fitted")

    # this week's participants in id order, with their vectors and points
    pids, X, omitted = vectorize_week(batch, st.pipeline, cleaned)
    for pid in omitted:
        events.append(f"week {week}: participant {pid} omitted, no surviving records")
    week_points = {pid: _point_id(pid, week) for pid in pids}
    st.registry.insert(week_points.values(), X)
    snapshot = st.registry.snapshot()

    st.scores.update(batch.labels)
    if not st.holdout and st.scores:
        st.holdout = _pick_holdout(st.scores, st.config)
        events.append(
            f"week {week}: fixed hold-out of {len(st.holdout)} participants"
        )

    # a participant's one score labels every point of theirs
    label = {pid: label_from_score(s, st.config.score_threshold) for pid, s in st.scores.items()}
    # point ids are unique and sort by participant + "|", then by week ("P001s10|w01"
    # before "P001s1|w01"); as the dataset's row ids they give every seeded
    # learner a canonical ordering
    train_ids = [pt for pt in st.rows if _participant(pt) not in st.holdout]
    train = Dataset(
        vectors=st.registry.vectors(train_ids),
        labels=np.array([label[_participant(pt)] for pt in train_ids], dtype=int),
        participant_ids=tuple(train_ids),
    )
    st.pool, refresh_events = _refresh_side_by_side(st.pool, snapshot, train, st.config, week)
    events.extend(refresh_events)

    label_of = {pt: label for label, members in snapshot.cohorts.items() for pt in members}
    assignments = {pt: label_of.get(pt) for pt in week_points.values()}

    votes: dict[str, VoteOutcome] = {}
    eval_rows: list[EvalRow] = []
    if st.pool.generic is not None:
        held = [pt for pt in week_points.values() if _participant(pt) in st.holdout]
        votes = dict(zip(week_points, vote(st.pool, X, list(assignments.values()))))
        eval_rows = evaluate_week(
            [label[_participant(pt)] for pt in held],
            [assignments[pt] for pt in held],
            [votes[_participant(pt)] for pt in held],
        )

    st.current_week = week
    report = WeeklyReport(
        week=week,
        assignments=assignments,
        eval_rows=eval_rows,
        votes=votes,
        events=tuple(events),
    )
    st.log_digests = reporting.chain_digests(st.log_digests, report)
    return st, report


# ---------------------------------------------------------------- checkpoints


def save(state: EngineState, path: str | Path) -> Path:
    """Write the full engine state as a gzip-compressed JSON checkpoint.

    Each point's vector is stored once, in the registry, under its point id;
    its label is derived from its participant's score, and its cohort in
    the last snapshot is one entry of the registry's ``prev_memberships``,
    a label or null per registry row. Each tree of a forest or GBT model
    is one list of its nodes in pre-order (`trees.NodeTable`), about half
    the text of one JSON object per node. ``log_digests`` holds each run
    log's hash chain through the current week, which a resume checks the
    logs it keeps against (`reporting.start_run_log`). The payload is
    deflated at level 7 with zlib's filtered strategy, which prefers
    Huffman-coded literals to short matches: on a payload that is mostly
    decimal digits it saves about 7-9% of level 9's default-strategy bytes
    in under half the time. The gzip header names no file and has mtime 0, so
    a checkpoint's bytes do not depend on its path; they do depend on the
    linked zlib's deflate, as they did at level 9.
    """
    out = Path(path)
    payload = _payload(_state_to_json(state))
    # wbits 31: a gzip member, whose header zlib writes with no name, mtime 0
    deflate = zlib.compressobj(7, zlib.DEFLATED, 31, 8, zlib.Z_FILTERED)
    data = deflate.compress(payload) + deflate.flush()
    # write beside the target and rename over it, so that a failed write
    # leaves the previous checkpoint in place
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as raw:
            raw.write(data)
            raw.flush()
            os.fsync(raw.fileno())
        os.replace(tmp, out)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(f"cannot write checkpoint {out}: {exc}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return out


def _state_to_json(state: EngineState) -> dict:
    """The checkpoint document: the one layout `save` writes and `load` reads."""
    return {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": asdict(state.config),
        "current_week": state.current_week,
        "pipeline": None if state.pipeline is None else pipeline_to_json(state.pipeline),
        "registry": state.registry.to_json(),
        "pool": pool_to_json(state.pool),
        "holdout": sorted(state.holdout),
        "scores": dict(sorted(state.scores.items())),
        "log_digests": state.log_digests,
    }


def _payload(doc: dict) -> bytes:
    """The checkpoint text before deflation: the document's sorted-key JSON."""
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def load(path: str | Path) -> EngineState:
    """Read a checkpoint that `save` wrote. A payload that is not the text
    `save` would write for the state it gives, byte for byte, is refused
    with `CheckpointError`: so is an int stored as an equal float."""
    try:
        with gzip.open(path, "rb") as fh:
            payload = fh.read()
        doc = json.loads(payload.decode("utf-8"))
    except (OSError, EOFError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema version {version!r}, "
            f"expected {CHECKPOINT_SCHEMA_VERSION}"
        )
    try:
        state = _state_from_json(doc)
        written = _state_to_json(state)
    except (
        KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError
    ) as exc:
        raise CheckpointError(
            f"malformed checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from exc
    if _payload(written) != payload:
        # name the parts whose own text differs
        differ = [
            k
            for k in sorted(doc.keys() | written.keys())
            if k not in doc
            or k not in written
            or json.dumps(doc[k], sort_keys=True) != json.dumps(written[k], sort_keys=True)
        ]
        raise CheckpointError(
            f"checkpoint {path} is not laid out as save writes it: "
            f"{', '.join(differ) or 'its key order or spacing'} differ"
        )
    return state


def _state_from_json(doc: dict) -> EngineState:
    config = _config_from_mapping(doc["config"])
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
    digests = doc["log_digests"]
    if not (
        isinstance(digests, dict)
        and digests.keys() == reporting.LOGS.keys()
        and all(isinstance(d, str) and re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())
    ):
        raise ValidationError("log digests are not one sha256 hex digest per log")
    return EngineState(
        config=config,
        current_week=week,
        pipeline=pipeline,
        registry=registry,
        pool=pool,
        holdout=frozenset(holdout),
        scores=scores,
        log_digests=digests,
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
    cover consecutive weeks continuing from the state's current week, and
    each is checked as `step` checks it before any path is touched. Each
    week's files are written, and its lines appended to `runlog.jsonl` and
    `summary.csv`, as the week completes, before its checkpoint is saved.
    A fresh replay starts both logs anew; a resume keeps their lines of the
    weeks already done, so that resuming an interrupted run into its own
    directory gives the files of an uninterrupted replay; kept lines that do
    not chain to the state's `log_digests` are rejected before any file is
    written. The `plot` charts are drawn at the end, from every week's
    summary rows. A checkpoint path that is a directory or the output
    directory is rejected before any file is written, as is one whose
    directory does not exist and is not the output directory, and an
    output directory that is a file or lies below one.
    """
    if isinstance(config_or_state, EngineState):
        state = config_or_state
    else:
        state = new_state(config_or_state)

    checked = _check_batches(state, batches)
    out = Path(out_dir) if out_dir is not None else None
    if checkpoint_path is not None:
        ckpt = Path(checkpoint_path)
        # the output directory is made below, so the checkpoint may go in it
        if ckpt.is_dir() or (out is not None and ckpt.resolve() == out.resolve()):
            raise ValidationError(f"cannot write checkpoint {checkpoint_path}: it is a directory")
        if not ckpt.parent.is_dir() and (out is None or ckpt.parent.resolve() != out.resolve()):
            raise ValidationError(
                f"cannot write checkpoint {checkpoint_path}: no directory {ckpt.parent}"
            )
    if out is not None:
        make_out_dir(out_dir)
        reporting.start_run_log(out, state.current_week, state.log_digests)

    reports: list[WeeklyReport] = []
    for batch, prepared in zip(batches, checked):
        state, report = step(state, batch, prepared)
        reports.append(report)
        if out is not None:
            reporting.write_weekly_report(out, report)
            reporting.write_clusters(out, report)
            reporting.write_votes(out, report)
            reporting.append_run_log(out, report)
            reporting.write_summary(out, report)
        if checkpoint_path is not None:
            save(state, checkpoint_path)
    if out is not None and plot and reports:
        reporting.write_metric_charts(out)
    return reports, state
