"""Tests for the weekly replay engine: stepping, checkpoints, reports."""

import dataclasses
import gzip
import hashlib
import json
import os
import random
import re
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohortsense import engine
from cohortsense.core import EngineConfig, LearnerConfig, ValidationError
from cohortsense.engine import (
    CheckpointError,
    load,
    new_state,
    run_replay,
    save,
    step,
)
from cohortsense.learners.base import derive_seed
from cohortsense.synthgen import (
    CohortPlan,
    build_default_profiles,
    generate_cohort,
)

from columns import batch_of
from gzipped import write_gzip

FAST_CONFIG = EngineConfig(
    cv_folds=3,
    rng_seed=5,
    learners=LearnerConfig(forest_trees=10, forest_depth=4, gbt_rounds=10),
)


def mini_plan(weeks=3, per_group=14):
    pids = [f"P{i:03d}" for i in range(1, 3 * per_group + 1)]
    groups = {
        "G1": frozenset(pids[:per_group]),
        "G2": frozenset(pids[per_group : 2 * per_group]),
        "G3": frozenset(pids[2 * per_group :]),
    }
    lonely = round(len(pids) * 87 / 205)
    return CohortPlan(
        total_participants=len(pids),
        lonely_count=lonely,
        weekly_group_membership={w: dict(groups) for w in range(1, weeks + 1)},
    )


@pytest.fixture(scope="module")
def profiles():
    return build_default_profiles()


@pytest.fixture(scope="module")
def mini_batches(profiles):
    return generate_cohort(mini_plan(), profiles, seed=3)


def test_step_rejects_out_of_order_week(mini_batches):
    state = new_state(FAST_CONFIG)
    with pytest.raises(ValidationError, match="out of order"):
        step(state, mini_batches[1])


def test_step_rejects_a_changed_score_and_keeps_the_state(mini_batches):
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    batch = mini_batches[1]
    pid = min(batch.labels)
    changed = dict(batch.labels, **{pid: 40 if batch.labels[pid] < 40 else 10})
    with pytest.raises(ValidationError, match=f"participant {pid} has score"):
        step(state, dataclasses.replace(batch, labels=changed))
    after, report = step(state, batch)
    _, straight = step(step(new_state(FAST_CONFIG), mini_batches[0])[0], batch)
    assert after.current_week == 2 and report == straight


def test_step_rejects_a_batch_lacking_a_pipeline_feature_and_keeps_the_state(mini_batches):
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    before = engine._payload(engine._state_to_json(state))
    batch = mini_batches[1]
    j = batch.continuous_features.index("sms_count")
    lacking = dataclasses.replace(
        batch,
        continuous_features=batch.continuous_features[:j] + batch.continuous_features[j + 1 :],
        records=np.delete(batch.records, j, axis=1),
    )
    message = r"week 2: batch lacks the pipeline's features \['sms_count'\]"
    with pytest.raises(ValidationError, match=message):
        step(state, lacking)
    assert engine._payload(engine._state_to_json(state)) == before
    after, report = step(state, batch)
    _, straight = step(step(new_state(FAST_CONFIG), mini_batches[0])[0], batch)
    assert after.current_week == 2 and report == straight
    assert engine._payload(engine._state_to_json(state)) == before


def test_a_score_labels_every_point_of_its_participant(mini_batches):
    first, second = mini_batches[:2]
    pid = max(first.labels)
    unlabeled = {p: s for p, s in first.labels.items() if p != pid}
    state, _ = step(new_state(FAST_CONFIG), dataclasses.replace(first, labels=unlabeled))
    assert f"{pid}|w01" in state.registry.point_ids
    assert f"{pid}|w01" not in state.rows
    state, _ = step(state, second)
    assert f"{pid}|w01" in state.rows
    assert state.rows == list(state.registry.point_ids)


def test_step_rejects_empty_batch(mini_batches):
    state = new_state(FAST_CONFIG)
    with pytest.raises(ValidationError, match="empty"):
        step(state, batch_of([], week=1))


def test_step_week_one_fits_pipeline_and_reports(mini_batches):
    state = new_state(FAST_CONFIG)
    state, report = step(state, mini_batches[0])
    assert state.current_week == 1
    assert state.pipeline is not None
    assert state.pool.generic is not None
    assert report.week == 1
    assert report.assignments
    # every vectorized participant has one point, in a cohort or noise, and a vote
    assert sorted(report.votes) == sorted(pt.split("|")[0] for pt in report.assignments)
    assert any(er.scope == "voting" for er in report.eval_rows)


def test_step_does_not_mutate_input_state(mini_batches):
    state0 = new_state(FAST_CONFIG)
    state1, _ = step(state0, mini_batches[0])
    assert state0.current_week == 0
    assert state0.registry.point_count == 0
    assert state0.pool.generic is None
    assert state1.registry.point_count > 0


def test_step_failure_leaves_prior_state_usable(mini_batches, profiles):
    state = new_state(FAST_CONFIG)
    state, _ = step(state, mini_batches[0])
    # a week-2 batch whose only feature values are missing fails mid-step
    from cohortsense.core import DaySegment

    bad = batch_of(
        [("P001", "2019-04-08", seg, {"physical_activity": None}, {}) for seg in DaySegment],
        week=2,
    )
    points_before = state.registry.point_count
    with pytest.raises(ValidationError):
        step(state, bad)
    assert state.registry.point_count == points_before
    # the unharmed state still accepts the real week-2 batch
    state2, report2 = step(state, mini_batches[1])
    assert report2.week == 2


def test_step_deterministic(mini_batches):
    runs = []
    for _ in range(2):
        state = new_state(FAST_CONFIG)
        reports = []
        for batch in mini_batches:
            state, report = step(state, batch)
            reports.append(report)
        runs.append(reports)
    for a, b in zip(*runs):
        assert a.assignments == b.assignments
        assert a.votes == b.votes
        assert [r.metrics for r in a.eval_rows] == [r.metrics for r in b.eval_rows]


def test_holdout_fixed_and_stratified(mini_batches):
    state = new_state(FAST_CONFIG)
    state, _ = step(state, mini_batches[0])
    holdout = state.holdout
    assert len(holdout) == round(0.2 * len(state.scores))
    state, _ = step(state, mini_batches[1])
    assert state.holdout == holdout  # fixed at week 1
    lonely = sum(1 for pid in holdout if state.scores[pid] > 20)
    total_lonely = sum(1 for s in state.scores.values() if s > 20)
    expected = round(0.2 * total_lonely)
    assert abs(lonely - expected) <= 1


# ---------------------------------------------------------------- side-by-side refresh


def refresh_in_turn(pool, snapshot, train, config, week):
    """The two refreshes run one after the other in this process."""
    pool, events = engine.refresh_generic(
        pool, train, config, derive_seed(config.rng_seed, "generic", week), week
    )
    pool, more = engine.refresh_specialized(
        pool, snapshot, train, config, derive_seed(config.rng_seed, "specialized", week), week
    )
    return pool, events + more


def test_side_by_side_refresh_gives_the_states_and_reports_of_the_refreshes_in_turn(
    tmp_path, mini_batches, monkeypatch
):
    runs = []
    for name in ("side_by_side", "in_turn"):
        if name == "in_turn":
            monkeypatch.setattr(engine, "_refresh_side_by_side", refresh_in_turn)
        state, reports, checkpoints = new_state(FAST_CONFIG), [], []
        for batch in mini_batches:
            state, report = step(state, batch)
            reports.append(report)
            checkpoints.append(save(state, tmp_path / f"{name}.csk").read_bytes())
        runs.append((reports, checkpoints))
        assert state.pool.specialized  # so that the helper had sets to send
    assert runs[0] == runs[1]


def test_an_error_in_the_specialized_refresh_reaches_the_caller(mini_batches, monkeypatch):
    def refuse(*args):
        raise ValidationError("cohort G2 refused")

    monkeypatch.setattr(engine, "refresh_specialized", refuse)
    with pytest.raises(ValidationError) as info:
        step(new_state(FAST_CONFIG), mini_batches[0])
    assert type(info.value) is ValidationError and str(info.value) == "cohort G2 refused"
    # the helper's traceback rides along as the cause
    assert "in refuse" in str(info.value.__cause__)


class NeedsTwoArguments(Exception):
    """Pickles, but does not unpickle: pickle calls the class with ``args``."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def test_an_error_that_does_not_survive_pickling_is_a_runtime_error_naming_it(
    mini_batches, monkeypatch
):
    class LocalError(Exception):
        """Cannot be pickled: pickle finds a class by its module and name."""

    for error in (LocalError("stays in the helper"), NeedsTwoArguments("cohort G2", "refused")):

        def fail(*args, error=error):
            raise error

        monkeypatch.setattr(engine, "refresh_specialized", fail)
        with pytest.raises(RuntimeError) as info:
            step(new_state(FAST_CONFIG), mini_batches[0])
        assert type(info.value) is RuntimeError
        assert str(info.value) == f"{type(error).__name__}: {error}"


@pytest.mark.parametrize(
    "end, message",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "(killed by signal 9)"),
        (lambda: os._exit(3), "(exit status 3)"),
    ],
    ids=["killed", "exited"],
)
def test_a_helper_that_ends_without_a_result_is_an_error(mini_batches, monkeypatch, end, message):
    monkeypatch.setattr(engine, "refresh_specialized", lambda *args: end())
    state = new_state(FAST_CONFIG)
    with pytest.raises(ChildProcessError, match=re.escape(message)):
        step(state, mini_batches[0])
    assert state.current_week == 0 and state.pool.generic is None


@pytest.mark.parametrize(
    "error", [ValidationError("generic refit refused"), KeyboardInterrupt()], ids=repr
)
def test_a_failed_generic_refresh_kills_and_reaps_the_helper(
    tmp_path, mini_batches, monkeypatch, error
):
    pid_file = tmp_path / "helper.pid"

    def hang(*args):
        (tmp_path / "pid.tmp").write_text(str(os.getpid()))
        (tmp_path / "pid.tmp").rename(pid_file)
        time.sleep(60)

    def fail_once_the_helper_runs(*args):
        deadline = time.monotonic() + 30
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise error

    monkeypatch.setattr(engine, "refresh_specialized", hang)
    monkeypatch.setattr(engine, "refresh_generic", fail_once_the_helper_runs)
    start = time.monotonic()
    with pytest.raises(type(error)):
        step(new_state(FAST_CONFIG), mini_batches[0])
    assert time.monotonic() - start < 30
    # reaped: a zombie would still take the signal
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path, mini_batches):
    state = new_state(FAST_CONFIG)
    for batch in mini_batches[:2]:
        state, _ = step(state, batch)
    path = tmp_path / "state.csk"
    save(state, path)
    restored = load(path)
    assert restored.current_week == state.current_week
    assert restored.holdout == state.holdout
    assert restored.registry.partition() == state.registry.partition()
    assert restored.rows == state.rows
    assert np.array_equal(restored.registry.vectors(state.rows), state.registry.vectors(state.rows))


def test_checkpoint_resume_byte_identical_reports(tmp_path, mini_batches):
    out_a = tmp_path / "straight"
    out_b = tmp_path / "resumed"
    ckpt = tmp_path / "mid.csk"

    reports_a, _ = run_replay(FAST_CONFIG, mini_batches, out_dir=out_a)

    state = new_state(FAST_CONFIG)
    for batch in mini_batches[:2]:
        state, _ = step(state, batch)
    save(state, ckpt)
    resumed = load(ckpt)
    run_replay(resumed, mini_batches[2:], out_dir=out_b)

    name = f"report_week_{mini_batches[2].week}.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    clusters = f"clusters_week_{mini_batches[2].week}.csv"
    assert (out_a / clusters).read_bytes() == (out_b / clusters).read_bytes()


def test_checkpoint_version_gate(tmp_path, mini_batches):
    state = new_state(FAST_CONFIG)
    state, _ = step(state, mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    doc = json.loads(gzip.open(path, "rb").read())
    doc["schema_version"] = 99
    write_gzip(path, doc)
    with pytest.raises(CheckpointError, match="schema version"):
        load(path)


def test_checkpoint_truncated_file(tmp_path, mini_batches):
    state = new_state(FAST_CONFIG)
    state, _ = step(state, mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load(path)


def test_checkpoint_missing_fields_is_checkpoint_error(tmp_path):
    path = tmp_path / "state.csk"
    write_gzip(path, {"schema_version": engine.CHECKPOINT_SCHEMA_VERSION})
    with pytest.raises(CheckpointError, match="config"):
        load(path)


def test_checkpoint_wrong_field_types_is_checkpoint_error(tmp_path, mini_batches):
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    good = json.loads(gzip.open(path, "rb").read())
    pid = next(iter(good["scores"]))
    reg, pipeline = good["registry"], good["pipeline"]
    generic = good["pool"]["generic"]
    f1 = generic["validation_f1"]
    labels = reg["prev_memberships"]
    assert set(labels) - {None} == {"G1", "G2", "G3"}
    assert reg["vanished"] == {}
    # G3 dropped: its points' labels null, its members kept as vanished
    kept = [None if x == "G3" else x for x in labels]
    g3 = sorted(pt for pt, x in zip(reg["ids"], labels) if x == "G3")

    def pool_with_f1(value):
        return dict(good["pool"], generic=dict(generic, validation_f1=value))

    def pool_with_model(kind, **fields):
        models = dict(generic["models"], **{kind: dict(generic["models"][kind], **fields)})
        return dict(good["pool"], generic=dict(generic, models=models))

    nan, inf = float("nan"), float("inf")
    logreg_weights = generic["models"]["logreg"]["weights"]
    forest_trees = json.loads(json.dumps(generic["models"]["random_forest"]["trees"]))
    node = forest_trees[0]
    while "leaf" not in node:
        node = node["left"]
    node["leaf"] = nan

    broken = [
        ("scores", dict(good["scores"], **{pid: 41})),
        ("scores", dict(good["scores"], **{pid: 9})),
        ("current_week", "x"),
        ("registry", []),
        ("pipeline", []),
        ("config", dict(good["config"], holdout_fraction=1.5)),
        # the registry's clustering parameters and vector width against the
        # config, the pipeline and the model sets
        ("registry", dict(reg, eps=5.0)),
        ("registry", dict(reg, density_fraction=0.2)),
        ("registry", dict(reg, min_pts_floor=6)),
        ("registry", dict(reg, vectors=[v + [0.0] for v in reg["vectors"]])),
        ("pipeline", dict(pipeline, pca_components=pipeline["pca_components"][:-1])),
        # the pipeline's arrays: 4 segments x (features + vocabulary tokens) wide
        ("pipeline", dict(
            pipeline, scaler_min=pipeline["scaler_min"][:-1], scaler_max=pipeline["scaler_max"][:-1]
        )),
        ("pipeline", dict(pipeline, pca_mean=pipeline["pca_mean"][:-1])),
        ("pipeline", dict(pipeline, pca_components=[row[:-1] for row in pipeline["pca_components"]])),
        ("pipeline", dict(pipeline, pca_components=pipeline["pca_components"][0])),
        ("pipeline", dict(pipeline, vocabularies={
            name: tokens + ["zz"] for name, tokens in pipeline["vocabularies"].items()
        })),
        # validation F1: one finite value in [0, 1] per kind
        ("pool", pool_with_f1({k: v for k, v in f1.items() if k != "gbt"})),
        ("pool", pool_with_f1(dict(f1, gbt="nan"))),
        ("pool", pool_with_f1(dict(f1, gbt=1.5))),
        # model parameters: finite
        ("pool", pool_with_model("linear_svm", bias=nan)),
        ("pool", pool_with_model("logreg", weights=[inf] + logreg_weights[1:])),
        ("pool", pool_with_model("gbt", init_score=nan)),
        ("pool", pool_with_model("gbt", learning_rate=inf)),
        ("pool", pool_with_model("random_forest", trees=forest_trees)),
        # the hold-out: a list of scored participant ids
        ("holdout", good["holdout"][0]),
        ("holdout", good["holdout"] + ["ZZZ"]),
        # the current week: an int from the registry's last week to MAX_WEEK
        ("current_week", 0),
        ("current_week", 100),
        ("current_week", 1.5),
        ("current_week", True),
        # cohort memberships name registry points
        ("registry", dict(reg, prev_memberships=kept, vanished={"G3": g3 + ["ZZZ|w01"]})),
        ("registry", dict(reg, prev_memberships=kept, vanished={"G3": ["ZZZ|w01"]})),
    ]
    for case, (field, value) in enumerate(broken):
        write_gzip(path, dict(good, **{field: value}))
        with pytest.raises(CheckpointError):
            load(path)
            pytest.fail(f"broken case {case} ({field}) loaded")
    dropped = dict(reg, prev_memberships=kept, vanished={"G3": g3})
    write_gzip(path, dict(good, registry=dropped))
    assert load(path).registry.to_json() == dropped
    write_gzip(path, good)
    assert load(path).registry.to_json() == state.registry.to_json()


def test_checkpoint_bad_cohort_labels_or_log_digests_is_checkpoint_error(tmp_path, mini_batches):
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    good = json.loads(gzip.open(path, "rb").read())
    reg, digests = good["registry"], good["log_digests"]
    labels = reg["prev_memberships"]
    assert len(labels) == len(reg["ids"])
    assert set(labels) - {None} == {"G1", "G2", "G3"}

    def relabel(old, new):
        return dict(reg, prev_memberships=[new if x == old else x for x in labels])

    broken = [
        # one cohort label or null per row of ids
        ("registry", dict(reg, prev_memberships=labels[:-1])),
        ("registry", dict(reg, prev_memberships=labels + [None])),
        ("registry", relabel("G1", 1)),
        ("registry", relabel("G1", ["G1"])),
        # one sha256 hex digest per log
        ("log_digests", {"runlog.jsonl": digests["runlog.jsonl"]}),
        ("log_digests", dict(digests, other=digests["summary.csv"])),
        ("log_digests", dict(digests, **{"summary.csv": "Z" * 64})),
        ("log_digests", dict(digests, **{"summary.csv": digests["summary.csv"][:-1]})),
        ("log_digests", dict(digests, **{"summary.csv": 7})),
        ("log_digests", list(digests.values())),
    ]
    for field, value in broken:
        write_gzip(path, dict(good, **{field: value}))
        with pytest.raises(CheckpointError):
            load(path)
            pytest.fail(f"{field} {value!r} loaded")
    write_gzip(path, good)
    assert load(path).registry.to_json() == state.registry.to_json()


def test_log_digests_chain_each_week_s_lines_with_or_without_an_output_directory(
    tmp_path, mini_batches
):
    out = tmp_path / "out"
    _, logged = run_replay(FAST_CONFIG, mini_batches, out_dir=out)
    _, unlogged = run_replay(FAST_CONFIG, mini_batches)
    assert logged.log_digests == unlogged.log_digests
    for name, (header, week_pattern, _) in engine.reporting.LOGS.items():
        text = (out / name).read_bytes().decode()
        digest = engine.reporting.START_DIGEST
        for batch in mini_batches:
            week = "".join(
                line for line in text[len(header):].splitlines(keepends=True)
                if int(re.search(week_pattern, line).group(1)) == batch.week
            )
            digest = hashlib.sha256((digest + week).encode()).hexdigest()
        assert digest == logged.log_digests[name]


@pytest.mark.parametrize("log", ["runlog.jsonl", "summary.csv"])
@pytest.mark.parametrize("change", ["edited", "missing a week", "a line twice"])
def test_a_resume_into_logs_that_are_not_the_checkpoint_s_writes_nothing(
    tmp_path, mini_batches, log, change
):
    out, ckpt = tmp_path / "out", tmp_path / "mid.csk"
    run_replay(FAST_CONFIG, mini_batches[:2], out_dir=out, checkpoint_path=ckpt)
    path = out / log
    lines = path.read_bytes().decode().splitlines(keepends=True)
    week_of = re.compile(engine.reporting.LOGS[log][1])
    week_1 = [i for i, line in enumerate(lines) if (m := week_of.search(line)) and m[1] == "1"]
    assert week_1
    if change == "edited":
        lines[week_1[0]] = lines[week_1[0]][:2] + "x" + lines[week_1[0]][2:]
    elif change == "missing a week":
        del lines[week_1[0] : week_1[-1] + 1]
    else:
        lines.insert(week_1[0], lines[week_1[0]])
    path.write_bytes("".join(lines).encode())
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(ValidationError, match=f"{log} does not hold the lines of weeks 1-2"):
        run_replay(load(ckpt), mini_batches[2:], out_dir=out, checkpoint_path=ckpt)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_checkpoint_tree_too_deep_to_read_is_checkpoint_error(
    tmp_path, mini_batches, monkeypatch
):
    # a GBT tree 300 splits deep, which the JSON parser reads, while the
    # recursive tree reader has 100 frames to spare
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    doc = json.loads(gzip.open(path, "rb").read())
    doc["pool"]["generic"]["models"]["gbt"]["trees"] = ["DEEP"]
    split = '{"feature": 0, "threshold": 0.0, "right": {"leaf": 1.0}, "left": '
    tree = split * 300 + '{"leaf": 0.0}' + "}" * 300
    write_gzip(path, json.dumps(doc).replace('"DEEP"', tree))
    read_pool = engine.pool_from_json

    def with_little_stack(pool_doc):
        limit, depth, frame = sys.getrecursionlimit(), 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        sys.setrecursionlimit(depth + 100)
        try:
            return read_pool(pool_doc)
        finally:
            sys.setrecursionlimit(limit)

    monkeypatch.setattr(engine, "pool_from_json", with_little_stack)
    with pytest.raises(CheckpointError, match="malformed checkpoint .*RecursionError"):
        load(path)


@pytest.mark.parametrize(
    "change, message",
    [
        # the pipeline refit cadence that earlier checkpoints stored
        ({"refit_every_n_weeks": 0}, "unknown config keys: refit_every_n_weeks"),
        ({"surplus": 1}, "unknown config keys: surplus"),
        ({"learners": {"forest_trees": 10, "surplus": 1}}, "unknown learner config keys: surplus"),
    ],
)
def test_checkpoint_config_is_read_as_a_config_file_is(tmp_path, mini_batches, change, message):
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    doc = json.loads(gzip.open(path, "rb").read())
    doc["config"].update(change)
    write_gzip(path, doc)
    with pytest.raises(CheckpointError, match=message):
        load(path)


def tree_nodes(trees: list[dict]):
    """Every node of a model's serialized trees, each tree's root first."""
    stack = list(reversed(trees))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node[side] for side in ("right", "left") if side in node)


def first_split(trees: list[dict]) -> dict:
    """The first internal node of a model's serialized trees."""
    return next(node for node in tree_nodes(trees) if "feature" in node)


def as_float(mapping: dict, key: str) -> None:
    """Store the whole number ``mapping[key]`` as the equal float."""
    mapping[key] = float(mapping[key])


def reverse_keys(doc: dict) -> None:
    """Lay out ``doc``'s top-level keys in reverse order."""
    items = sorted(doc.items(), reverse=True)
    doc.clear()
    doc.update(items)


def leaf_as_int(trees: list[dict]) -> None:
    """Store the first leaf of 0.0 in ``trees`` as the int 0."""
    next(node for node in tree_nodes(trees) if node.get("leaf") == 0.0)["leaf"] = 0


def misfit_models(good: dict, dim: int):
    """Checkpoints whose generic set holds a model that cannot read its vectors."""

    def tree_split(kind, **change):
        doc = json.loads(json.dumps(good))
        first_split(doc["pool"]["generic"]["models"][kind]["trees"]).update(change)
        return doc

    def weights(kind, values):
        doc = json.loads(json.dumps(good))
        doc["pool"]["generic"]["models"][kind]["weights"] = values
        return doc

    yield "forest feature", tree_split("random_forest", feature=99)
    yield "forest feature at input_dim", tree_split("random_forest", feature=dim)
    yield "negative feature", tree_split("gbt", feature=-1)
    yield "NaN threshold", tree_split("random_forest", threshold=float("nan"))
    yield "infinite threshold", tree_split("gbt", threshold=float("inf"))
    yield "long weights", weights("logreg", [0.5] * (dim + 1))
    yield "short weights", weights("linear_svm", [0.5] * (dim - 1))


def test_checkpoint_model_misfitting_input_dim_is_checkpoint_error(tmp_path, mini_batches):
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    good = json.loads(gzip.open(path, "rb").read())
    dim = good["pool"]["generic"]["input_dim"]
    for name, doc in misfit_models(good, dim):
        write_gzip(path, doc)
        with pytest.raises(CheckpointError):
            load(path)
            pytest.fail(f"{name} loaded")
    write_gzip(path, good)
    assert load(path).pool.generic.input_dim == dim


@pytest.fixture(scope="module")
def week_one_doc(tmp_path_factory, mini_batches):
    """The JSON document of the checkpoint saved after week 1."""
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    path = save(state, tmp_path_factory.mktemp("week_one") / "state.csk")
    return json.loads(gzip.decompress(path.read_bytes()))


def generic_models(doc: dict) -> dict:
    return doc["pool"]["generic"]["models"]


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: doc.update(rows=doc["registry"]["ids"]), "rows differ"),
        (lambda doc: doc.update(run_log=[]), "run_log differ"),
        (lambda doc: doc["registry"].update(cohort_ids=["G1", "G2", "G3"]), "registry differ"),
        (lambda doc: doc["pool"].update(min_cohort_size=15), "pool differ"),
        (lambda doc: generic_models(doc)["gbt"].update(train_log_loss=0.5), "pool differ"),
        (
            lambda doc: first_split(generic_models(doc)["random_forest"]["trees"]).update(gain=1),
            "pool differ",
        ),
        (
            lambda doc: generic_models(doc).update(random_forest=generic_models(doc)["gbt"]),
            "pool differ",
        ),
        (
            lambda doc: generic_models(doc).update(gbt=generic_models(doc)["random_forest"]),
            "malformed checkpoint .*init_score",
        ),
        # equal numbers of another type: save writes each of these as the other
        (lambda doc: as_float(doc["pool"]["generic"], "input_dim"), "pool differ"),
        (lambda doc: as_float(doc["registry"], "min_pts_floor"), "registry differ"),
        (lambda doc: as_float(first_split(generic_models(doc)["gbt"]["trees"]), "feature"), "pool differ"),
        (lambda doc: leaf_as_int(generic_models(doc)["random_forest"]["trees"]), "pool differ"),
        # keys the program works out: fresh labels number on from those in use,
        # and the categorical features are the vocabularies' keys
        (lambda doc: doc["registry"].update(next_label_index=4), "registry differ"),
        (lambda doc: doc["pipeline"].update(categorical_features=["social_context"]), "pipeline differ"),
        (reverse_keys, "key order or spacing differ"),
    ],
    ids=[
        "top-level rows", "top-level run_log", "registry cohort_ids", "pool min_cohort_size",
        "gbt train_log_loss", "tree node key", "gbt under random_forest", "forest under gbt",
        "input_dim as float", "min_pts_floor as float", "gbt split feature as float",
        "forest leaf 0.0 as int", "stored next label index", "stored categorical features",
        "keys out of order",
    ],
)
def test_checkpoint_save_would_not_write_is_checkpoint_error(
    tmp_path, week_one_doc, change, message
):
    doc = json.loads(json.dumps(week_one_doc))
    change(doc)
    path = tmp_path / "state.csk"
    write_gzip(path, doc)
    with pytest.raises(CheckpointError, match=message):
        load(path)


def test_checkpoint_failed_write_keeps_previous(tmp_path, mini_batches, monkeypatch):
    state = new_state(FAST_CONFIG)
    state, _ = step(state, mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    before = path.read_bytes()
    state, _ = step(state, mini_batches[1])

    def fail_to_sync(fd):
        raise OSError("disk full")

    # the temporary file is written; the disk reports the failure on sync
    monkeypatch.setattr(engine.os, "fsync", fail_to_sync)
    with pytest.raises(OSError, match="disk full"):
        save(state, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load(path).current_week == 1
    assert [p.name for p in tmp_path.iterdir()] == ["state.csk"]


def test_checkpoint_bytes_do_not_depend_on_the_path(tmp_path, mini_batches):
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    path = tmp_path / "a.csk"
    other = tmp_path / "sub" / "other.csk"
    other.parent.mkdir()
    save(state, path)
    save(state, other)
    assert path.read_bytes() == other.read_bytes()


def test_checkpoint_decompresses_to_the_sorted_json_document(tmp_path, mini_batches):
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    payload = gzip.decompress(path.read_bytes())
    doc = json.loads(payload)
    assert payload == json.dumps(doc, sort_keys=True).encode()
    assert doc["current_week"] == 1 and sorted(doc["scores"]) == sorted(state.scores)


def test_save_into_a_missing_directory_names_the_checkpoint(tmp_path, mini_batches):
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    path = tmp_path / "missing" / "state.csk"
    with pytest.raises(OSError, match=re.escape(f"cannot write checkpoint {path}")):
        save(state, path)
    assert list(tmp_path.iterdir()) == []


def test_a_checkpoint_written_the_earlier_way_resumes_to_the_same_files(
    tmp_path, mini_batches
):
    # the earlier writer: gzip level 9, the file's name in the header
    ckpt = tmp_path / "mid.csk"
    run_replay(FAST_CONFIG, mini_batches[:2], checkpoint_path=ckpt)
    older = tmp_path / "older.csk"
    write_gzip(older, gzip.decompress(ckpt.read_bytes()))
    assert older.read_bytes() != ckpt.read_bytes()
    outs = []
    for name, source in [("new", ckpt), ("older", older)]:
        out = tmp_path / name
        end = tmp_path / f"{name}.end.csk"
        run_replay(load(source), mini_batches[2:], out_dir=out, checkpoint_path=end)
        outs.append(out)
    assert sorted(p.name for p in outs[0].iterdir()) == sorted(p.name for p in outs[1].iterdir())
    for path in outs[0].iterdir():
        assert path.read_bytes() == (outs[1] / path.name).read_bytes(), path.name
    assert (tmp_path / "new.end.csk").read_bytes() == (tmp_path / "older.end.csk").read_bytes()


# ---------------------------------------------------------------- replay


def test_run_replay_writes_reports_and_summary(tmp_path, mini_batches):
    out = tmp_path / "out"
    reports, state = run_replay(FAST_CONFIG, mini_batches, out_dir=out, plot=True)
    assert len(reports) == len(mini_batches)
    for batch in mini_batches:
        assert (out / f"report_week_{batch.week}.csv").exists()
        assert (out / f"clusters_week_{batch.week}.csv").exists()
        assert (out / f"votes_week_{batch.week}.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "runlog.jsonl").exists()
    assert (out / "chart_f1.svg").exists()
    header = (out / "report_week_1.csv").read_text().splitlines()[0]
    assert header == "scope,cohort,kind,accuracy,precision,recall,f1,tp,fp,fn,tn"
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "week,scope,cohort,kind,accuracy,precision,recall,f1"
    gbt_rows = [line for line in summary if line.split(",")[1:4] == ["generic", "", "gbt"]]
    assert len(gbt_rows) == len(mini_batches)


def test_run_replay_gap_detection(mini_batches):
    with pytest.raises(ValidationError, match="missing week 2"):
        run_replay(FAST_CONFIG, [mini_batches[0], mini_batches[2]])


def test_run_replay_requires_week_one_start(mini_batches):
    with pytest.raises(ValidationError, match="missing week 1"):
        run_replay(FAST_CONFIG, mini_batches[1:])


def test_replay_runs_past_week_ten(tmp_path, profiles):
    extended = [
        dataclasses.replace(p, week_interval=(p.week_interval[0], 11))
        if p.week_interval[1] == 10
        else p
        for p in profiles
    ]
    batches = generate_cohort(mini_plan(weeks=11), extended, seed=3)
    out = tmp_path / "out"
    run_replay(FAST_CONFIG, batches, out_dir=out)
    assert (out / "report_week_11.csv").exists()
    clusters = (out / "clusters_week_11.csv").read_text().splitlines()[1:]
    assert clusters and all("|w11," in line for line in clusters)


def test_week_above_99_is_rejected_before_any_file_is_written(tmp_path, mini_batches):
    state = dataclasses.replace(new_state(FAST_CONFIG), current_week=98)
    batches = [
        dataclasses.replace(mini_batches[0], week=99),
        dataclasses.replace(mini_batches[1], week=100),
    ]
    out, ckpt = tmp_path / "out", tmp_path / "ckpt.csk"
    with pytest.raises(ValidationError, match="week 100"):
        run_replay(state, batches, out_dir=out, checkpoint_path=ckpt)
    assert not out.exists() and not ckpt.exists()
    state, _ = step(state, batches[0])
    with pytest.raises(ValidationError, match="week 100"):
        step(state, batches[1])


def test_an_out_of_range_score_in_a_later_week_is_rejected_before_any_file_is_written(
    tmp_path, mini_batches
):
    pid = min(mini_batches[0].labels)
    batches = [
        dataclasses.replace(b, labels={p: s for p, s in b.labels.items() if p != pid})
        for b in mini_batches[:2]
    ]
    batches.append(dataclasses.replace(mini_batches[2], labels={pid: 50}))
    out, ckpt = tmp_path / "out", tmp_path / "ckpt.csk"
    message = f"week 3: participant {pid}: questionnaire score 50 outside valid range"
    with pytest.raises(ValidationError, match=message):
        run_replay(FAST_CONFIG, batches, out_dir=out, checkpoint_path=ckpt)
    assert list(tmp_path.iterdir()) == []


def _without(batch, name):
    """``batch`` without its continuous feature ``name``."""
    j = batch.continuous_features.index(name)
    return dataclasses.replace(
        batch,
        continuous_features=batch.continuous_features[:j] + batch.continuous_features[j + 1 :],
        records=np.delete(batch.records, j, axis=1),
    )


def _blanked(batch, kind, j):
    """``batch`` with column ``j`` of its ``records`` or ``categories`` all missing."""
    column = getattr(batch, kind).copy()
    column[:, j] = np.nan if kind == "records" else -1
    return dataclasses.replace(batch, **{kind: column})


def _changed_score(b):
    pid = min(b[1].labels)
    score = b[1].labels[pid]
    changed = 40 if score < 40 else 10
    message = f"week 2: participant {pid} has score {changed}, but an earlier week gave {score}"
    return [b[0], dataclasses.replace(b[1], labels={pid: changed})], message


# each case gives a run of weeks whose last batch breaks one rule of the batch
# check, and the start of the message that refuses it
RULE_BREAKING = {
    "a week gap": lambda b: ([b[0], b[2]], "batch week 3 out of order: missing week 2"),
    "week 100": lambda b: (
        [dataclasses.replace(b[0], week=99), dataclasses.replace(b[1], week=100)],
        "batch week 100 above the last replayable week 99",
    ),
    "an empty week 2": lambda b: ([b[0], batch_of([], week=2)], "week 2: empty batch"),
    "a score of 50": lambda b: (
        [b[0], dataclasses.replace(b[1], labels={min(b[1].labels): 50})],
        f"week 2: participant {min(b[1].labels)}: questionnaire score 50 outside valid range",
    ),
    "a changed score": _changed_score,
    "a week 3 lacking sms_count": lambda b: (
        [b[0], b[1], _without(b[2], "sms_count")],
        "week 3: batch lacks the pipeline's features ['sms_count']",
    ),
    "a blank continuous column": lambda b: (
        [b[0], _blanked(b[1], "records", 0)],
        f"week 2: feature {b[1].continuous_features[0]!r} has no observed values",
    ),
    "a tokenless categorical column": lambda b: (
        [b[0], _blanked(b[1], "categories", 0)],
        f"week 2: feature {b[1].categorical_features[0]!r} has no observed values",
    ),
}


@pytest.mark.parametrize("case", RULE_BREAKING)
def test_step_and_run_replay_refuse_a_rule_breaking_batch_alike(tmp_path, mini_batches, case):
    batches, message = RULE_BREAKING[case](mini_batches)
    start = dataclasses.replace(new_state(FAST_CONFIG), current_week=batches[0].week - 1)
    state = start
    for batch in batches[:-1]:
        state, _ = step(state, batch)
    with pytest.raises(ValidationError) as by_step:
        step(state, batches[-1])
    out, ckpt = tmp_path / "out", tmp_path / "ckpt.csk"
    with pytest.raises(ValidationError) as by_replay:
        run_replay(start, batches, out_dir=out, checkpoint_path=ckpt)
    assert str(by_step.value) == str(by_replay.value)
    assert str(by_step.value).startswith(message)
    assert list(tmp_path.iterdir()) == []


def test_cleaning_errors_that_step_reaches_name_the_week():
    features = ("a", "b", "c", "d")
    week_one = [
        (f"P{p}", f"2024-01-0{d}", "night", {f: p + d * j for j, f in enumerate(features)},
         {"ctx": "home"})
        for p in range(1, 4)
        for d in range(1, 5)
    ]
    state = new_state(FAST_CONFIG)
    # P1's rows alone give the projection one row to fit on
    with pytest.raises(ValidationError, match=r"^week 1: PCA needs a matrix with >= 2 rows"):
        step(state, batch_of(week_one[:4]))
    # row i holds the one outlier of feature i, so no row survives
    outliers = [
        ("P1", f"2024-01-0{i + 1}", "night", {f: 100.0 * (i == j) for j, f in enumerate(features)},
         {"ctx": "home"})
        for i in range(4)
    ]
    with pytest.raises(
        ValidationError, match="^week 1: cannot fit the preprocessing pipeline on an empty batch$"
    ):
        step(state, batch_of(outliers))
    for week in (1, 2):
        state, _ = step(state, batch_of(week_one, week=week))
    # b's one observed value is in the row that is the one outlier of a
    lone = [(*row[:3], dict(row[3], a=1.0, b=None), row[4]) for row in week_one]
    lone[0] = (*lone[0][:3], dict(lone[0][3], a=100.0, b=5.0), lone[0][4])
    with pytest.raises(
        ValidationError, match="^week 3: feature 'b' has no observed values to impute from$"
    ):
        step(state, batch_of(lone, week=3))


def test_a_feature_with_no_observed_value_is_refused_only_where_cleaning_refuses_it():
    # a categorical feature no row has a token of is refused only if some row
    # survives outlier removal: otherwise cleaning fills no gap of it
    features = ("a", "b", "c", "d")
    week_one = [
        (f"P{p}", f"2024-01-0{d}", "night", {f: p + d * j for j, f in enumerate(features)},
         {"ctx": "home"})
        for p in range(1, 4)
        for d in range(1, 5)
    ]
    state, _ = step(new_state(FAST_CONFIG), batch_of(week_one))
    outliers = [
        ("P1", f"2024-01-0{i + 1}", "night", {f: 100.0 * (i == j) for j, f in enumerate(features)},
         {"ctx": None})
        for i in range(4)
    ]
    # row i holds the one outlier of feature i, so no row survives
    after, report = step(state, batch_of(outliers, week=2))
    assert after.current_week == 2
    assert "week 2: participant P1 omitted, no surviving records" in report.events
    kept = outliers + [("P1", "2024-01-05", "night", dict.fromkeys(features, 0.0), {"ctx": None})]
    with pytest.raises(ValidationError, match="week 2: feature 'ctx' has no observed values"):
        step(state, batch_of(kept, week=2))
    blank = [(*row[:3], dict(row[3], b=None), row[4]) for row in kept]
    with pytest.raises(ValidationError, match="week 2: feature 'b' has no observed values"):
        step(state, batch_of(blank, week=2))


def test_resumed_replay_same_files_as_straight(tmp_path, profiles):
    batches = generate_cohort(mini_plan(weeks=4), profiles, seed=3)
    straight = tmp_path / "straight"
    run_replay(FAST_CONFIG, batches, out_dir=straight, plot=True)

    resumed = tmp_path / "resumed"
    ckpt = tmp_path / "mid.csk"
    run_replay(FAST_CONFIG, batches[:2], out_dir=resumed, checkpoint_path=ckpt, plot=True)
    run_replay(load(ckpt), batches[2:], out_dir=resumed, plot=True)

    names = sorted(p.name for p in straight.iterdir())
    assert names == sorted(p.name for p in resumed.iterdir())
    assert {"summary.csv", "runlog.jsonl", "chart_f1.svg"} <= set(names)
    for name in names:
        assert (straight / name).read_bytes() == (resumed / name).read_bytes(), name


def test_fresh_replay_ignores_old_summary(tmp_path, mini_batches):
    for weeks in (1, 0):
        out = tmp_path / f"out_{weeks}"
        out.mkdir()
        (out / "summary.csv").write_text("week,scope\r\n1,stale\r\n", encoding="utf-8")
        run_replay(FAST_CONFIG, mini_batches[:weeks], out_dir=out)
        assert "stale" not in (out / "summary.csv").read_text(encoding="utf-8")


def test_run_log_restarts_on_a_fresh_replay_and_keeps_done_weeks_on_resume(tmp_path, profiles):
    batches = generate_cohort(mini_plan(weeks=4), profiles, seed=3)
    out = tmp_path / "out"
    run_replay(FAST_CONFIG, batches, out_dir=out)
    log = (out / "runlog.jsonl").read_bytes()
    assert len(log.splitlines()) > len(batches)

    run_replay(FAST_CONFIG, batches, out_dir=out)
    assert (out / "runlog.jsonl").read_bytes() == log

    # a 2+2 resume into the directory of the longer run above
    ckpt = tmp_path / "mid.csk"
    run_replay(FAST_CONFIG, batches[:2], checkpoint_path=ckpt)
    run_replay(load(ckpt), batches[2:], out_dir=out)
    assert (out / "runlog.jsonl").read_bytes() == log


# ---------------------------------------------------------------- properties


@pytest.fixture(scope="module")
def four_week_run(profiles, tmp_path_factory):
    """A straight 4-week replay, plus the checkpoint after each of weeks 1-3."""
    batches = generate_cohort(mini_plan(weeks=4), profiles, seed=3)
    root = tmp_path_factory.mktemp("four_weeks")
    run_replay(FAST_CONFIG, batches, out_dir=root / "straight", plot=True)
    state = new_state(FAST_CONFIG)
    for batch in batches[:3]:
        state, _ = step(state, batch)
        save(state, root / f"week_{batch.week}.csk")
    return batches, root


class Interrupted(Exception):
    pass


def _step_until(boundary: int):
    """`step` that stops the replay at week boundary + 1, after the files
    and checkpoint of week boundary are written."""

    def stepped(state, batch):
        if batch.week > boundary:
            raise Interrupted
        return step(state, batch)

    return stepped


@settings(max_examples=9, deadline=None)
@given(
    boundary=st.integers(1, 3),
    first_run=st.sampled_from(["completed", "longer", "interrupted"]),
)
def test_resume_from_every_week_boundary_gives_the_straight_files(
    four_week_run, boundary, first_run
):
    batches, root = four_week_run
    straight = root / "straight"
    checkpoint = root / f"week_{boundary}.csk"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if first_run == "longer":
            shutil.copytree(straight, out)
        elif first_run == "interrupted":
            # a 4-week run stopped in week boundary + 1, resumed from its own checkpoint
            checkpoint = Path(tmp) / "interrupted.csk"
            with mock.patch.object(engine, "step", _step_until(boundary)):
                with pytest.raises(Interrupted):
                    run_replay(FAST_CONFIG, batches, out_dir=out, checkpoint_path=checkpoint,
                               plot=True)
        else:
            run_replay(FAST_CONFIG, batches[:boundary], out_dir=out, plot=True)
        run_replay(load(checkpoint), batches[boundary:], out_dir=out, plot=True)
        names = sorted(p.name for p in straight.iterdir())
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert (straight / name).read_bytes() == (out / name).read_bytes(), name


@pytest.fixture(scope="module")
def two_steps(mini_batches, tmp_path_factory):
    """Reports and checkpoint bytes of weeks 1-2 stepped in record order."""
    path = tmp_path_factory.mktemp("steps") / "state.csk"
    state, outputs = new_state(FAST_CONFIG), []
    for batch in mini_batches[:2]:
        state, report = step(state, batch)
        save(state, path)
        outputs.append((report, path.read_bytes()))
    return outputs, path


@settings(max_examples=5, deadline=None)
@given(shuffle_seed=st.integers(0, 2**32 - 1))
def test_step_outputs_do_not_depend_on_record_order(mini_batches, two_steps, shuffle_seed):
    expected, path = two_steps
    state = new_state(FAST_CONFIG)
    for batch, (report, checkpoint) in zip(mini_batches[:2], expected):
        order = list(range(len(batch.records)))
        random.Random(shuffle_seed).shuffle(order)
        rows = {
            name: getattr(batch, name)[order]
            for name in ("participants", "days", "segments", "records", "categories")
        }
        state, got = step(state, dataclasses.replace(batch, **rows))
        assert got == report
        save(state, path)
        assert path.read_bytes() == checkpoint
