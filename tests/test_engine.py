"""Tests for the weekly replay engine: stepping, checkpoints, reports."""

import dataclasses
import gzip
import json
import random
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohortsense.core import EngineConfig, LearnerConfig, ValidationError
from cohortsense.engine import (
    CheckpointError,
    load,
    new_state,
    run_replay,
    save,
    step,
)
from cohortsense.synthgen import (
    CohortPlan,
    build_default_profiles,
    generate_cohort,
)

from columns import batch_of

FAST_CONFIG = EngineConfig(
    cv_folds=3,
    rng_seed=5,
    learners=LearnerConfig(
        logreg_iterations=80,
        svm_epochs=80,
        forest_trees=10,
        forest_depth=4,
        gbt_rounds=10,
    ),
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
    assert report.participants_seen > 0
    # conservation: every vectorized participant lands in a cohort or noise
    assert sum(report.cohort_sizes.values()) + report.noise_count == report.participants_seen
    assert len(report.votes) == report.participants_seen
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
        assert a.cohort_sizes == b.cohort_sizes
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
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc).encode("utf-8"))
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
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps({"schema_version": 1}).encode("utf-8"))
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
    prev = reg["prev_memberships"]
    assert sorted(prev) == ["G1", "G2", "G3"] and reg["next_label_index"] == 4
    kept = {label: prev[label] for label in ("G1", "G2")}

    def pool_with_f1(value):
        return dict(good["pool"], generic=dict(generic, validation_f1=value))

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
        ("pipeline", dict(
            pipeline,
            pca_components=pipeline["pca_components"][:-1],
            pca_explained_variance_ratio=pipeline["pca_explained_variance_ratio"][:-1],
        )),
        # validation F1: one finite value in [0, 1] per kind
        ("pool", pool_with_f1({k: v for k, v in f1.items() if k != "gbt"})),
        ("pool", pool_with_f1(dict(f1, gbt="nan"))),
        ("pool", pool_with_f1(dict(f1, gbt=1.5))),
        # the hold-out: a list of scored participant ids
        ("holdout", good["holdout"][0]),
        ("holdout", good["holdout"] + ["ZZZ"]),
        # the current week: an int from the registry's last week to MAX_WEEK
        ("current_week", 0),
        ("current_week", 100),
        ("current_week", 1.5),
        ("current_week", True),
        # cohort memberships name registry points, and fresh labels are unused
        ("registry", dict(reg, prev_memberships=dict(prev, G1=["ZZZ|w01"]))),
        ("registry", dict(reg, prev_memberships=kept, vanished={"G3": ["ZZZ|w01"]})),
        ("registry", dict(reg, next_label_index=3)),
        ("registry", dict(
            reg, prev_memberships=kept, vanished={"G3": prev["G3"]}, next_label_index=3
        )),
    ]
    for field, value in broken:
        doc = dict(good, **{field: value})
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(doc).encode("utf-8"))
        with pytest.raises(CheckpointError):
            load(path)


@pytest.mark.parametrize(
    "change, message",
    [
        # an older writer's refit cadence, other than fit once at week 1
        ({"refit_every_n_weeks": 2}, "refit_every_n_weeks must be 0"),
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
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc).encode("utf-8"))
    with pytest.raises(CheckpointError, match=message):
        load(path)


def first_split(trees: list[dict]) -> dict:
    """The first internal node of a model's serialized trees."""
    stack = list(reversed(trees))
    while stack:
        node = stack.pop()
        if "feature" in node:
            return node
    raise AssertionError("no tree splits")


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
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(doc).encode("utf-8"))
        with pytest.raises(CheckpointError):
            load(path)
            pytest.fail(f"{name} loaded")
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(good).encode("utf-8"))
    assert load(path).pool.generic.input_dim == dim


def test_checkpoint_failed_write_keeps_previous(tmp_path, mini_batches, monkeypatch):
    state = new_state(FAST_CONFIG)
    state, _ = step(state, mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    before = path.read_bytes()
    state, _ = step(state, mini_batches[1])

    real_write = gzip.GzipFile.write

    def write_half_then_fail(self, data):
        real_write(self, bytes(data)[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(gzip.GzipFile, "write", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save(state, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load(path).current_week == 1
    assert [p.name for p in tmp_path.iterdir()] == ["state.csk"]


def test_checkpoint_bytes_name_the_final_file(tmp_path, mini_batches):
    state, _ = step(new_state(FAST_CONFIG), mini_batches[0])
    path = tmp_path / "state.csk"
    save(state, path)
    payload = gzip.open(path, "rb").read()
    reference = tmp_path / "ref" / "state.csk"
    reference.parent.mkdir()
    with gzip.GzipFile(reference, "wb", mtime=0) as fh:
        fh.write(payload)
    assert path.read_bytes() == reference.read_bytes()


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
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.csv").write_text("week,scope\r\n1,stale\r\n", encoding="utf-8")
    run_replay(FAST_CONFIG, mini_batches[:1], out_dir=out)
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


def test_checkpoint_in_the_older_layout_loads_and_resumes(tmp_path, profiles):
    batches = generate_cohort(mini_plan(weeks=4), profiles, seed=3)
    straight = tmp_path / "straight"
    run_replay(FAST_CONFIG, batches, out_dir=straight)
    resumed = tmp_path / "resumed"
    ckpt = tmp_path / "mid.csk"
    run_replay(FAST_CONFIG, batches[:2], out_dir=resumed, checkpoint_path=ckpt)

    # the older layout also held labeled rows, each with its vector,
    # participant id and week, the run log, the pipeline refit cadence of
    # 0 (fit once, at week 1), the pool's copies of two config
    # values, each set's scope, week and training point ids, the models'
    # seeds and sizes, and each GBT model's per-round training losses
    doc = json.loads(gzip.open(ckpt, "rb").read())
    reg = doc["registry"]
    vector_of = dict(zip(reg["ids"], reg["vectors"]))
    doc["rows"] = []
    for point_id in reg["ids"]:
        participant, _, week = point_id.rpartition("|w")
        doc["rows"].append({
            "point_id": point_id,
            "label": int(doc["scores"][participant] > doc["config"]["score_threshold"]),
            "vector": vector_of[point_id],
            "participant_id": participant,
            "week": int(week),
        })
    doc["run_log"] = [{"event": "week 1: preprocessing pipeline fitted", "week": 1}]
    doc["config"]["refit_every_n_weeks"] = 0
    reg["cohort_ids"] = {"p0": "G1"}
    doc["pool"].update(min_cohort_size=15, min_class_count=5)
    scopes = {"generic": doc["pool"]["generic"], **doc["pool"]["specialized"]}
    for scope, model_set in scopes.items():
        model_set.update(scope=scope, trained_through_week=2)
        model_set["trained_on"] = sorted(row["point_id"] for row in doc["rows"])
        model_set["models"]["logreg"].update(seed=1, iterations=80)
        model_set["models"]["linear_svm"].update(seed=1, epochs=80)
        model_set["models"]["random_forest"].update(seed=1, n_trees=10, max_depth=4)
        model_set["models"]["gbt"].update(seed=1, train_log_loss=[0.5] * 10)
    older = tmp_path / "older.csk"
    with gzip.GzipFile(older, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True).encode("utf-8"))

    state = load(older)
    again = tmp_path / "again.csk"
    save(state, again)
    assert gzip.open(again, "rb").read() == gzip.open(ckpt, "rb").read()
    assert np.array_equal(state.registry.vectors(state.rows), [vector_of[pt] for pt in state.rows])

    run_replay(state, batches[2:], out_dir=resumed)
    for name in sorted(p.name for p in straight.iterdir()):
        assert (straight / name).read_bytes() == (resumed / name).read_bytes(), name


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


@settings(max_examples=6, deadline=None)
@given(boundary=st.integers(1, 3), longer_run_in_dir=st.booleans())
def test_resume_from_every_week_boundary_gives_the_straight_files(
    four_week_run, boundary, longer_run_in_dir
):
    batches, root = four_week_run
    straight = root / "straight"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if longer_run_in_dir:
            shutil.copytree(straight, out)
        else:
            run_replay(FAST_CONFIG, batches[:boundary], out_dir=out, plot=True)
        run_replay(load(root / f"week_{boundary}.csk"), batches[boundary:], out_dir=out, plot=True)
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
