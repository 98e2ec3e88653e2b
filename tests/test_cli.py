"""End-to-end CLI tests driven through main()."""

import csv
import gzip
import json
import os
import signal
from pathlib import Path

import pytest

from cohortsense import engine
from cohortsense.cli import main
from cohortsense.core import ValidationError
from cohortsense.engine import CHECKPOINT_SCHEMA_VERSION
from cohortsense.synthgen import FEATURES, CohortPlan

from gzipped import write_gzip
from nested_trees import nested_doc
from test_engine import SPLIT_FEATURE, as_float, first_split, generic_models, leaf_as_int


def tiny_plan(weeks=3, per_group=12):
    pids = [f"P{i:03d}" for i in range(1, 3 * per_group + 1)]
    groups = {
        "G1": frozenset(pids[:per_group]),
        "G2": frozenset(pids[per_group : 2 * per_group]),
        "G3": frozenset(pids[2 * per_group :]),
    }
    return CohortPlan(
        total_participants=len(pids),
        lonely_count=round(len(pids) * 87 / 205),
        weekly_group_membership={w: dict(groups) for w in range(1, weeks + 1)},
    )


def write_tiny_plan(path: Path, weeks=3) -> None:
    plan = tiny_plan(weeks=weeks)
    doc = {
        "total_participants": plan.total_participants,
        "lonely_count": plan.lonely_count,
        "weekly_group_membership": {
            str(w): {g: sorted(m) for g, m in groups.items()}
            for w, groups in plan.weekly_group_membership.items()
        },
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


FAST_CONFIG = {
    "cv_folds": 3,
    "rng_seed": 9,
    "learners": {"forest_trees": 8, "forest_depth": 4, "gbt_rounds": 8},
}


def test_unknown_flag_exits_one(capsys):
    assert main(["synth", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_one():
    assert main(["frobnicate"]) == 1


def test_synth_writes_expected_files(tmp_path):
    out = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path)
    assert main(["synth", "--seed", "7", "--out-dir", str(out), "--plan", str(plan_path)]) == 0
    assert sorted(p.name for p in out.glob("week_*.csv")) == [
        "week_1.csv",
        "week_2.csv",
        "week_3.csv",
    ]
    assert (out / "labels.csv").exists()
    assert (out / "plan.json").exists()


def test_synth_default_plan_writes_ten_weeks(tmp_path):
    out = tmp_path / "full"
    assert main(["synth", "--seed", "42", "--out-dir", str(out)]) == 0
    assert len(list(out.glob("week_*.csv"))) == 10


def test_replay_produces_reports(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    plan_path = tmp_path / "plan.json"
    config_path = tmp_path / "config.json"
    write_tiny_plan(plan_path)
    config_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    assert main(["synth", "--seed", "7", "--out-dir", str(data), "--plan", str(plan_path)]) == 0
    assert (
        main(
            [
                "replay",
                "--config",
                str(config_path),
                "--data-dir",
                str(data),
                "--out-dir",
                str(out),
                "--plot",
            ]
        )
        == 0
    )
    assert (out / "report_week_3.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "chart_accuracy.svg").exists()


def test_replay_resume_matches_uninterrupted(tmp_path):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    config_path = tmp_path / "config.json"
    write_tiny_plan(plan_path)
    config_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    main(["synth", "--seed", "7", "--out-dir", str(data), "--plan", str(plan_path)])

    out_full = tmp_path / "full"
    main(
        ["replay", "--config", str(config_path), "--data-dir", str(data),
         "--out-dir", str(out_full)]
    )

    # interrupted run: stop after week 2 by replaying a truncated data dir
    data_partial = tmp_path / "partial"
    data_partial.mkdir()
    for name in ("week_1.csv", "week_2.csv", "labels.csv", "plan.json"):
        (data_partial / name).write_bytes((data / name).read_bytes())
    out_a = tmp_path / "out_a"
    ckpt = tmp_path / "ckpt.csk"
    main(
        ["replay", "--config", str(config_path), "--data-dir", str(data_partial),
         "--out-dir", str(out_a), "--checkpoint", str(ckpt)]
    )
    out_b = tmp_path / "out_b"
    assert (
        main(
            ["replay", "--config", str(config_path), "--data-dir", str(data),
             "--out-dir", str(out_b), "--resume", str(ckpt)]
        )
        == 0
    )
    assert (out_b / "report_week_3.csv").read_bytes() == (
        out_full / "report_week_3.csv"
    ).read_bytes()
    assert (out_b / "votes_week_3.csv").read_bytes() == (
        out_full / "votes_week_3.csv"
    ).read_bytes()


def test_replay_identical_runs_identical_outputs(tmp_path):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    config_path = tmp_path / "config.json"
    write_tiny_plan(plan_path, weeks=2)
    config_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        main(["replay", "--config", str(config_path), "--data-dir", str(data), "--out-dir", str(out)])
        outputs.append(b"".join(sorted((out / f).read_bytes() for f in
                                        [p.name for p in out.iterdir()])))
    assert outputs[0] == outputs[1]


def test_report_command_prints_rows(tmp_path, capsys):
    data = tmp_path / "data"
    out = tmp_path / "out"
    plan_path = tmp_path / "plan.json"
    config_path = tmp_path / "config.json"
    write_tiny_plan(plan_path, weeks=2)
    config_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    main(["replay", "--config", str(config_path), "--data-dir", str(data), "--out-dir", str(out)])
    capsys.readouterr()
    assert main(["report", "--out-dir", str(out), "--week", "2"]) == 0
    printed = capsys.readouterr().out
    assert "week 2" in printed
    assert "generic" in printed


def test_report_missing_week_exits_one(tmp_path):
    assert main(["report", "--out-dir", str(tmp_path), "--week", "4"]) == 1


REPORT_HEADER = "scope,cohort,kind,accuracy,precision,recall,f1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            REPORT_HEADER + "generic,,logreg,0.9,0.8,high,0.7\n",
            "ValueError",
            id="non_numeric_metric",
        ),
        pytest.param(
            "scope,kind,accuracy,precision,recall,f1\ngeneric,logreg,0.9,0.8,0.7,0.7\n",
            "KeyError: 'cohort'",
            id="missing_column",
        ),
    ],
)
def test_report_malformed_file_exits_one(tmp_path, capsys, text, message):
    path = tmp_path / "report_week_2.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["report", "--out-dir", str(tmp_path), "--week", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed report file {path}")
    assert message in captured.err


NESTED = "[" * 200_000


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "JSONDecodeError"),
        ('{"total_participants": 3}', "KeyError: 'lonely_count'"),
        pytest.param(NESTED, "RecursionError", id="nested"),
        pytest.param(None, "cannot read plan file", id="missing"),
    ],
)
def test_synth_malformed_plan_exits_one(tmp_path, capsys, text, message):
    plan_path = tmp_path / "plan.json"
    if text is not None:
        plan_path.write_text(text, encoding="utf-8")
    code = main(["synth", "--out-dir", str(tmp_path / "out"), "--plan", str(plan_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and str(plan_path) in err and message in err


def tiny_plan_doc(**fields) -> dict:
    members = {"G1": ["P001", "P002"], "G2": ["P003", "P004"]}
    doc = {"total_participants": 4, "lonely_count": 1, "weekly_group_membership": {"1": members}}
    return dict(doc, **fields)


def one_week(groups: dict) -> dict:
    return {"weekly_group_membership": {"1": groups}}


@pytest.mark.parametrize(
    "doc, message",
    [
        (tiny_plan_doc(lonely_count=10.7), "must be ints"),
        (tiny_plan_doc(lonely_count="1"), "must be ints"),
        (tiny_plan_doc(lonely_count=True), "must be ints"),
        (tiny_plan_doc(lonely_count=-3), "lonely_count at least 0"),
        (tiny_plan_doc(total_participants=4.0), "must be ints"),
        (tiny_plan_doc(weekly_group_membership={"0": {"G1": ["P001"]}}), "week '0'"),
        (tiny_plan_doc(weekly_group_membership={"w1": {"G1": ["P001"]}}), "week 'w1'"),
        (tiny_plan_doc(weekly_group_membership={"-1": {"G1": ["P001"]}}), "week '-1'"),
        (tiny_plan_doc(weekly_group_membership={"1": {}, "01": {}}), "week '01'"),
        (tiny_plan_doc(weekly_group_membership={}), "no weeks"),
        (tiny_plan_doc(**one_week({"G1": "P001P002"})), "group G1 is not a list"),
        (tiny_plan_doc(**one_week({"G1": ["P001", 2]})), "group G1 is not a list"),
        (tiny_plan_doc(**one_week({"G1": {"P001": 1}})), "group G1 is not a list"),
        (
            tiny_plan_doc(weekly_group_membership={
                "1": {"G1": ["P001", "P002"], "G2": ["P003", "P004"]},
                "2": {"G1": ["P001", "P002", "P004"]},
            }),
            "week 1: participant P003 is in no group of the final week 2",
        ),
        (tiny_plan_doc(total_participants=999), "total_participants is 999, but the plan has 4"),
    ],
    ids=[
        "lonely_count float", "lonely_count string", "lonely_count bool", "lonely_count negative",
        "total_participants float", "week 0", "week not decimal", "week negative",
        "week given twice", "no weeks", "members as a string", "member not a string",
        "members as an object", "participant not in the final week",
        "total_participants not the member count",
    ],
)
def test_synth_plan_with_a_value_of_the_wrong_kind_exits_one(tmp_path, capsys, doc, message):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["synth", "--out-dir", str(out), "--plan", str(plan_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and str(plan_path) in err and message in err
    assert "Traceback" not in err and not out.exists()


def test_replay_bad_config_exits_one(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"bogus_key": 1}), encoding="utf-8")
    assert (
        main(
            ["replay", "--config", str(config_path), "--data-dir", str(tmp_path),
             "--out-dir", str(tmp_path / "out")]
        )
        == 1
    )


def test_replay_out_of_range_config_exits_one(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"holdout_fraction": 1.5}), encoding="utf-8")
    code = main(
        ["replay", "--config", str(config_path), "--data-dir", str(tmp_path),
         "--out-dir", str(tmp_path / "out")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "holdout_fraction" in err


def test_replay_gbt_learning_rate_above_one_exits_one(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    plan_path, config_path = tmp_path / "plan.json", tmp_path / "config.json"
    write_tiny_plan(plan_path, weeks=1)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    config = {"learners": {"gbt_learning_rate": 1e300}}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    code = main(
        ["replay", "--config", str(config_path), "--data-dir", str(data), "--out-dir", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: gbt_learning_rate must lie in (0, 1], got 1e+300\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["forest_trees", "gbt_rounds"])
def test_replay_config_asking_for_too_many_trees_exits_one_before_training(
    tmp_path, capsys, key
):
    # the data dir holds no week, so nothing could train even if the config were taken
    out, config_path = tmp_path / "out", tmp_path / "config.json"
    config_path.write_text(json.dumps({"learners": {key: 10**12}}), encoding="utf-8")
    code = main(
        ["replay", "--config", str(config_path), "--data-dir", str(tmp_path),
         "--out-dir", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {key} must lie in [1, 10000], got 1000000000000\n"
    assert not out.exists()


def test_replay_of_single_class_weeks_writes_one_line_to_stderr(tmp_path, capsys):
    # every participant below the threshold: each week skips the generic refresh
    data, out = tmp_path / "data", tmp_path / "out"
    plan_path, config_path = tmp_path / "plan.json", tmp_path / "config.json"
    write_tiny_plan(plan_path, weeks=2)
    config_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])

    def low_scores(rows):
        for row in rows[1:]:
            row[rows[0].index("score")] = "12"

    _edit_csv(data / "labels.csv", low_scores)
    capsys.readouterr()
    code = main(
        ["replay", "--config", str(config_path), "--data-dir", str(data), "--out-dir", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().err == f"replayed 2 weeks into {out}\n"
    log = (out / "runlog.jsonl").read_text(encoding="utf-8")
    assert log.count("generic refresh skipped") == 2


@pytest.mark.parametrize("knob", ["logreg_iterations", "logreg_step", "svm_epochs"])
def test_replay_config_naming_a_logreg_descent_knob_exits_one(tmp_path, capsys, knob):
    # both linear kinds train by Newton's method: the descent knobs are unknown keys
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"learners": {knob: 60}}), encoding="utf-8")
    code = main(
        ["replay", "--config", str(config_path), "--data-dir", str(tmp_path),
         "--out-dir", str(tmp_path / "out")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: unknown learner config keys: {knob}")


@pytest.mark.parametrize("flag", ["--config", "--resume"])
def test_replay_nested_json_exits_one(tmp_path, capsys, flag):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=1)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    path = tmp_path / "nested"
    if flag == "--config":
        path.write_text(NESTED, encoding="utf-8")
    else:
        write_gzip(path, NESTED)
    capsys.readouterr()
    code = main(
        ["replay", flag, str(path), "--data-dir", str(data), "--out-dir", str(tmp_path / "out")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["config", "plan", "checkpoint"])
def test_a_file_that_is_not_utf8_exits_one(tmp_path, capsys, kind):
    data, path = tmp_path / "data", tmp_path / kind
    text = b'{"cv_folds": 3\xff}'
    if kind == "checkpoint":
        write_tiny_plan(tmp_path / "plan.json", weeks=1)
        main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(tmp_path / "plan.json")])
        write_gzip(path, text)
    else:
        path.write_bytes(text)
    argv = {
        "config": ["replay", "--config", str(path), "--data-dir", str(data)],
        "plan": ["synth", "--plan", str(path)],
        "checkpoint": ["replay", "--resume", str(path), "--data-dir", str(data)],
    }[kind]
    capsys.readouterr()
    code = main(argv + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot read {kind}") and str(path) in err and "0xff" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_replay_resume_with_a_different_config_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    config_path = tmp_path / "config.json"
    write_tiny_plan(plan_path, weeks=2)
    config_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    ckpt = tmp_path / "ckpt.csk"
    (data / "week_2.csv").rename(tmp_path / "week_2.csv")
    main(["replay", "--config", str(config_path), "--data-dir", str(data),
          "--out-dir", str(tmp_path / "out"), "--checkpoint", str(ckpt)])
    (tmp_path / "week_2.csv").rename(data / "week_2.csv")
    other = tmp_path / "other.json"
    other.write_text(json.dumps(dict(FAST_CONFIG, rng_seed=10)), encoding="utf-8")
    capsys.readouterr()
    code = main(
        ["replay", "--config", str(other), "--data-dir", str(data),
         "--out-dir", str(tmp_path / "out"), "--resume", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "differs" in err
    assert not (tmp_path / "out" / "report_week_2.csv").exists()


def refuse_cohort(*args):
    raise ValidationError("cohort G2 refused")


def kill_helper(*args):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "refresh, code, message",
    [
        (refuse_cohort, 1, "cohort G2 refused"),
        (kill_helper, 2, "week 1: the specialized refresh helper ended without a result "
                         "(killed by signal 9)"),
    ],
    ids=["validation error", "helper killed"],
)
def test_replay_failure_in_the_specialized_refresh_exits_with_an_error_line(
    tmp_path, capsys, monkeypatch, refresh, code, message
):
    # the forked helper runs the patched refresh
    monkeypatch.setattr(engine, "refresh_specialized", refresh)
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=1)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    capsys.readouterr()
    assert main(["replay", "--data-dir", str(data), "--out-dir", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out" / "report_week_1.csv").exists()


def test_replay_resume_malformed_checkpoint_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=1)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    ckpt = tmp_path / "bad.csk"
    write_gzip(ckpt, {"schema_version": CHECKPOINT_SCHEMA_VERSION})
    capsys.readouterr()
    code = main(
        ["replay", "--data-dir", str(data), "--out-dir", str(tmp_path / "out"),
         "--resume", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_replay_checkpoint_into_a_missing_directory_exits_one_before_week_one(
    tmp_path, capsys
):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=1)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    out = tmp_path / "out"
    out.mkdir()
    ckpt = tmp_path / "no" / "such" / "ckpt.csk"
    capsys.readouterr()
    code = main(
        ["replay", "--data-dir", str(data), "--out-dir", str(out),
         "--checkpoint", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write checkpoint {ckpt}") and "Traceback" not in err
    assert list(out.iterdir()) == []
    assert not ckpt.parent.exists()
    # the output directory, made by the replay itself, may hold the checkpoint
    fresh = tmp_path / "fresh"
    code = main(
        ["replay", "--data-dir", str(data), "--out-dir", str(fresh),
         "--checkpoint", str(fresh / "ckpt.csk")]
    )
    assert code == 0 and (fresh / "ckpt.csk").is_file()


@pytest.mark.parametrize("where", ["an existing directory", "the output directory"])
def test_replay_checkpoint_that_is_a_directory_exits_one_before_week_one(
    tmp_path, capsys, where
):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=2)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    out = tmp_path / "out"
    ckpt = out if where == "the output directory" else tmp_path / "ckpt"
    if ckpt != out:
        ckpt.mkdir()
    capsys.readouterr()
    code = main(
        ["replay", "--data-dir", str(data), "--out-dir", str(out), "--checkpoint", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write checkpoint {ckpt}: it is a directory")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()
    assert ckpt == out or list(ckpt.iterdir()) == []


@pytest.mark.parametrize("command", ["synth", "replay"])
def test_an_out_dir_that_is_a_file_exits_one(tmp_path, capsys, command):
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=2)
    data, taken = tmp_path / "data", tmp_path / "taken"
    taken.write_bytes(b"a file\n")
    if command == "replay":
        main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    # the out dir itself, then one below the file
    for out, what in [(taken, "it"), (taken / "sub", taken)]:
        if command == "synth":
            args = ["synth", "--seed", "3", "--out-dir", str(out), "--plan", str(plan_path)]
        else:
            args = ["replay", "--data-dir", str(data), "--out-dir", str(out)]
        capsys.readouterr()
        code = main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: cannot make output directory {out}: {what} is not a directory\n"
        assert taken.read_bytes() == b"a file\n"


@pytest.mark.parametrize("command", ["synth", "replay"])
def test_an_out_dir_that_is_a_dangling_link_exits_one(tmp_path, capsys, command):
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=2)
    data, link = tmp_path / "data", tmp_path / "link"
    if command == "replay":
        main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    link.symlink_to(tmp_path / "nowhere")
    before = sorted(tmp_path.rglob("*"))
    # the out dir itself, then one below the link
    for out, what in [(link, "it"), (link / "sub", link)]:
        if command == "synth":
            args = ["synth", "--seed", "3", "--out-dir", str(out), "--plan", str(plan_path)]
        else:
            args = ["replay", "--data-dir", str(data), "--out-dir", str(out)]
        capsys.readouterr()
        code = main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: cannot make output directory {out}: {what} is not a directory\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert link.is_symlink() and not (tmp_path / "nowhere").exists()


def resume_edited_checkpoint(tmp_path, capsys, edit, out="out") -> tuple[int, str]:
    """Replay week 1 of a 2-week cohort into ``tmp_path / "out"`` with a
    checkpoint, apply ``edit`` to the checkpoint's JSON, resume week 2 from
    it into ``tmp_path / out`` and return the exit code and stderr; a failed
    resume may write no week-2 report."""
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    config_path = tmp_path / "config.json"
    write_tiny_plan(plan_path, weeks=2)
    config_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    ckpt = tmp_path / "ckpt.csk"
    (data / "week_2.csv").rename(tmp_path / "week_2.csv")
    main(["replay", "--config", str(config_path), "--data-dir", str(data),
          "--out-dir", str(tmp_path / "out"), "--checkpoint", str(ckpt)])
    (tmp_path / "week_2.csv").rename(data / "week_2.csv")
    doc = json.loads(gzip.open(ckpt, "rb").read())
    edit(doc)
    write_gzip(ckpt, doc)
    capsys.readouterr()
    code = main(
        ["replay", "--config", str(config_path), "--data-dir", str(data),
         "--out-dir", str(tmp_path / out), "--resume", str(ckpt)]
    )
    assert code == 0 or not (tmp_path / out / "report_week_2.csv").exists()
    return code, capsys.readouterr().err


def test_replay_resume_checkpoint_with_out_of_range_split_exits_one(tmp_path, capsys):
    def edit(doc):
        first_split(generic_models(doc)["random_forest"]["trees"])[SPLIT_FEATURE] = 99

    code, err = resume_edited_checkpoint(tmp_path, capsys, edit)
    assert code == 1
    assert err.startswith("error:") and "feature 99" in err and "Traceback" not in err


def test_replay_resume_checkpoint_with_a_truncated_tree_exits_one(tmp_path, capsys):
    def edit(doc):
        trees = generic_models(doc)["gbt"]["trees"]
        next(tree for tree in trees if len(tree) > 1).pop()

    code, err = resume_edited_checkpoint(tmp_path, capsys, edit, out="resumed")
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: malformed checkpoint")
    assert "tree ends before its last leaf" in err
    assert not (tmp_path / "resumed").exists()


def test_replay_resume_checkpoint_with_a_nan_svm_bias_exits_one(tmp_path, capsys):
    def edit(doc):
        doc["pool"]["generic"]["models"]["linear_svm"]["bias"] = float("nan")

    code, err = resume_edited_checkpoint(tmp_path, capsys, edit)
    assert code == 1
    assert err.startswith("error:") and "not finite" in err and "Traceback" not in err


def test_replay_resume_checkpoint_naming_an_unknown_point_exits_one(tmp_path, capsys):
    def edit(doc):
        doc["registry"]["vanished"] = {"G1": ["ZZZ|w01"]}

    code, err = resume_edited_checkpoint(tmp_path, capsys, edit)
    assert code == 1
    assert err.startswith("error:") and "outside the registry" in err and "Traceback" not in err


def id_lists(doc):
    """Lay out ``doc``'s cohort memberships as an id list per cohort label,
    as checkpoints did before the per-row labels."""
    registry = doc["registry"]
    cohorts = {}
    for pid, label in zip(registry["ids"], registry["prev_memberships"]):
        if label is not None:
            cohorts.setdefault(label, []).append(pid)
    registry["prev_memberships"] = cohorts


def version_2_trees(doc):
    """Lay out ``doc`` as version 2 did: each tree nested dicts, one per node."""
    doc.update(nested_doc(doc), schema_version=2)


def nested_tags(doc):
    """Lay out ``doc`` as version 1 did: the pipeline and every model tagged
    with a schema version of its own, and every model with its kind."""
    doc["schema_version"] = 1
    doc["pipeline"]["schema_version"] = 1
    pool = doc["pool"]
    for model_set in [pool["generic"], *pool["specialized"].values()]:
        for kind, model in model_set["models"].items():
            model.update(schema_version=1, kind=kind)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: None, None),
        (lambda doc: doc.pop("log_digests"), "log_digests"),
        (id_lists, "cohort memberships"),
        (lambda doc: doc["config"].update(refit_every_n_weeks=0), "refit_every_n_weeks"),
        (lambda doc: doc["config"]["learners"].update(logreg_iterations=80), "logreg_iterations"),
        (nested_tags, "schema version 1"),
        (version_2_trees, "schema version 2"),
        (lambda doc: doc["registry"].update(cohort_ids=["G1"]), "registry differ"),
        (lambda doc: as_float(doc["pool"]["generic"], "input_dim"), "pool differ"),
        (lambda doc: as_float(doc["registry"], "min_pts_floor"), "registry differ"),
        (lambda doc: as_float(first_split(generic_models(doc)["gbt"]["trees"]), SPLIT_FEATURE), "pool differ"),
        (lambda doc: leaf_as_int(generic_models(doc)["random_forest"]["trees"]), "pool differ"),
        # keys that checkpoints held before the program came to work them out
        (lambda doc: doc["registry"].update(next_label_index=4), "registry differ"),
        (lambda doc: doc["pipeline"].update(categorical_features=["social_context"]), "pipeline differ"),
        (lambda doc: doc["pipeline"].update(pca_explained_variance_ratio=[0.5, 0.2]), "pipeline differ"),
    ],
    ids=[
        "unedited", "no log digests", "id-list memberships", "refit cadence", "descent knob",
        "version 1 with the nested tags", "version 2 with nested trees", "unknown registry key",
        "input_dim as float", "min_pts_floor as float", "gbt split feature as float", "forest leaf 0.0 as int",
        "stored next label index", "stored categorical features", "stored pca variance ratios",
    ],
)
def test_replay_resume_refuses_each_retired_checkpoint_layout(
    tmp_path, capsys, edit, field
):
    code, err = resume_edited_checkpoint(tmp_path, capsys, edit, out="resumed")
    if field is None:
        assert code == 0 and (tmp_path / "resumed" / "report_week_2.csv").exists()
        return
    assert code == 1
    assert err.startswith("error:") and field in err and "Traceback" not in err
    assert not (tmp_path / "resumed").exists()


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda labels: labels[:-1], "not one label or null per point"),
        (lambda labels: [1 if x == "G1" else x for x in labels], "not one label or null per point"),
    ],
    ids=["short", "not a string"],
)
def test_replay_resume_checkpoint_with_bad_cohort_labels_exits_one(
    tmp_path, capsys, change, message
):
    def edit(doc):
        labels = doc["registry"]["prev_memberships"]
        assert "G1" in labels and len(labels) == len(doc["registry"]["ids"])
        doc["registry"]["prev_memberships"] = change(labels)

    code, err = resume_edited_checkpoint(tmp_path, capsys, edit)
    assert code == 1
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_replay_resume_of_another_run_into_a_used_directory_exits_one(tmp_path, capsys):
    # a 4-week run with rng_seed 5, then a run with rng_seed 6 checkpointed
    # after week 2 and resumed into the first run's directory
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=4)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    configs = {}
    for seed in (5, 6):
        configs[seed] = tmp_path / f"config_{seed}.json"
        configs[seed].write_text(json.dumps(dict(FAST_CONFIG, rng_seed=seed)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["replay", "--config", str(configs[5]), "--data-dir", str(data),
                 "--out-dir", str(out), "--plot"]) == 0
    partial = tmp_path / "partial"
    partial.mkdir()
    for name in ("week_1.csv", "week_2.csv", "labels.csv", "plan.json"):
        (partial / name).write_bytes((data / name).read_bytes())
    ckpt = tmp_path / "seed_6.csk"
    assert main(["replay", "--config", str(configs[6]), "--data-dir", str(partial),
                 "--out-dir", str(tmp_path / "seed_6"), "--checkpoint", str(ckpt)]) == 0
    before = {p.name: p.read_bytes() for p in [*out.iterdir(), ckpt]}
    capsys.readouterr()
    code = main(["replay", "--config", str(configs[6]), "--data-dir", str(data),
                 "--out-dir", str(out), "--resume", str(ckpt), "--checkpoint", str(ckpt),
                 "--plot"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "does not hold the lines of weeks 1-2" in err
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in [*out.iterdir(), ckpt]} == before


@pytest.mark.parametrize(
    "part, key, value",
    [
        ("pipeline", "pca_components", float("nan")),
        ("pipeline", "scaler_min", float("-inf")),
        ("registry", "vectors", float("nan")),
    ],
)
def test_replay_resume_checkpoint_with_non_finite_vectors_exits_one(
    tmp_path, capsys, part, key, value
):
    # unchecked, these reach the week's snapshot and fail inside cKDTree
    def edit(doc):
        values = doc[part][key]
        if isinstance(values[0], list):
            values = values[0]
        values[0] = value

    code, err = resume_edited_checkpoint(tmp_path, capsys, edit)
    assert code == 1
    assert err.startswith("error:") and f"{key} are not finite" in err
    assert "Traceback" not in err


def test_replay_resume_with_a_changed_score_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    config_path = tmp_path / "config.json"
    write_tiny_plan(plan_path, weeks=3)
    config_path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    ckpt = tmp_path / "ckpt.csk"
    (data / "week_3.csv").rename(tmp_path / "week_3.csv")
    main(["replay", "--config", str(config_path), "--data-dir", str(data),
          "--out-dir", str(tmp_path / "first"), "--checkpoint", str(ckpt)])
    (tmp_path / "week_3.csv").rename(data / "week_3.csv")

    def change_first_score(rows):
        at = rows[0].index("score")
        rows[1][at] = "35" if int(rows[1][at]) != 35 else "13"

    _edit_csv(data / "labels.csv", change_first_score)
    capsys.readouterr()
    code = main(
        ["replay", "--config", str(config_path), "--data-dir", str(data),
         "--out-dir", str(tmp_path / "out"), "--resume", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "score" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_eval_oracle_gradients(capsys):
    assert main(["eval-oracle", "--suite", "gradients"]) == 0
    assert "gradient oracle: PASS" in capsys.readouterr().err


FEATURE = sorted(FEATURES)[0]


def _edit_csv(path: Path, edit, quoting=csv.QUOTE_MINIMAL) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=quoting).writerows(rows)


def _set_cell(path: Path, column: str, value: str) -> None:
    def edit(rows):
        rows[1][rows[0].index(column)] = value

    _edit_csv(path, edit)


def _drop_column(path: Path, column: str) -> None:
    def edit(rows):
        at = rows[0].index(column)
        for row in rows:
            del row[at]

    _edit_csv(path, edit)


def _prefix_line(path: Path, line: int, data: bytes) -> None:
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = data + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


def _repeat_on_line_4_bad_score_on_line_6(rows):
    rows.insert(3, [rows[1][0], "39"])
    rows[5][rows[0].index("score")] = "2x"


def _blank_line_2_bad_cell_on_line_3(rows):
    rows[1][rows[0].index(FEATURE)] = "abc"
    rows.insert(1, [])


MALFORMED_DATA = {
    "non_numeric_feature": (
        lambda d: _set_cell(d / "week_1.csv", FEATURE, "abc"),
        "week_1.csv, line 2",
    ),
    "missing_feature_column": (
        lambda d: _drop_column(d / "week_1.csv", FEATURE),
        "week_1.csv, line 1",
    ),
    "non_integer_score": (
        lambda d: _set_cell(d / "labels.csv", "score", "2x"),
        "labels.csv, line 2",
    ),
    "out_of_range_score": (
        lambda d: _set_cell(d / "labels.csv", "score", "55"),
        "labels.csv, line 2",
    ),
    "nan_feature": (
        lambda d: _set_cell(d / "week_1.csv", FEATURE, "nan"),
        "week_1.csv, line 2",
    ),
    "inf_feature": (
        lambda d: _set_cell(d / "week_1.csv", FEATURE, "inf"),
        "week_1.csv, line 2",
    ),
    "negative_inf_feature": (
        lambda d: _set_cell(d / "week_1.csv", FEATURE, "-inf"),
        "week_1.csv, line 2",
    ),
    "row_of_another_week": (
        lambda d: _set_cell(d / "week_1.csv", "week", "2"),
        "week_1.csv, line 2",
    ),
    "non_iso_day": (
        lambda d: _set_cell(d / "week_1.csv", "day", "garbage"),
        "week_1.csv, line 2",
    ),
    "unknown_segment": (
        lambda d: _set_cell(d / "week_1.csv", "segment", "noon"),
        "week_1.csv, line 2",
    ),
    "week_file_name": (
        lambda d: (d / "week_x.csv").write_bytes((d / "week_1.csv").read_bytes()),
        "week_x.csv",
    ),
    "non_utf8_week_file": (
        lambda d: _prefix_line(d / "week_1.csv", 3, b"\xff"),
        "week_1.csv, line 3: not UTF-8 text",
    ),
    "non_utf8_labels": (
        lambda d: _prefix_line(d / "labels.csv", 2, b"\xff"),
        "labels.csv, line 2: not UTF-8 text",
    ),
    "cell_over_the_field_limit": (
        lambda d: _set_cell(d / "week_1.csv", "social_context", "x" * 200_000),
        "week_1.csv, line 2: field larger than field limit",
    ),
    "repeated_participant_in_labels": (
        lambda d: _edit_csv(d / "labels.csv", lambda rows: rows.insert(3, [rows[1][0], "39"])),
        "labels.csv, line 4: participant P001 has a second row",
    ),
    "duplicate_week_file": (
        lambda d: (d / "week_01.csv").write_bytes((d / "week_1.csv").read_bytes()),
        f"{Path('data', 'week_01.csv')} and ",
    ),
    "week_file_name_with_a_non_ascii_digit": (
        lambda d: (d / "week_1.csv").rename(d / "week_\u0661.csv"),
        "a week file must be named week_<n>.csv",
    ),
    # a quoted file is read by csv.reader, not split at its commas
    "repeated_participant_in_quoted_labels": (
        lambda d: _edit_csv(
            d / "labels.csv", lambda rows: rows.insert(3, [rows[1][0], "39"]), csv.QUOTE_ALL
        ),
        "labels.csv, line 4: participant P001 has a second row",
    ),
    # the first fault in file order is named
    "repeated_participant_before_a_bad_score": (
        lambda d: _edit_csv(d / "labels.csv", _repeat_on_line_4_bad_score_on_line_6),
        "labels.csv, line 4: participant P001 has a second row",
    ),
    "blank_line_before_a_bad_cell": (
        lambda d: _edit_csv(d / "week_1.csv", _blank_line_2_bad_cell_on_line_3),
        "week_1.csv, line 3: could not convert",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DATA))
def test_replay_malformed_data_file_exits_one(tmp_path, capsys, case):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=1)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    corrupt, where = MALFORMED_DATA[case]
    corrupt(data)
    capsys.readouterr()
    code = main(["replay", "--data-dir", str(data), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and where in err and "Traceback" not in err
    if case == "duplicate_week_file":
        assert str(Path("data", "week_1.csv")) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column", ["sleep_duration", "social_context"])
def test_replay_week_with_a_blank_feature_column_exits_one_before_week_one(
    tmp_path, capsys, column
):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=3)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])

    def blank(rows):
        at = rows[0].index(column)
        for row in rows[1:]:
            row[at] = ""

    _edit_csv(data / "week_3.csv", blank)
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(
        ["replay", "--data-dir", str(data), "--out-dir", str(out),
         "--checkpoint", str(out / "ckpt.csk")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: week 3: feature {column!r} has no observed values"]
    assert not out.exists()


def test_replay_bad_line_in_the_helpers_half_of_the_week_files_exits_one(tmp_path, capsys):
    # of 4 week files, the forked helper reads weeks 3 and 4
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=4)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    _set_cell(data / "week_4.csv", FEATURE, "abc")
    capsys.readouterr()
    code = main(["replay", "--data-dir", str(data), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "week_4.csv, line 2:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
