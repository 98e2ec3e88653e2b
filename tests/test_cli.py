"""End-to-end CLI tests driven through main()."""

import csv
import gzip
import json
from pathlib import Path

import pytest

from cohortsense.cli import main
from cohortsense.synthgen import FEATURES, CohortPlan


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
    "learners": {
        "logreg_iterations": 60,
        "svm_epochs": 60,
        "forest_trees": 8,
        "forest_depth": 4,
        "gbt_rounds": 8,
    },
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


@pytest.mark.parametrize(
    "text, message",
    [("{not json", "JSONDecodeError"), ('{"total_participants": 3}', "KeyError: 'lonely_count'")],
)
def test_synth_malformed_plan_exits_one(tmp_path, capsys, text, message):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(text, encoding="utf-8")
    code = main(["synth", "--out-dir", str(tmp_path / "out"), "--plan", str(plan_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and str(plan_path) in err and message in err


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


def test_replay_resume_malformed_checkpoint_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    plan_path = tmp_path / "plan.json"
    write_tiny_plan(plan_path, weeks=1)
    main(["synth", "--seed", "3", "--out-dir", str(data), "--plan", str(plan_path)])
    ckpt = tmp_path / "bad.csk"
    with gzip.GzipFile(ckpt, "wb", mtime=0) as fh:
        fh.write(json.dumps({"schema_version": 1}).encode("utf-8"))
    capsys.readouterr()
    code = main(
        ["replay", "--data-dir", str(data), "--out-dir", str(tmp_path / "out"),
         "--resume", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_replay_resume_checkpoint_with_out_of_range_split_exits_one(tmp_path, capsys):
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
    trees = doc["pool"]["generic"]["models"]["random_forest"]["trees"]
    next(t for t in trees if "feature" in t)["feature"] = 99
    with gzip.GzipFile(ckpt, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc).encode("utf-8"))
    capsys.readouterr()
    code = main(
        ["replay", "--config", str(config_path), "--data-dir", str(data),
         "--out-dir", str(tmp_path / "out"), "--resume", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "feature 99" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "report_week_2.csv").exists()


def test_replay_resume_checkpoint_naming_an_unknown_point_exits_one(tmp_path, capsys):
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
    doc["registry"]["prev_memberships"] = {"G1": ["ZZZ|w01"]}
    with gzip.GzipFile(ckpt, "wb", mtime=0) as fh:
        fh.write(json.dumps(doc).encode("utf-8"))
    capsys.readouterr()
    code = main(
        ["replay", "--config", str(config_path), "--data-dir", str(data),
         "--out-dir", str(tmp_path / "out"), "--resume", str(ckpt)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "outside the registry" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "report_week_2.csv").exists()


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


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


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
    "duplicate_week_file": (
        lambda d: (d / "week_01.csv").write_bytes((d / "week_1.csv").read_bytes()),
        f"{Path('data', 'week_01.csv')} and ",
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
    assert err.startswith("error:") and where in err
    if case == "duplicate_week_file":
        assert str(Path("data", "week_1.csv")) in err
    assert not (tmp_path / "out").exists()
