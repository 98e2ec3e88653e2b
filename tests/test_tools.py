"""The yardstick script under tools/ runs on the smallest input and prints
its one JSON line."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "yardstick.py"


@pytest.fixture(scope="module")
def yardstick():
    spec = importlib.util.spec_from_file_location("yardstick", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, workload", [("ten-weeks", "study-replay"), ("probe", "cohort-scale")]
)
def test_a_yardstick_prints_one_json_line_of_two_weeks(yardstick, capsys, name, workload):
    assert yardstick.main([name], {"weeks": 2, "copies": 1}) == 0
    (line,) = capsys.readouterr().out.splitlines()
    doc = json.loads(line)
    assert doc["yardstick"] == name and doc["workload"] == workload
    assert doc["weeks"] == 2 and doc["copies"] == 1
    for key in ("week_wall_s", "week_step_s", "week_helper_wait_s"):
        assert len(doc[key]) == 2 and all(isinstance(s, float) and s >= 0 for s in doc[key]), key
    # the step runs inside the week's call, and the wait inside the step
    for wall, step, wait in zip(doc["week_wall_s"], doc["week_step_s"], doc["week_helper_wait_s"]):
        assert wait <= step <= wall
    assert doc["replay_wall_s"] == sum(doc["week_wall_s"])
    assert 0 < doc["checkpoint_bytes"] < doc["payload_bytes"]
    for key in ("checkpoint_sha256", "files_digest"):
        assert len(doc[key]) == 64 and int(doc[key], 16) >= 0, key
    assert doc["setup_s"] > 0 and doc["peak_rss_mb"] > 0
