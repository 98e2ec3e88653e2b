"""Tests for `forking.side_by_side`: one piece of work here, one in a forked helper."""

import os
import re
import signal
import time

import pytest

from cohortsense.core import ValidationError
from cohortsense.forking import side_by_side


def test_the_results_come_back_in_order_from_two_processes():
    here, there = side_by_side(lambda: ("here", os.getpid()), lambda: ["there", os.getpid()], "a helper")
    assert here == ("here", os.getpid())
    assert there[0] == "there" and there[1] != os.getpid()


def test_an_error_in_the_helper_is_raised_again_with_its_type_and_message():
    def refuse():
        raise ValidationError("week 4 refused")

    with pytest.raises(ValidationError) as info:
        side_by_side(lambda: None, refuse, "the test helper")
    assert type(info.value) is ValidationError and str(info.value) == "week 4 refused"
    # the helper's traceback rides along as the cause
    cause = str(info.value.__cause__)
    assert cause.startswith("the test helper raised:\n") and "in refuse" in cause


class NeedsTwoArguments(Exception):
    """Pickles, but does not unpickle: pickle calls the class with ``args``."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def test_an_error_that_does_not_survive_pickling_is_a_runtime_error_naming_it():
    class LocalError(Exception):
        """Cannot be pickled: pickle finds a class by its module and name."""

    for error in (LocalError("stays in the helper"), NeedsTwoArguments("week 4", "refused")):

        def fail(error=error):
            raise error

        with pytest.raises(RuntimeError) as info:
            side_by_side(lambda: None, fail, "the test helper")
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
def test_a_helper_that_ends_without_a_result_is_an_error(end, message):
    with pytest.raises(ChildProcessError, match=re.escape(f"the test helper ended without a result {message}")):
        side_by_side(lambda: None, end, "the test helper")


@pytest.mark.parametrize("error", [ValidationError("week 1 refused"), KeyboardInterrupt()], ids=repr)
def test_a_failed_here_kills_and_reaps_the_helper_and_its_error_wins(tmp_path, error):
    pid_file = tmp_path / "helper.pid"

    def hang():
        (tmp_path / "pid.tmp").write_text(str(os.getpid()))
        (tmp_path / "pid.tmp").rename(pid_file)
        time.sleep(60)
        raise ValidationError("the helper's own error")

    def fail_once_the_helper_runs():
        deadline = time.monotonic() + 30
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise error

    start = time.monotonic()
    with pytest.raises(type(error)) as info:
        side_by_side(fail_once_the_helper_runs, hang, "the test helper")
    assert info.value is error
    assert time.monotonic() - start < 30
    # reaped: a zombie would still take the signal
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
