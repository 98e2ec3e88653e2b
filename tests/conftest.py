"""Checks that hold for every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped: the
    weekly step, `synth` and loading the week files each fork a helper
    (`forking.side_by_side`), which must always be reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"{pid} unreaped"
    pytest.fail(f"the test left a child process {state}")
