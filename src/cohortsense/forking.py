"""Two pieces of work side by side, one of them in a forked helper process
(POSIX `os.fork`) whose result comes back pickled through a pipe. Work done
in the helper is invisible to in-process tracing and profiling."""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from typing import Callable


def side_by_side(here: Callable, there: Callable, what: str) -> tuple:
    """``(here(), there())``, with ``there()`` run in one forked helper that
    sends back its result, or the exception it raised, pickled through a
    pipe, and ends with `os._exit`. This process always reaps the helper,
    and kills it first when ``here()`` raises or is interrupted, so an error
    of ``here()`` wins. The helper's exception is raised again with its type
    and message, its traceback text as the cause (one that does not survive
    a pickle round trip becomes a `RuntimeError` naming both); a helper that
    ends without a result raises `ChildProcessError` naming ``what`` and its
    exit status.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = _helper_result(there)
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            mine = here()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    code = os.waitstatus_to_exitcode(status)
    if code:
        ended = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise ChildProcessError(f"{what} ended without a result ({ended})")
    error, trace, theirs = pickle.loads(data)
    if error is not None:
        raise error from RuntimeError(f"{what} raised:\n{trace}")
    return mine, theirs


def _helper_result(there: Callable) -> bytes:
    """The pickled (error, its traceback, result) of ``there()``. An error
    that does not survive pickling is sent as a `RuntimeError` that names
    its type and message."""
    try:
        return pickle.dumps((None, None, there()))
    except Exception as exc:
        trace = traceback.format_exc()
        try:
            data = pickle.dumps((exc, trace, None))
            pickle.loads(data)
        except Exception:
            data = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), trace, None))
        return data
