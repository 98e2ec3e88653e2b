"""The benchmark's tracer must still find every name it wraps in the package.

`perfbench/run.py --trace 1` patches package functions by name; this test
fails as soon as a refactor drops or renames one of them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer  # noqa: E402

from cohortsense import cluster, engine, ensemble, reporting, synthgen  # noqa: E402
from cohortsense.learners import validation  # noqa: E402

OWNERS = (synthgen, engine, ensemble, reporting, validation, cluster.ClusterRegistry)


def test_tracer_installs_and_restores_every_patched_name():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    try:
        tracer.install()
        assert engine.vote is not before[1]["vote"]
        assert ensemble.vote is not before[2]["vote"]
        assert engine.evaluate_week is not before[1]["evaluate_week"]
    finally:
        tracer.close()
    for owner, names in zip(OWNERS, before):
        now = vars(owner)
        assert set(now) == set(names)
        changed = [name for name, value in names.items() if now[name] is not value]
        assert not changed, f"{owner.__name__}: {changed} not restored"
