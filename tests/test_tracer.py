"""The benchmark's tracer must still find every name it wraps in the package.

`perfbench/run.py --trace 1` patches package functions by name; these tests
fail as soon as a refactor drops or renames one of them, or routes the
training around the names the tracer times.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer  # noqa: E402

from cohortsense import cluster, engine, ensemble, reporting, synthgen  # noqa: E402
from cohortsense.core import EngineConfig, LearnerConfig  # noqa: E402
from cohortsense.learners import validation  # noqa: E402
from test_cli import FAST_CONFIG, tiny_plan  # noqa: E402

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


def test_traced_replay_reports_each_kind_under_cv():
    # every (set, kind) trains its folds and deployed model inside
    # kfold_cv, so each kind's CV seconds and the call counts are nonzero
    plan = tiny_plan(weeks=2)
    batches = synthgen.generate_cohort(plan, synthgen.build_default_profiles(), seed=3)
    learners = LearnerConfig(**FAST_CONFIG["learners"])
    config = EngineConfig(**dict(FAST_CONFIG, learners=learners))
    tracer = Tracer().install()
    try:
        engine.run_replay(config, batches)
    finally:
        tracer.close()
    metrics = tracer.layer_metrics()
    for kind in ("logreg", "linear_svm", "random_forest", "gbt"):
        assert metrics[f"learners.{kind}.cv_s"] > 0, kind
    assert metrics["learners.cv_fits"] > 0
    assert metrics["learners.smote_calls"] > 0


class NamingTracer(Tracer):
    """A tracer that also keeps every span name it wraps."""

    def __init__(self) -> None:
        super().__init__()
        self.names: set[str] = set()

    def wrap(self, owner, attr, name, count=None) -> None:
        self.names.add(name)
        super().wrap(owner, attr, name, count)


def test_a_traced_synth_load_replay_and_resume_record_every_wrapped_name(tmp_path):
    # a name that no call reaches reads 0 in its per-layer metric, so a
    # refactor that routes around one must fail here
    plan = tiny_plan(weeks=3)
    learners = LearnerConfig(**FAST_CONFIG["learners"])
    config = EngineConfig(**dict(FAST_CONFIG, learners=learners))
    data, out, checkpoint = tmp_path / "data", tmp_path / "out", tmp_path / "state.csk"
    tracer = NamingTracer().install()
    try:
        batches = synthgen.generate_cohort(plan, synthgen.build_default_profiles(), seed=3)
        synthgen.write_cohort(data, batches, plan)
        batches = synthgen.load_batches(data)
        engine.run_replay(config, batches[:2], out_dir=out, checkpoint_path=checkpoint)
        resumed = engine.load(checkpoint)
        engine.run_replay(resumed, batches[2:], out_dir=out, checkpoint_path=checkpoint)
    finally:
        tracer.close()
    recorded = {span[0] for span in tracer.spans}
    assert tracer.names and not tracer.names - recorded, sorted(tracer.names - recorded)
