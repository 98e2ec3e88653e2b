"""Spans around the calls into each layer of the package, made from outside it.

`Tracer.install()` replaces the public functions the engine calls with
wrappers that record a span (name, start, end, parent) per call; the
program's source is not touched. Spans stay in memory until `write`. A
layer's self time is its spans' durations minus the parts covered by
their child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from cohortsense import cluster, engine, ensemble, reporting, synthgen
from cohortsense.learners import validation

TRAIN_KINDS = {
    "train_logreg": "logreg",
    "train_linear_svm": "linear_svm",
    "train_random_forest": "random_forest",
    "train_gbt": "gbt",
}
WRITERS = ("write_weekly_report", "write_clusters", "write_votes", "append_run_log", "write_summary")


def _new_sets(args, result) -> int:
    """Model sets a refresh call fitted: those not carried over unchanged."""
    before, after = args[0], result[0]
    fitted = int(after.generic is not None and after.generic is not before.generic)
    fitted += sum(
        1 for label, s in after.specialized.items() if s is not before.specialized.get(label)
    )
    return fitted


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def wrap(self, owner: object, attr: str, name: str, count=None) -> None:
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                for key, n in count(args, result).items():
                    tracer.counts[key] += n
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, raw))

    def install(self) -> "Tracer":
        w = self.wrap
        w(synthgen, "generate_cohort", "synthgen.generate")
        w(synthgen, "write_cohort", "synthgen.generate")
        w(synthgen, "load_batches", "synthgen.load_batches",
          lambda a, r: {"synthgen.records": sum(len(b.records) for b in r)})
        w(engine, "fit_pipeline", "preprocess.fit_pipeline")
        w(engine, "vectorize_week", "preprocess.vectorize_week",
          lambda a, r: {"preprocess.vectors": len(r[0])})
        reg = cluster.ClusterRegistry
        w(reg, "insert", "cluster.insert", lambda a, r: {"cluster.inserts": 1})
        w(reg, "snapshot", "cluster.snapshot",
          lambda a, r: {"cluster.cohorts": len(r.cohorts), "cluster.noise": len(r.noise)})
        w(reg, "copy", "cluster.copy")
        w(reg, "from_json", "cluster.from_json")
        for fn in TRAIN_KINDS:
            w(ensemble, fn, f"learners.{fn}")
        w(ensemble, "kfold_cv", "learners.kfold_cv")
        smote_count = lambda a, r: {"learners.smote_calls": 1, "learners.smote_rows": len(r) - len(a[0])}
        w(ensemble, "smote", "learners.smote", smote_count)
        w(validation, "smote", "learners.smote", smote_count)
        for fn in ("refresh_generic", "refresh_specialized"):
            w(engine, fn, "ensemble.refresh", lambda a, r: {"ensemble.sets_fitted": _new_sets(a, r)})
        w(engine, "vote", "ensemble.vote", lambda a, r: {"ensemble.votes": 1})
        w(ensemble, "vote", "ensemble.vote", lambda a, r: {"ensemble.votes": 1})
        w(engine, "evaluate_week", "ensemble.evaluate")
        w(engine, "step", "engine.step")
        w(engine, "save", "engine.save", lambda a, r: {"engine.saves": 1})
        w(engine, "load", "engine.load", lambda a, r: {"engine.loads": 1})
        for fn in WRITERS:
            w(reporting, fn, "reporting.write")
        return self

    def close(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self seconds per span name (training split by kind into CV and
        deployed fit), plus the number of CV and deployed fits."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        fits: Counter = Counter()
        for k, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[k]
            fn = name.removeprefix("learners.")
            if fn in TRAIN_KINDS:
                phase = "cv" if self._inside(k, "learners.kfold_cv") else "fit"
                name = f"learners.{TRAIN_KINDS[fn]}.{phase}"
                fits["learners.cv_fits" if phase == "cv" else "learners.fits"] += 1
            seconds[name] += own
        return seconds, fits

    def _inside(self, k: int, name: str) -> bool:
        parent = self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self seconds and counts, keyed by metric name."""
        seconds, fits = self.self_times()
        counts = self.counts + fits
        out = {metric: seconds.get(span, 0.0) for metric, span in SECONDS.items()}
        out.update((key, counts.get(key, 0)) for key in COUNTS)
        return out

    def write(self, path: Path) -> None:
        rows = [[n, s - self._t0, e - self._t0, p] for n, s, e, p in self.spans]
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"], "spans": rows}))


# metric name -> span name whose self time it reports
SECONDS = {
    f"learners.{kind}.{phase}_s": f"learners.{kind}.{phase}"
    for kind in TRAIN_KINDS.values()
    for phase in ("cv", "fit")
} | {
    "learners.cv_self_s": "learners.kfold_cv",
    "learners.smote_s": "learners.smote",
    "cluster.insert_s": "cluster.insert",
    "cluster.snapshot_s": "cluster.snapshot",
    "cluster.copy_s": "cluster.copy",
    "cluster.from_json_s": "cluster.from_json",
    "engine.load_s": "engine.load",
    "engine.save_s": "engine.save",
    "engine.step_self_s": "engine.step",
    "preprocess.fit_pipeline_s": "preprocess.fit_pipeline",
    "preprocess.vectorize_week_s": "preprocess.vectorize_week",
    "synthgen.generate_s": "synthgen.generate",
    "synthgen.load_batches_s": "synthgen.load_batches",
    "ensemble.refresh_self_s": "ensemble.refresh",
    "ensemble.vote_s": "ensemble.vote",
    "ensemble.evaluate_s": "ensemble.evaluate",
    "reporting.write_s": "reporting.write",
}
COUNTS = (
    "learners.cv_fits",
    "learners.fits",
    "learners.smote_calls",
    "learners.smote_rows",
    "cluster.inserts",
    "cluster.cohorts",
    "cluster.noise",
    "engine.loads",
    "engine.saves",
    "preprocess.vectors",
    "synthgen.records",
    "ensemble.sets_fitted",
    "ensemble.votes",
)
