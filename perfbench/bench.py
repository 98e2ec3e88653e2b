"""One workload: set up its cohort files, replay them week by week, check.

A replay hands the program one week at a time through `engine.run_replay`,
writing each week's reports and checkpoint, the way a weekly job runs. In a
resume workload each week first loads the previous week's checkpoint.
Checks and digests are computed after the timed part and outside it.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from cohortsense import engine, synthgen

import cohorts
import oracle
from speed import Gauge


@dataclass
class Round:
    """Timings, checks and digests of one replay of a workload."""

    week_seconds: list[float]  # reference seconds (see speed.py) of each week
    week_wall: list[float]  # wall seconds of each week
    errors: dict[int, list[str]]  # week -> failed checks of that week's operation
    vote_f1: float = 0.0
    cohort_ari: float = 0.0
    checkpoint_bytes: int = 0
    digests: dict = field(default_factory=dict)

    @property
    def replay_s(self) -> float:
        return sum(self.week_seconds)

    @property
    def replay_wall(self) -> float:
        return sum(self.week_wall)

    @property
    def failed(self) -> int:
        return sum(1 for errs in self.errors.values() if errs)


def setup(workload: cohorts.Workload, data_dir: Path, gauge: Gauge) -> tuple[float, float, list]:
    """Generate the workload's cohort files and read them back.

    Returns its wall seconds, its reference seconds and the batches."""
    shutil.rmtree(data_dir, ignore_errors=True)
    return gauge.timed(_setup, workload, data_dir)


def _setup(workload: cohorts.Workload, data_dir: Path) -> list:
    plan = workload.plan()
    batches = synthgen.generate_cohort(
        cohorts.generation_plan(plan, workload.weeks),
        synthgen.build_default_profiles(),
        cohorts.COHORT_SEED,
    )
    synthgen.write_cohort(
        data_dir,
        [b for b in batches if b.week <= workload.weeks],
        cohorts.weeks_of(plan, range(1, workload.weeks + 1)),
    )
    del batches
    return synthgen.load_batches(data_dir)


def _step(state, batch, out_dir: Path, ckpt: Path, load: bool):
    """One operation: (load,) step, write the reports, save the checkpoint."""
    if load:
        state = engine.load(ckpt)
    _, after = engine.run_replay(state, [batch], out_dir, ckpt)
    return state, after


def replay(
    workload: cohorts.Workload, batches: list, data_dir: Path, out_dir: Path, gauge: Gauge
) -> Round:
    """Replay every week into `out_dir`, then check and digest the outputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    ckpt = out_dir / "state.csk"
    weeks = [b.week for b in batches]
    rnd = Round(week_seconds=[], week_wall=[], errors={w: [] for w in weeks})
    state = workload.config
    saved = None  # what the last checkpoint must give back on load
    for batch in batches:
        try:
            load = workload.resume and saved is not None
            wall, ref, (state, after) = gauge.timed(_step, state, batch, out_dir, ckpt, load)
        except Exception as exc:  # noqa: BLE001 - reported as failed operations
            for w in weeks[weeks.index(batch.week):]:
                rnd.errors[w].append(f"week {batch.week} raised {type(exc).__name__}: {exc}")
            return rnd
        rnd.week_wall.append(wall)
        rnd.week_seconds.append(ref)
        if workload.resume:
            if saved is not None:
                rnd.errors[batch.week] += oracle.check_resumed(saved, oracle.state_summary(state))
            saved = oracle.state_summary(after)
            state = None
        else:
            state = after
        last_state, after = after, None
    try:
        _check(workload, rnd, weeks, data_dir, out_dir, ckpt, last_state)
        rnd.checkpoint_bytes = ckpt.stat().st_size
        rnd.digests = digests(out_dir, ckpt, weeks)
    except (OSError, KeyError, ValueError) as exc:
        rnd.errors[weeks[-1]].append(f"outputs unreadable: {type(exc).__name__}: {exc}")
    return rnd


def _check(workload, rnd: Round, weeks, data_dir: Path, out_dir: Path, ckpt: Path, last_state) -> None:
    doc = oracle.read_checkpoint(ckpt)
    holdout = frozenset(doc["holdout"])
    scores = oracle.read_scores(data_dir)
    confusions = []
    for week in weeks:
        errors = rnd.errors[week]
        errors += oracle.check_votes(out_dir, week)
        confusion = oracle.holdout_confusion(out_dir, week, holdout, scores)
        errors += oracle.check_confusion(out_dir, week, confusion)
        confusions.append(confusion)
        if workload.cohort_counts is not None:
            errors += oracle.check_cohort_count(out_dir, week, workload.cohort_counts[week - 1])
    program = oracle.as_partition(*last_state.registry.partition())
    rnd.errors[weeks[-1]] += oracle.check_partition(doc, program)
    rnd.cohort_ari = oracle.cohort_ari(program, oracle.planted_groups(data_dir))
    rnd.errors[weeks[-1]] += oracle.check_ari(rnd.cohort_ari)
    rnd.vote_f1 = oracle.f1_score(confusions)


def _sha(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def digests(out_dir: Path, ckpt: Path, weeks: list[int]) -> dict:
    """sha256 of each week's report, clusters and votes files, of all of them
    with the run log, and of the final checkpoint. summary.csv is left out:
    it covers only the weeks of one `run_replay` call."""
    per_week = {
        str(w): _sha(*(out_dir / f"{kind}_week_{w}.csv" for kind in ("report", "clusters", "votes")))
        for w in weeks
    }
    outputs = hashlib.sha256("".join(per_week.values()).encode())
    outputs.update(bytes.fromhex(_sha(out_dir / "runlog.jsonl")))
    return {"outputs": outputs.hexdigest(), "checkpoint": _sha(ckpt), "weeks": per_week}
