"""Self-tests of the benchmark's checks and of the resume promise it measures.

Each check passes on the outputs of a real replay of a tiny cohort and
fails on a corrupted copy of them; a resumed replay of that cohort gives
the digests of a straight one.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import dataclasses
import shutil
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import cohorts  # noqa: E402
import oracle  # noqa: E402
from speed import Gauge, middle_mean  # noqa: E402
from cohortsense.cluster import ClusterRegistry, batch_dbscan  # noqa: E402
from cohortsense.synthgen import build_default_profiles, generate_cohort  # noqa: E402

# every 4th default participant, first 3 weeks: a replay takes about a second
TINY = cohorts.Workload(
    "tiny", copies=1, keep=4, weeks=3, config=cohorts.LIGHT_CONFIG, resume=False, round_s=1
)


@pytest.fixture(scope="module")
def replays(tmp_path_factory):
    root = tmp_path_factory.mktemp("perfbench")
    gauge = Gauge()
    _, _, batches = bench.setup(TINY, root / "data", gauge)
    rounds = {
        resume: bench.replay(
            dataclasses.replace(TINY, resume=resume), batches, root / "data", root / f"out-{resume}", gauge
        )
        for resume in (False, True)
    }
    return root, rounds


@pytest.fixture
def outputs(replays, tmp_path):
    """A private copy of the straight replay's outputs, free to corrupt."""
    root, _ = replays
    out = tmp_path / "out"
    shutil.copytree(root / "out-False", out)
    return root / "data", out


def edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def program_partition(out: Path) -> oracle.Partition:
    doc = oracle.read_checkpoint(out / "state.csk")
    return oracle.as_partition(*ClusterRegistry.from_json(doc["registry"]).partition())


def test_generated_weeks_equal_those_of_the_full_study():
    plan = TINY.plan()
    full = generate_cohort(plan, build_default_profiles(), cohorts.COHORT_SEED)
    part = generate_cohort(
        cohorts.generation_plan(plan, TINY.weeks), build_default_profiles(), cohorts.COHORT_SEED
    )
    assert part[: TINY.weeks] == full[: TINY.weeks]


def test_resumed_replay_gives_straight_replay_digests(replays):
    _, rounds = replays
    assert rounds[True].digests["weeks"] == rounds[False].digests["weeks"]
    assert rounds[True].digests == rounds[False].digests


def test_every_check_passes_on_real_outputs(replays):
    _, rounds = replays
    for rnd in rounds.values():
        assert rnd.failed == 0, rnd.errors
        assert 0 < rnd.vote_f1 <= 1


def test_vote_check_fails_on_a_missing_or_duplicated_vote(outputs):
    _, out = outputs
    assert oracle.check_votes(out, 2) == []
    edit_csv(out / "votes_week_2.csv", lambda rows: rows.append(dict(rows[0])))
    assert oracle.check_votes(out, 2)
    edit_csv(out / "votes_week_3.csv", lambda rows: rows.pop())
    assert oracle.check_votes(out, 3)


def test_vote_check_fails_on_a_bad_voter_count_or_rule(outputs):
    _, out = outputs

    def voters(n):
        return lambda rows: rows[0].update(n_voters=str(n))

    edit_csv(out / "votes_week_1.csv", voters(5))
    assert oracle.check_votes(out, 1)
    edit_csv(out / "votes_week_2.csv", lambda rows: rows[0].update(rule_used="generic_only", n_voters="8"))
    assert oracle.check_votes(out, 2)
    edit_csv(out / "votes_week_3.csv", lambda rows: rows[0].update(rule_used="majority", n_voters="4"))
    assert oracle.check_votes(out, 3)


def test_confusion_check_fails_on_a_flipped_holdout_prediction(outputs):
    data, out = outputs
    holdout = frozenset(oracle.read_checkpoint(out / "state.csk")["holdout"])
    scores = oracle.read_scores(data)
    week = 2
    assert oracle.check_confusion(out, week, oracle.holdout_confusion(out, week, holdout, scores)) == []

    def flip(rows):
        row = next(r for r in rows if r["participant_id"] in holdout)
        row["prediction"] = str(1 - int(row["prediction"]))

    edit_csv(out / f"votes_week_{week}.csv", flip)
    assert oracle.check_confusion(out, week, oracle.holdout_confusion(out, week, holdout, scores))


def test_cohort_count_check_fails_on_a_relabelled_point(outputs):
    _, out = outputs
    count = oracle.cohort_count(out, 1)
    assert oracle.check_cohort_count(out, 1, count) == []
    edit_csv(out / "clusters_week_1.csv", lambda rows: rows[0].update(cohort_label="G99"))
    assert oracle.check_cohort_count(out, 1, count)


def test_partition_check_fails_on_a_moved_point(outputs):
    _, out = outputs
    doc = oracle.read_checkpoint(out / "state.csk")
    clusters, noise = program_partition(out)
    assert oracle.check_partition(doc, (clusters, noise)) == []
    largest = max(clusters, key=len)
    moved = min(largest)
    corrupted = (clusters - {largest}) | {largest - {moved}}
    assert oracle.check_partition(doc, (corrupted, noise | {moved}))


def test_ari_check_fails_on_a_merged_partition(outputs):
    data, out = outputs
    clusters, noise = program_partition(out)
    planted = oracle.planted_groups(data)
    assert oracle.check_ari(oracle.cohort_ari((clusters, noise), planted)) == []
    merged = frozenset().union(*clusters)
    assert oracle.check_ari(oracle.cohort_ari((frozenset([merged]), noise), planted))


def test_resume_check_fails_on_a_changed_state(outputs):
    _, out = outputs
    partition = program_partition(out)
    saved = (3, 120, partition)
    assert oracle.check_resumed(saved, saved) == []
    assert oracle.check_resumed(saved, (2, 120, partition))
    assert oracle.check_resumed(saved, (3, 119, partition))
    clusters, noise = partition
    assert oracle.check_resumed(saved, (3, 120, (clusters, noise | {"extra|w01"})))


def test_ari_matches_hand_computed_values():
    assert oracle.adjusted_rand_index([0, 0, 1, 1], [5, 5, 7, 7]) == 1.0
    # pair counts: index 1, truth 1, pred 2, of 6 pairs -> (1 - 1/3) / (3/2 - 1/3)
    assert oracle.adjusted_rand_index([0, 0, 1, 2], [0, 0, 1, 1]) == pytest.approx(4 / 7)
    assert oracle.adjusted_rand_index([0, 0, 1, 1], [0, 0, 0, 1]) == 0.0


def test_dbscan_matches_the_program_batch_oracle():
    rng = np.random.default_rng(7)
    for trial in range(5):
        centers = rng.uniform(-3, 3, size=(3, 2))
        X = np.vstack([c + rng.normal(0, 0.35, size=(40, 2)) for c in centers])
        X = np.vstack([X, rng.uniform(-5, 5, size=(15, 2))])
        ids = [f"p{i:03d}" for i in rng.permutation(len(X))]
        min_pts = oracle.min_pts_for(len(ids), 0.1, 5)
        clusters, noise = batch_dbscan(dict(zip(ids, X)), 0.5, min_pts)
        assert oracle.dbscan(ids, X, 0.5, min_pts) == (frozenset(clusters.values()), noise)


def test_min_pts_is_exact_at_float_boundaries():
    assert oracle.min_pts_for(210, 0.1, 5) == 21
    assert oracle.min_pts_for(211, 0.1, 5) == 22
    assert oracle.min_pts_for(10, 0.1, 5) == 5


def test_gauge_takes_its_probes_out_of_the_step_and_restores_the_handler():
    gauge = Gauge(probe_every=0.05)
    before = signal.getsignal(signal.SIGALRM)
    busy, ref, result = gauge.timed(lambda s: time.sleep(s) or "done", 0.4)
    assert result == "done"
    assert signal.getsignal(signal.SIGALRM) is before
    probes = gauge.samples[1:-1]  # a sample on each side, the probes between
    assert len(probes) >= 4
    # a sleep resumed after a probe ends at its first deadline, so the step's
    # wall time is 0.4 s of which the probes took their share
    assert busy + sum(probes) == pytest.approx(0.4, abs=0.03)
    assert ref > 0


def test_middle_mean_drops_stretched_runs_and_averages_phases():
    assert middle_mean([4.0, 4.0, 40.0, 4.0, 4.0]) == 4.0
    assert middle_mean([7.0, 11.0, 7.0, 11.0, 7.0, 11.0, 7.0, 11.0]) == 9.0
