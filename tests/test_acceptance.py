"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The two replay-backed
criteria share session fixtures; the full suite takes several minutes.
"""

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from planted import FIXTURE_SEED, build_planted_fixture

from cohortsense.core import EngineConfig, LearnerConfig
from cohortsense.engine import load, new_state, run_replay, save, step
from cohortsense.ensemble import ModelPool, ModelSet, vote
from cohortsense.learners import (
    Dataset,
    compute_metrics,
    smote,
    stratified_folds,
)
from cohortsense.learners.base import KIND_ORDER
from cohortsense.oracles import dbscan_trials, gradient_max_rel_error
from cohortsense.synthgen import (
    CohortPlan,
    build_default_plan,
    build_default_profiles,
    generate_cohort,
)

EXPECTED_SEQUENCE = [3, 3, 3, 3, 4, 4, 4, 3, 4, 4]


def announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def adjusted_rand_index(truth: list, pred: list) -> float:
    """ARI from pair counts over the contingency table (Hubert & Arabie 1985)."""

    def pairs(counts) -> int:
        return sum(c * (c - 1) // 2 for c in counts)

    index = pairs(Counter(zip(truth, pred)).values())
    rows = pairs(Counter(truth).values())
    cols = pairs(Counter(pred).values())
    total = pairs([len(truth)])
    expected = rows * cols / total if total else 0.0
    best = (rows + cols) / 2
    if best == expected:
        return 1.0
    return (index - expected) / (best - expected)


def test_adjusted_rand_index_known_values():
    assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 7, 7]) == 1.0
    assert adjusted_rand_index([0, 0, 1, 2], [0, 0, 1, 1]) == pytest.approx(4 / 7)
    assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 0, 1]) == 0.0
    spread = adjusted_rand_index([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2])
    assert spread == pytest.approx(-4 / 11)


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="session")
def default_replay():
    """Default synthetic cohort (seed 42) replayed with the default config."""
    plan = build_default_plan()
    profiles = build_default_profiles()
    batches = generate_cohort(plan, profiles, seed=42)
    start = time.monotonic()
    reports, state = run_replay(EngineConfig(rng_seed=42), batches)
    elapsed = time.monotonic() - start
    return plan, batches, reports, state, elapsed


@pytest.fixture(scope="session")
def planted_replay():
    plan, profiles = build_planted_fixture()
    batches = generate_cohort(plan, profiles, seed=FIXTURE_SEED)
    reports, state = run_replay(EngineConfig(rng_seed=FIXTURE_SEED), batches)
    return plan, reports, state


# ------------------------------------------------------------------ criteria


def test_criterion_1_incremental_vs_batch_equivalence():
    """Registry partitions equal batch DBSCAN over seeds and orders."""
    start = time.monotonic()
    for _, _, registry, oracle in dbscan_trials(1234):
        assert registry.point_count == 200
        assert registry.min_pts == 20
        assert registry.partition() == oracle
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    announce(1, f"incremental-vs-batch equivalence, {elapsed:.1f}s")


def test_criterion_2_cohort_trajectory(default_replay):
    """Default cohort reproduces the reported weekly group dynamics."""
    plan, batches, reports, state, elapsed = default_replay
    assert elapsed < 300.0, f"replay took {elapsed:.1f}s, budget is 300s"

    cohorts = [{a for a in r.assignments.values() if a is not None} for r in reports]
    sequence = [len(c) for c in cohorts]
    assert sequence == EXPECTED_SEQUENCE

    week4, week5, week7, week8, week9 = (cohorts[w - 1] for w in (4, 5, 7, 8, 9))
    assert week5 - week4 == {"G4"}  # a fourth cohort emerges in week five
    emergent_w7 = week7 - {"G1", "G2", "G3"}
    assert emergent_w7 == {"G4"}
    re_emergent = week9 - week8
    assert re_emergent == emergent_w7  # same cohort label restored

    # planted-structure recovery: clustering matches planted membership
    clusters, noise = state.registry.partition()
    label_of = {}
    for i, (key, members) in enumerate(sorted(clusters.items())):
        for point in members:
            label_of[point] = i
    truth, pred = [], []
    j = 0
    for week in range(1, 11):
        for group, members in plan.weekly_group_membership[week].items():
            for pid in members:
                point = f"{pid}|w{week:02d}"
                if point in label_of or point in noise:
                    truth.append(group)
                    pred.append(label_of.get(point, -1 - j))
                    j += 1
    ari = adjusted_rand_index(truth, pred)
    assert ari >= 0.8, f"adjusted Rand index {ari:.3f} below 0.8"
    announce(2, f"cohort trajectory {sequence}, ARI {ari:.3f}, {elapsed:.0f}s")


def test_criterion_3_group_based_beats_generic(planted_replay):
    """Specialized sets beat the generic set for >= 3 of 4 kinds."""
    plan, reports, state = planted_replay
    final = reports[-1]
    generic = {er.kind: er.metrics.f1 for er in final.eval_rows if er.scope == "generic"}
    by_kind: dict[str, list[float]] = {}
    for er in final.eval_rows:
        if er.scope == "specialized":
            by_kind.setdefault(er.kind, []).append(er.metrics.f1)
    assert len(by_kind) == 4
    margins = {}
    wins = 0
    for kind, values in by_kind.items():
        margins[kind] = float(np.mean(values)) - generic[kind]
        if margins[kind] > 0.02:
            wins += 1
    voting = next(er.metrics.f1 for er in final.eval_rows if er.scope == "voting")
    assert wins >= 3, f"only {wins} kinds exceed generic by 0.02: {margins}"
    assert voting >= generic["gbt"] - 0.02, (
        f"voting F1 {voting:.3f} below generic GBT {generic['gbt']:.3f} - 0.02"
    )
    pretty = {k: round(v, 3) for k, v in margins.items()}
    announce(3, f"specialized margins {pretty}, voting {voting:.3f}")


def test_criterion_4_smote_geometry_and_balance():
    """Synthetic points are exact segment interpolations; classes balance."""
    rng = np.random.default_rng(99)
    for trial in range(50):
        d = int(rng.integers(2, 7))
        n_min = int(rng.integers(7, 20))
        n_maj = n_min + int(rng.integers(10, 40))
        vectors = np.vstack(
            [rng.normal(0, 1, size=(n_min, d)), rng.normal(3, 1, size=(n_maj, d))]
        )
        labels = np.array([1] * n_min + [0] * n_maj)
        ds = Dataset(vectors, labels, tuple(f"p{i:03d}" for i in range(len(labels))))
        out = smote(ds, 5, seed=trial)
        zeros, ones = out.class_counts()
        assert zeros == ones

        minority = vectors[:n_min]
        diffs = minority[:, None, :] - minority[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        nn = np.argsort(dist, axis=1, kind="stable")[:, :5]

        synth = out.vectors[n_min + n_maj :]
        for s in synth:
            found = False
            for i in range(n_min):
                for j in nn[i]:
                    x, xn = minority[i], minority[j]
                    denom = xn - x
                    active = np.abs(denom) > 1e-12
                    if not active.any():
                        if np.max(np.abs(s - x)) <= 1e-9:
                            found = True
                            break
                        continue
                    u = (s[active] - x[active]) / denom[active]
                    inactive_ok = (
                        not (~active).any()
                        or np.max(np.abs(s[~active] - x[~active])) <= 1e-9
                    )
                    if (
                        np.max(np.abs(u - u[0])) <= 1e-9
                        and -1e-9 <= u[0] < 1.0 + 1e-9
                        and inactive_ok
                    ):
                        found = True
                        break
                if found:
                    break
            assert found, f"trial {trial}: synthetic point off all neighbor segments"
    announce(4, "SMOTE geometry and balance, 50 datasets")


def test_criterion_5_gradient_oracle():
    worst = gradient_max_rel_error(41)
    assert worst < 1e-4
    announce(5, f"gradient oracle, max relative error {worst:.2e}")


def test_criterion_6_metrics_oracle():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 80))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        m = compute_metrics(preds, labels)
        tp = int(np.sum((preds == 1) & (labels == 1)))
        fp = int(np.sum((preds == 1) & (labels == 0)))
        fn = int(np.sum((preds == 0) & (labels == 1)))
        tn = int(np.sum((preds == 0) & (labels == 0)))
        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
        assert abs(m.accuracy - (tp + tn) / n) < 1e-12
        precision = (1.0 if tp + fn == 0 else 0.0) if tp + fp == 0 else tp / (tp + fp)
        recall = (1.0 if tp + fp == 0 else 0.0) if tp + fn == 0 else tp / (tp + fn)
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        assert abs(m.precision - precision) < 1e-12
        assert abs(m.recall - recall) < 1e-12
        assert abs(m.f1 - f1) < 1e-12
    # documented degenerate cases
    m = compute_metrics([0, 0], [0, 0])
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    m = compute_metrics([0, 0], [1, 0])
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
    announce(6, "metrics oracle, 100 random confusion matrices")


def test_criterion_7_cv_coverage():
    rng = np.random.default_rng(60)
    vectors = rng.normal(size=(205, 4))
    labels = np.array([1] * 87 + [0] * 118)
    ds = Dataset(vectors, labels, tuple(f"p{i:03d}" for i in range(205)))
    folds = stratified_folds(ds, 10, seed=0)
    sizes = sorted(len(f) for f in folds)
    assert set(sizes) <= {20, 21}
    seen = np.concatenate(folds)
    assert len(seen) == 205 and len(np.unique(seen)) == 205
    announce(7, f"CV coverage, fold sizes {sizes}")


def test_criterion_8_checkpoint_determinism(tmp_path):
    """Interrupt-after-week-5 resume is byte-identical for weeks 6-10."""
    profiles = build_default_profiles()
    pids = [f"P{i:03d}" for i in range(1, 61)]
    groups = {
        "G1": frozenset(pids[:25]),
        "G2": frozenset(pids[25:45]),
        "G3": frozenset(pids[45:]),
    }
    plan = CohortPlan(
        total_participants=60,
        lonely_count=25,
        weekly_group_membership={w: dict(groups) for w in range(1, 11)},
    )
    learners = LearnerConfig(forest_trees=10, forest_depth=4, gbt_rounds=10)
    for seed in (1, 2, 3):
        batches = generate_cohort(plan, profiles, seed=seed)
        config = EngineConfig(cv_folds=3, rng_seed=seed, learners=learners)

        out_straight = tmp_path / f"straight_{seed}"
        run_replay(config, batches, out_dir=out_straight)

        state = new_state(config)
        for batch in batches[:5]:
            state, _ = step(state, batch)
        ckpt = tmp_path / f"ckpt_{seed}.csk"
        save(state, ckpt)
        resumed = load(ckpt)
        out_resumed = tmp_path / f"resumed_{seed}"
        run_replay(resumed, batches[5:], out_dir=out_resumed)

        for week in range(6, 11):
            for name in (
                f"report_week_{week}.csv",
                f"clusters_week_{week}.csv",
                f"votes_week_{week}.csv",
            ):
                straight = (out_straight / name).read_bytes()
                again = (out_resumed / name).read_bytes()
                assert straight == again, f"seed {seed}: {name} differs after resume"
    announce(8, "checkpoint determinism, 3 seeds, weeks 6-10 byte-identical")


class _FixedVote:
    def __init__(self, value: int):
        self.value = value

    def predict(self, X):
        return np.full(len(X), self.value, dtype=int)


def _reference_vote(votes: list[int], weights: list[float]) -> tuple[int, str]:
    """Independent re-statement of majority-then-weighted-tie-break."""
    ones = sum(votes)
    zeros = len(votes) - ones
    if len(votes) == 4:
        rule = "generic_only"
    elif ones != zeros:
        rule = "majority"
    else:
        rule = "weighted_f1"
    if ones > zeros:
        return 1, rule
    if zeros > ones:
        return 0, rule
    w1 = sum(w for v, w in zip(votes, weights) if v == 1)
    w0 = sum(w for v, w in zip(votes, weights) if v == 0)
    if w1 > w0:
        return 1, rule
    if w0 > w1:
        return 0, rule
    return 1, rule


def test_criterion_9_voting_logic_exhaustive():
    weights = [0.81, 0.64, 0.55, 0.72, 0.69, 0.58, 0.77, 0.6]
    for pattern in range(2**8):
        votes = [(pattern >> i) & 1 for i in range(8)]
        generic = ModelSet(
            models={k: _FixedVote(votes[i]) for i, k in enumerate(KIND_ORDER)},
            validation_f1={k: weights[i] for i, k in enumerate(KIND_ORDER)},
            input_dim=2,
        )
        special = ModelSet(
            models={k: _FixedVote(votes[4 + i]) for i, k in enumerate(KIND_ORDER)},
            validation_f1={k: weights[4 + i] for i, k in enumerate(KIND_ORDER)},
            input_dim=2,
        )
        pool = ModelPool(generic=generic, specialized={"G1": special})
        [outcome] = vote(pool, np.zeros((1, 2)), ["G1"])
        expected_pred, expected_rule = _reference_vote(votes, weights)
        assert outcome.prediction == expected_pred, f"pattern {pattern:08b}"
        assert outcome.rule_used == expected_rule, f"pattern {pattern:08b}"
        assert len(outcome.tally) == 8

        # generic-only route on the same generic half
        [outcome4] = vote(pool, np.zeros((1, 2)), [None])
        pred4, _ = _reference_vote(votes[:4], weights[:4])
        assert outcome4.prediction == pred4
        assert outcome4.rule_used == "generic_only"
        assert len(outcome4.tally) == 4
    announce(9, "voting logic, 256 patterns vs reference")
